#ifndef CROWDRTSE_OBS_STAGE_PROFILER_H_
#define CROWDRTSE_OBS_STAGE_PROFILER_H_

#include <array>
#include <cstdint>

#include "util/metrics.h"

namespace crowdrtse::obs {

/// The serve-pipeline stages the profiler attributes time to, in pipeline
/// order.
enum class Stage : int {
  kCoveredRoads = 0,   // worker-registry scan for the OCS candidate roads
  kOcsSelect = 1,      // OCS marginal-gain road selection
  kCrowdLockWait = 2,  // wait for the engine's crowd-simulator mutex
  kCrowdDispatch = 3,  // crowd probe dispatch (incl. fault-tolerant retries)
  kGammaCompute = 4,   // Gamma_R correlation-table compute on a cache miss
  kGspSweep = 5,       // GSP coordinate-sweep propagation
  kMerge = 6,          // cross-shard response merge in the router
};
inline constexpr int kNumStages = 7;

/// Stable dotted stage name ("ocs.select"), used as the `stage` label on
/// the exported histograms.
const char* StageName(Stage stage);

/// Thread-CPU time (CLOCK_THREAD_CPUTIME_ID) in nanoseconds; 0 on
/// platforms without a per-thread CPU clock (CPU attribution then reads 0,
/// wall attribution still works).
int64_t ThreadCpuNanos();

/// Per-stage wall/CPU profiler, the serve path's only aggregate timer. One
/// instance per engine, writing labeled histograms into that engine's
/// MetricsRegistry:
///
///   crowdrtse_stage_wall_ms{stage="ocs.select"}  (+ _cpu_ms)
///
/// Every query records every stage it runs. A sample whose query
/// was traced carries the trace's id as its bucket exemplar, so every
/// exemplar in /metrics opens at `/trace/<id>`.
class StageProfiler {
 public:
  explicit StageProfiler(util::metrics::MetricsRegistry* registry);

  StageProfiler(const StageProfiler&) = delete;
  StageProfiler& operator=(const StageProfiler&) = delete;

  /// Records one stage sample (called by StageTimer). A nonzero
  /// `trace_id` becomes the exemplar on the wall histogram's bucket.
  void RecordStage(Stage stage, int64_t trace_id, double wall_ms,
                   double cpu_ms);

  /// Wall-time distribution of every stage, indexed by Stage.
  std::array<util::metrics::LatencySnapshot, kNumStages> WallSnapshots()
      const;

 private:
  util::metrics::LatencyHistogram* wall_[kNumStages];
  util::metrics::LatencyHistogram* cpu_[kNumStages];
};

/// The profiler the calling thread's current query records into (set by
/// ScopedProfile); nullptr outside any serve.
StageProfiler* ActiveProfiler();
/// Trace id of the active profile scope: the id of the query's collected
/// trace, 0 when the query is untraced or no scope is active.
int64_t ActiveProfileTraceId();

/// Installs a per-query profiling scope on the calling thread — the stage
/// timers below find it through TLS, so deep pipeline layers (gamma cache,
/// GSP) need no profiler plumbing. `trace_id` is the id of the query's
/// collected trace, 0 when it has none. The sharded router installs its
/// scope around sub-serves so all stages of a cross-shard query record
/// into the router's profiler; QueryEngine only installs its own when no
/// ambient scope exists.
class ScopedProfile {
 public:
  ScopedProfile(StageProfiler* profiler, int64_t trace_id);
  ~ScopedProfile();

  ScopedProfile(const ScopedProfile&) = delete;
  ScopedProfile& operator=(const ScopedProfile&) = delete;

 private:
  StageProfiler* previous_profiler_;
  int64_t previous_trace_;
};

/// RAII wall+CPU stage timer. Records into the thread's active profiler;
/// a no-op when no ScopedProfile is active. Stop() records early.
class StageTimer {
 public:
  explicit StageTimer(Stage stage);
  ~StageTimer() { Stop(); }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  void Stop();

 private:
  StageProfiler* profiler_;
  int64_t trace_id_ = 0;
  Stage stage_;
  int64_t wall_start_ns_ = 0;
  int64_t cpu_start_ns_ = 0;
};

}  // namespace crowdrtse::obs

#endif  // CROWDRTSE_OBS_STAGE_PROFILER_H_
