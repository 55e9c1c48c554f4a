#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Pieces every workload shares: the run arguments, one request's outcome as
// the client saw it, the closed-loop client pool, the layer walk, and the
// result printer.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/crowd_rtse.h"
#include "crowd/cost_model.h"
#include "crowd/crowd_simulator.h"
#include "gsp/propagation.h"
#include "server/budget_ledger.h"
#include "server/engine.h"
#include "server/query_engine.h"
#include "server/worker_registry.h"
#include "spans.h"
#include "stats.h"
#include "traffic/history_store.h"

namespace perfbench {

namespace cr = crowdrtse;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  // where the traced run writes its spans
};

/// Client threads and connections the load generator may use in total.
int ClientThreads();

/// Unmeasured load before every measured window, so the window starts
/// with warm caches, allocator arenas and CPU clocks.
inline constexpr double kWarmupSeconds = 2.0;

/// Runs `setup` in `children` forked processes, one after another, and
/// returns each one's set-up time in seconds (fewer entries when a child
/// failed). Call it before this process starts any thread. The parent then
/// builds its own stack once, so its memory peak holds one set-up only.
std::vector<double> TimeSetupsInChildren(int children,
                                         const std::function<void()>& setup);

/// One request as the client saw it.
struct Outcome {
  int64_t index = -1;  // position in the generated request list
  int phase = 0;
  enum class Kind { kMissing, kServed, kRejected, kFailed };
  Kind kind = Kind::kMissing;
  /// Front-end admission rung ("none" for in-process serving).
  std::string shed = "none";
  int64_t query_id = 0;
  std::vector<double> speeds;
  std::vector<cr::graph::RoadId> probed;
  int paid = 0;
  /// AbsPctErrorSum of the answer, taken when it arrived (the open loop
  /// keeps speeds and probed roads only for the requests it may check).
  double ape_sum = 0.0;
  double latency_ms = 0.0;
  /// Closed loop: gap between the client's previous answer and this send.
  /// Open loop: send time minus due time.
  double send_lag_ms = 0.0;
};

/// What one load pass produced.
struct LoadPass {
  std::vector<Outcome> outcomes;
  double wall_s = 0.0;
};

/// Runs `clients` closed-loop clients over `requests` (taken in index
/// order, wrapping round) against `engine`, tagging each outcome with
/// `phase` and scoring its answer against `world`. Stops at `count`
/// requests when count > 0, otherwise when `seconds` have passed. With a
/// recorder, each Serve is wrapped in a "serve" span.
LoadPass ClosedLoop(cr::server::Engine& engine,
                    const cr::traffic::DayMatrix& world,
                    const std::vector<cr::server::QueryRequest>& requests,
                    int clients, double seconds, int64_t count, int phase,
                    SpanRecorder* recorder);

/// kWarmupSeconds of unmeasured closed-loop load; its Serve calls and
/// payments are added to `serves` and `paid` for the accounting checks.
void WarmUpClosedLoop(cr::server::Engine& engine,
                      const cr::traffic::DayMatrix& world,
                      const std::vector<cr::server::QueryRequest>& requests,
                      int64_t* serves, int64_t* paid);

/// The components one QueryEngine serves with, borrowed, plus a propagator
/// built from the system's own GSP configuration for the walk.
struct WalkParts {
  cr::core::CrowdRtse* system = nullptr;
  const cr::server::WorkerRegistry* registry = nullptr;
  cr::server::BudgetLedger* ledger = nullptr;
  const cr::crowd::CostModel* costs = nullptr;
  cr::crowd::CrowdSimulator* crowd_sim = nullptr;
  const cr::traffic::DayMatrix* world = nullptr;
  const cr::gsp::SpeedPropagator* propagator = nullptr;
};

struct WalkAnswer {
  bool ok = false;
  std::string error;
  std::vector<double> speeds;  // aligned with request.queried
  std::vector<cr::graph::RoadId> probed;
  int paid = 0;
  int worker_roads = 0;
  int selected = 0;
  int assignments = 0;
  int underfilled = 0;
  int sweeps = 0;
};

/// Serves `request` by calling, single-client and in QueryEngine::Serve's
/// order, the same public functions on the same components: Reserve,
/// CoveredRoads, CorrelationsFor, SelectRoads, AssignTasks,
/// ProbeWithAssignments, Propagate, Settle. Each call is one span under a
/// "walk" root. `walk_id` must not collide with the engine's query ids.
WalkAnswer Walk(const WalkParts& parts,
                const cr::server::QueryRequest& request, int64_t walk_id,
                SpanRecorder* recorder);

/// Names of the walk's layer spans, in call order.
const std::vector<std::string>& WalkLayerSpans();

/// Bitwise comparison of an answer against what the engine returned.
bool SameAnswer(const Outcome& served, const std::vector<double>& speeds,
                const std::vector<cr::graph::RoadId>& probed, int paid);

/// Mean absolute percentage error of `speeds` for `request` against the
/// truth day, as a sum over roads (caller divides by the road count).
double AbsPctErrorSum(const cr::server::QueryRequest& request,
                      const std::vector<double>& speeds,
                      const cr::traffic::DayMatrix& truth);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Collects metrics and failed checks, then prints the info line and the
/// final result line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, const std::string& json_value);
  void Info(const std::string& key, double value);
  /// Records a correctness check; a false `ok` fails the run.
  void Check(bool ok, const std::string& what);
  bool correct() const { return failures_.empty(); }
  /// The value recorded under `name`, or NaN when there is none.
  double metric(const std::string& name) const;

  int64_t attempted = 0;
  int64_t failed = 0;

  /// Prints both lines; returns the process exit code.
  int Print(const Args& args) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
};

/// One QueryEngine and everything it borrows, owned together so the
/// borrowed addresses stay fixed (never move a stack once built).
struct EngineStack {
  cr::graph::Graph graph;
  cr::traffic::HistoryStore history;
  cr::traffic::DayMatrix truth;
  cr::crowd::CostModel costs;
  std::unique_ptr<cr::core::CrowdRtse> system;
  std::unique_ptr<cr::server::WorkerRegistry> registry;
  std::unique_ptr<cr::server::BudgetLedger> ledger;
  std::unique_ptr<cr::crowd::CrowdSimulator> crowd_sim;
  std::unique_ptr<cr::server::QueryEngine> engine;
  /// Walk tooling, built after the timed set-up.
  std::unique_ptr<cr::gsp::SpeedPropagator> walk_propagator;
  int64_t next_walk_id = -1;
  /// Client-side accounting: Serve calls made and the paid units they
  /// returned (walk payments included), checked against the engine.
  int64_t serves_attempted = 0;
  int64_t paid_returned = 0;

  WalkParts Parts();
};

/// Crowd options of the noiseless crowd every workload uses: bias 1,
/// noise 0, no outliers, so an answer depends only on (seed, request).
cr::crowd::CrowdSimOptions NoiselessCrowd();

/// Builds the engine over the stack's graph, history and registry, then
/// computes Gamma_R for `warm_slots`.
void FinishStack(EngineStack& stack, const cr::core::CrowdRtseConfig& config,
                 int per_query_cap, const std::vector<int>& warm_slots);

/// served + rejected + failed == attempted, no reservation outstanding,
/// ledger spend == sum of paid.
void CheckAccounting(Report& report, const cr::server::EngineStats& stats,
                     int64_t attempted, const cr::server::BudgetLedger& ledger,
                     int64_t paid_returned, const std::string& label);

/// Re-serves each sampled request through the walk and requires its answer
/// to equal, bitwise, what the engine returned under load. With a recorder
/// (the traced run) each request is first served once more, single-client,
/// inside an "engine.serve" span. Returns the walk answers.
std::vector<WalkAnswer> WalkSample(
    Report& report, EngineStack& stack,
    const std::vector<const Outcome*>& sample,
    const std::function<cr::server::QueryRequest(const Outcome&)>& request_of,
    SpanRecorder* recorder, const std::string& label);

/// Up to `limit` outcomes that `keep` accepts (by default: served ones),
/// evenly spaced over the run.
std::vector<const Outcome*> FixedSample(
    const std::vector<Outcome>& outcomes, size_t limit,
    const std::function<bool(const Outcome&)>& keep = [](const Outcome& o) {
      return o.kind == Outcome::Kind::kServed;
    });

/// Failed plus missing responses.
int64_t CountFailed(const std::vector<Outcome>& outcomes);

/// The end-to-end metrics of one measured window.
struct Window {
  const std::vector<Outcome>* outcomes = nullptr;
  std::function<const cr::server::QueryRequest&(const Outcome&)> request_of;
  double wall_s = 0.0;
  int64_t ledger_spend = 0;
  double slo_ms = 0.0;
  double setup_s = 0.0;
};
void AddEndToEnd(Report& report, const Window& window);

/// Everything the per-layer table needs besides the walk spans. Fields
/// whose layer does not run on a workload stay 0.
struct LayerInputs {
  double registry_sync_ms = 0.0;
  double gamma_compute_ms = 0.0;
  double gamma_hit_ratio = 0.0;
  double gamma_resident_mb = 0.0;
  /// Mean Serve latency at ClientThreads() clients, and the span holding
  /// the same Serve at one client (engine.wait_ms is their difference).
  double serve_4clients_ms = 0.0;
  std::string serve_1client_span = "engine.serve";
  double partition_cross_shard_share = 0.0;
  double partition_route_ms = 0.0;
  double partition_single_owner_p50_ms = 0.0;
  double partition_cross_shard_p50_ms = 0.0;
  double partition_imbalance = 0.0;
  double frontend_overhead_ms = 0.0;
  double frontend_coalesce_join_share = 0.0;
  double frontend_admission_peak_depth = 0.0;
  double driver_send_lag_p99_ms = 0.0;
  double trace_overhead_pct = 0.0;
  double input_repeat_share = 0.0;
  double input_cold_slots = 0.0;
  double input_warm_slots = 0.0;
};
/// Emits every per-layer metric. `serve_span` names the single-client
/// serve span the walk is reconciled against.
void AddPerLayer(Report& report, const std::vector<SpanRecord>& spans,
                 const std::vector<WalkAnswer>& walks,
                 const std::string& serve_span, const LayerInputs& in);

/// Starts a front-end over `engine` just for MeasureFrontendOverhead (the
/// in-process workloads), and fills the frontend.* layer inputs from it.
void ProbeFrontend(Report& report, cr::server::Engine& engine,
                   const cr::traffic::DayMatrix& world,
                   const std::vector<cr::server::QueryRequest>& requests,
                   SpanRecorder* recorder, int64_t* serves, int64_t* paid,
                   LayerInputs* in);

/// Gamma_R cache figures of a pass bracketed by two cache snapshots.
void FillGammaStats(const cr::rtf::CorrelationCache::StatsSnapshot& before,
                    const cr::rtf::CorrelationCache::StatsSnapshot& after,
                    LayerInputs* in);

/// Mean time of WorkerRegistry::ReplaceWorkers with its own snapshot — the
/// registry's sync operation on the unsharded workloads, in ms.
double TimeRegistryResync(cr::server::WorkerRegistry& registry);

/// Mean |R^w| (covered roads offered to OCS) over the walked requests.
double MeanWorkerRoads(const std::vector<WalkAnswer>& walks);

/// Share of outcomes whose road set (and slot) already appeared earlier in
/// the run.
double RepeatShare(
    const std::vector<Outcome>& outcomes,
    const std::function<const cr::server::QueryRequest&(const Outcome&)>&
        request_of);

/// The front-end wire format: one binary frame carrying the query JSON.
std::string QueryFrame(int64_t id, const cr::server::QueryRequest& request);
/// Reads one frame payload from a blocking socket; false on EOF/error.
bool ReadFramePayload(int fd, std::string* payload);
/// Parses a front-end response into `o` (kind, shed, query id, answer);
/// returns the client id it carries, or -1 when unparseable.
int64_t ParseFrontendResponse(const std::string& payload, Outcome* o);

/// Sequential socket round trips through a started front-end, each
/// followed by a direct Serve of the same request. Records
/// "frontend.roundtrip" and "engine.serve.direct" spans and checks the two
/// answers are bitwise equal. Returns mean round trip minus mean direct.
double MeasureFrontendOverhead(
    Report& report, uint16_t port, cr::server::Engine& engine,
    const cr::traffic::DayMatrix& world,
    const std::vector<cr::server::QueryRequest>& requests,
    SpanRecorder* recorder, int64_t* serves, int64_t* paid);

std::string JsonNumber(double value);

/// Writes the recorder's spans as JSON lines to `path` (best effort).
void WriteSpans(const std::vector<SpanRecord>& spans,
                const std::string& path);

int RunMetroK1(const Args& args);
int RunMetroK4Rollover(const Args& args);
int RunCity607Open(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
