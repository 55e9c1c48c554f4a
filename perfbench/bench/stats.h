#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The benchmark's own arithmetic: percentiles with their sample support,
// span self time, open-loop latency from the due time, and shares with an
// explicit base. Header-only and free of the serving code, so the tests in
// tests/stats_test.cc pin every rule on fixed inputs.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A percentile together with the evidence behind it. `beyond` is how many
/// samples lie strictly past the reported rank; a percentile is reported as
/// supported only when at least kMinBeyond samples lie beyond it.
struct Percentile {
  double value = 0.0;
  int64_t samples = 0;
  int64_t beyond = 0;
  bool supported = false;
};

inline constexpr int64_t kMinBeyond = 10;

/// Nearest-rank percentile (q in (0, 1]): the smallest sample such that at
/// least q * n samples are <= it. Empty input yields value 0, unsupported.
inline Percentile PercentileOf(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = static_cast<int64_t>(samples.size());
  if (samples.empty()) return p;
  const double n = static_cast<double>(samples.size());
  // The epsilon keeps q * n exact for q values like 0.99 whose binary form
  // lies a hair above the decimal (0.99 * 1000 would otherwise round to
  // rank 991 instead of 990).
  int64_t rank = static_cast<int64_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, p.samples);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  p.value = samples[static_cast<size_t>(rank - 1)];
  p.beyond = p.samples - rank;
  p.supported = p.beyond >= kMinBeyond;
  return p;
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// A ratio that names its base. Share(0, 0) is 0: an empty base means
/// nothing happened, not that everything failed.
struct Share {
  int64_t count = 0;
  int64_t base = 0;
  double value() const {
    return base > 0 ? static_cast<double>(count) / static_cast<double>(base)
                    : 0.0;
  }
};

/// One open-loop request's clock readings (any common unit; the
/// benchmark uses ms since the schedule started).
struct OpenLoopTiming {
  double due = 0.0;       // when the schedule says it is sent
  double sent = 0.0;      // when the generator actually sent it
  double answered = 0.0;  // when its response arrived

  /// Latency is charged from the due time, not from the moment a lagging
  /// generator got round to sending: a stall in the generator or the
  /// server counts against every request it delayed.
  double latency() const { return answered - due; }
  /// How late the generator ran for this request.
  double send_lag() const { return sent - due; }
};

/// One recorded span: [start, end) in nanoseconds, parent index into the
/// same span list (-1 for a root), and the query it belongs to.
struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t query = 0;
};

/// Length of the union of [start, end) intervals, each clipped to
/// [lo, hi). Overlapping children (fan-out, parallel work) are counted once.
inline int64_t CoveredNanos(std::vector<std::pair<int64_t, int64_t>> spans,
                            int64_t lo, int64_t hi) {
  for (auto& s : spans) {
    s.first = std::max(s.first, lo);
    s.second = std::min(s.second, hi);
  }
  std::sort(spans.begin(), spans.end());
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = 0;
  bool open = false;
  for (const auto& [start, end] : spans) {
    if (end <= start) continue;
    if (!open || start > run_end) {
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    } else {
      run_end = std::max(run_end, end);
    }
  }
  if (open) covered += run_end - run_start;
  return covered;
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Returned in span order, in nanoseconds.
inline std::vector<int64_t> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t duration = spans[i].end_ns - spans[i].start_ns;
    self[i] = duration - CoveredNanos(std::move(children[i]),
                                      spans[i].start_ns, spans[i].end_ns);
  }
  return self;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
