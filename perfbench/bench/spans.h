#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// In-memory span recorder for the traced run. Spans are recorded only in
// the benchmark's own code, around its calls into each layer's public
// functions; nothing inside the serving program is instrumented. Each
// thread appends to its own buffer (no lock on the hot path), and the
// spans are merged and written out once the run ends.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
  struct Live {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    int64_t query;
  };
  struct Buffer {
    std::vector<Live> spans;
    std::vector<int> open;
  };

 public:
  SpanRecorder() : id_(next_id_.fetch_add(1)) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Records [construction, destruction) as a child of the innermost span
  /// open on this thread. A null recorder makes the scope a no-op, which is
  /// how the untraced passes run the same code.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, int64_t query)
        : buffer_(recorder ? &recorder->Local() : nullptr) {
      if (buffer_ == nullptr) return;
      index_ = static_cast<int>(buffer_->spans.size());
      const int parent = buffer_->open.empty() ? -1 : buffer_->open.back();
      buffer_->spans.push_back({name, NowNanos(), 0, parent, query});
      buffer_->open.push_back(index_);
    }
    ~Scope() {
      if (buffer_ == nullptr) return;
      buffer_->spans[static_cast<size_t>(index_)].end_ns = NowNanos();
      buffer_->open.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Buffer* buffer_;
    int index_ = -1;
  };

  /// Records an already finished root span on this thread (for intervals
  /// that begin on one thread and end on another, timed by the caller).
  void Add(const char* name, int64_t start_ns, int64_t end_ns,
           int64_t query) {
    Local().spans.push_back({name, start_ns, end_ns, -1, query});
  }

  /// Every span recorded so far, parents re-indexed into the merged list.
  /// Call only once the recording threads have finished.
  std::vector<SpanRecord> Collect() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SpanRecord> merged;
    for (const auto& buffer : buffers_) {
      const int offset = static_cast<int>(merged.size());
      for (const Live& s : buffer->spans) {
        merged.push_back({s.name, s.start_ns, s.end_ns,
                          s.parent < 0 ? -1 : s.parent + offset, s.query});
      }
    }
    return merged;
  }

 private:
  /// This thread's buffer, cached by recorder id (never reused, so a new
  /// recorder at a dead one's address cannot inherit its buffer).
  Buffer& Local() {
    thread_local uint64_t cached_id = 0;
    thread_local Buffer* cached = nullptr;
    if (cached_id != id_) {
      auto buffer = std::make_unique<Buffer>();
      buffer->spans.reserve(4096);
      cached = buffer.get();
      cached_id = id_;
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::move(buffer));
    }
    return *cached;
  }

  inline static std::atomic<uint64_t> next_id_{1};
  const uint64_t id_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Per-name totals of a span list: count, summed duration and summed self
/// time, in nanoseconds.
struct SpanRollup {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  double mean_self_ms() const {
    return count > 0 ? static_cast<double>(self_ns) / 1e6 /
                           static_cast<double>(count)
                     : 0.0;
  }
  double mean_total_ms() const {
    return count > 0 ? static_cast<double>(total_ns) / 1e6 /
                           static_cast<double>(count)
                     : 0.0;
  }
};

inline std::map<std::string, SpanRollup> RollUp(
    const std::vector<SpanRecord>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, SpanRollup> rollup;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanRollup& r = rollup[spans[i].name];
    ++r.count;
    r.total_ns += spans[i].end_ns - spans[i].start_ns;
    r.self_ns += self[i];
  }
  return rollup;
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
