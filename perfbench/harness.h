// Measurement primitives of the discovery-query benchmark: order
// statistics, span tracing with self time, the open-loop load generator
// and the result printer. Nothing here depends on joinmi, so the
// self-tests (selftest.cc) exercise these pieces in isolation.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double MsSince(Clock::time_point from) {
  return MsBetween(from, Clock::now());
}

// ------------------------------------------------------------ statistics

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// A tail percentile that keeps at least `min_beyond` samples above it.
struct TailPercentile {
  double percentile = 0.0;  ///< the percentile actually reported
  double value = 0.0;
  size_t beyond = 0;        ///< samples strictly above the reported rank
  size_t samples = 0;
};

/// Nearest-rank percentile `wanted` (e.g. 99), lowered when the sample is
/// too small for `min_beyond` samples to lie beyond it: a p99 over 300
/// samples rests on 3 values, so it is reported as the p96.7 it really is.
/// With `min_beyond` or fewer samples no rank qualifies; the maximum is
/// returned with percentile 0 so callers can flag the run.
inline TailPercentile ChooseTailPercentile(std::vector<double> values,
                                           double wanted,
                                           size_t min_beyond = 10) {
  TailPercentile tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n <= min_beyond) {
    tail.value = values.back();
    return tail;
  }
  size_t rank = static_cast<size_t>(
      std::ceil(wanted / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::max<size_t>(1, std::min(rank, n - min_beyond));
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  tail.value = values[rank - 1];
  tail.beyond = n - rank;
  return tail;
}

// --------------------------------------------------------------- naming

/// Every emitted metric and span name matches [A-Za-z0-9_.-]+ and is at
/// most 64 characters, so result parsers never need escaping.
inline bool ValidName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

// -------------------------------------------------------------- tracing

/// One timed call. `reexecuted` marks a span that timed a repeat of an
/// inner call on the same input after its parent finished (the harness
/// cannot reach inside the parent); such spans never count as nested.
/// A count rides along as a zero-length span whose `detail` is the count.
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool reexecuted = false;
  int64_t detail = 0;  ///< e.g. the shard a per-shard span timed

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Collects spans in memory from any number of threads.
class Tracer {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  void Record(Span span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  /// Records a count under `parent` as a zero-length span.
  void Count(const char* name, size_t value, uint64_t parent,
             uint64_t request) {
    Span span;
    span.name = name;
    span.id = NextId();
    span.parent = parent;
    span.request = request;
    span.start_ns = span.end_ns = NowNs();
    span.reexecuted = true;
    span.detail = static_cast<int64_t>(value);
    Record(std::move(span));
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

 private:
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Records one span from construction to destruction; a null tracer makes
/// it a no-op, which is how untraced runs skip tracing entirely.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
             uint64_t request, bool reexecuted = false)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    span_.name = name;
    span_.id = tracer_->NextId();
    span_.parent = parent;
    span_.request = request;
    span_.reexecuted = reexecuted;
    span_.start_ns = Tracer::NowNs();
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end_ns = Tracer::NowNs();
    tracer_->Record(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  void set_detail(int64_t detail) { span_.detail = detail; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Self time of every span, in milliseconds and in input order: its
/// duration minus the part of its interval covered by the union of its
/// nested (not re-executed) children. Overlapping siblings — a parallel
/// fan-out — are counted once.
inline std::vector<double> SelfTimesMs(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0 && !s.reexecuted) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> self;
  self.reserve(spans.size());
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : intervals) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    self.push_back(static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6);
  }
  return self;
}

// ------------------------------------------------------- open-loop load

/// Deterministic Poisson arrivals (seconds from the start) at `rate` per
/// second over `seconds`, conditioned on their count: exactly
/// round(rate * seconds) arrivals placed as the order statistics of
/// uniform points, drawn as normalized exponential gaps from a splitmix64
/// stream. Fixing the count keeps the offered load identical across
/// seeds; only the arrival pattern changes.
inline std::vector<double> PoissonSchedule(double rate, double seconds,
                                           uint64_t seed) {
  const size_t n = static_cast<size_t>(std::llround(rate * seconds));
  uint64_t state = seed;
  auto exponential = [&state] {
    state += 0x9E3779B97F4A7C15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    const double u = (static_cast<double>(z >> 11) + 0.5) / 9007199254740992.0;
    return -std::log(u);
  };
  std::vector<double> due(n);
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += exponential();
    due[i] = t;
  }
  const double total = t + exponential();  // the gap after the last one
  for (double& d : due) d *= seconds / total;
  return due;
}

struct OpenLoopResult {
  /// Per request: completion time minus the time it was due, so a stalled
  /// worker charges its delay to every request queued behind it.
  std::vector<double> latency_ms;
  /// Per request: how late the dispatcher handed it to the queue.
  std::vector<double> lag_ms;
  /// From the start until the last request completed.
  double wall_s = 0.0;
};

/// Dispatches request i at start + due[i] on the calling thread and runs
/// `fn(i)` on `workers` threads. Returns once every request finished.
template <typename Fn>
OpenLoopResult RunOpenLoop(const std::vector<double>& due_s, size_t workers,
                           Fn fn) {
  OpenLoopResult result;
  result.latency_ms.assign(due_s.size(), 0.0);
  result.lag_ms.assign(due_s.size(), 0.0);
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<size_t> queue;
  bool closed = false;
  const Clock::time_point start = Clock::now();
  auto due_at = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s[i]));
  };
  std::vector<std::thread> pool;
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      while (true) {
        size_t i = 0;
        {
          std::unique_lock<std::mutex> lock(mutex);
          ready.wait(lock, [&] { return closed || !queue.empty(); });
          if (queue.empty()) return;
          i = queue.front();
          queue.pop_front();
        }
        fn(i);
        result.latency_ms[i] = MsSince(due_at(i));
      }
    });
  }
  for (size_t i = 0; i < due_s.size(); ++i) {
    std::this_thread::sleep_until(due_at(i));
    result.lag_ms[i] = MsSince(due_at(i));
    {
      std::lock_guard<std::mutex> lock(mutex);
      queue.push_back(i);
    }
    ready.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    closed = true;
  }
  ready.notify_all();
  for (std::thread& t : pool) t.join();
  result.wall_s = MsSince(start) / 1e3;
  return result;
}

// --------------------------------------------------------------- output

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics in insertion order (the order a reader scans them in).
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& entry : entries_) {
      if (entry.first == name) {
        entry.second = Metric{value, unit};
        return;
      }
    }
    entries_.emplace_back(name, Metric{value, unit});
  }
  const std::vector<std::pair<std::string, Metric>>& entries() const {
    return entries_;
  }
  bool AllNamesValid() const {
    for (const auto& entry : entries_) {
      if (!ValidName(entry.first)) return false;
    }
    return true;
  }

 private:
  std::vector<std::pair<std::string, Metric>> entries_;
};

/// The benchmark's last stdout line. Values print with 17 significant
/// digits so repeated runs never collapse onto one rounded reading.
inline std::string ResultLine(bool correct, uint64_t attempted,
                              uint64_t failed, const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const auto& [name, metric] : metrics.entries()) {
    if (!first) out += ", ";
    first = false;
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(number, sizeof(number), "%.17g", v);
    out += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
