// Self-tests of the benchmark harness: tail-percentile choice, span self
// time, open-loop latency accounting, and the naming rule for everything
// the benchmark emits. Exits non-zero on the first failed check.
//
//   ctest --test-dir <build dir>      or      python3 perfbench/run.py --selftest

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using perfbench::Span;

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so the function must sort
}

void TestTailPercentile() {
  // 1000 samples: the p99 is rank 990 and keeps exactly 10 beyond it.
  perfbench::TailPercentile t = perfbench::ChooseTailPercentile(Ramp(1000), 99);
  CHECK(t.percentile == 99.0);
  CHECK(t.value == 990.0);
  CHECK(t.beyond == 10);
  // 500 samples: a p99 would rest on 5; it drops to the p98 (rank 490).
  t = perfbench::ChooseTailPercentile(Ramp(500), 99);
  CHECK(t.percentile == 98.0);
  CHECK(t.value == 490.0);
  CHECK(t.beyond == 10);
  // 2000 samples: the p99 stands and keeps 20 beyond it.
  t = perfbench::ChooseTailPercentile(Ramp(2000), 99);
  CHECK(t.percentile == 99.0);
  CHECK(t.beyond == 20);
  // Ten samples or fewer: no rank qualifies, flagged by percentile 0.
  t = perfbench::ChooseTailPercentile(Ramp(10), 99);
  CHECK(t.percentile == 0.0);
  CHECK(t.value == 10.0);
  CHECK(perfbench::ChooseTailPercentile({}, 99).samples == 0);
  // Medians and quartiles as Python's statistics module interpolates.
  CHECK(perfbench::Median({3, 1, 2}) == 2.0);
  CHECK(perfbench::Median({4, 1, 2, 3}) == 2.5);
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end,
              bool reexecuted = false) {
  Span s;
  s.name = "s" + std::to_string(id);
  s.id = id;
  s.parent = parent;
  s.request = 1;
  s.start_ns = start;
  s.end_ns = end;
  s.reexecuted = reexecuted;
  return s;
}

void TestSelfTime() {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100),
      // Overlapping siblings (a parallel fan-out) cover [10, 50) once.
      MakeSpan(2, 1, 10, 30),
      MakeSpan(3, 1, 20, 50),
      // A sibling after a gap, and its nested child.
      MakeSpan(4, 1, 60, 70),
      MakeSpan(5, 4, 62, 66),
      // A child running past its parent is clipped to the parent.
      MakeSpan(6, 1, 95, 120),
      // Re-executed after the parent: never nested.
      MakeSpan(7, 1, 200, 300, true),
  };
  const std::vector<double> self = perfbench::SelfTimesMs(spans);
  const double ns = 1e-6;
  CHECK(std::abs(self[0] - (100 - 40 - 10 - 5) * ns) < 1e-12);
  CHECK(std::abs(self[1] - 20 * ns) < 1e-12);
  CHECK(std::abs(self[2] - 30 * ns) < 1e-12);
  CHECK(std::abs(self[3] - 6 * ns) < 1e-12);  // minus its own child only
  CHECK(std::abs(self[4] - 4 * ns) < 1e-12);
  CHECK(std::abs(self[6] - 100 * ns) < 1e-12);
}

void TestOpenLoop() {
  // The schedule has exactly rate * seconds sorted arrivals inside the
  // window and depends only on the seed.
  const std::vector<double> due = perfbench::PoissonSchedule(200, 2.5, 9);
  CHECK(due.size() == 500);
  for (size_t i = 1; i < due.size(); ++i) CHECK(due[i - 1] <= due[i]);
  CHECK(due.front() > 0 && due.back() < 2.5);
  CHECK(due == perfbench::PoissonSchedule(200, 2.5, 9));
  CHECK(due != perfbench::PoissonSchedule(200, 2.5, 10));

  // One worker stalls 60 ms on request 0 while requests keep falling due
  // every 5 ms: each later request is charged from its due time, so it
  // carries the wait the stall imposed, not just its own (instant) work.
  std::vector<double> every5ms;
  for (size_t i = 0; i < 12; ++i) every5ms.push_back(0.010 + 0.005 * i);
  const perfbench::OpenLoopResult r =
      perfbench::RunOpenLoop(every5ms, 1, [](size_t i) {
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(60));
      });
  CHECK(r.latency_ms[0] >= 60.0);
  for (size_t i = 1; i < 12; ++i) {
    const double owed = 60.0 - 5.0 * static_cast<double>(i);
    if (owed > 5) CHECK(r.latency_ms[i] >= owed - 1.0);
  }
  // The dispatcher itself was never stalled.
  for (double lag : r.lag_ms) CHECK(lag < 20.0);
  CHECK(r.wall_s >= 0.069);
}

void TestNames() {
  CHECK(perfbench::ValidName("discovery.router.cache_hit_frac"));
  CHECK(perfbench::ValidName("query_p99_ms"));
  CHECK(!perfbench::ValidName(""));
  CHECK(!perfbench::ValidName("has space"));
  CHECK(!perfbench::ValidName("quote\""));
  CHECK(!perfbench::ValidName(std::string(65, 'a')));

  for (const auto& list :
       {perfbench::EndToEndMetrics(), perfbench::PerLayerMetrics()}) {
    for (const auto& [name, unit] : list) CHECK(perfbench::ValidName(name));
  }
  // Run every workload briefly, traced and untraced, and check each
  // metric, record key and span name it emits.
  const std::string dir = "selftest-work";
  for (const std::string& workload : perfbench::WorkloadNames()) {
    for (bool trace : {false, true}) {
      perfbench::RunOptions options;
      options.workload = workload;
      options.seed = 5;
      options.seconds = 1;
      options.trace = trace;
      options.work_dir = dir + "/shards";
      options.trace_path = dir + "/spans.jsonl";
      std::filesystem::create_directories(dir);
      const perfbench::RunReport report = perfbench::RunWorkload(options);
      CHECK(report.correct);
      CHECK(report.metrics.AllNamesValid());
      for (const auto& entry : report.record) {
        CHECK(perfbench::ValidName(entry.first));
      }
      if (!trace) continue;
      std::ifstream spans(options.trace_path);
      std::string line;
      size_t lines = 0;
      while (std::getline(spans, line)) {
        const size_t at = line.find("\"name\":\"") + 8;
        CHECK(perfbench::ValidName(line.substr(at, line.find('"', at) - at)));
        ++lines;
      }
      CHECK(lines > 0);
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace

int main() {
  TestTailPercentile();
  TestSelfTime();
  TestOpenLoop();
  TestNames();
  if (g_failures == 0) std::printf("perfbench self-tests passed\n");
  return g_failures == 0 ? 0 : 1;
}
