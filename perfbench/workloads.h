// The benchmark's three workloads. Each one builds a deployment from a
// seed through joinmi's public API only, measures it for a fixed time,
// checks sampled answers against an unsharded in-process reference, and
// returns every metric by name (see README.md for the list).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// false: untraced run, end-to-end metrics. true: per-layer metrics
  /// from an untraced half followed by a traced half.
  bool trace = false;
  /// Scratch directory for shard files; created and removed by the run.
  std::string work_dir;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_path;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;
  /// Workload parameters and sample counts, printed as the run record.
  std::vector<std::pair<std::string, std::string>> record;
};

const std::vector<std::string>& WorkloadNames();

/// (name, unit) of every end-to-end metric, in output order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

/// (name, unit) of every per-layer metric, in output order. A traced run
/// prints exactly these; layers a workload does not exercise read 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Runs one workload; throws std::runtime_error when set-up fails.
RunReport RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
