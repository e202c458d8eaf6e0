// perfbench: runs one discovery-query workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--trace-out <file>] [--source <id>]
//
// The last stdout line is the result object {"correct", "attempted",
// "failed", "metrics"}; the line before it is the run record (host,
// build, seed, workload parameters). Exit code 0 only when the run
// completed; set-up errors exit 1, bad arguments exit 2.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

int Usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> "
               "[--trace-out <file>] [--source <id>]\n",
               problem);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string source = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage("every flag takes a value");
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0) ||
          options.seconds > 600) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else if (flag == "--source") {
      source = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || options.work_dir.empty()) {
    return Usage("--workload and --work-dir are required");
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) return Usage(("unknown workload " + options.workload).c_str());

  perfbench::RunReport report;
  try {
    report = perfbench::RunWorkload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  if (!report.metrics.AllNamesValid()) {
    std::fprintf(stderr, "perfbench: a metric name is malformed\n");
    return 1;
  }

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string record = "{\"record\": {";
  record += "\"workload\": " + JsonString(options.workload);
  record += ", \"seed\": " + std::to_string(options.seed);
  record += ", \"seconds\": " + std::to_string(options.seconds);
  record += ", \"trace\": " + std::string(options.trace ? "1" : "0");
  record += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  record += ", \"build_type\": " + JsonString(build_type);
  record += ", \"release_build\": " +
            std::string(build_type == "Release" ? "true" : "false");
  record += ", \"compiler\": " + JsonString(PERFBENCH_COMPILER);
  record += ", \"source\": " + JsonString(source);
  for (const auto& [key, value] : report.record) {
    record += ", " + JsonString(key) + ": " + JsonString(value);
  }
  record += "}}";
  if (build_type != "Release") {
    std::fprintf(stderr, "perfbench: WARNING: %s build, figures are not "
                 "comparable to Release\n", build_type.c_str());
  }
  std::printf("%s\n%s\n", record.c_str(),
              perfbench::ResultLine(report.correct, report.attempted,
                                    report.failed, report.metrics)
                  .c_str());
  std::fflush(stdout);
  return 0;
}
