// perfbench: the repository's benchmark binary. One process, one workload,
// one measured window:
//
//   perfbench --workload <metro_k1|metro_k4_rollover|city607_open>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// passes and prints the per-layer metrics. Either way the last stdout line
// is one JSON object {"correct", "attempted", "failed", "metrics"}; the
// line before it ("info {...}") records the run's inputs and raw counts.
// The exit code is non-zero when a correctness check failed.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--spans") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n");
    return 2;
  }
  if (args.workload == "metro_k1") return perfbench::RunMetroK1(args);
  if (args.workload == "metro_k4_rollover") {
    return perfbench::RunMetroK4Rollover(args);
  }
  if (args.workload == "city607_open") return perfbench::RunCity607Open(args);
  std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
  return 2;
}
