// REVERE benchmark driver.
//
//   revere_perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--tiny] [--corrupt]
//
// Prints a detail line (machine facts, sample counts, percentiles)
// and then, last, one JSON result line. Exits 1 when an answer check
// failed, 2 on bad arguments.

#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "perfbench/src/workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: revere_perfbench --workload "
               "<fig2_serve|union_165k|reads_under_writes|route_churn_1000> "
               "--seed <n> --seconds <s> --trace <0|1> [--tiny] [--corrupt]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::Report;
  using perfbench::RunConfig;
  const std::map<std::string, Report (*)(const RunConfig&)> workloads = {
      {"fig2_serve", perfbench::RunFig2Serve},
      {"union_165k", perfbench::RunUnion165k},
      {"reads_under_writes", perfbench::RunReadsUnderWrites},
      {"route_churn_1000", perfbench::RunRouteChurn},
  };

  RunConfig config;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--tiny") {
      config.tiny = true;
      continue;
    }
    if (arg == "--corrupt") {
      config.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0) || config.seconds > 3600) {
        return Usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  auto it = workloads.find(workload);
  if (it == workloads.end()) return Usage("unknown or missing --workload");

  // 1 ns timer slack: sleeps that pace writers wake on time instead of
  // up to 50 us late. Threads inherit it.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Report report = it->second(config);
  report.Print(config, workload);
  return report.correct() ? 0 : 1;
}
