// microspec benchmark: runs one named workload against the engine's public
// API, checks its outputs, and prints one JSON line with the operations
// attempted and failed and the run's metrics (end-to-end metrics when
// untraced, per-layer metrics when traced). See README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --data-dir <dir> [--trace-out <file>] [--self-test]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

using perfbench::Args;

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "tpch_parallel|tpcc_memory|sql_wire --seed N "
               "--seconds S --trace 0|1 --data-dir DIR [--trace-out FILE] "
               "[--self-test]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") {
      args->self_test = true;
    } else if (a == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args->seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--data-dir" && has_value) {
      args->data_dir = argv[++i];
    } else if (a == "--trace-out" && has_value) {
      args->trace_out = argv[++i];
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->data_dir.empty() &&
         args->seconds > 0;
}

/// JSON number with all its digits (never rounded to a constant).
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  perfbench::Checker checker(args.self_test);
  perfbench::RunResult result;
  if (args.workload == "tpch_parallel") {
    result = perfbench::RunTpchParallel(args, &checker);
  } else if (args.workload == "tpcc_memory") {
    result = perfbench::RunTpccMemory(args, &checker);
  } else if (args.workload == "sql_wire") {
    result = perfbench::RunSqlWire(args, &checker);
  } else {
    Usage();
    return 2;
  }
  perfbench::RemoveDir(args.data_dir);

  // Each check is one operation; a check that does not hold is a failed one.
  result.CountOps(checker.checks(), checker.failures());
  bool correct = checker.failures() == 0;
  uint64_t failed = result.failed();
  if (args.self_test) {
    checker.PrintSelfTestReport();
    // The self-test run reports the altered checks as its failures.
    correct = false;
    failed = checker.caught();
  }
  for (const perfbench::Metric& m : result.metrics()) {
    std::printf("%-36s %16s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted());
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : result.metrics()) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + Num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  if (args.self_test) return checker.caught() == checker.checks() ? 0 : 1;
  return 0;
}
