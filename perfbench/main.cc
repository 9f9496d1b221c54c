// censysim benchmark program.
//
//   censysim_bench --workload ingest|serve|mixed --seed N --seconds S
//                  --trace 0|1 [--tiny] [--corrupt] [--work-dir D]
//
// Prints a human-readable report, then, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 0 only when
// every correctness check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: censysim_bench --workload ingest|serve|mixed "
               "--seed N --seconds S --trace 0|1 [--tiny] "
               "[--corrupt] [--work-dir DIR]\n");
}

bool ParseArgs(int argc, char** argv, perfbench::Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (flag == "--corrupt") {
      args.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0;
}

void PrintJson(const perfbench::Result& result, bool trace) {
  const perfbench::MetricMap& metrics =
      trace ? result.per_layer : result.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(),
                std::isfinite(metric.value) ? metric.value : 0.0,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::NowUs();  // report times count from here
  perfbench::Args args;
  if (!ParseArgs(argc, argv, args)) {
    Usage();
    return 2;
  }
  std::printf("censysim_bench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.tiny ? " (tiny scale)" : "");
  perfbench::Result result;
  try {
    result = perfbench::RunWorkload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "censysim_bench: %s\n", e.what());
    return 1;
  }
  const perfbench::MetricMap& shown =
      args.trace ? result.per_layer : result.end_to_end;
  for (const auto& [name, metric] : shown) {
    if (!std::isfinite(metric.value)) {
      result.Fail("metric " + name + " is not a finite number");
    }
  }
  std::printf("\n%s metrics:\n", args.trace ? "per-layer" : "end-to-end");
  for (const auto& [name, metric] : shown) {
    std::printf("  %-34s %16.4f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& why : result.failures) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  std::fflush(stdout);
  PrintJson(result, args.trace);
  return result.correct ? 0 : 1;
}
