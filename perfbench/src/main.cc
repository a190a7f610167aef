// perfbench: one run of one workload.
//
//   perfbench --workload <web-refine|social-push|social-serving>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--oracle-cache <dir>] [--trace-out <file>]
//
// Prints diagnostics on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// Exits non-zero, printing no result, when the run could not be made.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/rng.h"
#include "graph/generators.h"
#include "workloads.h"

namespace perfbench {

void RunResult::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

rtk::Graph MakeWebGraph() {
  rtk::Rng rng(103);
  auto g = rtk::Rmat(13, 40000, &rng);
  if (!g.ok()) {
    std::fprintf(stderr, "Rmat: %s\n", g.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(g).value();
}

rtk::Graph MakeSocialGraph() {
  rtk::Rng rng(102);
  auto g = rtk::BarabasiAlbert(20000, 7, &rng);
  if (!g.ok()) {
    std::fprintf(stderr, "BarabasiAlbert: %s\n", g.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(g).value();
}

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"index.hub_select_s", "s"},
      {"index.build_s", "s"},
      {"index.bytes", "bytes"},
      {"serving.create_s", "s"},
      {"proximity.row_ms", "ms"},
      {"proximity.iterations", "count"},
      {"prune.scan_ms", "ms"},
      {"prune.candidates", "count"},
      {"prune.hits", "count"},
      {"prune.undecided", "count"},
      {"refine.run_ms", "ms"},
      {"refine.candidate_p50_ms", "ms"},
      {"refine.candidate_p90_ms", "ms"},
      {"refine.iterations", "count"},
      {"refine.exact_fallbacks", "count"},
      {"refine.accept_ratio", "ratio"},
      {"writeback.ms", "ms"},
      {"writeback.applied_ratio", "ratio"},
      {"push.row_ms", "ms"},
      {"push.pushes", "count"},
      {"push.uncertain", "count"},
      {"escalation.ms", "ms"},
      {"escalation.partial", "count"},
      {"escalation.full", "count"},
      {"settle.pushes", "count"},
      {"serving.submit_us", "us"},
      {"serving.inflight_max", "count"},
      {"serving.cache_hit_ratio", "ratio"},
      {"serving.batch_occupancy", "count"},
      {"serving.epochs", "count"},
      {"mutation.apply_ms", "ms"},
      {"mutation.affected_nodes", "count"},
      {"mutation.rebuilds", "count"},
      {"client.lag_max_ms", "ms"},
      {"check.ties", "count"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.process_start = perfbench::Clock::now();
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (flag == "--oracle-cache") {
      options.oracle_cache = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (trace < 0 || options.seconds <= 0.0 ||
      (options.workload != "web-refine" && options.workload != "social-push" &&
       options.workload != "social-serving")) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <web-refine|social-push|"
                 "social-serving> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  options.trace = trace == 1;

  perfbench::RunResult result;
  if (options.workload == "social-serving") {
    perfbench::RunServing(options, &result);
  } else {
    perfbench::RunSerial(options, &result);
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "no operation was attempted\n");
    return 1;
  }
  perfbench::Report out;
  if (options.trace) {
    for (const auto& [name, unit] : perfbench::LayerMetrics()) {
      const auto it = result.layers.find(name);
      out.Add(name, it == result.layers.end() ? 0.0 : it->second, unit);
    }
  } else {
    out = result.report;
  }
  std::printf("%s\n",
              out.ToJson(result.correct, result.attempted, result.failed)
                  .c_str());
  return 0;
}
