// Workload entry points and what they share.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for cached oracle tables ("" = always recompute).
  std::string oracle_cache;
  /// Where the traced run writes its spans ("" = not written).
  std::string trace_out;
  /// When the process started: setup_s is timed cold from here.
  Clock::time_point process_start;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced run).
  Report report;
  /// Per-layer metrics by name (traced run).
  std::map<std::string, double> layers;

  /// Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why);
};

/// The graphs, each generated from a fixed seed so every run, whatever its
/// --seed, measures the same graph and index.
///   web:    R-MAT scale 13, 40k edges (the bench suite's rmat-web-l).
///   social: directed Barabasi-Albert, n = 20000, 7 out-edges per node.
rtk::Graph MakeWebGraph();
rtk::Graph MakeSocialGraph();

/// Hub-vector rounding is off in every workload. With rounding on (the
/// paper's omega = 1e-6) a node whose BCA run converges is flagged exact
/// although its values come from rounded hub vectors and sit below the
/// true ones by up to the dropped mass, so queries whose proximity falls
/// in that gap get false positives, in both tiers. On these graphs
/// rounding drops under 1 KB of the hub store, so switching it off moves
/// no measured cost; it keeps every answer exactly checkable.
inline constexpr double kHubRoundingOmega = 0.0;

/// Degree hub budget shared by every workload (the bench suite's B).
inline uint32_t HubBudget(const rtk::Graph& g) { return g.num_nodes() / 50 + 1; }

/// web-refine and social-push: serial exact queries through one searcher.
void RunSerial(const RunOptions& options, RunResult* result);
/// social-serving: an open-loop ServingEngine mix with live mutations.
void RunServing(const RunOptions& options, RunResult* result);

/// Per-layer metric names with their units, in output order. A traced run
/// reports every one of them for every workload (0 where a layer does no
/// work in that workload).
const std::vector<std::pair<std::string, std::string>>& LayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
