// The traced run's stage-by-stage query: the same Algorithm 4 the pipeline
// runs, composed from each layer's public call so each can be timed on its
// own.
//
//   proximity.row   PmpnProximityBackend::Compute        (exact backend)
//   push.row        local-push ProximityBackend::Compute (approximate)
//   prune.scan      RunPruneStage
//   escalation      QueryPipeline::RunWithRow, for an approximate row that
//                   left uncertain nodes (settle, PMPN re-run, refine)
//   refine.run      RefineStage::Run, one refine.candidate span per
//                   candidate (each candidate refined on its own)
//   writeback       LowerBoundIndex::ApplyIfTighter over the deltas
//
// Answers and index contents must come out equal to QueryPipeline::Run on
// the same state; the workloads check that after every query and round.

#ifndef PERFBENCH_STAGES_H_
#define PERFBENCH_STAGES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/online_query.h"
#include "exec/query_pipeline.h"
#include "exec/refine_stage.h"
#include "index/lower_bound_index.h"
#include "report.h"
#include "rwr/transition.h"

namespace perfbench {

/// Work counts summed over the composed queries.
struct LayerCounts {
  uint64_t queries = 0;
  uint64_t prox_iterations = 0;  // PMPN iterations of proximity.row
  uint64_t prox_rows = 0;
  uint64_t push_rows = 0;
  uint64_t pushes = 0;           // local-push node pushes of push.row
  uint64_t uncertain = 0;        // undecided under an approximate row
  uint64_t candidates = 0;
  uint64_t hits = 0;
  uint64_t undecided = 0;
  uint64_t refine_iterations = 0;
  uint64_t exact_fallbacks = 0;
  uint64_t accepted = 0;
  uint64_t deltas = 0;
  uint64_t applied = 0;
  uint64_t partial = 0;
  uint64_t full = 0;
  uint64_t settle_pushes = 0;
};

class StageComposer {
 public:
  /// `index` is read and written back like a read-write searcher's; the
  /// operator and index must outlive the composer.
  StageComposer(const rtk::TransitionOperator& op, rtk::LowerBoundIndex* index);

  /// One query, recorded under a root span "query" for `request`.
  rtk::Result<std::vector<uint32_t>> Query(uint32_t q,
                                           const rtk::QueryOptions& options,
                                           uint64_t request,
                                           SpanRecorder* spans,
                                           LayerCounts* counts);

 private:
  const rtk::TransitionOperator* op_;
  rtk::LowerBoundIndex* index_;
  rtk::PmpnProximityBackend pmpn_;
  std::unique_ptr<rtk::ProximityBackend> approx_;  // built on first use
  rtk::RefineStage refine_;
  rtk::QueryPipeline pipeline_;  // RunWithRow for escalations only
};

/// Adds the per-layer metrics of the composed queries: stage times from the
/// spans, per-query means and per-round totals (over `rounds`) from the
/// counts, and trace.overhead_pct, the composed queries' time against
/// `pipeline_s`, the same queries through QueryPipeline::Run.
void AddStageLayers(const SpanRecorder& spans, const LayerCounts& counts,
                    int rounds, double pipeline_s,
                    std::map<std::string, double>* layers);

}  // namespace perfbench

#endif  // PERFBENCH_STAGES_H_
