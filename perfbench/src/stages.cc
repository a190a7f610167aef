#include "stages.h"

#include <algorithm>
#include <utility>

#include "exec/prune_stage.h"

namespace perfbench {

StageComposer::StageComposer(const rtk::TransitionOperator& op,
                             rtk::LowerBoundIndex* index)
    : op_(&op),
      index_(index),
      pmpn_(op),
      refine_(op, *index),
      pipeline_(op, index) {}

rtk::Result<std::vector<uint32_t>> StageComposer::Query(
    uint32_t q, const rtk::QueryOptions& options, uint64_t request,
    SpanRecorder* spans, LayerCounts* counts) {
  ScopedSpan root(spans, "query", request);
  ++counts->queries;
  rtk::RwrOptions rwr = options.pmpn;
  rwr.alpha = index_->bca_options().alpha;

  // Stage 1: the row, exact or approximate.
  const bool approximate = !options.proximity.name.empty() &&
                           options.proximity.name != rtk::kPmpnBackendName;
  rtk::ProximityRow row;
  double row_seconds = 0.0;
  {
    ScopedSpan span(spans, approximate ? "push.row" : "proximity.row",
                    request, root.id());
    const Clock::time_point start = Clock::now();
    if (approximate) {
      if (approx_ == nullptr) {
        RTK_ASSIGN_OR_RETURN(approx_,
                             rtk::MakeProximityBackend(*op_, options.proximity));
      }
      RTK_ASSIGN_OR_RETURN(row, approx_->Compute(q, rwr, nullptr, 1));
      ++counts->push_rows;
      counts->pushes += row.pushes;
    } else {
      RTK_ASSIGN_OR_RETURN(row, pmpn_.Compute(q, rwr, nullptr, 1));
      ++counts->prox_rows;
      counts->prox_iterations += static_cast<uint64_t>(row.iterations);
    }
    row_seconds = SecondsSince(start);
  }

  // Stage 2: the bound scan, widened by the row's certificate.
  rtk::PruneResult pruned;
  {
    ScopedSpan span(spans, "prune.scan", request, root.id());
    rtk::PruneStageOptions prune;
    prune.k = options.k;
    prune.tie_epsilon = options.tie_epsilon;
    prune.approximate_hits_only = options.approximate_hits_only;
    prune.eps_below = row.eps_below;
    prune.eps_above = row.eps_above;
    prune.eps_node = row.eps_node.empty() ? nullptr : &row.eps_node;
    pruned = rtk::RunPruneStage(*index_, row.values, prune, nullptr);
    RTK_RETURN_NOT_OK(pruned.status);
  }
  counts->candidates += pruned.candidates;
  counts->hits += pruned.hits.size();
  counts->undecided += pruned.undecided.size();
  if (options.approximate_hits_only) return std::move(pruned.hits);

  if (!row.exact()) {
    counts->uncertain += pruned.undecided.size();
    if (pruned.undecided.empty()) return std::move(pruned.hits);
    // The uncertain remainder goes through the pipeline's own escalation.
    ScopedSpan span(spans, "escalation", request, root.id());
    rtk::QueryStats stats;
    auto answer = pipeline_.RunWithRow(q, options, std::move(row), row_seconds,
                                       options.proximity.name, &stats);
    counts->partial += stats.escalation_mode == rtk::EscalationMode::kPartial;
    counts->full += stats.escalation_mode == rtk::EscalationMode::kFull;
    counts->settle_pushes += stats.settle_pushes;
    return answer;
  }

  // Stage 3: refinement, one candidate per RefineStage::Run call.
  rtk::RefineStageOptions refine;
  refine.k = options.k;
  refine.tie_epsilon = options.tie_epsilon;
  refine.refine_strategy = options.refine_strategy;
  refine.max_refine_iterations_per_node =
      options.max_refine_iterations_per_node;
  refine.max_stalled_refinements = options.max_stalled_refinements;
  refine.update_index = options.update_index;
  refine.pmpn = rwr;
  refine.max_parallelism = 1;
  std::vector<uint32_t> accepted;
  std::vector<rtk::IndexDelta> deltas;
  if (!pruned.undecided.empty()) {
    ScopedSpan run(spans, "refine.run", request, root.id());
    for (uint32_t u : pruned.undecided) {
      ScopedSpan one(spans, "refine.candidate", request, run.id());
      RTK_ASSIGN_OR_RETURN(rtk::RefineResult r,
                           refine_.Run({u}, row.values, refine, nullptr));
      counts->refine_iterations += r.refine_iterations;
      counts->exact_fallbacks += r.exact_fallbacks;
      accepted.insert(accepted.end(), r.accepted.begin(), r.accepted.end());
      for (rtk::IndexDelta& d : r.deltas) deltas.push_back(std::move(d));
    }
  }
  counts->accepted += accepted.size();

  std::vector<uint32_t> answer(pruned.hits.size() + accepted.size());
  std::merge(pruned.hits.begin(), pruned.hits.end(), accepted.begin(),
             accepted.end(), answer.begin());
  if (options.update_index && !deltas.empty()) {
    ScopedSpan span(spans, "writeback", request, root.id());
    counts->deltas += deltas.size();
    for (rtk::IndexDelta& d : deltas) {
      counts->applied += index_->ApplyIfTighter(std::move(d));
    }
  }
  return answer;
}

void AddStageLayers(const SpanRecorder& spans, const LayerCounts& counts,
                    int rounds, double pipeline_s,
                    std::map<std::string, double>* layers) {
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto ms = [&](const char* name, double p) {
    return Percentile(spans.Durations(name), p) * 1e3;
  };
  const auto total_s = [&](const char* name) {
    double sum = 0.0;
    for (double d : spans.Durations(name)) sum += d;
    return sum;
  };
  const double queries = static_cast<double>(counts.queries);
  const double per_round = 1.0 / std::max(rounds, 1);
  auto& L = *layers;
  L["proximity.row_ms"] = ms("proximity.row", 50);
  L["proximity.iterations"] = ratio(counts.prox_iterations, counts.prox_rows);
  L["prune.scan_ms"] = ms("prune.scan", 50);
  L["prune.candidates"] = ratio(counts.candidates, queries);
  L["prune.hits"] = ratio(counts.hits, queries);
  L["prune.undecided"] = ratio(counts.undecided, queries);
  L["refine.run_ms"] = ratio(total_s("refine.run") * 1e3, queries);
  L["refine.candidate_p50_ms"] = ms("refine.candidate", 50);
  L["refine.candidate_p90_ms"] = ms("refine.candidate", 90);
  L["refine.iterations"] = counts.refine_iterations * per_round;
  L["refine.exact_fallbacks"] = counts.exact_fallbacks * per_round;
  L["refine.accept_ratio"] = ratio(counts.accepted, counts.undecided);
  L["writeback.ms"] = ratio(total_s("writeback") * 1e3, queries);
  L["writeback.applied_ratio"] = ratio(counts.applied, counts.deltas);
  L["push.row_ms"] = ms("push.row", 50);
  L["push.pushes"] = ratio(counts.pushes, counts.push_rows);
  L["push.uncertain"] = ratio(counts.uncertain, counts.push_rows);
  L["escalation.ms"] = ms("escalation", 50);
  L["escalation.partial"] = counts.partial * per_round;
  L["escalation.full"] = counts.full * per_round;
  L["settle.pushes"] = counts.settle_pushes * per_round;
  L["trace.overhead_pct"] =
      (ratio(total_s("query"), pipeline_s) - 1.0) * 100.0;
}

}  // namespace perfbench
