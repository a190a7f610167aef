// web-refine and social-push: serial queries through one read-write
// searcher, in rounds that each start from a fresh copy of the built index.
//
// A round runs the workload's exact queries (timed one by one: the query
// latencies and the round's throughput) and then the same queries in the
// hits-only tier (hits_p50_ms). Copies of an index share storage until
// written, so the fresh copy costs O(shards), and refinement write-back
// does identical work in every round.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bca/hub_selection.h"
#include "common/rng.h"
#include "core/online_query.h"
#include "exec/query_pipeline.h"
#include "index/index_builder.h"
#include "oracle.h"
#include "rwr/transition.h"
#include "stages.h"
#include "workload/query_workload.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct SerialSpec {
  bool social = false;
  uint32_t capacity_k = 0;
  std::vector<uint32_t> ks;  // cycled over the queries of a round
  std::string backend;       // "" = the exact PMPN pipeline
  size_t queries = 0;        // per round
};

// The serial workloads do not use --seed: their queries, and the order of
// them, are fixed. In both a few queries cost tens to hundreds of times the
// median (on web-refine one query sends 643 candidates through
// refinement), so a seed-drawn sample would measure which of them it drew;
// and write-back makes a query's cost depend on the queries before it
// (three orders of web-refine's 240 queries ran at 5.8, 14.2 and 17.6 q/s).
constexpr uint64_t kQuerySetSeed = 103;

SerialSpec SpecFor(const std::string& workload) {
  SerialSpec s;
  if (workload == "web-refine") {
    s.capacity_k = 100;
    s.ks = {5, 10, 20};
    s.queries = 120;
  } else {
    s.social = true;
    s.capacity_k = 50;
    s.ks = {10};
    s.backend = "local-push";
    s.queries = 4000;
  }
  return s;
}

struct Answers {
  std::vector<std::vector<uint32_t>> exact;
  std::vector<std::vector<uint32_t>> hits;
};

// Checks round 0's answers against the oracle; later rounds must repeat
// them exactly (each round starts from the same index).
void CheckAnswers(const Oracle& oracle, const std::vector<uint32_t>& queries,
                  const std::vector<uint32_t>& ks, const Answers& got,
                  uint64_t* ties, RunResult* result) {
  std::map<uint32_t, std::vector<double>> rows;
  for (size_t i = 0; i < queries.size(); ++i) {
    const uint32_t q = queries[i];
    const uint32_t k = ks[i % ks.size()];
    auto it = rows.find(q);
    if (it == rows.end()) {
      auto row = oracle.Row(q);
      if (!row.ok()) {
        result->Fail("oracle row for q=" + std::to_string(q) + ": " +
                     row.status().ToString());
        return;
      }
      it = rows.emplace(q, std::move(row).value()).first;
    }
    const Verdict exact = CheckExact(it->second, oracle.At(k),
                                     got.exact[i]);
    *ties += exact.ties;
    if (!exact.ok()) {
      result->Fail("exact answer q=" + std::to_string(q) + " k=" +
                   std::to_string(k) + ": " + std::to_string(exact.missing) +
                   " missing, " + std::to_string(exact.extra) + " extra");
    }
    if (i < got.hits.size()) {
      const Verdict hits = CheckHits(it->second, oracle.At(k),
                                     got.hits[i]);
      if (!hits.ok() || !IsSubset(got.hits[i], got.exact[i])) {
        result->Fail("hits-only answer q=" + std::to_string(q) +
                     " is not a subset of the exact answer");
      }
    }
  }
}

void CheckBounds(const rtk::LowerBoundIndex& index, const Oracle& oracle,
                 RunResult* result) {
  const uint64_t violations = CountBoundViolations(index, oracle);
  if (violations > 0) {
    result->Fail(std::to_string(violations) +
                 " index lower bounds exceed the exact k-th value");
  }
}

}  // namespace

void RunSerial(const RunOptions& options, RunResult* result) {
  const SerialSpec spec = SpecFor(options.workload);
  const rtk::Graph graph = spec.social ? MakeSocialGraph() : MakeWebGraph();

  // Set-up, timed cold: operator, hubs, index.
  const Clock::time_point setup_start = Clock::now();
  rtk::TransitionOperator op(graph);
  rtk::HubSelectionOptions hub_opts;
  hub_opts.degree_budget_b = HubBudget(graph);
  auto hubs = rtk::SelectHubs(graph, hub_opts);
  if (!hubs.ok()) return result->Fail("SelectHubs: " + hubs.status().ToString());
  const double hub_select_s = SecondsSince(setup_start);
  const Clock::time_point build_start = Clock::now();
  rtk::IndexBuildOptions build_opts;
  build_opts.capacity_k = spec.capacity_k;
  build_opts.hub_store.rounding_omega = kHubRoundingOmega;
  auto built = rtk::BuildLowerBoundIndex(op, *hubs, build_opts, nullptr);
  if (!built.ok()) {
    return result->Fail("BuildLowerBoundIndex: " + built.status().ToString());
  }
  const rtk::LowerBoundIndex& base = *built;
  const double build_s = SecondsSince(build_start);
  const double setup_s = SecondsSince(setup_start);

  const Clock::time_point oracle_start = Clock::now();
  auto oracle = Oracle::Build(op, spec.ks, options.oracle_cache);
  if (!oracle.ok()) return result->Fail("oracle: " + oracle.status().ToString());
  std::fprintf(stderr, "%s: set-up %.2f s, oracle %.2f s (table %.2f s)\n",
               options.workload.c_str(), setup_s, SecondsSince(oracle_start),
               oracle->table_seconds());
  CheckBounds(base, *oracle, result);

  rtk::Rng rng(kQuerySetSeed);
  const std::vector<uint32_t> queries = rtk::SampleQueries(
      graph, spec.queries, rtk::QueryDistribution::kUniform, &rng);

  rtk::QueryOptions query_opts;
  query_opts.num_threads = 1;
  query_opts.update_index = true;
  query_opts.proximity.name = spec.backend;

  Answers first;
  uint64_t ties = 0;
  int rounds = 0;
  double measured = 0.0;

  if (!options.trace) {
    // Every round repeats the same queries on the same index state, doing
    // identical work, and machine noise only ever slows a query down; so
    // each query counts with the fastest of its repeats, over at least two
    // rounds. (On a shared 4-core VM, the 1.3-second rounds of one
    // social-push run ranged over 4100-6100 q/s.) A query is timed by the
    // CPU time of this thread, which leaves out the time the host gave the
    // vCPU to another guest: a slow query runs through many such slices in
    // every repeat, so the fastest repeat does not remove them, and its
    // wall time moved queries_per_s by a quarter between runs on a busy
    // host. The query runs on this thread alone and does no I/O, so on an
    // unshared core the two clocks agree; the wall-clock throughput is
    // printed on stderr next to it.
    std::vector<double> exact_best(queries.size(), 1e300);
    std::vector<double> exact_wall_best(queries.size(), 1e300);
    std::vector<double> hits_best(queries.size(), 1e300);
    while (rounds < 2 || measured < options.seconds) {
      rtk::LowerBoundIndex index = base;
      rtk::ReverseTopkSearcher searcher(op, &index);
      Answers got;
      const auto pass = [&](bool hits_only, std::vector<double>* best,
                            std::vector<double>* wall_best,
                            std::vector<std::vector<uint32_t>>* answers) {
        rtk::QueryOptions opts = query_opts;
        opts.approximate_hits_only = hits_only;
        const Clock::time_point pass_start = Clock::now();
        for (size_t i = 0; i < queries.size(); ++i) {
          opts.k = spec.ks[i % spec.ks.size()];
          const Clock::time_point start = Clock::now();
          const double cpu_start = ThreadCpuSeconds();
          auto answer = searcher.Query(queries[i], opts);
          (*best)[i] = std::min((*best)[i], ThreadCpuSeconds() - cpu_start);
          if (wall_best != nullptr) {
            (*wall_best)[i] = std::min((*wall_best)[i], SecondsSince(start));
          }
          ++result->attempted;
          if (!answer.ok()) {
            ++result->failed;
            answers->emplace_back();
          } else {
            answers->push_back(std::move(answer).value());
          }
        }
        return SecondsSince(pass_start);
      };
      const double exact_s =
          pass(false, &exact_best, &exact_wall_best, &got.exact);
      measured += exact_s + pass(true, &hits_best, nullptr, &got.hits);
      std::fprintf(stderr, "%s: round %d, exact pass %.3f s\n",
                   options.workload.c_str(), rounds, exact_s);
      if (rounds == 0) {
        CheckAnswers(*oracle, queries, spec.ks, got, &ties, result);
        first = std::move(got);
      } else if (got.exact != first.exact || got.hits != first.hits) {
        result->Fail("round " + std::to_string(rounds) +
                     " answered differently from round 0");
      }
      CheckBounds(index, *oracle, result);
      ++rounds;
    }
    double exact_total = 0.0;
    double exact_wall_total = 0.0;
    for (double t : exact_best) exact_total += t;
    for (double t : exact_wall_best) exact_wall_total += t;
    const auto ms = [](std::vector<double> v, double p) {
      return Percentile(std::move(v), p) * 1e3;
    };
    Report& r = result->report;
    r.Add("setup_s", setup_s, "s");
    r.Add("queries_per_s", queries.size() / exact_total, "1/s");
    r.Add("query_p50_ms", ms(exact_best, 50), "ms");
    r.Add("query_p90_ms", ms(exact_best, 90), "ms");
    // Every timed query of the serial workloads is an exact-tier query.
    r.Add("exact_p50_ms", ms(exact_best, 50), "ms");
    r.Add("hits_p50_ms", ms(hits_best, 50), "ms");
    std::fprintf(stderr,
                 "%s: %d rounds of %zu queries, %llu tie nodes, "
                 "%.2f q/s by CPU time, %.2f q/s by wall time\n",
                 options.workload.c_str(), rounds, queries.size(),
                 static_cast<unsigned long long>(ties),
                 queries.size() / exact_total,
                 queries.size() / exact_wall_total);
    return;
  }

  // Traced: each round drives one fresh copy stage by stage and another
  // through QueryPipeline::Run, then compares answers and index contents.
  SpanRecorder spans;
  LayerCounts counts;
  double pipeline_s = 0.0;
  while (rounds == 0 || measured < options.seconds) {
    const Clock::time_point round_start = Clock::now();
    rtk::LowerBoundIndex composed_index = base;
    rtk::LowerBoundIndex pipeline_index = base;
    StageComposer composer(op, &composed_index);
    rtk::QueryPipeline pipeline(op, &pipeline_index);
    Answers got;
    rtk::QueryOptions opts = query_opts;
    for (size_t i = 0; i < queries.size(); ++i) {
      opts.k = spec.ks[i % spec.ks.size()];
      const uint64_t request = rounds * queries.size() + i;
      auto composed = composer.Query(queries[i], opts, request, &spans, &counts);
      const Clock::time_point start = Clock::now();
      auto reference = pipeline.Run(queries[i], opts);
      pipeline_s += SecondsSince(start);
      result->attempted += 2;
      if (!composed.ok() || !reference.ok()) {
        result->failed += !composed.ok() + !reference.ok();
        got.exact.emplace_back();
        continue;
      }
      if (*composed != *reference) {
        result->Fail("stage-composed answer differs from QueryPipeline::Run "
                     "for q=" + std::to_string(queries[i]));
      }
      got.exact.push_back(std::move(composed).value());
    }
    if (!SameIndexContents(composed_index, pipeline_index)) {
      result->Fail("stage-composed index differs from QueryPipeline::Run's");
    }
    if (rounds == 0) {
      CheckAnswers(*oracle, queries, spec.ks, got, &ties, result);
      first = std::move(got);
    } else if (got.exact != first.exact) {
      result->Fail("round " + std::to_string(rounds) +
                   " answered differently from round 0");
    }
    CheckBounds(composed_index, *oracle, result);
    measured += SecondsSince(round_start);
    ++rounds;
  }
  if (!options.trace_out.empty() && !spans.WriteTsv(options.trace_out)) {
    std::fprintf(stderr, "could not write %s\n", options.trace_out.c_str());
  }

  auto& L = result->layers;
  L["index.hub_select_s"] = hub_select_s;
  L["index.build_s"] = build_s;
  L["index.bytes"] = static_cast<double>(base.ComputeStats().TotalBytes());
  L["check.ties"] = static_cast<double>(ties);
  AddStageLayers(spans, counts, rounds, pipeline_s, &L);
}

}  // namespace perfbench
