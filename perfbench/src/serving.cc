// social-serving: an open-loop ServingEngine mix with live mutations.
//
// One client thread submits requests at a constant offered rate, each at
// its due time whatever the backlog (open loop), three hits-only requests
// to one exact request, k = 10, queries drawn from an in-degree-biased log.
// Latency runs from a request's due time to its response callback, so a
// client that falls behind is charged, not forgiven. Alongside, a paced
// ApplyUpdates stream toggles a fixed set of 8 edges: inserted, then
// deleted, then inserted again. Each answer is checked against the oracle
// of the graph state (base or toggled) its epoch was served from.
//
// A run replays the same stream in rounds, each on a fresh ServingEngine
// created from the same built index, and each request counts with the
// fastest of its repeats: noise on a shared machine only ever slows a
// request down. Threads: the client, the engine's 2 workers and its
// mutation worker; the mutation thread only blocks on futures.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bca/hub_selection.h"
#include "common/rng.h"
#include "core/engine.h"
#include "dynamic/graph_updates.h"
#include "exec/query_pipeline.h"
#include "oracle.h"
#include "serving/serving_engine.h"
#include "stages.h"
#include "workload/query_workload.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint32_t kCapacityK = 50;
constexpr uint32_t kQueryK = 10;
constexpr int kWorkers = 2;
constexpr size_t kMaxBatch = 8;
constexpr double kOfferedRate = 100.0;  // requests per second
constexpr double kTimedSeconds = 7.0;  // timed stream of one round
constexpr int kMinRounds = 3;
constexpr double kMutationPeriod = 2.0;  // seconds between ApplyUpdates calls
// Requests due in the first seconds are served and checked but not timed:
// the first epochs refine a cold index and the first mutation builds the
// repair state, which took 9 ms request p50s against 3 ms afterwards.
constexpr double kWarmupSeconds = 3.0;
constexpr size_t kToggledEdges = 8;
constexpr uint64_t kEdgeSeed = 18;
constexpr uint64_t kLogSeed = 17;

// The toggle set: edges absent from the base graph, from a fixed seed, so
// the graph states (and their oracles) are the same in every run.
std::vector<rtk::EdgeUpdate> ToggledEdges(const rtk::Graph& g) {
  std::vector<rtk::EdgeUpdate> inserts;
  rtk::Rng rng(kEdgeSeed);
  while (inserts.size() < kToggledEdges) {
    const auto u = static_cast<uint32_t>(rng.Uniform(g.num_nodes()));
    const auto v = static_cast<uint32_t>(rng.Uniform(g.num_nodes()));
    const auto nbrs = g.OutNeighbors(u);
    if (u == v || std::binary_search(nbrs.begin(), nbrs.end(), v)) continue;
    bool dup = false;
    for (const rtk::EdgeUpdate& e : inserts) dup |= e.src == u && e.dst == v;
    if (!dup) inserts.push_back(rtk::EdgeUpdate::Insert(u, v));
  }
  return inserts;
}

bool SameGraph(const rtk::Graph& a, const rtk::Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  for (uint32_t u = 0; u < a.num_nodes(); ++u) {
    const auto x = a.OutNeighbors(u);
    const auto y = b.OutNeighbors(u);
    if (!std::equal(x.begin(), x.end(), y.begin(), y.end())) return false;
    const auto wx = a.OutWeights(u);
    const auto wy = b.OutWeights(u);
    if (!std::equal(wx.begin(), wx.end(), wy.begin(), wy.end())) return false;
  }
  return true;
}

struct Slot {
  Clock::time_point done;
  rtk::Status status;
  std::vector<uint32_t> results;
  uint64_t epoch = 0;
};

struct MutationRecord {
  Clock::time_point start;
  Clock::time_point done;
  rtk::MutationResult result;
  bool toggled = false;  // graph state after this mutation
};

// One round's stream as the client saw it.
struct Stream {
  std::vector<Clock::time_point> due;
  std::vector<Slot> slots;
  std::vector<double> submit_us;
  std::vector<MutationRecord> mutations;
  size_t inflight_max = 0;
  double lag_max_s = 0.0;
};

// Plays the request log against `serving` at the offered rate, with the
// mutation stream alongside, and waits for every response.
Stream Play(rtk::ServingEngine* serving, const std::vector<uint32_t>& queries,
            const std::vector<bool>& exact,
            const std::vector<rtk::EdgeUpdate>& inserts,
            const std::vector<rtk::EdgeUpdate>& deletes, size_t n_mutations) {
  const size_t n = queries.size();
  Stream s;
  s.due.resize(n);
  s.slots.resize(n);
  s.submit_us.resize(n);
  s.mutations.resize(n_mutations);
  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  const auto at = [&](double seconds) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  };

  // Mutation i is due at (i + 0.5) periods, and never before mutation i-1
  // has published, so each epoch maps to exactly one graph state.
  std::thread mutator([&] {
    for (size_t i = 0; i < n_mutations; ++i) {
      std::this_thread::sleep_until(at((i + 0.5) * kMutationPeriod));
      MutationRecord& m = s.mutations[i];
      m.toggled = i % 2 == 0;
      m.start = Clock::now();
      m.result = serving->ApplyUpdates(m.toggled ? inserts : deletes).get();
      m.done = Clock::now();
    }
  });

  for (size_t i = 0; i < n; ++i) {
    s.due[i] = at(static_cast<double>(i) / kOfferedRate);
    std::this_thread::sleep_until(s.due[i]);
    const Clock::time_point submit_start = Clock::now();
    s.lag_max_s = std::max(
        s.lag_max_s,
        std::chrono::duration<double>(submit_start - s.due[i]).count());
    {
      std::lock_guard<std::mutex> lock(mu);
      s.inflight_max = std::max(s.inflight_max, i - completed);
    }
    rtk::QueryRequest request;
    request.query = queries[i];
    request.k = kQueryK;
    request.tier = exact[i] ? rtk::AccuracyTier::kExact
                            : rtk::AccuracyTier::kApproximateHitsOnly;
    serving->Submit(std::move(request), [&, i](rtk::QueryResponse r) {
      Slot& slot = s.slots[i];
      slot.done = Clock::now();
      slot.status = std::move(r.status);
      slot.results = std::move(r.results);
      slot.epoch = r.epoch;
      std::lock_guard<std::mutex> lock(mu);
      ++completed;
      cv.notify_all();
    });
    s.submit_us[i] =
        std::chrono::duration<double, std::micro>(Clock::now() - submit_start)
            .count();
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed == n; });
  }
  mutator.join();
  return s;
}

}  // namespace

void RunServing(const RunOptions& options, RunResult* result) {
  const rtk::Graph graph = MakeSocialGraph();
  const std::vector<rtk::EdgeUpdate> inserts = ToggledEdges(graph);
  std::vector<rtk::EdgeUpdate> deletes;
  for (const rtk::EdgeUpdate& e : inserts) {
    deletes.push_back(rtk::EdgeUpdate::Delete(e.src, e.dst));
  }

  // Set-up, timed cold: operator, hubs and index (inside the engine build),
  // then the serving engine.
  const Clock::time_point setup_start = Clock::now();
  rtk::EngineOptions engine_opts;
  engine_opts.capacity_k = kCapacityK;
  engine_opts.hub_selection.degree_budget_b = HubBudget(graph);
  engine_opts.num_threads = 1;
  engine_opts.rounding_omega = kHubRoundingOmega;
  auto engine = rtk::ReverseTopkEngine::Build(rtk::Graph(graph), engine_opts);
  if (!engine.ok()) return result->Fail("engine: " + engine.status().ToString());
  const double build_s = SecondsSince(setup_start);
  const Clock::time_point create_start = Clock::now();
  rtk::ServingOptions serving_opts;
  serving_opts.num_threads = kWorkers;
  serving_opts.max_batch = kMaxBatch;
  auto serving = rtk::ServingEngine::Create(**engine, serving_opts);
  if (!serving.ok()) {
    return result->Fail("serving: " + serving.status().ToString());
  }
  const double create_s = SecondsSince(create_start);
  const double setup_s = SecondsSince(setup_start);

  // Oracles of both graph states.
  auto toggled_graph =
      rtk::ApplyEdgeUpdates(graph, inserts, serving_opts.mutation_graph);
  if (!toggled_graph.ok()) {
    return result->Fail("toggle: " + toggled_graph.status().ToString());
  }
  auto restored =
      rtk::ApplyEdgeUpdates(*toggled_graph, deletes, serving_opts.mutation_graph);
  if (!restored.ok() || !SameGraph(*restored, graph)) {
    return result->Fail("deleting the toggled edges does not restore the graph");
  }
  const rtk::TransitionOperator toggled_op(*toggled_graph);
  const Clock::time_point oracle_start = Clock::now();
  auto base_oracle =
      Oracle::Build((*engine)->transition(), {kQueryK}, options.oracle_cache);
  auto toggled_oracle = Oracle::Build(toggled_op, {kQueryK}, options.oracle_cache);
  if (!base_oracle.ok() || !toggled_oracle.ok()) {
    return result->Fail("oracle failed");
  }
  std::fprintf(stderr, "social-serving: set-up %.2f s, oracles %.2f s\n",
               setup_s, SecondsSince(oracle_start));

  // The request log: a fixed in-degree-biased sample, whose timed part
  // --seed shuffles. The sample itself stays fixed because its cost is
  // skewed: the PMPN row of a popular target takes 30-37 ms against
  // 0.5-2.5 ms for the rest, and a seed-drawn share of those would move
  // every percentile. Tiers ride with their queries through the shuffle.
  const size_t n_warmup = static_cast<size_t>(kOfferedRate * kWarmupSeconds);
  const size_t n_requests =
      n_warmup + static_cast<size_t>(kOfferedRate * kTimedSeconds);
  const size_t n_mutations = static_cast<size_t>(
      (kWarmupSeconds + kTimedSeconds) / kMutationPeriod);
  rtk::Rng log_rng(kLogSeed);
  const std::vector<uint32_t> sample = rtk::SampleQueries(
      graph, n_requests, rtk::QueryDistribution::kInDegreeBiased, &log_rng);
  std::vector<size_t> order(n_requests);
  for (size_t i = 0; i < n_requests; ++i) order[i] = i;
  std::vector<size_t> timed(order.begin() + n_warmup, order.end());
  rtk::Rng order_rng(options.seed);
  order_rng.Shuffle(&timed);
  std::copy(timed.begin(), timed.end(), order.begin() + n_warmup);
  std::vector<uint32_t> queries(n_requests);
  std::vector<bool> exact(n_requests);
  for (size_t i = 0; i < n_requests; ++i) {
    queries[i] = sample[order[i]];
    exact[i] = order[i] % 4 == 3;  // 3 hits-only : 1 exact
  }

  // Checks one round: every answer against the oracle of the graph state
  // its epoch was served from, and the final snapshot's bounds.
  std::map<std::pair<bool, uint32_t>, std::vector<double>> rows;
  uint64_t ties = 0;
  const auto check = [&](const Stream& s, const rtk::ServingEngine& engine_r) {
    std::vector<std::pair<uint64_t, bool>> states = {{0, false}};
    for (const MutationRecord& m : s.mutations) {
      if (m.result.ok()) states.emplace_back(m.result.epoch, m.toggled);
    }
    std::sort(states.begin(), states.end());
    const auto toggled_at = [&](uint64_t epoch) {
      bool toggled = false;
      for (const auto& [e, t] : states) {
        if (e <= epoch) toggled = t;
      }
      return toggled;
    };
    for (size_t i = 0; i < n_requests; ++i) {
      const Slot& slot = s.slots[i];
      if (!slot.status.ok()) continue;
      const bool toggled = toggled_at(slot.epoch);
      const Oracle& oracle = toggled ? *toggled_oracle : *base_oracle;
      auto it = rows.find({toggled, queries[i]});
      if (it == rows.end()) {
        auto row = oracle.Row(queries[i]);
        if (!row.ok()) return result->Fail("oracle row failed");
        it = rows.emplace(std::make_pair(toggled, queries[i]),
                          std::move(row).value())
                 .first;
      }
      const Verdict v =
          exact[i] ? CheckExact(it->second, oracle.At(kQueryK), slot.results)
                   : CheckHits(it->second, oracle.At(kQueryK), slot.results);
      ties += v.ties;
      if (!v.ok()) {
        result->Fail(std::string(exact[i] ? "exact" : "hits-only") +
                     " answer q=" + std::to_string(queries[i]) + " epoch " +
                     std::to_string(slot.epoch) + ": " +
                     std::to_string(v.missing) + " missing, " +
                     std::to_string(v.extra) + " extra");
      }
    }
    const bool toggled = toggled_at(engine_r.epoch());
    const uint64_t violations =
        CountBoundViolations(engine_r.snapshot()->index(),
                             toggled ? *toggled_oracle : *base_oracle);
    if (violations > 0) {
      result->Fail(std::to_string(violations) +
                   " bounds of the final snapshot exceed the exact k-th value");
    }
  };

  // Rounds, each on a fresh engine: at least kMinRounds (one when traced).
  std::vector<double> best_ms(n_requests, 1e300);
  std::vector<double> round_qps;
  Stream last;
  rtk::ServingStats stats;
  int rounds = 0;
  double measured = 0.0;
  while (rounds < (options.trace ? 1 : kMinRounds) ||
         (!options.trace && measured < options.seconds)) {
    const Clock::time_point round_start = Clock::now();
    if (rounds > 0) {
      serving = rtk::ServingEngine::Create(**engine, serving_opts);
      if (!serving.ok()) {
        return result->Fail("serving: " + serving.status().ToString());
      }
    }
    Stream s = Play(serving->get(), queries, exact, inserts, deletes,
                    n_mutations);
    measured += SecondsSince(round_start);
    result->attempted += n_requests + n_mutations;
    Clock::time_point last_done = s.due[n_warmup];
    for (size_t i = 0; i < n_requests; ++i) {
      result->failed += !s.slots[i].status.ok();
      if (i < n_warmup) continue;
      best_ms[i] = std::min(
          best_ms[i],
          std::chrono::duration<double, std::milli>(s.slots[i].done - s.due[i])
              .count());
      last_done = std::max(last_done, s.slots[i].done);
    }
    for (const MutationRecord& m : s.mutations) result->failed += !m.result.ok();
    round_qps.push_back(
        (n_requests - n_warmup) /
        std::chrono::duration<double>(last_done - s.due[n_warmup]).count());
    check(s, **serving);
    stats = (*serving)->stats();
    serving->reset();  // drains and stops the engine before the next round
    last = std::move(s);
    ++rounds;
  }
  std::fprintf(stderr,
               "social-serving: %d rounds of %zu requests and %zu mutations, "
               "%llu epochs in the last, %llu tie nodes\n",
               rounds, n_requests, n_mutations,
               static_cast<unsigned long long>(stats.epochs_published),
               static_cast<unsigned long long>(ties));

  if (!options.trace) {
    std::vector<double> all_ms, exact_ms, hits_ms;
    for (size_t i = n_warmup; i < n_requests; ++i) {
      all_ms.push_back(best_ms[i]);
      (exact[i] ? exact_ms : hits_ms).push_back(best_ms[i]);
    }
    Report& r = result->report;
    r.Add("setup_s", setup_s, "s");
    r.Add("queries_per_s", Median(round_qps), "1/s");
    r.Add("query_p50_ms", Percentile(all_ms, 50), "ms");
    r.Add("query_p90_ms", Percentile(all_ms, 90), "ms");
    r.Add("exact_p50_ms", Percentile(exact_ms, 50), "ms");
    r.Add("hits_p50_ms", Percentile(hits_ms, 50), "ms");
    return;
  }

  // Traced: the stream's spans, the engine's counters, and a stage-by-stage
  // pass over the same requests on copies of the base index.
  SpanRecorder spans;
  for (size_t i = 0; i < n_requests; ++i) {
    spans.Add("request", i, -1, last.due[i], last.slots[i].done);
  }
  std::vector<double> mutation_ms;
  double affected = 0.0;
  uint64_t rebuilds = 0;
  for (size_t i = 0; i < n_mutations; ++i) {
    const MutationRecord& m = last.mutations[i];
    spans.Add("mutation", n_requests + i, -1, m.start, m.done);
    mutation_ms.push_back(
        std::chrono::duration<double, std::milli>(m.done - m.start).count());
    affected += static_cast<double>(m.result.affected_nodes);
    rebuilds += m.result.mode == rtk::MutationRepairMode::kRebuilt;
  }
  const rtk::TransitionOperator& op = (*engine)->transition();
  rtk::LowerBoundIndex composed_index = (*engine)->index();
  rtk::LowerBoundIndex pipeline_index = (*engine)->index();
  StageComposer composer(op, &composed_index);
  rtk::QueryPipeline pipeline(op, &pipeline_index);
  LayerCounts counts;
  rtk::QueryOptions opts;
  opts.num_threads = 1;
  opts.k = kQueryK;
  double pipeline_s = 0.0;
  for (size_t i = 0; i < n_requests; ++i) {
    opts.approximate_hits_only = !exact[i];
    auto composed = composer.Query(queries[i], opts, i, &spans, &counts);
    const Clock::time_point t = Clock::now();
    auto reference = pipeline.Run(queries[i], opts);
    pipeline_s += SecondsSince(t);
    result->attempted += 2;
    if (!composed.ok() || !reference.ok()) {
      result->failed += !composed.ok() + !reference.ok();
    } else if (*composed != *reference) {
      result->Fail("stage-composed answer differs from QueryPipeline::Run "
                   "for q=" + std::to_string(queries[i]));
    }
  }
  if (!SameIndexContents(composed_index, pipeline_index)) {
    result->Fail("stage-composed index differs from QueryPipeline::Run's");
  }
  if (!options.trace_out.empty() && !spans.WriteTsv(options.trace_out)) {
    std::fprintf(stderr, "could not write %s\n", options.trace_out.c_str());
  }

  auto& L = result->layers;
  auto hubs_start = Clock::now();
  rtk::HubSelectionOptions hub_opts;
  hub_opts.degree_budget_b = HubBudget(graph);
  (void)rtk::SelectHubs(graph, hub_opts);
  L["index.hub_select_s"] = SecondsSince(hubs_start);
  L["index.build_s"] = build_s;
  L["index.bytes"] =
      static_cast<double>((*engine)->index().ComputeStats().TotalBytes());
  L["serving.create_s"] = create_s;
  L["serving.submit_us"] = Median(last.submit_us);
  L["serving.inflight_max"] = static_cast<double>(last.inflight_max);
  L["serving.cache_hit_ratio"] =
      static_cast<double>(stats.cache_hits) /
      std::max<uint64_t>(1, stats.cache_hits + stats.cache_misses);
  L["serving.batch_occupancy"] = static_cast<double>(stats.batched_queries) /
                                 std::max<uint64_t>(1, stats.batches);
  L["serving.epochs"] = static_cast<double>(stats.epochs_published);
  L["mutation.apply_ms"] = Median(mutation_ms);
  L["mutation.affected_nodes"] = affected / std::max<size_t>(1, n_mutations);
  L["mutation.rebuilds"] = static_cast<double>(rebuilds);
  L["client.lag_max_ms"] = last.lag_max_s * 1e3;
  L["check.ties"] = static_cast<double>(ties);
  AddStageLayers(spans, counts, 1, pipeline_s, &L);
}

}  // namespace perfbench
