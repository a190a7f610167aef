// The benchmark's own checks, checked: the K-dash oracle agrees with the
// brute-force baseline, and answers that are wrong by one node are caught.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bca/hub_selection.h"
#include "common/rng.h"
#include "core/brute_force.h"
#include "graph/generators.h"
#include "index/index_builder.h"
#include "oracle.h"
#include "rwr/transition.h"

namespace perfbench {
namespace {

class OracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rtk::Rng rng(7);
    auto g = rtk::BarabasiAlbert(300, 3, &rng);
    ASSERT_TRUE(g.ok());
    graph_ = std::make_unique<rtk::Graph>(std::move(g).value());
    op_ = std::make_unique<rtk::TransitionOperator>(*graph_);
    auto oracle = Oracle::Build(*op_, {1, 5, 10});
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    oracle_ = std::make_unique<Oracle>(std::move(oracle).value());
  }

  // The brute-force answer with its exact row.
  std::vector<uint32_t> BruteForce(uint32_t q, uint32_t k) {
    auto answer = rtk::BruteForceReverseTopk(*op_, q, k);
    EXPECT_TRUE(answer.ok());
    return answer.ok() ? *answer : std::vector<uint32_t>{};
  }

  std::vector<double> Row(uint32_t q) {
    auto row = oracle_->Row(q);
    EXPECT_TRUE(row.ok());
    return row.ok() ? *row : std::vector<double>{};
  }

  // A node certainly outside the answer for (q, k): unreachable or well
  // below its k-th value.
  uint32_t NodeOutside(const std::vector<double>& row, uint32_t k) {
    const auto kth = oracle_->At(k).kth;
    for (uint32_t u = 0; u < row.size(); ++u) {
      if (row[u] <= 0.0 || row[u] < kth[u] - 10 * kTieTolerance) return u;
    }
    ADD_FAILURE() << "no node outside the answer";
    return 0;
  }

  // A query whose k=10 answer has at least 3 nodes but is far from all of
  // them, so that nodes can be both dropped and added.
  uint32_t MidQuery() {
    for (uint32_t q = 0; q < graph_->num_nodes(); ++q) {
      const size_t size = BruteForce(q, 10).size();
      if (size >= 3 && size <= graph_->num_nodes() / 2) return q;
    }
    ADD_FAILURE() << "no query with a mid-sized answer";
    return 0;
  }

  std::unique_ptr<rtk::Graph> graph_;
  std::unique_ptr<rtk::TransitionOperator> op_;
  std::unique_ptr<Oracle> oracle_;
};

TEST_F(OracleTest, AgreesWithBruteForce) {
  uint64_t judged = 0, ties = 0, nodes = 0;
  for (uint32_t q : {0u, 1u, 2u, 17u, 150u, 299u}) {
    const std::vector<double> row = Row(q);
    for (uint32_t k : {1u, 5u, 10u}) {
      const std::vector<uint32_t> answer = BruteForce(q, k);
      const Verdict v = CheckExact(row, oracle_->At(k), answer);
      EXPECT_TRUE(v.ok()) << "q=" << q << " k=" << k << ": " << v.missing
                          << " missing, " << v.extra << " extra";
      ties += v.ties;
      nodes += row.size();
      judged += answer.size();
    }
  }
  EXPECT_GT(judged, 0u);
  // Exact ties (symmetric nodes) exist, but almost every node is judged.
  EXPECT_LT(ties * 100, nodes);
}

TEST_F(OracleTest, OneNodeDroppedOrAddedFails) {
  const uint32_t q = MidQuery(), k = 10;
  const std::vector<double> row = Row(q);
  const std::vector<uint32_t> answer = BruteForce(q, k);
  ASSERT_FALSE(answer.empty());
  ASSERT_TRUE(CheckExact(row, oracle_->At(k), answer).ok());

  std::vector<uint32_t> dropped = answer;
  dropped.erase(dropped.begin() + dropped.size() / 2);
  const Verdict v_dropped = CheckExact(row, oracle_->At(k), dropped);
  EXPECT_FALSE(v_dropped.ok());
  EXPECT_EQ(v_dropped.missing, 1u);

  std::vector<uint32_t> added = answer;
  added.push_back(NodeOutside(row, k));
  std::sort(added.begin(), added.end());
  const Verdict v_added = CheckExact(row, oracle_->At(k), added);
  EXPECT_FALSE(v_added.ok());
  EXPECT_EQ(v_added.extra, 1u);
}

TEST_F(OracleTest, HitsThatAreNotASubsetFail) {
  const uint32_t q = MidQuery(), k = 10;
  const std::vector<double> row = Row(q);
  const std::vector<uint32_t> exact = BruteForce(q, k);
  ASSERT_GE(exact.size(), 2u);

  // A proper subset passes: hits-only answers may omit anything.
  const std::vector<uint32_t> subset(exact.begin(), exact.begin() + 1);
  EXPECT_TRUE(CheckHits(row, oracle_->At(k), subset).ok());
  EXPECT_TRUE(IsSubset(subset, exact));

  std::vector<uint32_t> bad = subset;
  bad.push_back(NodeOutside(row, k));
  std::sort(bad.begin(), bad.end());
  EXPECT_FALSE(CheckHits(row, oracle_->At(k), bad).ok());
  EXPECT_FALSE(IsSubset(bad, exact));
}

TEST_F(OracleTest, BuiltIndexBoundsHoldAndCopiesCompareEqual) {
  rtk::HubSelectionOptions hub_opts;
  hub_opts.degree_budget_b = 7;
  auto hubs = rtk::SelectHubs(*graph_, hub_opts);
  ASSERT_TRUE(hubs.ok());
  rtk::IndexBuildOptions build_opts;
  build_opts.capacity_k = 10;
  auto index = rtk::BuildLowerBoundIndex(*op_, *hubs, build_opts);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(CountBoundViolations(*index, *oracle_), 0u);

  rtk::LowerBoundIndex copy = *index;
  EXPECT_TRUE(SameIndexContents(*index, copy));
  // Claiming an exact, too-high k-th value breaks a bound and the contents.
  std::vector<double> inflated(10, 1.0);
  copy.SetNode(5, inflated, rtk::StoredBcaState{}, 0.0);
  EXPECT_GT(CountBoundViolations(copy, *oracle_), 0u);
  EXPECT_FALSE(SameIndexContents(*index, copy));
}

}  // namespace
}  // namespace perfbench
