// The benchmark's exact oracle and the answer checks built on it.
//
// Answers are judged against a K-dash LU factorization of the graph
// (topk/kdash.h): exact proximity columns give every node's k-th largest
// proximity, and one transposed solve gives q's exact row p_{*,q}. The
// factorization shares no code with the query path (PMPN, BCA, the
// lower-bound index), so an answer that agrees with it was not graded by
// the code that produced it.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "index/lower_bound_index.h"
#include "rwr/transition.h"
#include "topk/kdash.h"

namespace perfbench {

/// Tie band. u belongs to q's answer iff p_u(q) > 0 and p_u(q) is at least
/// u's k-th largest proximity. When p_u(q) lies within this distance of
/// that k-th value, q either holds rank k itself (then it is in, provided
/// the (k+1)-th value lies below the band) or ties with the node that
/// does: such a node is counted, not judged. The query path's own tie
/// epsilon is 1e-9 and its PMPN row is accurate to about 1e-10 / alpha, so
/// a correct answer can differ from the oracle only inside this band.
inline constexpr double kTieTolerance = 1e-8;

/// Every node's exact k-th and (k+1)-th largest proximity for one k.
struct Thresholds {
  std::span<const double> kth;
  std::span<const double> next;
};

/// \brief Exact top-k thresholds plus exact rows for one graph state.
class Oracle {
 public:
  /// Factorizes the operator's graph and tabulates every node's exact k-th
  /// and (k+1)-th largest proximity for each k in `ks`. With a non-empty `cache_dir`
  /// the table is read from (or written to) a file keyed by a hash of the
  /// graph, alpha and `ks`; the factorization itself is always rebuilt.
  static rtk::Result<Oracle> Build(const rtk::TransitionOperator& op,
                                   std::vector<uint32_t> ks,
                                   const std::string& cache_dir = "");

  uint32_t num_nodes() const { return n_; }
  const std::vector<uint32_t>& ks() const { return ks_; }

  /// The thresholds for k (k must be one of ks()).
  Thresholds At(uint32_t k) const;

  /// Exact row: element u is p_u(q).
  rtk::Result<std::vector<double>> Row(uint32_t q) const;

  /// Seconds spent tabulating the thresholds (0 when read from the cache).
  double table_seconds() const { return table_seconds_; }

 private:
  std::shared_ptr<const rtk::KdashIndex> kdash_;
  uint32_t n_ = 0;
  std::vector<uint32_t> ks_;
  // Per k = ks_[i], two node-indexed columns: [2i] the k-th largest
  // proximity, [2i + 1] the (k+1)-th.
  std::vector<double> table_;
  double table_seconds_ = 0.0;
};

/// \brief Outcome of judging one answer.
struct Verdict {
  /// Nodes certainly in the exact answer that the answer lacks.
  uint64_t missing = 0;
  /// Nodes certainly outside the exact answer that the answer holds.
  uint64_t extra = 0;
  /// Nodes inside the tie band: not judged.
  uint64_t ties = 0;
  bool ok() const { return missing == 0 && extra == 0; }
};

/// Judges `answer` (ascending node ids) as the exact reverse top-k of the
/// query whose exact row is `row`.
Verdict CheckExact(std::span<const double> row, const Thresholds& at_k,
                   const std::vector<uint32_t>& answer);

/// Judges a hits-only answer: it may omit anything, but every node it holds
/// must belong to the exact answer (ties allowed). Only `extra` counts.
Verdict CheckHits(std::span<const double> row, const Thresholds& at_k,
                  const std::vector<uint32_t>& hits);

/// True when ascending `subset` is contained in ascending `superset`.
bool IsSubset(const std::vector<uint32_t>& subset,
              const std::vector<uint32_t>& superset);

/// Counts (node, k) pairs over every node and every k in the oracle's ks()
/// whose stored lower bound exceeds the exact k-th value by more than the
/// tie tolerance — each one a broken lower bound.
uint64_t CountBoundViolations(const rtk::LowerBoundIndex& index,
                              const Oracle& oracle);

/// True when two indexes hold the same per-node contents: bounds, residue
/// and stored BCA state, compared bit for bit.
bool SameIndexContents(const rtk::LowerBoundIndex& a,
                       const rtk::LowerBoundIndex& b);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
