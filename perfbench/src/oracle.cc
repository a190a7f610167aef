#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <utility>

#include "common/stopwatch.h"

namespace perfbench {

namespace {

// FNV-1a over raw bytes: the cache key only has to change whenever the
// graph, alpha or the k list does.
class Fnv64 {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void Value(const T& v) {
    Bytes(&v, sizeof(v));
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

uint64_t CacheKey(const rtk::TransitionOperator& op, double alpha,
                  const std::vector<uint32_t>& ks) {
  const rtk::Graph& g = op.graph();
  Fnv64 h;
  h.Value(g.num_nodes());
  for (uint32_t u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.OutNeighbors(u);
    const auto weights = g.OutWeights(u);
    h.Value(static_cast<uint64_t>(nbrs.size()));
    h.Bytes(nbrs.data(), nbrs.size_bytes());
    h.Bytes(weights.data(), weights.size_bytes());
  }
  h.Value(alpha);
  h.Bytes(ks.data(), ks.size() * sizeof(uint32_t));
  return h.hash();
}

constexpr uint64_t kCacheMagic = 0x3268746b52424650ull;  // "PFBRkth2"

bool ReadTable(const std::string& path, uint32_t n, size_t num_ks,
               std::vector<double>* kth) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  uint64_t magic = 0;
  uint64_t size = 0;
  bool ok = std::fread(&magic, sizeof(magic), 1, f) == 1 &&
            std::fread(&size, sizeof(size), 1, f) == 1 &&
            magic == kCacheMagic && size == uint64_t{n} * num_ks;
  if (ok) {
    kth->resize(size);
    ok = std::fread(kth->data(), sizeof(double), size, f) == size;
  }
  std::fclose(f);
  return ok;
}

void WriteTable(const std::string& path, const std::vector<double>& kth) {
  // Written under a temporary name and renamed, so a reader never sees a
  // half-written table.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return;
  const uint64_t size = kth.size();
  bool ok = std::fwrite(&kCacheMagic, sizeof(kCacheMagic), 1, f) == 1 &&
            std::fwrite(&size, sizeof(size), 1, f) == 1 &&
            std::fwrite(kth.data(), sizeof(double), size, f) == size;
  ok = std::fclose(f) == 0 && ok;
  std::error_code ec;
  if (ok) {
    std::filesystem::rename(tmp, path, ec);
  } else {
    std::filesystem::remove(tmp, ec);
  }
}

// Shared walk of CheckExact / CheckHits: classifies every node as certainly
// in, certainly out, or a tie, and compares with the answer. Exact zeros
// are exact: M = I - (1-alpha)A is an M-matrix, so its LU solves add
// nonnegative terms only and a node that cannot reach q gets exactly 0.
Verdict Judge(std::span<const double> row, const Thresholds& at_k,
              const std::vector<uint32_t>& answer, bool hits_only) {
  Verdict v;
  size_t next = 0;
  for (uint32_t u = 0; u < row.size(); ++u) {
    while (next < answer.size() && answer[next] < u) ++next;
    const bool present = next < answer.size() && answer[next] == u;
    const double p = row[u];
    const double kth = at_k.kth[u];
    bool in;
    if (p <= 0.0 || p <= kth - kTieTolerance) {
      in = false;
    } else if (kth <= 0.0 || p >= kth + kTieTolerance ||
               at_k.next[u] <= kth - kTieTolerance) {
      in = true;  // above the k-th value, or holding rank k with a gap below
    } else {
      if (present || !hits_only) ++v.ties;
      continue;
    }
    if (in && !present && !hits_only) ++v.missing;
    if (!in && present) ++v.extra;
  }
  // Ids past the row (out of range) are always wrong.
  for (uint32_t u : answer) {
    if (u >= row.size()) ++v.extra;
  }
  return v;
}

}  // namespace

rtk::Result<Oracle> Oracle::Build(const rtk::TransitionOperator& op,
                                  std::vector<uint32_t> ks,
                                  const std::string& cache_dir) {
  std::sort(ks.begin(), ks.end());
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  Oracle oracle;
  rtk::KdashOptions kdash_opts;
  RTK_ASSIGN_OR_RETURN(rtk::KdashIndex kdash,
                       rtk::KdashIndex::Build(op, kdash_opts));
  oracle.kdash_ = std::make_shared<const rtk::KdashIndex>(std::move(kdash));
  oracle.n_ = op.num_nodes();
  oracle.ks_ = ks;

  std::string cache_path;
  if (!cache_dir.empty()) {
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.kth",
                  static_cast<unsigned long long>(
                      CacheKey(op, kdash_opts.alpha, ks)));
    std::error_code ec;
    std::filesystem::create_directories(cache_dir, ec);
    cache_path = cache_dir + "/" + name;
    if (ReadTable(cache_path, oracle.n_, 2 * ks.size(), &oracle.table_)) {
      return oracle;
    }
  }

  rtk::Stopwatch watch;
  const uint32_t n = oracle.n_;
  oracle.table_.assign(2 * ks.size() * static_cast<size_t>(n), 0.0);
  for (uint32_t u = 0; u < n; ++u) {
    RTK_ASSIGN_OR_RETURN(std::vector<double> column,
                         oracle.kdash_->SolveColumn(u));
    // Descending order statistics at ranks k-1 and k for every k. Each
    // nth_element works on the tail the previous one left unordered.
    size_t done = 0;
    for (size_t i = 0; i < 2 * ks.size(); ++i) {
      const size_t rank = ks[i / 2] - 1 + i % 2;
      if (rank >= column.size()) break;  // fewer nodes than ranks: 0
      std::nth_element(column.begin() + done, column.begin() + rank,
                       column.end(), std::greater<double>());
      oracle.table_[i * n + u] = column[rank];
      done = rank;
    }
  }
  oracle.table_seconds_ = watch.ElapsedSeconds();
  if (!cache_path.empty()) WriteTable(cache_path, oracle.table_);
  return oracle;
}

Thresholds Oracle::At(uint32_t k) const {
  const auto it = std::find(ks_.begin(), ks_.end(), k);
  if (it == ks_.end()) return {};
  const size_t i = static_cast<size_t>(it - ks_.begin());
  return {{table_.data() + 2 * i * n_, n_},
          {table_.data() + (2 * i + 1) * n_, n_}};
}

rtk::Result<std::vector<double>> Oracle::Row(uint32_t q) const {
  return kdash_->SolveRow(q);
}

Verdict CheckExact(std::span<const double> row, const Thresholds& at_k,
                   const std::vector<uint32_t>& answer) {
  return Judge(row, at_k, answer, /*hits_only=*/false);
}

Verdict CheckHits(std::span<const double> row, const Thresholds& at_k,
                  const std::vector<uint32_t>& hits) {
  return Judge(row, at_k, hits, /*hits_only=*/true);
}

bool IsSubset(const std::vector<uint32_t>& subset,
              const std::vector<uint32_t>& superset) {
  return std::includes(superset.begin(), superset.end(), subset.begin(),
                       subset.end());
}

uint64_t CountBoundViolations(const rtk::LowerBoundIndex& index,
                              const Oracle& oracle) {
  uint64_t violations = 0;
  for (uint32_t k : oracle.ks()) {
    if (k > index.capacity_k()) continue;
    const std::span<const double> kth = oracle.At(k).kth;
    for (uint32_t u = 0; u < index.num_nodes(); ++u) {
      if (index.LowerBound(u, k) > kth[u] + kTieTolerance) ++violations;
    }
  }
  return violations;
}

bool SameIndexContents(const rtk::LowerBoundIndex& a,
                       const rtk::LowerBoundIndex& b) {
  if (a.num_nodes() != b.num_nodes() || a.capacity_k() != b.capacity_k()) {
    return false;
  }
  // Member-wise, bit-exact: pairs carry padding that memcmp would read.
  const auto same_pairs = [](const auto& x, const auto& y) {
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].first != y[i].first ||
          std::memcmp(&x[i].second, &y[i].second, sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  };
  for (uint32_t u = 0; u < a.num_nodes(); ++u) {
    const auto la = a.LowerBounds(u);
    const auto lb = b.LowerBounds(u);
    if (std::memcmp(la.data(), lb.data(), la.size_bytes()) != 0) return false;
    const double ra = a.ResidueL1(u);
    const double rb = b.ResidueL1(u);
    if (std::memcmp(&ra, &rb, sizeof(ra)) != 0) return false;
    const rtk::StoredBcaState& sa = a.State(u);
    const rtk::StoredBcaState& sb = b.State(u);
    if (sa.iterations != sb.iterations || !same_pairs(sa.residue, sb.residue) ||
        !same_pairs(sa.retained, sb.retained) ||
        !same_pairs(sa.hub_ink, sb.hub_ink)) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
