#include "privacy/equivalence.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <unordered_map>

#include "engine/thread_pool.h"

namespace tcm {
namespace {

// Hash of one row of the flattened QI matrix: the q doubles starting at
// `keys + row * q`. -0.0 is folded into 0.0 before hashing so the two zero
// encodings land in one class, matching the ordered-map grouping this
// replaces (where -0.0 < 0.0 is false both ways).
size_t HashQiRow(const double* key, size_t q) {
  size_t h = 0xcbf29ce484222325ULL;
  for (size_t j = 0; j < q; ++j) {
    double v = key[j];
    if (v == 0.0) v = 0.0;
    h ^= std::hash<double>{}(v) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

// Map hash/equality over row ids, reading the precomputed row hashes and
// the flattened keys.
struct RowHash {
  const std::vector<size_t>* hashes;
  size_t operator()(size_t row) const { return (*hashes)[row]; }
};

struct RowEqual {
  const std::vector<double>* keys;
  size_t q;
  bool operator()(size_t a, size_t b) const {
    for (size_t j = 0; j < q; ++j) {
      if ((*keys)[a * q + j] != (*keys)[b * q + j]) return false;
    }
    return true;
  }
};

// Buckets per pool thread: a few more than threads, for balance.
constexpr size_t kBucketsPerThread = 4;

}  // namespace

Result<std::vector<std::vector<size_t>>> EquivalenceClasses(
    const Dataset& data, ThreadPool* pool) {
  std::vector<size_t> qi = data.schema().QuasiIdentifierIndices();
  if (qi.empty()) {
    return Status::InvalidArgument("dataset has no quasi-identifiers");
  }
  const size_t n = data.NumRecords();
  const size_t q = qi.size();
  // Flatten the QI tuples once so grouping compares a contiguous array
  // instead of re-reading variant cells per probe. Exact-match grouping
  // on doubles is correct here: aggregation writes identical centroid
  // values into every member of a cluster.
  std::vector<double> keys(n * q);
  std::vector<size_t> hashes(n);
  ParallelForRanges(pool, n, [&](size_t begin, size_t end) {
    for (size_t row = begin; row < end; ++row) {
      for (size_t j = 0; j < q; ++j) {
        keys[row * q + j] = data.cell(row, qi[j]).AsDouble();
      }
      hashes[row] = HashQiRow(&keys[row * q], q);
    }
  });

  // Equal rows hash equally, so every class falls in exactly one bucket
  // and the buckets group independently. Each bucket scans rows
  // ascending, so its classes have ascending members and appear in
  // first-occurrence order.
  const size_t buckets =
      pool == nullptr ? 1 : kBucketsPerThread * pool->num_threads();
  std::vector<std::vector<std::vector<size_t>>> grouped(buckets);
  ParallelFor(pool, buckets, [&](size_t b) {
    std::vector<std::vector<size_t>>& out = grouped[b];
    std::unordered_map<size_t, size_t, RowHash, RowEqual> group_of(
        /*bucket_count=*/n / buckets + 1, RowHash{&hashes},
        RowEqual{&keys, q});
    for (size_t row = 0; row < n; ++row) {
      if ((hashes[row] >> 32) % buckets != b) continue;
      auto [it, inserted] = group_of.try_emplace(row, out.size());
      if (inserted) out.emplace_back();
      out[it->second].push_back(row);
    }
  });
  std::vector<std::vector<size_t>> classes = std::move(grouped[0]);
  for (size_t b = 1; b < buckets; ++b) {
    classes.insert(classes.end(), std::make_move_iterator(grouped[b].begin()),
                   std::make_move_iterator(grouped[b].end()));
  }
  // Interleave the buckets back into first-occurrence order —
  // deterministic no matter how the hash scatters the rows.
  if (buckets > 1) {
    std::sort(classes.begin(), classes.end(),
              [](const std::vector<size_t>& a, const std::vector<size_t>& b) {
                return a.front() < b.front();
              });
  }
  return classes;
}

}  // namespace tcm
