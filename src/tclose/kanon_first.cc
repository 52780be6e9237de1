#include "tclose/kanon_first.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace tcm {
namespace {

// Cluster under refinement: member rows and their confidential ranks, the
// latter kept sorted so EMD evaluations are O(|C|).
struct RefinableCluster {
  std::vector<size_t> rows;
  std::vector<uint32_t> sorted_ranks;
};

RefinableCluster MakeRefinable(const EmdCalculator& emd,
                               std::vector<size_t> rows) {
  RefinableCluster out;
  out.sorted_ranks.reserve(rows.size());
  for (size_t row : rows) out.sorted_ranks.push_back(emd.RankOf(row));
  std::sort(out.sorted_ranks.begin(), out.sorted_ranks.end());
  out.rows = std::move(rows);
  return out;
}

// sorted_ranks with the value at `drop_pos` replaced by `add_rank`,
// keeping the order. O(|ranks|).
std::vector<uint32_t> RanksAfterSwap(const std::vector<uint32_t>& ranks,
                                     size_t drop_pos, uint32_t add_rank) {
  std::vector<uint32_t> out;
  out.reserve(ranks.size());
  bool inserted = false;
  for (size_t i = 0; i < ranks.size(); ++i) {
    if (i == drop_pos) continue;
    if (!inserted && add_rank < ranks[i]) {
      out.push_back(add_rank);
      inserted = true;
    }
    out.push_back(ranks[i]);
  }
  if (!inserted) out.push_back(add_rank);
  return out;
}

// The paper's GenerateCluster: the k pool records nearest to `seed` form
// the cluster; while the cluster's EMD exceeds t, the next-nearest pool
// record y is considered and the member y' whose replacement by y lowers
// EMD most is swapped out (if any improvement). Consumed candidates that
// do not enter the cluster stay available to later clusters (they are only
// removed from this call's local view).
Cluster GenerateCluster(const QiSpace& space, const EmdCalculator& emd,
                        size_t seed, const std::vector<size_t>& pool,
                        size_t k, double t, const KAnonFirstOptions& options,
                        KAnonFirstStats* stats) {
  if (pool.size() < 2 * k) return pool;  // paper: C = X' when |X'| < 2k

  // Pool ordered by QI distance to the seed; the seed itself sorts first.
  std::vector<size_t> order =
      space.NearestToRecord(pool, seed, pool.size());
  RefinableCluster cluster = MakeRefinable(
      emd, std::vector<size_t>(order.begin(), order.begin() + k));
  if (!options.enable_swaps) return std::move(cluster.rows);

  double current_emd = emd.EmdFromSortedRanks(cluster.sorted_ranks);
  for (size_t next = k; next < order.size() && current_emd > t; ++next) {
    size_t y = order[next];
    uint32_t y_rank = emd.RankOf(y);
    if (stats != nullptr) ++stats->swap_candidates;

    double best_emd = current_emd;
    size_t best_pos = cluster.sorted_ranks.size();
    std::vector<uint32_t> best_ranks;
    for (size_t pos = 0; pos < cluster.sorted_ranks.size(); ++pos) {
      std::vector<uint32_t> candidate =
          RanksAfterSwap(cluster.sorted_ranks, pos, y_rank);
      double candidate_emd = emd.EmdFromSortedRanks(candidate);
      if (candidate_emd < best_emd) {
        best_emd = candidate_emd;
        best_pos = pos;
        best_ranks = std::move(candidate);
      }
    }
    if (best_pos == cluster.sorted_ranks.size()) continue;  // no improvement

    // Identify the member row carrying the dropped rank and replace it.
    uint32_t dropped_rank = cluster.sorted_ranks[best_pos];
    for (size_t i = 0; i < cluster.rows.size(); ++i) {
      if (emd.RankOf(cluster.rows[i]) == dropped_rank) {
        cluster.rows[i] = y;
        break;
      }
    }
    cluster.sorted_ranks = std::move(best_ranks);
    current_emd = best_emd;
    if (stats != nullptr) ++stats->swaps;
  }
  return std::move(cluster.rows);
}

}  // namespace

Result<Partition> KAnonFirstPartition(const QiSpace& space,
                                      const EmdCalculator& emd, size_t k,
                                      double t,
                                      const KAnonFirstOptions& options,
                                      KAnonFirstStats* stats) {
  const size_t n = space.num_records();
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > n) {
    return Status::InvalidArgument("k=" + std::to_string(k) +
                                   " exceeds number of records " +
                                   std::to_string(n));
  }
  if (t < 0.0) return Status::InvalidArgument("t must be non-negative");

  Partition partition;
  std::vector<size_t> remaining(n);
  std::iota(remaining.begin(), remaining.end(), 0);

  while (!remaining.empty()) {
    std::vector<double> centroid = space.Centroid(remaining);
    size_t x0 = space.FarthestFromPoint(remaining, centroid);
    Cluster cluster =
        GenerateCluster(space, emd, x0, remaining, k, t, options, stats);
    RemoveRows(cluster, &remaining);
    partition.clusters.push_back(std::move(cluster));

    if (!remaining.empty()) {
      const double* x0_point = space.point(x0);
      std::vector<double> x0_coords(x0_point, x0_point + space.num_dims());
      size_t x1 = space.FarthestFromPoint(remaining, x0_coords);
      Cluster second =
          GenerateCluster(space, emd, x1, remaining, k, t, options, stats);
      RemoveRows(second, &remaining);
      partition.clusters.push_back(std::move(second));
    }
  }
  return partition;
}

Result<Partition> KAnonFirstTCloseness(const QiSpace& space,
                                       const EmdCalculator& emd, size_t k,
                                       double t,
                                       const KAnonFirstOptions& options,
                                       KAnonFirstStats* stats) {
  TCM_ASSIGN_OR_RETURN(Partition initial,
                       KAnonFirstPartition(space, emd, k, t, options, stats));
  MergeStats merge_stats;
  auto merged =
      MergeUntilTClose(space, emd, t, std::move(initial), &merge_stats);
  if (merged.ok() && stats != nullptr) {
    stats->merges = merge_stats.merges;
    stats->final_max_emd = merge_stats.final_max_emd;
  }
  return merged;
}

}  // namespace tcm
