#include "tclose/merge.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <limits>
#include <span>
#include <utility>

#include "common/check.h"
#include "distance/emd_bounds.h"
#include "obs/trace.h"

namespace tcm {
namespace {

// One cluster of the repair loop. Alongside rows/centroid it carries the
// machinery that makes a merge step O(Δ): the member ranks kept sorted
// (the cluster's confidential distribution in the closed-form EMD's
// terms), so merging two clusters is one std::merge and an exact
// re-evaluation is the O(c) EmdFromSortedRanks instead of the
// gather-and-sort ClusterEmd pays from scratch.
struct ClusterState {
  // How `emd` relates to the cluster's true EMD. kUpper is only
  // stored when the bound already meets t (the cluster is proven safe);
  // kLower only when the bound exceeds t (proven violating).
  enum class Kind : uint8_t { kExact, kUpper, kLower };

  Cluster rows;
  std::vector<double> centroid;  // QI centroid (mean of member points)
  double emd = 0.0;
  Kind kind = Kind::kExact;
  std::vector<uint32_t> ranks;  // ascending
};

// Per-engine-run tallies, merged into MergeStats by the callers.
struct EngineCounters {
  size_t merges = 0;
  size_t candidate_checks = 0;
  size_t pruned_checks = 0;
  size_t exact_checks = 0;
};

std::vector<double> WeightedCentroid(const std::vector<double>& a, size_t na,
                                     const std::vector<double>& b, size_t nb) {
  std::vector<double> out(a.size());
  double wa = static_cast<double>(na), wb = static_cast<double>(nb);
  for (size_t d = 0; d < a.size(); ++d) {
    out[d] = (a[d] * wa + b[d] * wb) / (wa + wb);
  }
  return out;
}

double CentroidSquaredDistance(const std::vector<double>& a,
                               const std::vector<double>& b) {
  double sum = 0.0;
  for (size_t d = 0; d < a.size(); ++d) {
    double diff = a[d] - b[d];
    sum += diff * diff;
  }
  return sum;
}

// Builds the engine's working set from an initial partition. With
// `prune` (hierarchical engine only), a cluster small enough that
// even the best-placed cluster of its size violates t — MinClusterEmd,
// Prop. 1 — is marked a proven violator without an exact evaluation.
// Takes the clusters out of `clusters` (a slice of the initial partition,
// so subtree tasks can each initialize their own).
std::vector<ClusterState> InitStates(const QiSpace& space,
                                     const EmdCalculator& emd, double t,
                                     bool prune,
                                     std::span<Cluster> clusters,
                                     EngineCounters* counters) {
  const size_t n = space.num_records();
  std::vector<ClusterState> states;
  states.reserve(clusters.size());
  for (Cluster& cluster : clusters) {
    ClusterState state;
    state.centroid = space.Centroid(cluster);
    state.ranks.reserve(cluster.size());
    for (size_t row : cluster) state.ranks.push_back(emd.RankOf(row));
    std::sort(state.ranks.begin(), state.ranks.end());
    ++counters->candidate_checks;
    double lower = n > 1 ? MinClusterEmd(n, cluster.size()) : 0.0;
    if (prune && lower > t) {
      state.emd = lower;
      state.kind = ClusterState::Kind::kLower;
      ++counters->pruned_checks;
    } else {
      state.emd = emd.EmdFromSortedRanks(state.ranks);
      state.kind = ClusterState::Kind::kExact;
      ++counters->exact_checks;
    }
    state.rows = std::move(cluster);
    states.push_back(std::move(state));
  }
  return states;
}

// The sequential repair loop over one working set, compacted so every
// scan is O(alive): a merged-away cluster is erased from the vector
// rather than tombstoned (the pre-compaction engine rescanned every dead
// slot each round — 832 rounds × the full initial cluster count on the
// 1M-row bench). Erasure preserves relative order, and the merge target
// stays in place, so the worst-first / nearest-partner tie-breaks match
// the historical slot-order semantics exactly; with pruning off the
// partition bytes are identical to the legacy engine's.
//
// Pruning (when enabled) answers checks from the closed-form bounds: a
// fresh merger of two non-lower-bounded clusters whose
// MixtureEmdUpperBound already meets t is proven safe with no exact
// evaluation. Only values above t compete in the worst-cluster scan, so
// a kUpper cluster (bound <= t) never changes the pick. A kLower cluster
// does compete, with its lower bound in place of its true EMD, so among
// proven violators the scan can pick a different one first than the
// unpruned loop would, and the partition can differ from kSequential's.
// Every pick is still a proven violator, the scan is a pure function of
// the states, and the loop ends only when every value is <= t: the
// release stays deterministic and t-close.
void RunEngine(const EmdCalculator& emd, double t, bool prune,
               std::vector<ClusterState>* states, EngineCounters* counters) {
  std::vector<ClusterState>& live = *states;
  while (live.size() > 1) {
    // Cluster farthest from satisfying t-closeness.
    size_t worst = live.size();
    double worst_emd = t;
    for (size_t i = 0; i < live.size(); ++i) {
      if (live[i].emd > worst_emd) {
        worst_emd = live[i].emd;
        worst = i;
      }
    }
    if (worst == live.size()) break;  // every cluster is t-close

    // One span per merge round: sequential-tail pressure shows up in
    // traces as individually measurable slices, and span count equals
    // the engine's merge tally. Costs one relaxed atomic load per round
    // when tracing is off.
    TraceSpan round_span("merge_round");

    // Nearest other cluster in QI centroid distance.
    size_t partner = live.size();
    double best_dist = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < live.size(); ++i) {
      if (i == worst) continue;
      double dist =
          CentroidSquaredDistance(live[worst].centroid, live[i].centroid);
      if (dist < best_dist) {
        best_dist = dist;
        partner = i;
      }
    }
    TCM_DCHECK_LT(partner, live.size());

    ClusterState& dst = live[worst];
    ClusterState& src = live[partner];
    const size_t dst_size = dst.rows.size();
    const size_t src_size = src.rows.size();
    dst.centroid =
        WeightedCentroid(dst.centroid, dst_size, src.centroid, src_size);
    dst.rows.insert(dst.rows.end(), src.rows.begin(), src.rows.end());
    std::vector<uint32_t> merged;
    merged.reserve(dst.ranks.size() + src.ranks.size());
    std::merge(dst.ranks.begin(), dst.ranks.end(), src.ranks.begin(),
               src.ranks.end(), std::back_inserter(merged));
    dst.ranks = std::move(merged);
    ++counters->candidate_checks;
    bool pruned = false;
    if (prune && dst.kind != ClusterState::Kind::kLower &&
        src.kind != ClusterState::Kind::kLower) {
      // Both inputs are exact values or upper bounds, so the mixture
      // bound is a sound upper bound for the union.
      double upper =
          MixtureEmdUpperBound(dst_size, dst.emd, src_size, src.emd);
      if (upper <= t) {
        dst.emd = upper;
        dst.kind = ClusterState::Kind::kUpper;
        ++counters->pruned_checks;
        pruned = true;
      }
    }
    if (!pruned) {
      dst.emd = emd.EmdFromSortedRanks(dst.ranks);
      dst.kind = ClusterState::Kind::kExact;
      ++counters->exact_checks;
    }
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(partner));
    ++counters->merges;
  }
}

Partition FinishStates(std::vector<ClusterState> states, double* max_emd) {
  Partition out;
  out.clusters.reserve(states.size());
  *max_emd = 0.0;
  for (ClusterState& state : states) {
    *max_emd = std::max(*max_emd, state.emd);
    out.clusters.push_back(std::move(state.rows));
  }
  return out;
}

void AddCounters(const EngineCounters& from, MergeStats* into) {
  into->merges += from.merges;
  into->candidate_checks += from.candidate_checks;
  into->pruned_checks += from.pruned_checks;
  into->exact_checks += from.exact_checks;
}

// Number of hierarchical subtrees for `num_clusters` clusters over
// `num_rows` rows. Deliberately a pure function of the data — never of
// the pool's thread count — so a release is reproducible at any
// parallelism. Each subtree must hold enough rows to form several t-close
// clusters of the paper's minimum size (Eq. 3 RequiredClusterSize,
// adjusted per Eq. 4), and enough clusters that the fan-out overhead is
// worth paying.
size_t PickSubtreeCount(size_t num_rows, size_t num_clusters, double t) {
  constexpr size_t kMinSubtreeClusters = 64;
  constexpr size_t kMaxSubtrees = 16;
  constexpr size_t kTargetClustersPerSubtree = 8;
  if (num_rows < 2 || num_clusters < 2 * kMinSubtreeClusters) return 1;
  const size_t k_star = AdjustClusterSizeForRemainder(
      num_rows, RequiredClusterSize(num_rows, 1, t));
  const size_t min_rows =
      kTargetClustersPerSubtree * std::max<size_t>(1, k_star);
  size_t by_rows = num_rows / min_rows;
  size_t by_clusters = num_clusters / kMinSubtreeClusters;
  size_t subtrees = std::min({by_rows, by_clusters, kMaxSubtrees});
  return std::max<size_t>(1, subtrees);
}

}  // namespace

const char* MergeStrategyName(MergeStrategy strategy) {
  switch (strategy) {
    case MergeStrategy::kSequential:
      return "sequential";
    case MergeStrategy::kHierarchical:
      return "hierarchical";
  }
  return "unknown";
}

Result<MergeStrategy> ParseMergeStrategy(const std::string& name) {
  if (name == "sequential") return MergeStrategy::kSequential;
  if (name == "hierarchical") return MergeStrategy::kHierarchical;
  return Status::InvalidArgument(
      "merge strategy must be \"sequential\" or \"hierarchical\", got \"" +
      name + "\"");
}

Result<Partition> MergeUntilTClose(const QiSpace& space,
                                   const EmdCalculator& emd, double t,
                                   Partition initial, MergeStats* stats) {
  return MergeUntilTCloseWith(space, emd, t, std::move(initial),
                              MergeOptions{}, stats);
}

Result<Partition> MergeUntilTCloseWith(const QiSpace& space,
                                       const EmdCalculator& emd, double t,
                                       Partition initial,
                                       const MergeOptions& options,
                                       MergeStats* stats) {
  TCM_RETURN_IF_ERROR(
      ValidatePartition(initial, space.num_records(), /*min_cluster_size=*/1));
  if (t < 0.0) return Status::InvalidArgument("t must be non-negative");

  MergeStats local;
  const bool hierarchical =
      options.strategy == MergeStrategy::kHierarchical;
  const size_t subtrees =
      hierarchical ? PickSubtreeCount(space.num_records(),
                                      initial.clusters.size(), t)
                   : 1;

  // Only the hierarchical engine answers checks from the EMD bounds.
  const bool prune = hierarchical;
  std::vector<ClusterState> states;
  EngineCounters tail_counters;
  if (subtrees > 1) {
    // Carve the initial partition into contiguous, balanced slices. Each
    // task initializes and repairs its slice and owns it outright, so
    // subtree work shares nothing mutable and completion order cannot
    // affect the result; stitched back in order, the states are exactly
    // what one serial initialization of the whole partition builds.
    local.num_subtrees = subtrees;
    std::vector<std::vector<ClusterState>> slices(subtrees);
    std::vector<EngineCounters> slice_counters(subtrees);
    std::span<Cluster> clusters(initial.clusters);
    ParallelFor(options.pool, subtrees, [&](size_t s) {
      TraceSpan span("merge_subtree");
      auto [begin, end] = SplitRange(clusters.size(), subtrees, s);
      // Work on task-local state and store it once: adjacent slots of
      // slices and slice_counters share cache lines, so updating them on
      // every check would make the subtree tasks fight over those lines.
      EngineCounters counters;
      std::vector<ClusterState> slice =
          InitStates(space, emd, t, prune,
                     clusters.subspan(begin, end - begin), &counters);
      RunEngine(emd, t, prune, &slice, &counters);
      slices[s] = std::move(slice);
      slice_counters[s] = counters;
    });

    // Stitch the surviving clusters back together in subtree order and
    // run the global tail: stored EMDs and sorted ranks carry over, so
    // the tail pays no re-initialization.
    for (size_t s = 0; s < subtrees; ++s) {
      AddCounters(slice_counters[s], &local);
      local.subtree_merges += slice_counters[s].merges;
      states.insert(states.end(),
                    std::make_move_iterator(slices[s].begin()),
                    std::make_move_iterator(slices[s].end()));
      slices[s].clear();
    }
    TraceSpan tail_span("merge_tail");
    RunEngine(emd, t, prune, &states, &tail_counters);
  } else {
    states = InitStates(space, emd, t, prune, initial.clusters,
                        &tail_counters);
    RunEngine(emd, t, prune, &states, &tail_counters);
  }

  AddCounters(tail_counters, &local);
  local.tail_merges = tail_counters.merges;

  double max_emd = 0.0;
  Partition out = FinishStates(std::move(states), &max_emd);
  local.final_max_emd = max_emd;
  if (stats != nullptr) *stats = local;
  return out;
}

Result<Partition> MergeTCloseness(const QiSpace& space,
                                  const EmdCalculator& emd, size_t k, double t,
                                  const MicroaggOptions& options,
                                  MergeStats* stats) {
  TCM_ASSIGN_OR_RETURN(Partition initial, Microaggregate(space, k, options));
  return MergeUntilTClose(space, emd, t, std::move(initial), stats);
}

}  // namespace tcm
