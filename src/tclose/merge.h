#ifndef TCM_TCLOSE_MERGE_H_
#define TCM_TCLOSE_MERGE_H_

#include <string>

#include "common/result.h"
#include "distance/emd.h"
#include "distance/qi_space.h"
#include "engine/thread_pool.h"
#include "microagg/microagg.h"
#include "microagg/partition.h"

namespace tcm {

// How the repair pass orders its work.
//
//  * kSequential — the paper's Algorithm 1 loop, one merge at a time over
//    all clusters. Byte-stable: the released partition (and every stat)
//    is the reference the golden tests pin.
//  * kHierarchical — clusters are split into deterministic subtrees that
//    are repaired concurrently on a ThreadPool, then a sequential global
//    tail fixes the residual violations. The subtree layout is a pure
//    function of the cluster count and row total — never of the thread
//    count — so releases are reproducible at any parallelism, but they
//    legitimately differ from the sequential engine's bytes (the property
//    tests prove both satisfy the same k-anonymity/t-closeness verdicts).
enum class MergeStrategy {
  kSequential,
  kHierarchical,
};

// Stable lower-case wire name ("sequential" / "hierarchical").
const char* MergeStrategyName(MergeStrategy strategy);

// Inverse of MergeStrategyName; kInvalidArgument on anything else.
Result<MergeStrategy> ParseMergeStrategy(const std::string& name);

// Statistics reported by the merging loop. The check counters tie out:
// candidate_checks == pruned_checks + exact_checks, where a "check" is
// one cluster-EMD determination (one per initial cluster plus one per
// merge) and "pruned" means the closed-form bounds answered it without an
// exact EMD evaluation.
struct MergeStats {
  size_t merges = 0;        // number of cluster mergers performed
  double final_max_emd = 0; // max per-cluster EMD after the loop (an
                            // upper bound when the last check was pruned)
  size_t num_subtrees = 0;      // hierarchical only; 0 for sequential
  size_t subtree_merges = 0;    // merges inside subtrees
  size_t tail_merges = 0;       // merges in the global tail (sequential:
                                // equals merges)
  size_t candidate_checks = 0;  // cluster-EMD determinations requested
  size_t pruned_checks = 0;     // answered by emd_bounds, no exact EMD
  size_t exact_checks = 0;      // full EMD evaluations
};

// Tuning for MergeUntilTCloseWith.
struct MergeOptions {
  // kHierarchical also answers per-cluster EMD checks from the paper's
  // closed-form bounds when it can: a freshly merged cluster whose
  // mixture upper bound (MixtureEmdUpperBound) already meets t is
  // provably safe, and an initial cluster small enough that
  // MinClusterEmd exceeds t is provably violating; neither needs an
  // exact evaluation. Its final_max_emd may then be an upper bound.
  // kSequential evaluates every check exactly, so its stats stay the
  // byte-stable reference.
  MergeStrategy strategy = MergeStrategy::kSequential;

  // Subtree fan-out target for kHierarchical; ignored (may be null) for
  // kSequential. Null runs the subtrees inline on the caller.
  ThreadPool* pool = nullptr;
};

// Algorithm 1 (paper Sec. 5), merging phase only: repeatedly merge the
// cluster with the greatest EMD to the whole data set into the cluster
// nearest to it in quasi-identifier (centroid) distance, until every
// cluster satisfies t-closeness. Always terminates: in the worst case all
// records end up in one cluster with EMD 0.
//
// `initial` must be a valid partition of the records of `space`.
Result<Partition> MergeUntilTClose(const QiSpace& space,
                                   const EmdCalculator& emd, double t,
                                   Partition initial,
                                   MergeStats* stats = nullptr);

// Full-control variant: everything above plus strategy selection and the
// subtree fan-out. MergeUntilTClose delegates here with default options
// (sequential).
Result<Partition> MergeUntilTCloseWith(const QiSpace& space,
                                       const EmdCalculator& emd, double t,
                                       Partition initial,
                                       const MergeOptions& options,
                                       MergeStats* stats = nullptr);

// Full Algorithm 1: standard microaggregation (per `options`) on the
// quasi-identifiers followed by the merging phase.
Result<Partition> MergeTCloseness(const QiSpace& space,
                                  const EmdCalculator& emd, size_t k, double t,
                                  const MicroaggOptions& options = {},
                                  MergeStats* stats = nullptr);

}  // namespace tcm

#endif  // TCM_TCLOSE_MERGE_H_
