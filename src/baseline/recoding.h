#ifndef TCM_BASELINE_RECODING_H_
#define TCM_BASELINE_RECODING_H_

#include <vector>

#include "common/result.h"
#include "data/dataset.h"

namespace tcm {

// Global-recoding (full-domain generalization) baseline in the spirit of
// Incognito: every quasi-identifier is discretized into equal-width bins
// (values replaced by bin centres) and the bin counts are coarsened —
// halving the attribute with the most bins — until the release satisfies
// k-anonymity and, when t >= 0, t-closeness. This is the
// generalization-style comparator whose granularity loss Section 4 of the
// paper argues against; the SSE benches quantify that argument.
struct RecodingResult {
  Dataset anonymized;
  std::vector<size_t> bins_per_attribute;  // final lattice node, QIs only
  size_t coarsenings = 0;                  // halvings performed
};

struct RecodingOptions {
  size_t initial_bins = 32;
  // t < 0 disables the t-closeness constraint (plain k-anonymity search).
  double t = -1.0;
};

// InvalidArgument if there are fewer than 2 records, no quasi-identifiers
// or no confidential attribute, or k == 0 or k > n: every lattice node is
// checked with CheckRelease, which measures both guarantees at once.
// Always terminates: with one bin per attribute the release is a single
// equivalence class (EMD 0).
Result<RecodingResult> GlobalRecodingAnonymize(
    const Dataset& data, size_t k, const RecodingOptions& options = {});

}  // namespace tcm

#endif  // TCM_BASELINE_RECODING_H_
