#ifndef TCM_DATA_STATS_H_
#define TCM_DATA_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace tcm {

// Descriptive statistics over double sequences. All functions tolerate
// empty input by returning 0 unless documented otherwise; callers that
// need to distinguish should check sizes first.

double Mean(const std::vector<double>& xs);

// Population variance (divide by n).
double Variance(const std::vector<double>& xs);
double StdDev(const std::vector<double>& xs);

double Min(const std::vector<double>& xs);
double Max(const std::vector<double>& xs);

// max - min; 0 for empty or constant input.
double Range(const std::vector<double>& xs);

// Linear-interpolated quantile, q in [0,1]. Requires non-empty input.
double Quantile(std::vector<double> xs, double q);
double Median(std::vector<double> xs);

// Pearson correlation; 0 when either side has zero variance.
double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys);

// Positions 0..n-1 such that xs[order[0]] <= xs[order[1]] <= ...; ties
// broken by original index (stable), giving each record a distinct rank.
// -0.0 ties with 0.0. A stable LSD radix sort on order-preserving 64-bit
// keys: O(n) per byte that varies across the input, at most eight. NaN
// has no place under `<` (input readers reject it); here a NaN with its
// sign bit clear sorts after +inf and one with it set before -inf.
std::vector<size_t> SortOrder(const std::vector<double>& xs);

// SortOrder as 32-bit positions; requires xs.size() < 2^32.
std::vector<uint32_t> SortOrder32(const std::vector<double>& xs);

// Solves the dense linear system A x = b by Gauss-Jordan elimination with
// partial pivoting; returns false when A is numerically singular. A is
// row-major square; used for the multiple-correlation solve and the
// logistic-regression Newton step (dimensions = #attributes, tiny).
bool SolveLinearSystem(std::vector<std::vector<double>> a,
                       std::vector<double> b, std::vector<double>* x);

// The paper characterizes its test data sets by "the correlation between
// the quasi-identifier attributes and the confidential attribute" (0.52 MCD,
// 0.92 HCD, 0.129 patient discharge). We reproduce that scalar as the
// multiple-correlation coefficient R of the best linear predictor of the
// confidential attribute from the quasi-identifiers (equals |Pearson| for a
// single QI), on the schema's first confidential attribute; 0 without one.
double QiConfidentialCorrelation(const Dataset& data);

// The same R for the attribute in column `target` (SummarizeDataset reports
// it for every confidential attribute); 0 without a quasi-identifier or
// with fewer than 2 records.
double QiCorrelation(const Dataset& data, size_t target);

}  // namespace tcm

#endif  // TCM_DATA_STATS_H_
