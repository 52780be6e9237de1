#include "distance/emd.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "data/stats.h"

namespace tcm {
namespace {

// Sum_{i=a}^{b} |x - i| for integer i, real x, in closed form.
double AbsRankSum(int64_t a, int64_t b, double x) {
  if (b < a) return 0.0;
  double count = static_cast<double>(b - a + 1);
  double mid_sum = 0.5 * static_cast<double>(a + b) * count;  // sum of i
  if (x <= static_cast<double>(a)) return mid_sum - count * x;
  if (x >= static_cast<double>(b)) return count * x - mid_sum;
  // a < x < b: split at the last i below (or at) x.
  int64_t split = static_cast<int64_t>(std::floor(x));
  double left_count = static_cast<double>(split - a + 1);
  double left = left_count * x -
                0.5 * static_cast<double>(a + split) * left_count;
  double right_count = static_cast<double>(b - split);
  double right = 0.5 * static_cast<double>(split + 1 + b) * right_count -
                 right_count * x;
  return left + right;
}

std::vector<uint32_t> RanksFromColumn(const std::vector<double>& values) {
  std::vector<uint32_t> order = SortOrder32(values);
  std::vector<uint32_t> ranks(values.size());
  for (size_t position = 0; position < order.size(); ++position) {
    ranks[order[position]] = static_cast<uint32_t>(position);
  }
  return ranks;
}

// Shared core of EmdFromSortedRanks. The cumulative cluster mass cumP is a
// step function over 1-based bins: 0 before the first member's bin, j/c
// from the j-th member's bin up to the bin before member j+1, and 1 from
// the last member's bin onward. Each constant segment contributes
// sum_i |v - i/n| = AbsRankSum(start, end, v*n) / n.
double EmdFromSortedRanksImpl(const std::vector<uint32_t>& sorted_ranks,
                              int64_t n) {
  const size_t c = sorted_ranks.size();
  double total = 0.0;
  for (size_t j = 0; j <= c; ++j) {
    int64_t start =
        (j == 0) ? 1 : static_cast<int64_t>(sorted_ranks[j - 1]) + 1;
    int64_t end = (j == c) ? n : static_cast<int64_t>(sorted_ranks[j]);
    double v = static_cast<double>(j) / static_cast<double>(c);
    total += AbsRankSum(start, end, v * static_cast<double>(n));
  }
  return total / (static_cast<double>(n) * static_cast<double>(n - 1));
}

}  // namespace

double OrderedEmd(const std::vector<double>& p, const std::vector<double>& q) {
  TCM_DCHECK_EQ(p.size(), q.size());
  TCM_DCHECK(!p.empty());
  const size_t m = p.size();
  if (m == 1) return 0.0;
  double cumulative = 0.0;
  double total = 0.0;
  for (size_t i = 0; i < m; ++i) {
    cumulative += p[i] - q[i];
    total += std::fabs(cumulative);
  }
  return total / static_cast<double>(m - 1);
}

EmdCalculator::EmdCalculator(const Dataset& data) {
  std::vector<size_t> conf = data.schema().ConfidentialIndices();
  TCM_CHECK(!conf.empty()) << "dataset has no confidential attribute";
  std::vector<double> values = data.ColumnAsDouble(conf.front());
  n_ = static_cast<int64_t>(values.size());
  TCM_CHECK_GT(n_, 1);
  ranks_ = RanksFromColumn(values);
}

EmdCalculator::EmdCalculator(const std::vector<double>& confidential_values) {
  n_ = static_cast<int64_t>(confidential_values.size());
  TCM_CHECK_GT(n_, 1);
  ranks_ = RanksFromColumn(confidential_values);
}

double EmdCalculator::ClusterEmd(const std::vector<size_t>& rows) const {
  TCM_DCHECK(!rows.empty());
  std::vector<uint32_t> sorted;
  sorted.reserve(rows.size());
  for (size_t row : rows) {
    TCM_DCHECK(row < ranks_.size());
    sorted.push_back(ranks_[row]);
  }
  std::sort(sorted.begin(), sorted.end());
  return EmdFromSortedRanks(sorted);
}

double EmdCalculator::EmdFromSortedRanks(
    const std::vector<uint32_t>& sorted_ranks) const {
  TCM_DCHECK(!sorted_ranks.empty());
  TCM_DCHECK(sorted_ranks.back() < static_cast<uint32_t>(n_));
  return EmdFromSortedRanksImpl(sorted_ranks, n_);
}

double EmdCalculator::ReferenceClusterEmd(
    const std::vector<size_t>& rows) const {
  TCM_CHECK(!rows.empty());
  const size_t n = static_cast<size_t>(n_);
  std::vector<double> cluster_mass(n, 0.0);
  double share = 1.0 / static_cast<double>(rows.size());
  for (size_t row : rows) cluster_mass[ranks_[row]] += share;
  double cumulative = 0.0;
  double total = 0.0;
  double step = 1.0 / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    cumulative += cluster_mass[i] - step;
    total += std::fabs(cumulative);
  }
  return total / static_cast<double>(n - 1);
}

}  // namespace tcm
