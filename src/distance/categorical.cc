#include "distance/categorical.h"

#include <cmath>
#include <numeric>

#include "common/check.h"
#include "distance/emd.h"

namespace tcm {
namespace {

std::vector<double> Normalize(const std::vector<size_t>& counts) {
  double total = static_cast<double>(
      std::accumulate(counts.begin(), counts.end(), size_t{0}));
  TCM_CHECK_GT(total, 0.0) << "empty distribution";
  std::vector<double> out(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    out[i] = static_cast<double>(counts[i]) / total;
  }
  return out;
}

}  // namespace

double OrdinalCategoricalEmd(const std::vector<size_t>& counts_p,
                             const std::vector<size_t>& counts_q) {
  TCM_CHECK_EQ(counts_p.size(), counts_q.size());
  TCM_CHECK(!counts_p.empty());
  return OrderedEmd(Normalize(counts_p), Normalize(counts_q));
}

double NominalCategoricalEmd(const std::vector<size_t>& counts_p,
                             const std::vector<size_t>& counts_q) {
  TCM_CHECK_EQ(counts_p.size(), counts_q.size());
  TCM_CHECK(!counts_p.empty());
  std::vector<double> p = Normalize(counts_p);
  std::vector<double> q = Normalize(counts_q);
  double total = 0.0;
  for (size_t i = 0; i < p.size(); ++i) total += std::fabs(p[i] - q[i]);
  return 0.5 * total;
}

std::vector<size_t> CountCategoryCodes(std::span<const int32_t> codes,
                                       size_t universe) {
  TCM_CHECK_GT(universe, 0u);
  std::vector<size_t> counts(universe, 0);
  for (int32_t code : codes) {
    TCM_CHECK(code >= 0 && static_cast<size_t>(code) < universe)
        << "dictionary code " << code << " outside universe of " << universe;
    ++counts[static_cast<size_t>(code)];
  }
  return counts;
}

double JensenShannonDivergence(const std::vector<size_t>& counts_p,
                               const std::vector<size_t>& counts_q) {
  TCM_CHECK_EQ(counts_p.size(), counts_q.size());
  TCM_CHECK(!counts_p.empty());
  std::vector<double> p = Normalize(counts_p);
  std::vector<double> q = Normalize(counts_q);
  auto kl_to_mixture = [](const std::vector<double>& a,
                          const std::vector<double>& b) {
    double sum = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] <= 0.0) continue;
      double mix = 0.5 * (a[i] + b[i]);
      sum += a[i] * std::log(a[i] / mix);
    }
    return sum;
  };
  return 0.5 * kl_to_mixture(p, q) + 0.5 * kl_to_mixture(q, p);
}

}  // namespace tcm
