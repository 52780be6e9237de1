#include "data/stats.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace tcm {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double mean = Mean(xs);
  double sum = 0.0;
  for (double x : xs) sum += (x - mean) * (x - mean);
  return sum / static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) { return std::sqrt(Variance(xs)); }

double Min(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double Max(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

double Range(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
  return *hi - *lo;
}

double Quantile(std::vector<double> xs, double q) {
  TCM_CHECK(!xs.empty());
  TCM_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(xs.begin(), xs.end());
  double position = q * static_cast<double>(xs.size() - 1);
  size_t lower = static_cast<size_t>(position);
  size_t upper = std::min(lower + 1, xs.size() - 1);
  double fraction = position - static_cast<double>(lower);
  return xs[lower] * (1.0 - fraction) + xs[upper] * fraction;
}

double Median(std::vector<double> xs) { return Quantile(std::move(xs), 0.5); }

double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  TCM_CHECK_EQ(xs.size(), ys.size());
  if (xs.empty()) return 0.0;
  double mx = Mean(xs), my = Mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    double dx = xs[i] - mx, dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

namespace {

// Unsigned image of a double that orders like `<`: a non-negative value
// gets its sign bit set, a negative one has every bit inverted. -0.0 is
// folded into 0.0 first so the two zeros tie, as they do under `<`.
uint64_t OrderedKey(double x) {
  if (x == 0.0) x = 0.0;
  const uint64_t bits = std::bit_cast<uint64_t>(x);
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

}  // namespace

std::vector<uint32_t> SortOrder32(const std::vector<double>& xs) {
  const size_t n = xs.size();
  TCM_CHECK_LE(n, size_t{std::numeric_limits<uint32_t>::max()});
  // LSD radix sort over the keys' eight bytes. Each pass is a stable
  // counting scatter, so records tied on the whole key keep index order.
  constexpr int kDigits = 8;
  std::vector<uint64_t> keys(n), keys_next(n);
  std::vector<uint32_t> order(n), order_next(n);
  std::array<std::array<uint32_t, 256>, kDigits> counts{};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = OrderedKey(xs[i]);
    keys[i] = key;
    order[i] = static_cast<uint32_t>(i);
    for (int d = 0; d < kDigits; ++d) ++counts[d][(key >> (8 * d)) & 0xff];
  }
  for (int d = 0; d < kDigits; ++d) {
    const int shift = 8 * d;
    const std::array<uint32_t, 256>& count = counts[d];
    // A byte that is the same in every key would scatter to the identity.
    if (n == 0 || count[(keys[0] >> shift) & 0xff] == n) continue;
    std::array<uint32_t, 256> next{};
    for (size_t b = 1; b < 256; ++b) next[b] = next[b - 1] + count[b - 1];
    for (size_t i = 0; i < n; ++i) {
      const uint32_t slot = next[(keys[i] >> shift) & 0xff]++;
      keys_next[slot] = keys[i];
      order_next[slot] = order[i];
    }
    keys.swap(keys_next);
    order.swap(order_next);
  }
  return order;
}

std::vector<size_t> SortOrder(const std::vector<double>& xs) {
  std::vector<uint32_t> order = SortOrder32(xs);
  return std::vector<size_t>(order.begin(), order.end());
}

bool SolveLinearSystem(std::vector<std::vector<double>> a,
                       std::vector<double> b, std::vector<double>* x) {
  const size_t d = b.size();
  for (size_t col = 0; col < d; ++col) {
    size_t pivot = col;
    for (size_t row = col + 1; row < d; ++row) {
      if (std::fabs(a[row][col]) > std::fabs(a[pivot][col])) pivot = row;
    }
    if (std::fabs(a[pivot][col]) < 1e-12) return false;
    std::swap(a[pivot], a[col]);
    std::swap(b[pivot], b[col]);
    double inv = 1.0 / a[col][col];
    for (size_t j = col; j < d; ++j) a[col][j] *= inv;
    b[col] *= inv;
    for (size_t row = 0; row < d; ++row) {
      if (row == col) continue;
      double factor = a[row][col];
      if (factor == 0.0) continue;
      for (size_t j = col; j < d; ++j) a[row][j] -= factor * a[col][j];
      b[row] -= factor * b[col];
    }
  }
  *x = std::move(b);
  return true;
}

double QiConfidentialCorrelation(const Dataset& data) {
  std::vector<size_t> conf = data.schema().ConfidentialIndices();
  return conf.empty() ? 0.0 : QiCorrelation(data, conf.front());
}

double QiCorrelation(const Dataset& data, size_t target) {
  std::vector<size_t> qi = data.schema().QuasiIdentifierIndices();
  if (qi.empty() || data.NumRecords() < 2) return 0.0;
  std::vector<double> y = data.ColumnAsDouble(target);
  std::vector<std::vector<double>> x;
  x.reserve(qi.size());
  for (size_t col : qi) x.push_back(data.ColumnAsDouble(col));

  const size_t d = qi.size();
  // Correlation matrix among QIs and correlation vector with the target.
  std::vector<std::vector<double>> rxx(d, std::vector<double>(d, 0.0));
  std::vector<double> rxy(d, 0.0);
  for (size_t i = 0; i < d; ++i) {
    rxx[i][i] = 1.0;
    for (size_t j = i + 1; j < d; ++j) {
      rxx[i][j] = rxx[j][i] = PearsonCorrelation(x[i], x[j]);
    }
    rxy[i] = PearsonCorrelation(x[i], y);
  }
  std::vector<double> beta;
  if (!SolveLinearSystem(rxx, rxy, &beta)) {
    // Degenerate QI correlation matrix: fall back to the strongest single
    // QI correlation, which is the R value for that reduced predictor.
    double best = 0.0;
    for (double r : rxy) best = std::max(best, std::fabs(r));
    return best;
  }
  double r_squared = 0.0;
  for (size_t i = 0; i < d; ++i) r_squared += beta[i] * rxy[i];
  return std::sqrt(std::clamp(r_squared, 0.0, 1.0));
}

}  // namespace tcm
