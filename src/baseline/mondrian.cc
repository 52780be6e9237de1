#include "baseline/mondrian.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace tcm {
namespace {

struct SplitContext {
  const QiSpace* space = nullptr;
  const EmdCalculator* emd = nullptr;
  size_t k = 0;
  double t = 0.0;
  Partition* out = nullptr;
};

// Spread (max - min) of rows along dimension `dim`.
double SpreadAlong(const QiSpace& space, const std::vector<size_t>& rows,
                   size_t dim) {
  double lo = space.point(rows[0])[dim];
  double hi = lo;
  for (size_t row : rows) {
    double v = space.point(row)[dim];
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return hi - lo;
}

bool HalvesSatisfyConstraint(const SplitContext& ctx,
                             const std::vector<size_t>& left,
                             const std::vector<size_t>& right) {
  if (left.size() < ctx.k || right.size() < ctx.k) return false;
  return ctx.emd->ClusterEmd(left) <= ctx.t &&
         ctx.emd->ClusterEmd(right) <= ctx.t;
}

void Split(const SplitContext& ctx, std::vector<size_t> rows) {
  // Dimensions ordered by decreasing spread; try each until a valid cut.
  const QiSpace& space = *ctx.space;
  if (rows.size() >= 2 * ctx.k) {
    std::vector<size_t> dims(space.num_dims());
    std::iota(dims.begin(), dims.end(), 0);
    std::vector<double> spreads(space.num_dims());
    for (size_t dim : dims) spreads[dim] = SpreadAlong(space, rows, dim);
    std::stable_sort(dims.begin(), dims.end(), [&](size_t a, size_t b) {
      return spreads[a] > spreads[b];
    });
    for (size_t dim : dims) {
      if (spreads[dim] <= 0.0) break;  // no dimension can separate rows
      std::vector<size_t> ordered = rows;
      std::stable_sort(ordered.begin(), ordered.end(),
                       [&](size_t a, size_t b) {
                         return space.point(a)[dim] < space.point(b)[dim];
                       });
      size_t mid = ordered.size() / 2;
      std::vector<size_t> left(ordered.begin(), ordered.begin() + mid);
      std::vector<size_t> right(ordered.begin() + mid, ordered.end());
      if (HalvesSatisfyConstraint(ctx, left, right)) {
        Split(ctx, std::move(left));
        Split(ctx, std::move(right));
        return;
      }
    }
  }
  ctx.out->clusters.push_back(std::move(rows));  // leaf
}

}  // namespace

Result<Partition> MondrianTClosePartition(const QiSpace& space,
                                          const EmdCalculator& emd, size_t k,
                                          double t) {
  const size_t n = space.num_records();
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > n) {
    return Status::InvalidArgument("k=" + std::to_string(k) +
                                   " exceeds number of records " +
                                   std::to_string(n));
  }
  if (t < 0.0) {
    return Status::InvalidArgument("t must be non-negative");
  }
  Partition partition;
  SplitContext ctx{&space, &emd, k, t, &partition};
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  Split(ctx, std::move(all));
  return partition;
}

}  // namespace tcm
