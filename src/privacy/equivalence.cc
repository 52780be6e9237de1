#include "privacy/equivalence.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "common/check.h"
#include "engine/thread_pool.h"

namespace tcm {
namespace {

// Hash of one row's QI values, each folded in through the splitmix64
// finalizer. -0.0 is folded into 0.0 before hashing so the two zero
// encodings, which compare equal, land in one class.
uint64_t HashQiRow(const Dataset& data, size_t row,
                   const std::vector<size_t>& qi) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t col : qi) {
    const double v = data.cell(row, col).AsDouble();
    h ^= std::bit_cast<uint64_t>(v == 0.0 ? 0.0 : v);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
  }
  return h;
}

// One open-addressing slot: the low 32 bits of a class's row hash and its
// class id + 1 (0 marks an empty slot).
struct Slot {
  uint32_t hash = 0;
  uint32_t id = 0;
};

}  // namespace

Result<std::vector<std::vector<size_t>>> EquivalenceClasses(
    const Dataset& data, ThreadPool* pool) {
  std::vector<size_t> qi = data.schema().QuasiIdentifierIndices();
  if (qi.empty()) {
    return Status::InvalidArgument("dataset has no quasi-identifiers");
  }
  const size_t n = data.NumRecords();
  TCM_CHECK_LT(n, size_t{std::numeric_limits<uint32_t>::max()});
  std::vector<uint64_t> hashes(n);
  ParallelForRanges(pool, n, [&](size_t begin, size_t end) {
    for (size_t row = begin; row < end; ++row) {
      hashes[row] = HashQiRow(data, row, qi);
    }
  });
  // Exact-match grouping on doubles is correct here: aggregation writes
  // identical centroid values into every member of a cluster.
  auto same_key = [&](size_t a, size_t b) {
    for (size_t col : qi) {
      if (data.cell(a, col).AsDouble() != data.cell(b, col).AsDouble()) {
        return false;
      }
    }
    return true;
  };

  // One pass over the rows in order hands out class ids by first
  // occurrence: a linear-probing table at load <= 1/2 maps a row to the
  // class of the first earlier row with an equal key.
  const size_t capacity = std::bit_ceil(std::max<size_t>(2 * n, 2));
  const int shift = 64 - std::countr_zero(capacity);
  std::vector<Slot> table(capacity);
  std::vector<uint32_t> class_of(n);
  std::vector<uint32_t> first_row;  // class id -> its first row
  std::vector<uint32_t> sizes;      // class id -> member count
  for (size_t row = 0; row < n; ++row) {
    const uint64_t h = hashes[row];
    const uint32_t tag = static_cast<uint32_t>(h);
    size_t slot = static_cast<size_t>(h >> shift);
    while (true) {
      Slot& s = table[slot];
      if (s.id == 0) {
        s = {tag, static_cast<uint32_t>(first_row.size() + 1)};
        first_row.push_back(static_cast<uint32_t>(row));
        sizes.push_back(0);
        break;
      }
      if (s.hash == tag && same_key(row, first_row[s.id - 1])) break;
      slot = (slot + 1) & (capacity - 1);
    }
    const uint32_t id = table[slot].id - 1;
    class_of[row] = id;
    ++sizes[id];
  }

  // A counting pass fills each class, sized once, with ascending members.
  std::vector<std::vector<size_t>> classes(first_row.size());
  for (size_t c = 0; c < classes.size(); ++c) classes[c].reserve(sizes[c]);
  for (size_t row = 0; row < n; ++row) classes[class_of[row]].push_back(row);
  return classes;
}

}  // namespace tcm
