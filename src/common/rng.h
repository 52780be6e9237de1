#ifndef TCM_COMMON_RNG_H_
#define TCM_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tcm {

// Deterministic pseudo-random generator (xoshiro256** seeded via SplitMix64).
// All stochastic components of the library take an explicit seed so that
// every experiment is reproducible bit-for-bit. Satisfies the C++
// UniformRandomBitGenerator concept.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  // Next raw 64-bit value.
  uint64_t Next();
  result_type operator()() { return Next(); }

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform integer in [0, bound) using Lemire's rejection method;
  // bound must be positive.
  uint64_t NextBounded(uint64_t bound);

  // Standard normal via Box-Muller (cached second variate).
  double NextGaussian();

  // Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace tcm

#endif  // TCM_COMMON_RNG_H_
