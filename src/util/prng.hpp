// Deterministic, seedable pseudo-random number generation.
//
// Every stochastic component of the library (workload generators, randomized
// tie-breaking in benchmarks) draws from busytime::Rng, a thin wrapper around
// the SplitMix64 / xoshiro256** generators.  We do not use std::mt19937
// because its distributions are not reproducible across standard library
// implementations; all distribution logic here is self-contained so a seed
// identifies an instance byte-for-byte on every platform.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

namespace busytime {

/// SplitMix64 step; used for seeding and as a cheap standalone generator.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG with explicit 64-bit seeding.  Satisfies
/// UniformRandomBitGenerator, but prefer the member distributions: they are
/// implementation-independent.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [lo, hi] inclusive.  Uses Lemire-style rejection to
  /// avoid modulo bias.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    assert(lo <= hi);
    const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
    if (range == 0) return static_cast<std::int64_t>((*this)());  // full 64-bit range
    const std::uint64_t limit = max() - max() % range;
    std::uint64_t draw;
    do {
      draw = (*this)();
    } while (draw >= limit);
    return lo + static_cast<std::int64_t>(draw % range);
  }

  /// Uniform real in [0, 1).
  double uniform01() noexcept {
    // 53 high bits -> double mantissa.
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform01() < p; }

  /// Exponential variate with rate lambda (mean 1/lambda).
  double exponential(double lambda) noexcept {
    // 1 - uniform01() is in (0, 1], so the log is finite.
    return -std::log(1.0 - uniform01()) / lambda;
  }

  /// Bounded Pareto-like heavy-tailed integer in [lo, hi] with shape alpha.
  /// Used by generators to model heavy-tailed job durations seen in cluster
  /// traces.
  std::int64_t pareto_int(std::int64_t lo, std::int64_t hi, double alpha) noexcept {
    assert(lo >= 1 && lo <= hi && alpha > 0.0);
    const double u = uniform01();
    const double l = static_cast<double>(lo);
    const double h = static_cast<double>(hi);
    const double la = std::pow(l, alpha);
    const double ha = std::pow(h, alpha);
    const double x = std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
    auto clipped = static_cast<std::int64_t>(x);
    if (clipped < lo) clipped = lo;
    if (clipped > hi) clipped = hi;
    return clipped;
  }

  /// Fisher-Yates shuffle.
  template <typename RandomIt>
  void shuffle(RandomIt first, RandomIt last) noexcept {
    const auto n = last - first;
    for (auto i = n - 1; i > 0; --i) {
      const auto j = uniform_int(0, i);
      using std::swap;
      swap(first[i], first[j]);
    }
  }

  /// Derive an independent child generator; used to give each benchmark
  /// repetition its own stream while keeping a single top-level seed.
  Rng split() noexcept { return Rng((*this)()); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace busytime
