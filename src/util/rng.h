// Deterministic pseudo-random number generation for solarnet.
//
// Every stochastic component in the library takes an explicit Rng so that
// experiments are reproducible bit-for-bit from a single seed. We implement
// our own generator (xoshiro256** seeded via SplitMix64) instead of relying
// on <random> engines/distributions because the standard distributions are
// not guaranteed to produce identical streams across standard-library
// implementations, and reproducibility across toolchains is a requirement
// for regenerating the paper's figures.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace solarnet::util {

// SplitMix64: used to expand a single 64-bit seed into the 256-bit xoshiro
// state. Public because it is also handy as a cheap hash/stream-splitter.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// xoshiro256** 1.0 — fast, high-quality, tiny state.
class Rng {
 public:
  using result_type = std::uint64_t;

  // Seeds the full 256-bit state from `seed` via SplitMix64, per the
  // xoshiro authors' recommendation.
  explicit Rng(std::uint64_t seed = 0x5eed5eedULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
    // Drop any cached Gaussian spare: without this, the first normal()
    // after a reseed would replay a sample from the previous stream.
    have_spare_ = false;
    spare_ = 0.0;
    // Guard against the (astronomically unlikely) all-zero state, which is
    // the one fixed point of the generator.
    if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept { return next_u64(); }

  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform double in [0, 1): 53 random mantissa bits.
  double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
    return lo + (hi - lo) * uniform();
  }

  // Uniform integer in [0, n) using Lemire's unbiased multiply-shift
  // rejection method. Requires n > 0.
  std::uint64_t uniform_below(std::uint64_t n) {
    if (n == 0) throw std::invalid_argument("Rng::uniform_below: n == 0");
    __uint128_t m = static_cast<__uint128_t>(next_u64()) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(next_u64()) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
    const auto span = static_cast<std::uint64_t>(hi - lo);
    if (span == ~std::uint64_t{0}) return static_cast<std::int64_t>(next_u64());
    return lo + static_cast<std::int64_t>(uniform_below(span + 1));
  }

  // Bernoulli trial with success probability p (clamped to [0, 1]).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  // ceil(p * 2^53). Both the product (a power-of-two scale of a double) and
  // the ceil are exact, so the integer test
  // (next_u64() >> 11) < bernoulli_threshold(p) decides exactly like
  // uniform() < p on the same stream value: never at p = 0, always at
  // p = 1. Values outside [0, 1] (and NaN, which uniform() < p never
  // passes) are clamped first so the conversion stays defined. Hot loops
  // precompute thresholds once and skip the double conversion per draw.
  static std::uint64_t bernoulli_threshold(double p) noexcept {
    if (!(p > 0.0)) return 0;
    return static_cast<std::uint64_t>(std::ceil(std::min(p, 1.0) * 0x1.0p53));
  }

  // Standard normal via Marsaglia polar method (deterministic given the
  // stream, unlike std::normal_distribution across libstdc++/libc++).
  double normal() noexcept {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = 2.0 * uniform() - 1.0;
      v = 2.0 * uniform() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * factor;
    have_spare_ = true;
    return u * factor;
  }

  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  // Exponential with rate lambda > 0.
  double exponential(double lambda) {
    if (lambda <= 0.0) throw std::invalid_argument("Rng::exponential: lambda <= 0");
    // 1 - uniform() is in (0, 1], so the log is finite.
    return -std::log(1.0 - uniform()) / lambda;
  }

  // Samples an index in [0, weights.size()) proportionally to weights.
  // Requires at least one strictly positive weight; negative weights are
  // invalid.
  std::size_t weighted_index(std::span<const double> weights);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = uniform_below(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Picks a uniformly random element. Requires non-empty input.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    if (v.empty()) throw std::invalid_argument("Rng::pick: empty vector");
    return v[uniform_below(v.size())];
  }

  // Derives an independent child generator; stream `i` of the same parent is
  // stable across runs. Used to give each Monte-Carlo trial its own stream.
  // Const (reads but never advances the parent state), so a shared parent
  // can be split from concurrent workers.
  Rng split(std::uint64_t stream) const noexcept {
    SplitMix64 sm(s_[0] ^ rotl(s_[3], 13) ^ (stream * 0x9e3779b97f4a7c15ULL));
    Rng child(sm.next());
    return child;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace solarnet::util
