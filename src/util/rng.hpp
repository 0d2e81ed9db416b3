#pragma once
// Deterministic, splittable random number generation for simulation.
//
// BE-SST runs Monte-Carlo ensembles of full-system simulations; every draw
// in the simulator must be reproducible from a single seed, and independent
// streams (one per simulated rank, one per kernel model, ...) must be cheap
// to derive without correlation. xoshiro256** satisfies both needs and is
// much faster than std::mt19937_64.

#include <array>
#include <cstdint>

namespace ftbesst::util {

/// SplitMix64 — used to expand seeds into full xoshiro state and to derive
/// child-stream seeds.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** generator (Blackman & Vigna). Satisfies the C++ named
/// requirement UniformRandomBitGenerator, so it composes with <random>
/// distributions when needed, but provides its own faster distribution
/// helpers for the hot paths.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept;

  /// Derive an independent child stream. Children of distinct indices from
  /// the same parent are decorrelated (seed mixed through SplitMix64).
  [[nodiscard]] Rng split(std::uint64_t stream_index) const noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;
  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n). Requires n > 0.
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t n) noexcept;
  /// Standard normal via Box–Muller (cached spare discarded for determinism
  /// simplicity: both values are computed, one returned).
  [[nodiscard]] double normal() noexcept;
  /// Normal with given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;
  /// Log-normal such that the *median* of the distribution is `median` and
  /// log-space standard deviation is `sigma` (the natural way to model
  /// multiplicative timing noise).
  [[nodiscard]] double lognormal_median(double median, double sigma) noexcept;
  /// Exponential with the given rate (events per unit time). rate > 0.
  [[nodiscard]] double exponential(double rate) noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace ftbesst::util
