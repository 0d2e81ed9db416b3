#pragma once
// Measurement helpers of the benchmark program: tail-rule percentiles, the
// warm-up settle test, and the bit digests that op outputs are checked by.
// Everything here is plain arithmetic with no FT-BESST dependency, so
// ftbench_tests can check it in isolation.

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace perfbench {

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond its rank; below that it would be set by a handful of
/// samples and move from run to run.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile: the sample at 1-based rank ceil(q * n) of the
/// sorted samples. q in (0, 1]. Returns nullopt for an empty input.
[[nodiscard]] std::optional<double> nearest_rank(std::vector<double> samples,
                                                 double q);

/// Number of samples strictly beyond the nearest-rank position of q.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// Fewest samples for which the tail rule lets percentile q be reported.
[[nodiscard]] std::size_t samples_for_tail(double q);

/// nearest_rank(samples, q) when at least kMinSamplesBeyond samples lie
/// beyond it, nullopt otherwise.
[[nodiscard]] std::optional<double> tail_percentile(
    const std::vector<double>& samples, double q);

/// Median (mean of the two middle samples for even n); 0 for empty input.
[[nodiscard]] double median(std::vector<double> samples);

/// Warm-up settle test over whole op cycles: true when the median op time
/// of `current` lies within `tolerance` (a share) of the median of
/// `previous`. Both must be non-empty.
[[nodiscard]] bool settled(const std::vector<double>& previous,
                           const std::vector<double>& current,
                           double tolerance);

/// 64-bit FNV-1a over raw bytes. Doubles are hashed by their bit pattern,
/// so two digests agree only when every value agrees to the last bit.
class Digest {
 public:
  Digest& bytes(std::string_view data);
  Digest& u64(std::uint64_t value);
  Digest& f64(double value);
  Digest& f64s(const std::vector<double>& values);
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Deterministic 64-bit mixer (splitmix64 finalizer): derives the per-op
/// seed cycle and request choices from the workload seed.
[[nodiscard]] std::uint64_t mix(std::uint64_t x);

}  // namespace perfbench
