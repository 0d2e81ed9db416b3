#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

std::optional<double> nearest_rank(std::vector<double> samples, double q) {
  if (samples.empty()) return std::nullopt;
  const std::size_t n = samples.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  return n - rank;
}

std::size_t samples_for_tail(double q) {
  std::size_t n = kMinSamplesBeyond;
  while (samples_beyond(n, q) < kMinSamplesBeyond) ++n;
  return n;
}

std::optional<double> tail_percentile(const std::vector<double>& samples,
                                      double q) {
  if (samples_beyond(samples.size(), q) < kMinSamplesBeyond)
    return std::nullopt;
  return nearest_rank(samples, q);
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

bool settled(const std::vector<double>& previous,
             const std::vector<double>& current, double tolerance) {
  const double before = median(previous);
  const double now = median(current);
  return before > 0.0 && std::abs(now - before) <= tolerance * before;
}

Digest& Digest::bytes(std::string_view data) {
  for (const char c : data) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ull;
  }
  return *this;
}

Digest& Digest::u64(std::uint64_t value) {
  char raw[sizeof value];
  std::memcpy(raw, &value, sizeof value);
  return bytes(std::string_view(raw, sizeof raw));
}

Digest& Digest::f64(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return u64(bits);
}

Digest& Digest::f64s(const std::vector<double>& values) {
  u64(values.size());
  for (const double v : values) f64(v);
  return *this;
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace perfbench
