#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace ftbesst::util {

Summary summarize(std::span<const double> xs) {
  Summary s;
  if (xs.empty()) return s;
  s.count = xs.size();
  s.mean = mean(xs);
  s.stddev = sample_stddev(xs);
  const auto [mn, mx] = std::minmax_element(xs.begin(), xs.end());
  s.min = *mn;
  s.max = *mx;
  s.median = quantile(xs, 0.5);
  return s;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double sample_stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double quantile(std::span<const double> xs, double q) {
  // See stats.hpp: NaNs are dropped (they have no rank and break the sort's
  // ordering); empty-after-filter returns 0.0; one element is every
  // quantile of itself (the interpolation below handles that case: pos = 0).
  std::vector<double> sorted;
  sorted.reserve(xs.size());
  for (double x : xs)
    if (!std::isnan(x)) sorted.push_back(x);
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double mape_percent(std::span<const double> actual,
                    std::span<const double> predicted) {
  const std::size_t n = std::min(actual.size(), predicted.size());
  double acc = 0.0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (actual[i] == 0.0) continue;
    acc += std::abs(predicted[i] - actual[i]) / std::abs(actual[i]);
    ++used;
  }
  return used == 0 ? 0.0 : 100.0 * acc / static_cast<double>(used);
}

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

}  // namespace ftbesst::util
