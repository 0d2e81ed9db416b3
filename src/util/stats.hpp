#pragma once
// Descriptive statistics and the error metrics used throughout the BE-SST
// validation workflow (MAPE is the paper's headline accuracy metric).

#include <cstddef>
#include <span>
#include <vector>

namespace ftbesst::util {

/// Summary of a sample of real values.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1 denominator)
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
};

/// Compute a full summary. Empty input yields a zeroed Summary.  The median
/// follows quantile()'s NaN semantics (NaNs dropped); mean/stddev/min/max
/// are raw and will propagate NaNs, as plain arithmetic does.
[[nodiscard]] Summary summarize(std::span<const double> xs);

[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double sample_stddev(std::span<const double> xs);

/// Linear-interpolated quantile, q in [0,1]. Input need not be sorted.
/// Chosen semantics for degenerate inputs (obs histograms feed this, and a
/// NaN would otherwise poison the sort's strict-weak ordering):
///   - NaN elements carry no rank information and are dropped before
///     ranking; quantiles are computed over the finite-ordered remainder.
///   - Empty input, or input that is all-NaN, returns 0.0.
///   - A single (surviving) element is every quantile of itself.
[[nodiscard]] double quantile(std::span<const double> xs, double q);

/// Mean Absolute Percentage Error, in percent:
///   100/n * sum |pred - actual| / |actual|
/// Rows with actual == 0 are skipped (and do not count toward n).
[[nodiscard]] double mape_percent(std::span<const double> actual,
                                  std::span<const double> predicted);

/// Streaming mean/variance accumulator (Welford). Numerically stable; used
/// by the Monte-Carlo driver where traces are too long to retain.
class RunningStats {
 public:
  void add(double x) noexcept;
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double variance() const noexcept;  ///< sample variance
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace ftbesst::util
