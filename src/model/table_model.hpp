#pragma once
// Lookup-table interpolation models — BE-SST's first modeling method.
//
// "For our interpolation method of modeling, the training data is organized
// into lookup tables based on the corresponding system parameters. When a
// function from the AppBEO is called during simulation, the corresponding
// lookup table is searched for the function arguments, and one of many
// samples is selected for a runtime prediction. If the parameters ... do not
// have an existing sample ... the simulator estimates a value by ...
// interpolat[ing] between two existing data values."
//
// The table keeps every calibration sample so Monte-Carlo draws reproduce
// the measured variance at grid points; off-grid queries interpolate (or
// linearly extrapolate at the edges, which is what enables the paper's
// notional predictions beyond the benchmarked region).

#include <cstdint>
#include <span>
#include <vector>

#include "model/dataset.hpp"
#include "model/perf_model.hpp"

namespace ftbesst::model {

enum class Interpolation {
  kNearest,      ///< nearest grid point (normalized distance)
  kMultilinear,  ///< per-dimension linear interpolation/extrapolation
  kLogLog        ///< multilinear in log(param)/log(response) space — exact
                 ///< for power laws, the natural geometry of scaling data.
                 ///< Requires strictly positive parameters and responses.
};

class TableModel final : public PerfModel {
 public:
  /// Builds the lookup table. Multilinear interpolation requires the
  /// dataset to form a full rectilinear grid; kNearest accepts any layout.
  TableModel(const Dataset& data, Interpolation method);

  [[nodiscard]] double predict(std::span<const double> params) const override;
  /// Opaque price: sample() picks a random calibration sample from the
  /// nearest grid point, rescaled by predicted/grid-mean so off-grid
  /// queries retain the local relative variance.
  [[nodiscard]] Price price(std::span<const double> params) const override {
    return {predict(params), DrawKind::kOpaque};
  }
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] Interpolation method() const noexcept { return method_; }
  [[nodiscard]] std::size_t num_points() const noexcept {
    return points_.size();
  }

 private:
  [[nodiscard]] double draw_opaque(double median,
                                   std::span<const double> params,
                                   util::Rng& rng) const override;

  struct Point {
    std::vector<double> params;
    std::vector<double> samples;
    double mean = 0.0;
  };

  [[nodiscard]] std::size_t nearest_index(
      std::span<const double> params) const;
  [[nodiscard]] double multilinear(std::span<const double> params) const;
  /// Recursive per-dimension interpolation over the grid.
  [[nodiscard]] double interp_rec(std::span<const double> params,
                                  std::size_t dim,
                                  std::vector<std::size_t>& index) const;
  [[nodiscard]] double grid_mean(const std::vector<std::size_t>& index) const;

  Interpolation method_;
  std::vector<std::string> names_;
  std::vector<Point> points_;
  // Grid representation (only populated for kMultilinear).
  std::vector<std::vector<double>> axes_;      // sorted unique values per dim
  std::vector<std::size_t> grid_to_point_;     // row-major grid -> point idx
  std::vector<double> scale_;                  // per-dim normalization span
};

}  // namespace ftbesst::model
