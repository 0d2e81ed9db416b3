#include "model/table_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ftbesst::model {

TableModel::TableModel(const Dataset& data, Interpolation method)
    : method_(method), names_(data.param_names()) {
  if (data.empty()) throw std::invalid_argument("empty calibration dataset");
  points_.reserve(data.num_rows());
  for (const Row& r : data.rows()) {
    Point p;
    p.params = r.params;
    p.samples = r.samples;
    p.mean = r.mean_response();
    points_.push_back(std::move(p));
  }
  // Per-dimension normalization spans for nearest-neighbour distance.
  scale_.assign(names_.size(), 1.0);
  for (std::size_t d = 0; d < names_.size(); ++d) {
    const auto vals = data.unique_values(d);
    const double span = vals.back() - vals.front();
    scale_[d] = span > 0.0 ? span : 1.0;
  }

  if (method_ == Interpolation::kMultilinear ||
      method_ == Interpolation::kLogLog) {
    if (!data.is_full_grid())
      throw std::invalid_argument(
          "multilinear interpolation requires a full rectilinear grid");
    if (method_ == Interpolation::kLogLog) {
      for (const Point& p : points_) {
        if (p.mean <= 0.0)
          throw std::invalid_argument(
              "log-log interpolation requires positive responses");
        for (double v : p.params)
          if (v <= 0.0)
            throw std::invalid_argument(
                "log-log interpolation requires positive parameters");
      }
    }
    axes_.resize(names_.size());
    for (std::size_t d = 0; d < names_.size(); ++d)
      axes_[d] = data.unique_values(d);
    // Row-major grid index -> calibration point.
    std::size_t total = 1;
    for (const auto& axis : axes_) total *= axis.size();
    grid_to_point_.assign(total, 0);
    for (std::size_t i = 0; i < points_.size(); ++i) {
      std::size_t flat = 0;
      for (std::size_t d = 0; d < axes_.size(); ++d) {
        const auto it = std::lower_bound(axes_[d].begin(), axes_[d].end(),
                                         points_[i].params[d]);
        flat = flat * axes_[d].size() +
               static_cast<std::size_t>(it - axes_[d].begin());
      }
      grid_to_point_[flat] = i;
    }
  }
}

std::size_t TableModel::nearest_index(std::span<const double> params) const {
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < points_.size(); ++i) {
    double dist = 0.0;
    for (std::size_t d = 0; d < names_.size(); ++d) {
      const double delta = (params[d] - points_[i].params[d]) / scale_[d];
      dist += delta * delta;
    }
    if (dist < best_dist) {
      best_dist = dist;
      best = i;
    }
  }
  return best;
}

double TableModel::grid_mean(const std::vector<std::size_t>& index) const {
  std::size_t flat = 0;
  for (std::size_t d = 0; d < axes_.size(); ++d)
    flat = flat * axes_[d].size() + index[d];
  const double mean = points_[grid_to_point_[flat]].mean;
  return method_ == Interpolation::kLogLog ? std::log(mean) : mean;
}

double TableModel::interp_rec(std::span<const double> params, std::size_t dim,
                              std::vector<std::size_t>& index) const {
  if (dim == axes_.size()) return grid_mean(index);
  const auto& axis = axes_[dim];
  if (axis.size() == 1) {
    index[dim] = 0;
    return interp_rec(params, dim + 1, index);
  }
  // Bracket (or edge pair for extrapolation). For log-log, the bracketing
  // weight is computed in log space so power laws interpolate exactly.
  const double x = params[dim];
  std::size_t hi = static_cast<std::size_t>(
      std::lower_bound(axis.begin(), axis.end(), x) - axis.begin());
  hi = std::clamp<std::size_t>(hi, 1, axis.size() - 1);
  const std::size_t lo = hi - 1;
  const double t =
      method_ == Interpolation::kLogLog
          ? (std::log(x) - std::log(axis[lo])) /
                (std::log(axis[hi]) - std::log(axis[lo]))
          : (x - axis[lo]) / (axis[hi] - axis[lo]);

  index[dim] = lo;
  const double f_lo = interp_rec(params, dim + 1, index);
  index[dim] = hi;
  const double f_hi = interp_rec(params, dim + 1, index);
  return f_lo * (1.0 - t) + f_hi * t;
}

double TableModel::multilinear(std::span<const double> params) const {
  std::vector<std::size_t> index(axes_.size(), 0);
  return interp_rec(params, 0, index);
}

double TableModel::predict(std::span<const double> params) const {
  if (params.size() != names_.size())
    throw std::invalid_argument("parameter count mismatch");
  if (method_ == Interpolation::kNearest)
    return points_[nearest_index(params)].mean;
  if (method_ == Interpolation::kLogLog) {
    for (double v : params)
      if (v <= 0.0)
        throw std::invalid_argument("log-log query requires positive params");
    return std::exp(multilinear(params));
  }
  return multilinear(params);
}

double TableModel::draw_opaque(double predicted,
                               std::span<const double> params,
                               util::Rng& rng) const {
  const Point& p = points_[nearest_index(params)];
  const double picked = p.samples[rng.uniform_int(p.samples.size())];
  // Rescale the drawn sample so the *relative* deviation is preserved when
  // the query point is off the calibrated grid.
  return p.mean > 0.0 ? picked * (predicted / p.mean) : predicted;
}

std::string TableModel::describe() const {
  const char* name = method_ == Interpolation::kNearest ? "nearest"
                     : method_ == Interpolation::kLogLog ? "loglog"
                                                         : "multilinear";
  return std::string("table[") + name + ", " +
         std::to_string(points_.size()) + " points]";
}

}  // namespace ftbesst::model
