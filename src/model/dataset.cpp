#include "model/dataset.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/stats.hpp"

namespace ftbesst::model {

double Row::mean_response() const { return util::mean(samples); }

Dataset::Dataset(std::vector<std::string> param_names)
    : names_(std::move(param_names)) {
  if (names_.empty())
    throw std::invalid_argument("dataset needs at least one parameter");
  cols_.resize(names_.size());
}

void Dataset::add_row(std::vector<double> params,
                      std::vector<double> samples) {
  if (params.size() != names_.size())
    throw std::invalid_argument("row parameter count mismatch");
  if (samples.empty())
    throw std::invalid_argument("row needs at least one sample");
  for (std::size_t d = 0; d < params.size(); ++d)
    cols_[d].push_back(params[d]);
  rows_.push_back(Row{std::move(params), std::move(samples)});
  responses_.push_back(rows_.back().mean_response());
}

std::size_t Dataset::param_index(const std::string& name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end())
    throw std::out_of_range("unknown parameter: " + name);
  return static_cast<std::size_t>(it - names_.begin());
}

std::pair<Dataset, Dataset> Dataset::split(double train_fraction,
                                           util::Rng& rng) const {
  train_fraction = std::clamp(train_fraction, 0.0, 1.0);
  std::vector<std::size_t> order(rows_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Fisher–Yates with our deterministic RNG.
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform_int(i)]);

  std::size_t n_train = static_cast<std::size_t>(
      train_fraction * static_cast<double>(rows_.size()) + 0.5);
  if (rows_.size() >= 2) {
    n_train = std::clamp<std::size_t>(n_train, 1, rows_.size() - 1);
  }
  Dataset train(names_), test(names_);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Row& r = rows_[order[i]];
    (i < n_train ? train : test).add_row(r.params, r.samples);
  }
  return {std::move(train), std::move(test)};
}

std::vector<double> Dataset::unique_values(std::size_t dim) const {
  if (dim >= names_.size()) throw std::out_of_range("bad dimension");
  std::vector<double> vals = cols_[dim];
  std::sort(vals.begin(), vals.end());
  vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  return vals;
}

bool Dataset::is_full_grid() const {
  if (rows_.empty()) return false;
  std::size_t expected = 1;
  for (std::size_t d = 0; d < names_.size(); ++d)
    expected *= unique_values(d).size();
  if (expected != rows_.size()) return false;
  // Also require distinct parameter points.
  std::vector<std::vector<double>> pts;
  pts.reserve(rows_.size());
  for (const Row& r : rows_) pts.push_back(r.params);
  std::sort(pts.begin(), pts.end());
  return std::adjacent_find(pts.begin(), pts.end()) == pts.end();
}

}  // namespace ftbesst::model
