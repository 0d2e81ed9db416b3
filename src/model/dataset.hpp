#pragma once
// Calibration datasets.
//
// The Model Development phase of the BE-SST workflow instruments an
// application, runs it over a parameter grid, and records several timing
// samples per parameter combination (system noise makes single samples
// unusable). A Dataset is exactly that artifact: named parameters, one row
// per combination, many samples per row.

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace ftbesst::model {

struct Row {
  std::vector<double> params;
  std::vector<double> samples;
  /// Mean of the timing samples — the regression target.
  [[nodiscard]] double mean_response() const;
};

class Dataset {
 public:
  explicit Dataset(std::vector<std::string> param_names);

  void add_row(std::vector<double> params, std::vector<double> samples);

  [[nodiscard]] const std::vector<std::string>& param_names() const noexcept {
    return names_;
  }
  [[nodiscard]] std::size_t num_params() const noexcept {
    return names_.size();
  }
  [[nodiscard]] std::size_t num_rows() const noexcept { return rows_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }
  [[nodiscard]] const Row& row(std::size_t i) const { return rows_.at(i); }
  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }

  /// Index of a named parameter; throws if absent.
  [[nodiscard]] std::size_t param_index(const std::string& name) const;

  // -- Structure-of-arrays view --------------------------------------------
  // Batch evaluators (model/expr_program.hpp, FeatureModel::predict_batch)
  // stream one parameter at a time over every row; the row structs above
  // are the wrong layout for that. The dataset therefore also maintains a
  // column-major copy of the parameters, kept in sync by add_row, so a
  // column is always a contiguous array with one entry per row in row
  // order.

  /// All values of parameter `dim`, one per row, in row order.
  [[nodiscard]] const std::vector<double>& column(std::size_t dim) const {
    return cols_.at(dim);
  }

  /// Mean responses, one per row, in row order (cached; O(1)).
  [[nodiscard]] const std::vector<double>& responses() const noexcept {
    return responses_;
  }

  /// Random row-level train/test split (paper: "the benchmarking data is
  /// split into training data and testing data"). Guarantees at least one
  /// row on each side when num_rows >= 2.
  [[nodiscard]] std::pair<Dataset, Dataset> split(double train_fraction,
                                                  util::Rng& rng) const;

  /// Sorted unique values taken by parameter `dim` across rows.
  [[nodiscard]] std::vector<double> unique_values(std::size_t dim) const;

  /// True when the rows form a complete rectilinear grid over the unique
  /// values of every parameter (required for multilinear interpolation).
  [[nodiscard]] bool is_full_grid() const;

 private:
  std::vector<std::string> names_;
  std::vector<Row> rows_;
  std::vector<std::vector<double>> cols_;  // cols_[d][r] == rows_[r].params[d]
  std::vector<double> responses_;          // responses_[r] == row r's mean
};

}  // namespace ftbesst::model
