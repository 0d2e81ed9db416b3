#pragma once
// K-fold cross-validation for model selection.
//
// The paper's single train/test split gives a noisy accuracy estimate when
// a calibration grid has only 25 rows; k-fold rotation uses every row for
// held-out evaluation exactly once and reports the distribution of fold
// MAPEs — a sturdier basis for picking a modeling method.

#include <cstdint>

#include "model/dataset.hpp"
#include "model/fitting.hpp"
#include "util/stats.hpp"

namespace ftbesst::model {

struct CrossValReport {
  ModelMethod method = ModelMethod::kAuto;
  std::size_t folds = 0;
  util::Summary fold_mape;  ///< distribution of held-out MAPE across folds
};

/// Run k-fold cross-validation of `options.method` on `data`. Rows are
/// shuffled deterministically from options.seed and dealt round-robin into
/// `folds` folds; each fold is held out once while the remainder trains.
/// Requires folds >= 2 and num_rows >= folds.
[[nodiscard]] CrossValReport cross_validate(const Dataset& data,
                                            const FitOptions& options,
                                            std::size_t folds = 5);

}  // namespace ftbesst::model
