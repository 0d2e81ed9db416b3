#pragma once
// The fitness memo of one symbolic-regression fit.
//
// Crossover and mutation re-create the same offspring constantly, so a fit
// remembers the scaled fit of every genome it has evaluated, for the whole
// run. The memo is exact: a lookup compares the full key, and two genomes
// share a key exactly when they are the same genome (the fields each gene's
// op reads are equal).
//
// It is also compact, because three fits run at once during calibration:
//   - keys live back to back in one byte arena, not in per-entry strings;
//   - a key is, per gene, the op byte, then a variable's index or a
//     constant's id as a LEB128 varint. Ids number the fit's distinct
//     constant bit patterns in first-seen order (+0.0 and -0.0, neighbouring
//     doubles and NaN payloads all get their own id);
//   - entries are one dense array of 32-byte records, indexed by an
//     open-addressing table of u32 entry numbers (load at most 3/4).
// Fitness itself is not stored: the caller recomputes it from the MAPE and
// the genome's size, which equal keys share.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "model/expr.hpp"

namespace ftbesst::model {

class FitnessMemo {
 public:
  /// What the memo keeps per genome.
  struct Entry {
    double scale = 1.0;
    double offset = 0.0;
    double mape = 0.0;
    std::uint32_t generation = 0;  ///< the generation that evaluated it

   private:
    friend class FitnessMemo;
    std::uint32_t key_end_ = 0;  // this key spans [previous end, key_end_)
  };

  /// The entry number of `genome`, and whether this call added it (then the
  /// entry holds defaults for the caller to fill). Entry numbers are dense
  /// and stable; references into the memo are not, across additions.
  /// Throws std::length_error once the keys outgrow 4 GiB.
  std::pair<std::size_t, bool> find_or_add(const Genome& genome);

  [[nodiscard]] Entry& operator[](std::size_t index) noexcept {
    return entries_[index];
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  /// Heap bytes held (capacities of the arena, entries, index and
  /// constant table).
  [[nodiscard]] std::size_t bytes() const noexcept;

  /// Append `genome`'s key to `out`, interning its new constants.
  void append_key(const Genome& genome, std::string& out);

 private:
  [[nodiscard]] std::string_view key(std::size_t index) const noexcept;
  [[nodiscard]] std::uint32_t intern(double value);

  std::string arena_;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> index_;  // entry number + 1; 0 = empty
  std::vector<std::uint64_t> constants_;        // bit pattern by id
  std::vector<std::uint32_t> constant_index_;   // id + 1; 0 = empty
};

}  // namespace ftbesst::model
