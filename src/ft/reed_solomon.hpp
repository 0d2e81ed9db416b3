#pragma once
// Systematic Reed–Solomon erasure coding over GF(2^8), Cauchy construction.
//
// Used by the FTI level-3 checkpoint model: each FTI group of g nodes
// RS-encodes its checkpoint files so that up to parity_shards concurrent
// node losses inside the group remain recoverable. The coder is fully
// functional (encode + erasure reconstruction), and its operation count
// parameterizes the L3 compute-cost model.

#include <cstdint>
#include <vector>

namespace ftbesst::ft {

class ReedSolomon {
 public:
  /// `data_shards` >= 1, `parity_shards` >= 1,
  /// data_shards + parity_shards <= 255.
  ReedSolomon(std::size_t data_shards, std::size_t parity_shards);

  [[nodiscard]] std::size_t data_shards() const noexcept { return k_; }
  [[nodiscard]] std::size_t parity_shards() const noexcept { return m_; }

  /// Compute parity shards from `data` (k shards of equal length).
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> encode(
      const std::vector<std::vector<std::uint8_t>>& data) const;

  /// Reconstruct missing shards in place. `shards` has k+m entries in
  /// data-then-parity order; `present[i]` marks which survive (missing
  /// entries may be empty). Throws std::runtime_error when more than m
  /// shards are missing. On return every shard is filled in.
  void reconstruct(std::vector<std::vector<std::uint8_t>>& shards,
                   const std::vector<bool>& present) const;

  /// GF multiply-accumulate operations to encode shards of `shard_bytes`
  /// bytes — the compute volume behind the L3 checkpoint cost model.
  [[nodiscard]] std::uint64_t encode_ops(std::size_t shard_bytes) const noexcept {
    return static_cast<std::uint64_t>(k_) * m_ * shard_bytes;
  }

 private:
  /// Generator-matrix row `r` (r in [0, k+m)): identity for data rows,
  /// Cauchy 1/(x_r + y_c) for parity rows.
  [[nodiscard]] std::uint8_t coeff(std::size_t row, std::size_t col) const;

  std::size_t k_;
  std::size_t m_;
};

}  // namespace ftbesst::ft
