#pragma once
// Model-level symmetry folding.
//
// Behavioural-emulation machines are overwhelmingly symmetric: every rank
// in a fat-tree pod executes the same AppBEO plan against the same FTI
// configuration through an isomorphic slice of the interconnect. Simulating
// each of 400k identical ranks individually buys nothing — the event
// timeline of one representative is the event timeline of all of them.
//
// This layer detects those equivalence classes *before* components execute:
// a model builder describes each prospective component as a FoldSpec
// (signature + link endpoints) and plan_folds() partitions the specs into
// FoldGroups. Two specs fold together only when
//   * their signatures match exactly (component type, behaviour digest —
//     e.g. the AppBEO plan, config digest — e.g. the FTI layout), and
//   * their link signatures are isomorphic: same (port, peer port, latency)
//     edges reaching peers of the same equivalence class, established by
//     iterated colour refinement (1-WL) over the link graph until fixpoint.
// A spec marked non-foldable (independent Monte-Carlo noise stream) is
// always a singleton class.
//
// The builder then instantiates one representative component per group,
// carrying the group's multiplicity (Component::set_multiplicity), and the
// kernel scales counters back up at aggregation
// (Simulation::aggregate_counters) so folded and unfolded runs report
// identical statistics (see docs/ARCHITECTURE.md, "Scaling the DES core",
// for the fold/no-fold rules each engine applies).

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace ftbesst::sim {

// --- 64-bit FNV-1a digest helpers for behaviour/config signatures ---

inline constexpr std::uint64_t kFoldDigestSeed = 0xcbf29ce484222325ULL;

[[nodiscard]] constexpr std::uint64_t fold_digest_u64(
    std::uint64_t h, std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffULL;
    h *= 0x100000001b3ULL;
  }
  return h;
}

[[nodiscard]] std::uint64_t fold_digest_bytes(std::uint64_t h,
                                              const void* data,
                                              std::size_t size) noexcept;
[[nodiscard]] std::uint64_t fold_digest_string(std::uint64_t h,
                                               const std::string& s) noexcept;
/// Digest the bit pattern of a double (NaN payloads and -0.0 included:
/// behaviourally different inputs must never collide into one class).
[[nodiscard]] std::uint64_t fold_digest_f64(std::uint64_t h,
                                            double value) noexcept;

/// The part of a component's identity that must match exactly for two
/// components to be candidates of the same equivalence class.
struct FoldSignature {
  /// Component type tag ("rank", "nic", "leaf", ...). Different types never
  /// fold together regardless of digests.
  std::string type;
  /// Digest of the behaviour the component executes (e.g. the AppBEO
  /// program, core::AppBEO::plan_digest()).
  std::uint64_t behavior_digest = 0;
  /// Digest of the configuration the behaviour is parameterized by (FTI
  /// layout, bound model identities, comm parameters...).
  std::uint64_t config_digest = 0;
  /// False marks the spec as divergent (its own singleton class): used for
  /// per-component Monte-Carlo noise streams.
  bool foldable = true;

  [[nodiscard]] bool operator==(const FoldSignature& o) const noexcept {
    return type == o.type && behavior_digest == o.behavior_digest &&
           config_digest == o.config_digest && foldable == o.foldable;
  }
};

/// One link endpoint in a spec's link signature.
struct FoldEndpoint {
  std::uint32_t port = 0;       ///< local port the link attaches to
  std::uint32_t peer_port = 0;  ///< port on the peer side
  SimTime latency = 0;
  std::size_t peer = 0;  ///< index of the peer spec in the plan input
};

/// A prospective component, described before instantiation.
struct FoldSpec {
  FoldSignature signature;
  std::vector<FoldEndpoint> links;
};

/// One detected equivalence class.
struct FoldGroup {
  std::size_t representative = 0;    ///< lowest member index
  std::vector<std::size_t> members;  ///< sorted ascending, incl. rep

  [[nodiscard]] std::uint64_t multiplicity() const noexcept {
    return static_cast<std::uint64_t>(members.size());
  }
};

class FoldPlan {
 public:
  [[nodiscard]] const std::vector<FoldGroup>& groups() const noexcept {
    return groups_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return group_of_.size(); }
  [[nodiscard]] std::size_t group_of(std::size_t spec) const;
  [[nodiscard]] std::size_t representative_of(std::size_t spec) const;
  [[nodiscard]] bool is_representative(std::size_t spec) const;
  [[nodiscard]] std::uint64_t multiplicity_of(std::size_t spec) const;
  /// Number of components the plan avoids instantiating.
  [[nodiscard]] std::size_t folded_away() const noexcept {
    return group_of_.size() - groups_.size();
  }

 private:
  friend FoldPlan plan_folds(const std::vector<FoldSpec>& specs);
  std::vector<FoldGroup> groups_;
  std::vector<std::size_t> group_of_;  // spec index -> group index
};

/// Partition `specs` into equivalence classes (see file header for the
/// exact folding rule). Peer indices out of range throw
/// std::invalid_argument. Deterministic: group order follows the lowest
/// member index, members are sorted ascending.
[[nodiscard]] FoldPlan plan_folds(const std::vector<FoldSpec>& specs);

}  // namespace ftbesst::sim
