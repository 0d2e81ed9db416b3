#include "sim/fold.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>
#include <tuple>

namespace ftbesst::sim {

std::uint64_t fold_digest_bytes(std::uint64_t h, const void* data,
                                std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fold_digest_string(std::uint64_t h,
                                 const std::string& s) noexcept {
  // Length first so that ("ab","c") and ("a","bc") stay distinct.
  h = fold_digest_u64(h, s.size());
  return fold_digest_bytes(h, s.data(), s.size());
}

std::uint64_t fold_digest_f64(std::uint64_t h, double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return fold_digest_u64(h, bits);
}

std::size_t FoldPlan::group_of(std::size_t spec) const {
  if (spec >= group_of_.size())
    throw std::out_of_range("FoldPlan::group_of: unknown spec");
  return group_of_[spec];
}

std::size_t FoldPlan::representative_of(std::size_t spec) const {
  return groups_[group_of(spec)].representative;
}

bool FoldPlan::is_representative(std::size_t spec) const {
  return representative_of(spec) == spec;
}

std::uint64_t FoldPlan::multiplicity_of(std::size_t spec) const {
  return groups_[group_of(spec)].multiplicity();
}

FoldPlan plan_folds(const std::vector<FoldSpec>& specs) {
  const std::size_t n = specs.size();
  for (const FoldSpec& spec : specs)
    for (const FoldEndpoint& link : spec.links)
      if (link.peer >= n)
        throw std::invalid_argument("plan_folds: link peer out of range");

  // Initial colouring: one colour per distinct signature; non-foldable
  // specs are poisoned with their own index so they never share a colour.
  // Colours are exact equivalence-class ids (assigned through ordered maps
  // keyed by the full comparison tuple), not hashes — a collision could
  // silently fold behaviourally different components together, which would
  // corrupt predictions, so we never risk one.
  using InitKey =
      std::tuple<std::string, std::uint64_t, std::uint64_t, std::uint64_t>;
  std::vector<std::size_t> colour(n);
  {
    std::map<InitKey, std::size_t> palette;
    for (std::size_t i = 0; i < n; ++i) {
      const FoldSignature& sig = specs[i].signature;
      InitKey key{sig.type, sig.behavior_digest, sig.config_digest,
                  sig.foldable ? 0 : i + 1};
      colour[i] =
          palette.emplace(std::move(key), palette.size()).first->second;
    }
  }

  // Iterated colour refinement (1-WL): recolour by (own colour, sorted
  // multiset of (port, peer_port, latency, peer colour)) until the number
  // of classes stops growing. Splits are monotone, so at most n rounds.
  using Edge = std::tuple<std::uint32_t, std::uint32_t, SimTime, std::size_t>;
  using RefineKey = std::pair<std::size_t, std::vector<Edge>>;
  std::size_t num_colours = 0;
  for (std::size_t c : colour) num_colours = std::max(num_colours, c + 1);
  for (;;) {
    std::map<RefineKey, std::size_t> palette;
    std::vector<std::size_t> next(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<Edge> edges;
      edges.reserve(specs[i].links.size());
      for (const FoldEndpoint& link : specs[i].links)
        edges.emplace_back(link.port, link.peer_port, link.latency,
                           colour[link.peer]);
      std::sort(edges.begin(), edges.end());
      RefineKey key{colour[i], std::move(edges)};
      next[i] = palette.emplace(std::move(key), palette.size()).first->second;
    }
    colour = std::move(next);
    if (palette.size() == num_colours) break;  // fixpoint
    num_colours = palette.size();
  }

  // Materialize groups in order of lowest member.
  FoldPlan plan;
  plan.group_of_.assign(n, 0);
  std::vector<std::size_t> group_of_colour(num_colours, SIZE_MAX);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t& g = group_of_colour[colour[i]];
    if (g == SIZE_MAX) {
      g = plan.groups_.size();
      FoldGroup group;
      group.representative = i;
      plan.groups_.push_back(std::move(group));
    }
    plan.groups_[g].members.push_back(i);
    plan.group_of_[i] = g;
  }
  return plan;
}

}  // namespace ftbesst::sim
