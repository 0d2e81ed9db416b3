#include "model/fitness_memo.hpp"

#include <bit>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>

namespace ftbesst::model {

namespace {

constexpr std::size_t kFirstIndexSize = 1024;  // a power of two

/// Whether one more item would take an open-addressing table of `slots`
/// past a load of 3/4.
bool needs_growth(std::size_t items, std::size_t slots) noexcept {
  return 4 * (items + 1) > 3 * slots;
}

void put_varint(std::string& out, std::uint32_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::size_t hash_key(std::string_view key) noexcept {
  return std::hash<std::string_view>{}(key);
}

/// Rebuild an open-addressing `table` of item numbers + 1 at twice its
/// size (kFirstIndexSize at first) for items 0..count-1.
template <typename HashOf>
void regrow(std::vector<std::uint32_t>& table, std::size_t count,
            HashOf hash_of) {
  std::vector<std::uint32_t> grown(
      table.empty() ? kFirstIndexSize : 2 * table.size(), 0);
  const std::size_t mask = grown.size() - 1;
  for (std::size_t item = 0; item < count; ++item) {
    std::size_t i = hash_of(item) & mask;
    while (grown[i] != 0) i = (i + 1) & mask;
    grown[i] = static_cast<std::uint32_t>(item + 1);
  }
  table = std::move(grown);
}

/// splitmix64's finalizer: spreads nearby bit patterns over the table.
std::size_t hash_bits(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(x ^ (x >> 31));
}

}  // namespace

std::string_view FitnessMemo::key(std::size_t index) const noexcept {
  const std::size_t begin = index == 0 ? 0 : entries_[index - 1].key_end_;
  return {arena_.data() + begin, entries_[index].key_end_ - begin};
}

std::uint32_t FitnessMemo::intern(double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  if (needs_growth(constants_.size(), constant_index_.size()))
    regrow(constant_index_, constants_.size(),
           [this](std::size_t c) { return hash_bits(constants_[c]); });
  const std::size_t mask = constant_index_.size() - 1;
  for (std::size_t i = hash_bits(bits) & mask;; i = (i + 1) & mask) {
    const std::uint32_t slot = constant_index_[i];
    if (slot == 0) {
      constants_.push_back(bits);
      constant_index_[i] = static_cast<std::uint32_t>(constants_.size());
      return static_cast<std::uint32_t>(constants_.size() - 1);
    }
    if (constants_[slot - 1] == bits) return slot - 1;
  }
}

void FitnessMemo::append_key(const Genome& genome, std::string& out) {
  for (const Gene& gene : genome.genes()) {
    out.push_back(static_cast<char>(gene.op));
    if (gene.op == Op::kConst)
      put_varint(out, intern(gene.value));
    else if (gene.op == Op::kVar)
      put_varint(out, gene.var);
  }
}

std::pair<std::size_t, bool> FitnessMemo::find_or_add(const Genome& genome) {
  const std::size_t begin = arena_.size();
  append_key(genome, arena_);
  if (arena_.size() > std::numeric_limits<std::uint32_t>::max()) {
    arena_.resize(begin);
    throw std::length_error("fitness memo: keys exceed 4 GiB");
  }
  const std::string_view fresh(arena_.data() + begin, arena_.size() - begin);
  if (needs_growth(entries_.size(), index_.size()))
    regrow(index_, entries_.size(),
           [this](std::size_t e) { return hash_key(key(e)); });
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = hash_key(fresh) & mask;; i = (i + 1) & mask) {
    const std::uint32_t slot = index_[i];
    if (slot == 0) {
      entries_.emplace_back().key_end_ =
          static_cast<std::uint32_t>(arena_.size());
      index_[i] = static_cast<std::uint32_t>(entries_.size());
      return {entries_.size() - 1, true};
    }
    if (key(slot - 1) == fresh) {
      arena_.resize(begin);
      return {slot - 1, false};
    }
  }
}

std::size_t FitnessMemo::bytes() const noexcept {
  return arena_.capacity() + entries_.capacity() * sizeof(Entry) +
         index_.capacity() * sizeof(std::uint32_t) +
         constants_.capacity() * sizeof(std::uint64_t) +
         constant_index_.capacity() * sizeof(std::uint32_t);
}

}  // namespace ftbesst::model
