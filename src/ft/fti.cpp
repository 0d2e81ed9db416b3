#include "ft/fti.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

namespace ftbesst::ft {

std::string to_string(Level level) {
  switch (level) {
    case Level::kL1: return "L1";
    case Level::kL2: return "L2";
    case Level::kL3: return "L3";
    case Level::kL4: return "L4";
  }
  return "?";
}

std::string to_string(FailureKind kind) {
  switch (kind) {
    case FailureKind::kProcessCrash: return "crash";
    case FailureKind::kNodeLoss: return "loss";
    case FailureKind::kSilentCorruption: return "sdc";
  }
  return "?";
}

FailureKind parse_failure_kind(std::string_view text) {
  for (const FailureKind kind :
       {FailureKind::kProcessCrash, FailureKind::kNodeLoss,
        FailureKind::kSilentCorruption})
    if (text == to_string(kind)) return kind;
  throw std::invalid_argument("unknown failure kind '" + std::string(text) +
                              "' (expected crash, loss or sdc)");
}

void FtiConfig::validate(std::int64_t ranks) const {
  if (group_size < 2)
    throw std::invalid_argument("FTI group_size must be >= 2");
  if (node_size < 1)
    throw std::invalid_argument("FTI node_size must be >= 1");
  if (l2_partners < 1 || l2_partners >= group_size)
    throw std::invalid_argument("l2_partners must be in [1, group_size)");
  if (ranks < 1) throw std::invalid_argument("ranks must be >= 1");
  const std::int64_t unit =
      static_cast<std::int64_t>(group_size) * node_size;
  if (ranks % unit != 0)
    throw std::invalid_argument(
        "FTI requires ranks to be a multiple of group_size*node_size (" +
        std::to_string(unit) + "), got " + std::to_string(ranks));
}

std::int64_t FtiConfig::nodes_for(std::int64_t ranks) const {
  return ranks / node_size;
}

std::int64_t FtiConfig::groups_for(std::int64_t ranks) const {
  return nodes_for(ranks) / group_size;
}

bool recoverable(Level level, const FtiConfig& config, std::int64_t ranks,
                 const FailureSet& failures) {
  config.validate(ranks);
  const std::int64_t nodes = config.nodes_for(ranks);
  std::set<std::int64_t> failed(failures.nodes.begin(), failures.nodes.end());
  for (std::int64_t n : failed)
    if (n < 0 || n >= nodes)
      throw std::out_of_range("failed node id out of range");
  if (failed.empty()) return true;

  // Process crashes never lose checkpoint files: every level recovers.
  // Silent corruption damages application state, not storage, so at the
  // recoverability layer it behaves the same way; the *freshness* rule
  // (checkpoints written after the corruption are poisoned) is enforced by
  // the injection ledger, which filters candidates by timestamp before
  // asking this predicate.
  if (failures.kind == FailureKind::kProcessCrash ||
      failures.kind == FailureKind::kSilentCorruption)
    return true;

  switch (level) {
    case Level::kL1:
      // Node loss takes the only copy with it.
      return false;
    case Level::kL2: {
      // For each failed node, at least one of its ring partners (the next
      // l2_partners nodes within the group) or itself... the node is gone,
      // so a surviving partner must hold the copy.
      for (std::int64_t n : failed) {
        const std::int64_t g = config.group_of_node(n);
        const std::int64_t base = g * config.group_size;
        const std::int64_t local = n - base;
        bool copy_survives = false;
        for (int p = 1; p <= config.l2_partners; ++p) {
          const std::int64_t partner =
              base + (local + p) % config.group_size;
          if (!failed.count(partner)) {
            copy_survives = true;
            break;
          }
        }
        if (!copy_survives) return false;
      }
      return true;
    }
    case Level::kL3: {
      // Reed-Solomon across the group tolerates floor(group/2) losses.
      std::map<std::int64_t, int> per_group;
      for (std::int64_t n : failed) ++per_group[config.group_of_node(n)];
      const int tolerance = config.group_size / 2;
      return std::all_of(per_group.begin(), per_group.end(),
                         [tolerance](const auto& kv) {
                           return kv.second <= tolerance;
                         });
    }
    case Level::kL4:
      return true;
  }
  return false;
}

CheckpointScheduler::CheckpointScheduler(std::vector<PlanEntry> plan)
    : plan_(std::move(plan)) {
  for (const PlanEntry& e : plan_)
    if (e.period < 1)
      throw std::invalid_argument("checkpoint period must be >= 1");
  std::sort(plan_.begin(), plan_.end(),
            [](const PlanEntry& a, const PlanEntry& b) {
              return static_cast<int>(a.level) < static_cast<int>(b.level);
            });
}

std::vector<Level> CheckpointScheduler::due_after(int timestep) const {
  std::vector<Level> due;
  for (const PlanEntry& e : due_entries_after(timestep)) due.push_back(e.level);
  return due;
}

std::vector<PlanEntry> CheckpointScheduler::due_entries_after(
    int timestep) const {
  std::vector<PlanEntry> due;
  if (timestep < 1) return due;
  for (const PlanEntry& e : plan_)
    if (timestep % e.period == 0) due.push_back(e);
  return due;
}

std::int64_t CheckpointScheduler::instances(int timesteps) const {
  std::int64_t total = 0;
  for (const PlanEntry& e : plan_) total += timesteps / e.period;
  return total;
}

Level CheckpointScheduler::max_level() const {
  if (plan_.empty())
    throw std::logic_error("max_level() on an empty checkpoint plan");
  return plan_.back().level;
}

}  // namespace ftbesst::ft
