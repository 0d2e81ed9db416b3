// Extension bench: DES-core scaling by symmetry folding, as
// machine-readable JSON.
//
//   - "engine_fold": run_des with symmetry folding on vs off, on the
//     largest corpus machine (48 symmetric ranks) and the Fig.-1-class
//     Vulcan notional machine (393,216 ranks = 96 leaves x 256 nodes x 16
//     ranks/node). Reports wall-clock, PDES events, events/sec, and the
//     fold speedup. Folding collapses every symmetric rank onto one
//     representative (sim/fold.hpp), so the folded run prices the 400k-rank
//     machine with a constant-size event population while the predictions
//     stay bitwise identical.
//
// Exit 1 (DIVERGENCE/GATE line on stderr) if:
//   - folded and unfolded predictions differ bitwise on either scenario,
//   - the Vulcan folded run is slower than 10 s or the fold speedup is
//     below 20x (the 48-rank machine is reported ungated: both of its runs
//     finish in microseconds, where timing noise dominates).

#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/engine_des.hpp"
#include "verify/scenario.hpp"

using namespace ftbesst;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool bits_equal(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!bits_equal(a[i], b[i])) return false;
  return true;
}

/// The big_machine.scenario corpus entry, stripped to its deterministic
/// core (run_des prices single deterministic executions).
verify::Scenario corpus_48() {
  verify::Scenario s;
  s.seed = 31;
  s.leaves = 3;
  s.nodes_per_leaf = 8;
  s.spines = 2;
  s.ranks_per_node = 4;
  s.ranks = 48;
  s.timesteps = 10;
  s.kernel_cost = 0.5;
  s.exchange_degree = 4;
  s.exchange_bytes = 1u << 20;
  s.plan = {{ft::Level::kL2, 5, false}};
  return s;
}

/// The vulcan_393k.scenario corpus entry: 96 x 256 x 16 = 393,216 ranks.
verify::Scenario vulcan_393k() {
  verify::Scenario s;
  s.seed = 47;
  s.leaves = 96;
  s.nodes_per_leaf = 256;
  s.spines = 16;
  s.ranks_per_node = 16;
  s.ranks = 393216;
  s.timesteps = 12;
  s.kernel_cost = 30.0;
  s.exchange_degree = 6;
  s.exchange_bytes = 2u << 20;
  s.allreduce_bytes = 8192;
  s.fti.group_size = 16;
  s.fti.node_size = 4;
  s.ckpt_bytes_per_rank = 128u << 20;
  s.plan = {{ft::Level::kL1, 2, false}, {ft::Level::kL4, 6, false}};
  return s;
}

struct FoldLeg {
  double wall_sec = 0;
  std::uint64_t events = 0;
  core::RunResult result;
};

FoldLeg run_leg(const verify::Scenario& s, bool fold) {
  verify::BuiltScenario built = verify::build(s);
  built.options.fold_symmetry = fold;
  FoldLeg leg;
  const auto start = Clock::now();
  leg.result = core::run_des(built.app, built.arch, built.options);
  leg.wall_sec = seconds_since(start);
  leg.events = leg.result.sim_events;
  return leg;
}

bool predictions_identical(const core::RunResult& a,
                           const core::RunResult& b) {
  return bits_equal(a.total_seconds, b.total_seconds) &&
         bits_equal(a.timestep_end_times, b.timestep_end_times) &&
         a.checkpoint_timesteps == b.checkpoint_timesteps &&
         a.instructions_executed == b.instructions_executed &&
         a.faults == b.faults && a.rollbacks == b.rollbacks &&
         a.full_restarts == b.full_restarts && a.completed == b.completed;
}

void print_fold_leg(const char* key, const FoldLeg& leg, bool last) {
  std::cout << "      \"" << key << "\": {\"wall_sec\": " << leg.wall_sec
            << ", \"events\": " << leg.events << ", \"events_per_sec\": "
            << (leg.wall_sec > 0
                    ? static_cast<double>(leg.events) / leg.wall_sec
                    : 0.0)
            << ", \"total_seconds\": " << leg.result.total_seconds << "}"
            << (last ? "\n" : ",\n");
}

}  // namespace

int main() {
  // Fold section: the two golden-corpus machines.
  struct Entry {
    const char* name;
    verify::Scenario scenario;
    bool gated;  ///< speedup + wall gates apply (Vulcan only; the 48-rank
                 ///< machine finishes in microseconds either way)
    FoldLeg folded, unfolded;
  };
  std::vector<Entry> entries = {
      {"corpus_48", corpus_48(), false, {}, {}},
      {"vulcan_393k", vulcan_393k(), true, {}, {}}};
  bool identical = true;
  double gated_speedup = 1e300, gated_folded_wall = 0;
  for (Entry& e : entries) {
    e.folded = run_leg(e.scenario, true);
    e.unfolded = run_leg(e.scenario, false);
    identical &= predictions_identical(e.folded.result, e.unfolded.result);
    if (e.gated) {
      gated_folded_wall = e.folded.wall_sec;
      if (e.folded.wall_sec > 0)
        gated_speedup = e.unfolded.wall_sec / e.folded.wall_sec;
    }
  }

  const bool gates_pass =
      identical && gated_speedup >= 20.0 && gated_folded_wall < 10.0;

  std::cout.precision(6);
  std::cout << "{\n  \"engine_fold\": {\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::cout << "    \"" << e.name << "\": {\n"
              << "      \"ranks\": " << e.scenario.ranks << ",\n";
    print_fold_leg("folded", e.folded, false);
    print_fold_leg("unfolded", e.unfolded, false);
    std::cout << "      \"fold_speedup\": "
              << (e.folded.wall_sec > 0
                      ? e.unfolded.wall_sec / e.folded.wall_sec
                      : 0.0)
              << ",\n      \"gated\": " << (e.gated ? "true" : "false")
              << "\n    }" << (i + 1 == entries.size() ? "\n" : ",\n");
  }
  std::cout << "  },\n"
            << "  \"predictions_bitwise_identical\": "
            << (identical ? "true" : "false") << ",\n"
            << "  \"gates\": {\"scope\": \"vulcan_393k\", "
               "\"fold_speedup_min\": 20.0, \"folded_wall_max_sec\": 10.0, "
               "\"pass\": "
            << (gates_pass ? "true" : "false") << "}\n"
            << "}\n";

  if (!identical)
    std::cerr << "DIVERGENCE: folded and unfolded predictions differ\n";
  else if (!gates_pass)
    std::cerr << "GATE: vulcan fold speedup " << gated_speedup
              << " < 20 or folded wall " << gated_folded_wall << " >= 10 s\n";
  return gates_pass ? 0 : 1;
}
