// Extension bench: DES-core scaling by symmetry folding, as
// machine-readable JSON.
//
//   - "engine_fold": run_des with symmetry folding on vs off, on two
//     golden-corpus machines read from tests/corpus: the largest generated
//     one (big_machine, 48 symmetric ranks, reported as corpus_48) and the
//     Fig.-1-class Vulcan notional machine (vulcan_393k, 393,216 ranks =
//     96 leaves x 256 nodes x 16 ranks/node). Reports wall-clock, PDES
//     events, events/sec, and the fold speedup. Folding collapses every
//     symmetric rank onto one representative (core::run_des), so the folded
//     run prices the 400k-rank machine with a constant-size event
//     population while the predictions stay bitwise identical.
//
// Exit 1 (DIVERGENCE/GATE line on stderr) if:
//   - folded and unfolded predictions differ bitwise on either scenario,
//   - the Vulcan folded run is slower than 10 s or the fold speedup is
//     below 20x (the 48-rank machine is reported ungated: both of its runs
//     finish in microseconds, where timing noise dominates).

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/engine_des.hpp"
#include "core/montecarlo.hpp"
#include "svc/json.hpp"
#include "verify/scenario.hpp"

using namespace ftbesst;
using bench::Clock;
using bench::seconds_since;

namespace {

/// A golden-corpus entry, stripped to its deterministic core (run_des
/// prices single deterministic executions): no faults, no Monte-Carlo, no
/// noise.
verify::Scenario corpus_entry(const char* name) {
  verify::Scenario s = verify::Scenario::from_file(
      std::string(FTBESST_CORPUS_DIR) + "/" + name + ".scenario");
  s.inject_faults = false;
  s.monte_carlo = false;
  s.noise_sigma = 0.0;
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

svc::Json fold_leg_json(const FoldLeg& leg) {
  return svc::JsonObject{
      {"wall_sec", leg.wall_sec},
      {"events", leg.events},
      {"events_per_sec", leg.wall_sec > 0 ? static_cast<double>(leg.events) /
                                                leg.wall_sec
                                          : 0.0},
      {"total_seconds", leg.result.total_seconds}};
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
      {"corpus_48", corpus_entry("big_machine"), false, {}, {}},
      {"vulcan_393k", corpus_entry("vulcan_393k"), true, {}, {}}};
  bool identical = true;
  double gated_speedup = 1e300, gated_folded_wall = 0;
  for (Entry& e : entries) {
    e.folded = run_leg(e.scenario, true);
    e.unfolded = run_leg(e.scenario, false);
    identical &=
        core::bit_difference(e.folded.result, e.unfolded.result).empty();
    if (e.gated) {
      gated_folded_wall = e.folded.wall_sec;
      if (e.folded.wall_sec > 0)
        gated_speedup = e.unfolded.wall_sec / e.folded.wall_sec;
    }
  }

  const bool gates_pass =
      identical && gated_speedup >= 20.0 && gated_folded_wall < 10.0;

  svc::JsonObject engine_fold;
  for (const Entry& e : entries)
    engine_fold[e.name] = svc::JsonObject{
        {"ranks", e.scenario.ranks},
        {"folded", fold_leg_json(e.folded)},
        {"unfolded", fold_leg_json(e.unfolded)},
        {"fold_speedup", e.folded.wall_sec > 0
                             ? e.unfolded.wall_sec / e.folded.wall_sec
                             : 0.0},
        {"gated", e.gated}};
  const svc::Json report = svc::JsonObject{
      {"engine_fold", std::move(engine_fold)},
      {"predictions_bitwise_identical", identical},
      {"gates", svc::JsonObject{{"scope", "vulcan_393k"},
                                {"fold_speedup_min", 20.0},
                                {"folded_wall_max_sec", 10.0},
                                {"pass", gates_pass}}}};
  std::cout << report.dump() << "\n";

  if (!identical)
    std::cerr << "DIVERGENCE: folded and unfolded predictions differ\n";
  else if (!gates_pass)
    std::cerr << "GATE: vulcan fold speedup " << gated_speedup
              << " < 20 or folded wall " << gated_folded_wall << " >= 10 s\n";
  return gates_pass ? 0 : 1;
}
