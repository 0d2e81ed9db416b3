#pragma once
// Golden scenario corpus: curated `.scenario` files with recorded expected
// outputs (`.expected`), replayed byte-exactly, plus every differential
// check on every entry.
//
// Each corpus entry prices its scenario through the Monte-Carlo ensemble
// driver (the path every real DSE result takes) with the scenario's fixed
// seed and serializes the result with shortest-round-trip doubles
// (result_to_text). Replay recomputes that text and compares it to the
// recorded file byte for byte — any drift in an engine, a cost model, the
// RNG, or the threading layer shows up as a one-line diff naming the first
// divergent line. The same pass then runs check_scenario on the entry
// (analytic twin, des-vs-bsp, fold-vs-unfold, threads 1 vs 4, Young/Daly,
// and the injected fold/threads/Young/Daly checks) and, on `search_*`
// entries, check_search_vs_exhaustive — so one walk of the corpus holds
// every determinism and agreement contract at once.
//
// To add an entry: write `tests/corpus/<name>.scenario` (omitted keys take
// the documented defaults), then run
//   ftbesst verify --corpus tests/corpus --update 1
// and commit both files. See docs/TESTING.md.

#include <string>

#include "verify/differential.hpp"
#include "verify/scenario.hpp"

namespace ftbesst::verify {

/// Price `s` through run_ensemble (s.trials trials, fixed s.seed) and
/// serialize the full result canonically. `threads` must not change the
/// output; 1 = serial reference.
[[nodiscard]] std::string result_to_text(const Scenario& s,
                                         unsigned threads = 1);

/// The corpus pass. Walks `<dir>/*.scenario` sorted by name; for each
/// entry it compares result_to_text(s, 1) with the sibling `.expected`
/// byte for byte (a "golden" failure; a missing `.expected` names
/// `--update`), runs check_scenario(s), and on `search_*` entries runs
/// check_search_vs_exhaustive(s). Every failure carries its entry name.
/// Throws std::invalid_argument naming `dir` when it cannot be read or
/// holds no `.scenario` file: an empty corpus checks nothing.
[[nodiscard]] DiffReport replay_corpus(const std::string& dir);

/// (Re)record `<name>.expected` for every scenario in `dir`. Returns the
/// number of entries written; throws like replay_corpus on an unreadable
/// or empty directory.
int record_corpus(const std::string& dir);

}  // namespace ftbesst::verify
