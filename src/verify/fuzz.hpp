#pragma once
// Structure-aware fuzzing for every parser that eats untrusted bytes:
// svc::Json, the wire frame codec (extract_frame), the checkpoint-plan
// grammar (core::parse_plan), the model-serialize loader, the INI config
// reader (util::Config), the scenario format (Scenario::from_text) and the
// fault-log text (ft::FaultLog::from_text).
//
// Each target has a single-input entry point `fuzz_<target>_one(data,
// size)` with libFuzzer semantics: feed the bytes to the parser, and if
// they are accepted, check the target's invariants (canonical-dump
// fixpoint, incremental-vs-whole framing equivalence, plan round-trip,
// serialize round-trip, config numbers that survive their shortest form,
// scenario and fault-log text that re-reads to the same bytes). The ONLY
// exception a target may raise on hostile
// input is std::invalid_argument, which the entry catches and counts as a
// clean rejection; an invariant violation throws std::logic_error, and any
// other escaping exception type is itself a bug. The same entries back
//   * the in-process budgeted loops below (grammar-based generators +
//     byte-level mutators, fixed seed, run as a tier-1 ctest target), and
//   * the optional libFuzzer harnesses under tools/fuzz/ (FTBESST_FUZZ).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ftbesst::verify {

/// Returns true if the input was accepted (parsed), false on a clean
/// std::invalid_argument rejection. Throws std::logic_error on an
/// invariant violation; lets any other exception escape (a bug).
bool fuzz_json_one(const std::uint8_t* data, std::size_t size);
bool fuzz_wire_one(const std::uint8_t* data, std::size_t size);
bool fuzz_plan_one(const std::uint8_t* data, std::size_t size);
bool fuzz_model_one(const std::uint8_t* data, std::size_t size);
bool fuzz_config_one(const std::uint8_t* data, std::size_t size);
bool fuzz_scenario_one(const std::uint8_t* data, std::size_t size);
bool fuzz_faultlog_one(const std::uint8_t* data, std::size_t size);

struct FuzzBug {
  std::uint64_t iteration = 0;
  std::string what;       ///< escaped exception / invariant description
  std::string input_hex;  ///< offending input, hex-encoded reproducer
};

struct FuzzResult {
  std::string target;
  std::uint64_t seed = 0;
  std::uint64_t iterations = 0;
  std::uint64_t accepted = 0;  ///< inputs the parser accepted
  std::vector<FuzzBug> bugs;

  [[nodiscard]] bool ok() const noexcept { return bugs.empty(); }
  /// "target: N iterations, A accepted, B bug(s)" plus one line per bug
  /// with its seed/iteration and hex reproducer.
  [[nodiscard]] std::string summary() const;
};

/// Budgeted in-process campaigns: generate structured inputs from the
/// target's grammar, mutate them at the byte level, and drive the entry
/// point, capturing bugs instead of throwing. Deterministic per seed.
[[nodiscard]] FuzzResult fuzz_json(std::uint64_t seed,
                                   std::uint64_t iterations);
[[nodiscard]] FuzzResult fuzz_wire(std::uint64_t seed,
                                   std::uint64_t iterations);
[[nodiscard]] FuzzResult fuzz_plan(std::uint64_t seed,
                                   std::uint64_t iterations);
[[nodiscard]] FuzzResult fuzz_model(std::uint64_t seed,
                                    std::uint64_t iterations);
[[nodiscard]] FuzzResult fuzz_config(std::uint64_t seed,
                                     std::uint64_t iterations);
[[nodiscard]] FuzzResult fuzz_scenario(std::uint64_t seed,
                                       std::uint64_t iterations);
[[nodiscard]] FuzzResult fuzz_faultlog(std::uint64_t seed,
                                       std::uint64_t iterations);

/// All seven targets with the same per-target budget.
[[nodiscard]] std::vector<FuzzResult> fuzz_all(std::uint64_t seed,
                                               std::uint64_t iterations);

/// Decode the `input_hex` of a FuzzBug back to bytes (for replay).
[[nodiscard]] std::vector<std::uint8_t> fuzz_unhex(const std::string& hex);

}  // namespace ftbesst::verify
