#pragma once
// The fault events of one injected run, drawn lazily.
//
// A FaultStream is the time-ordered sequence of faults that strike a
// machine over a simulation horizon. Sampled, it superposes per-node
// renewal streams: node n's fail-stop faults come from stream
// root.split(2n) and its silent corruptions from root.split(2n+1), each
// drawn one event at a time in a fixed per-event order (a crash: interval,
// node, loss; a corruption: interval, detection latency). The sequence is
// therefore a pure function of (seed, processes, nodes, horizon):
// independent of thread count, event interleaving, and how far the run
// actually gets. Only the next event of each stream is held, in a min-heap
// keyed (time, node, kind), so a run pays for the faults it reaches rather
// than for every fault before the horizon. Replayed, it walks a recorded
// trace (ft::FaultLog::to_trace feeds EngineOptions::fault_trace) behind
// the same next(from).
//
// Per-node sampling differs deliberately from the coarse engine's
// system-level renewal draw (FaultProcess::next_after): superposing
// independent per-node renewal processes is the physically faithful model,
// and for the exponential shape the superposition is exactly the Poisson
// system process the analytic Young/Daly layer assumes.

#include <cstdint>
#include <vector>

#include "ft/faults.hpp"
#include "inject/sdc.hpp"
#include "util/rng.hpp"

namespace ftbesst::inject {

class FaultStream {
 public:
  /// Sample the faults in [0, horizon_seconds) of a machine of `nodes`
  /// nodes. Either process may be null (that fault class is off). Throws
  /// std::invalid_argument on nodes < 1 or a non-finite/negative horizon.
  FaultStream(const ft::FaultProcess* crashes, const SdcProcess* sdc,
              std::int64_t nodes, double horizon_seconds,
              const util::Rng& root);
  /// Replay a recorded trace in its own order, after
  /// validate_schedule(trace, nodes).
  FaultStream(std::vector<ft::FaultEvent> trace, std::int64_t nodes);

  /// The next fault striking at or after `from` (time kNoFault when none
  /// remains). Faults before `from` are skipped for good, and so is the
  /// returned one: each fault is returned at most once.
  [[nodiscard]] ft::FaultEvent next(double from);

 private:
  /// One per-node renewal stream and its pending (not yet returned)
  /// event; the event's kind tells a corruption stream from a crash one.
  struct Source {
    ft::FaultEvent pending;
    util::Rng rng;
  };

  /// Heap order: true when `a`'s pending event comes after `b`'s (time,
  /// then node, then kind), so the heap's front is the earliest.
  static bool later(const Source& a, const Source& b);
  /// Replace `s`'s pending event by the stream's next one; false once that
  /// lies at or past the horizon (the stream is exhausted).
  bool advance(Source& s) const;

  const ft::FaultProcess* crashes_ = nullptr;
  const SdcProcess* sdc_ = nullptr;
  double horizon_ = 0.0;
  std::vector<Source> heap_;  ///< sampled: min-heap on the pending event
  std::vector<ft::FaultEvent> trace_;  ///< replay only
  std::size_t trace_pos_ = 0;
};

/// Validate an externally supplied schedule (a replay trace): times and
/// detection latencies must be finite and non-negative, times
/// non-decreasing, node ids within [0, nodes). Throws
/// std::invalid_argument on violation.
void validate_schedule(const std::vector<ft::FaultEvent>& schedule,
                       std::int64_t nodes);

}  // namespace ftbesst::inject
