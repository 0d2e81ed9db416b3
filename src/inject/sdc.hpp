#pragma once
// Silent-data-corruption (soft-error) process with a detection-latency
// model.
//
// Soft errors differ from fail-stop faults in two ways the injector must
// model (cf. the SDC campaign methodology of fault-injection benchmarking
// suites): (1) the corruption instant and the *detection* instant are
// separated by a latency — the application runs on corrupted state until a
// detector (checksum, ABFT residual check, assertion) notices; (2) any
// checkpoint written between corruption and detection snapshots the
// corrupted state and is poisoned (enforced by inject::RecoveryLedger's
// freshness filter). Recovery must roll back to a checkpoint completed
// before the corruption instant and replay from there, starting at the
// detection time.
//
// Interarrivals are exponential per node (soft-error rates scale with
// silicon area and are memoryless to first order); detection latency is
// exponential with a configurable mean, or exactly zero for an ideal
// instant detector.

#include "ft/faults.hpp"
#include "util/rng.hpp"

namespace ftbesst::inject {

class SdcProcess {
 public:
  /// `node_mtbe_seconds`: per-node mean time between silent errors.
  /// `mean_detect_seconds`: mean detection latency (exponential draw); 0
  /// models an instant detector. Throws std::invalid_argument on a
  /// non-positive MTBE or negative latency.
  explicit SdcProcess(double node_mtbe_seconds,
                      double mean_detect_seconds = 0.0);

  /// The first corruption on ONE node after `from`: kind
  /// kSilentCorruption, node id 0 (the caller assigns the real id). Draws
  /// the exponential interarrival, then the detect_after latency.
  [[nodiscard]] ft::FaultEvent next_after(double from, util::Rng& rng) const;

 private:
  double mtbe_;
  double mean_detect_;
};

}  // namespace ftbesst::inject
