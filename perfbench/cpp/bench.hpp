#pragma once
// Shared types of the benchmark program (ftbench): run options, the result
// every workload fills in, and the interface of the in-process workloads
// whose ops the common runner in main.cpp times and checks.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "svc/json.hpp"

namespace perfbench {

namespace svc = ftbesst::svc;
namespace obs = ftbesst::obs;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Flip every reference digest/byte string: the check must then fail
  /// every op (the self-test that proves the output check is live).
  bool corrupt_reference = false;
  /// Set up once, report only setup_s and exit (the cold set-ups of
  /// timed_segments).
  bool setup_only = false;
  std::string repo = ".";      ///< checkout root (corpus files)
  std::string work_dir = ".";  ///< scratch for sockets, models, traces
  unsigned threads = 1;        ///< FTBESST_THREADS of this process's pool
  unsigned nproc = 1;
};

/// Segments of an untraced run's timed phase. One cold set-up runs before
/// each, so setup_s is the median of kSegments + 1 set-ups.
inline constexpr int kSegments = 8;
/// Warm-up: at least this much wall time, then until one op cycle's median
/// time is within kSettleTolerance of the previous cycle's, at most
/// kWarmMaxSeconds.
inline constexpr double kWarmMinSeconds = 1.0;
inline constexpr double kWarmMaxSeconds = 5.0;
inline constexpr double kSettleTolerance = 0.10;

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< sample count behind a timing (0 = n/a)
};

struct Result {
  std::map<std::string, Metric> metrics;
  svc::JsonObject info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
};

/// Warm-up by wall time: runs `window()` (one window of whole op cycles,
/// returning its op latencies in ms) for at least kWarmMinSeconds, then
/// until a window's median is within kSettleTolerance of the previous
/// window's, for at most kWarmMaxSeconds. Returns the warm-up wall time.
double warm_up(const std::function<std::vector<double>()>& window);

/// One timed segment: its op latencies (ms) and wall time.
struct Segment {
  std::vector<double> latencies_ms;
  double wall = 0.0;
};

/// The timed phase of an untraced run: kSegments equal segments of
/// `options.seconds`, each run by `segment(seconds, min_ops)` after one
/// cold set-up in a fresh `--setup-only` process. So every set-up is cold,
/// and the set-ups sample the same spread of host conditions as the timed
/// ops. Records the end-to-end timings: p50_ms and ops_per_s are the medians
/// over the segments of each segment's median latency and op rate, so a
/// host stall that slows one segment moves neither; p90_ms and p99_ms are
/// taken over all ops, where the tail rule allows; setup_s is the median
/// of the run's own set-up (`own_setup_s`) and the fresh ones. The last
/// segment is asked to run at least `min_ops` ops (up to 4x its time), so
/// that percentile `tail_q` can be reported over all ops.
void timed_segments(
    Result& result, const Options& options, double own_setup_s, double tail_q,
    const std::function<Segment(double seconds, std::size_t min_ops)>&
        segment);

/// Ops completed and wall time of one timed phase.
struct PhaseRate {
  std::size_t ops = 0;
  double wall = 0.0;
  [[nodiscard]] double per_second() const {
    return wall > 0.0 ? static_cast<double>(ops) / wall : 0.0;
  }
};

/// The traced run's two halves: `half(false, seconds / 2)` with obs off,
/// then obs::reset() and `half(true, seconds / 2)` with obs on, so counters
/// read inside the traced half are deltas from its start. Records
/// obs.overhead_pct, the drop in ops_per_s from the first half to the
/// second.
void traced_halves(Result& result, double seconds,
                   const std::function<PhaseRate(bool traced,
                                                 double seconds)>& half);

/// The output checks' verdict: attempted/failed, error_rate over the
/// timed ops, and `correct` (false if any timed or warm-up op failed).
void record_checks(Result& result, std::uint64_t attempted,
                   std::uint64_t failed, std::uint64_t warm_failed);

/// Share of CPU time the hypervisor gave to other guests (the "steal"
/// column of /proc/stat) between construction and percent(), in percent.
/// A diagnostic recorded next to every timed phase: host contention, not
/// the program, is the main source of run-to-run spread on shared VMs.
class HostSteal {
 public:
  HostSteal();
  [[nodiscard]] double percent() const;

 private:
  double steal_ = 0.0;
  double total_ = 0.0;
};

/// Peak resident set of this process, MiB.
[[nodiscard]] double self_peak_rss_mb();

/// An in-process workload: a fixed cycle of ops (one per derived seed),
/// each returning a bit digest of its output, and an untimed reference
/// digest per cycle position to check it against.
class OpWorkload {
 public:
  virtual ~OpWorkload() = default;
  /// Everything before the first timed op except the warm-up (timed as
  /// setup_s). The traced run records per-layer set-up timings into
  /// `result`.
  virtual void setup(Result& result) = 0;
  [[nodiscard]] virtual std::size_t cycle() const = 0;
  /// Run op `k` (0 <= k < cycle()) and digest its output.
  [[nodiscard]] virtual std::uint64_t op(std::size_t k) = 0;
  /// The digest op `k` must produce, computed a different way (threads=1
  /// or the recorded corpus output); never inside a timed phase.
  [[nodiscard]] virtual std::uint64_t reference(std::size_t k) = 0;
  /// Traced run only: time this workload's layer functions directly.
  virtual void probe(Result& result) { (void)result; }
  /// True when reference() runs the same op at threads=1, so its time over
  /// the pooled op time is util.pool.speedup.
  [[nodiscard]] virtual bool serial_reference() const { return true; }
  /// Pool threads the ops fan out on (util.pool.busy_frac denominator).
  [[nodiscard]] virtual unsigned pool_threads() const = 0;
};

std::unique_ptr<OpWorkload> make_dse_sweep(const Options& options);
std::unique_ptr<OpWorkload> make_inject_campaign(const Options& options);
std::unique_ptr<OpWorkload> make_vulcan_fold(const Options& options);

/// The tier workload has its own runner (client threads, worker processes).
Result run_serve_mixed(const Options& options);

}  // namespace perfbench
