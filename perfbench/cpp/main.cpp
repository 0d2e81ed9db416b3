// ftbench: the FT-BESST end-to-end benchmark program.
//
//   ftbench --workload W --seed N --seconds S --trace 0|1
//           [--repo DIR] [--work-dir DIR] [--corrupt-reference 0|1]
//           [--setup-only 0|1]
//
// Prints one JSON object as the last line of stdout: the run's end-to-end
// metrics (trace 0) or its per-layer metrics and tracing overhead
// (trace 1), with `correct`/`attempted`/`failed` from the output checks.
// With --setup-only 1 it sets up once, reports setup_s and exits.
// perfbench/run.py builds this binary and is the intended entry point;
// perfbench/README.md describes the workloads and metrics.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/task_pool.hpp"

namespace perfbench {
namespace {

struct Phase {
  std::vector<double> latencies_ms;
  std::vector<std::pair<std::size_t, std::uint64_t>> digests;
  double wall = 0.0;
};

/// Ops are checked by digest; a thrown op records this value, which no
/// reference digest can be expected to equal by accident.
constexpr std::uint64_t kFailedOp = 0;

std::uint64_t guarded_op(OpWorkload& workload, std::size_t k) {
  try {
    return workload.op(k);
  } catch (const std::exception& e) {
    std::cerr << "ftbench: op " << k << " threw: " << e.what() << "\n";
    return kFailedOp;
  }
}

/// Ops per settle window: whole cycles, at least eight ops.
std::size_t window_ops(const OpWorkload& workload) {
  const std::size_t cycle = workload.cycle();
  return cycle * ((8 + cycle - 1) / cycle);
}

void run_window(OpWorkload& workload, Phase& phase,
                std::vector<double>* window_ms = nullptr) {
  const std::size_t ops = window_ops(workload);
  for (std::size_t i = 0; i < ops; ++i) {
    const std::size_t k = i % workload.cycle();
    const auto start = Clock::now();
    std::uint64_t digest = 0;
    {
      obs::Span span("ftbench.op");
      digest = guarded_op(workload, k);
    }
    const double ms = seconds_since(start) * 1e3;
    phase.latencies_ms.push_back(ms);
    phase.digests.emplace_back(k, digest);
    if (window_ms) window_ms->push_back(ms);
  }
}

void append(Phase& into, const Phase& from) {
  into.latencies_ms.insert(into.latencies_ms.end(), from.latencies_ms.begin(),
                           from.latencies_ms.end());
  into.digests.insert(into.digests.end(), from.digests.begin(),
                      from.digests.end());
  into.wall += from.wall;
}

/// Whole windows for at least `seconds`, appended to `phase`, extended
/// (up to 4x) until they ran at least `min_ops` ops.
void timed(OpWorkload& workload, Phase& phase, double seconds,
           std::size_t min_ops = 0) {
  const auto start = Clock::now();
  const std::size_t before = phase.latencies_ms.size();
  do {
    run_window(workload, phase);
  } while (seconds_since(start) < seconds ||
           (phase.latencies_ms.size() - before < min_ops &&
            seconds_since(start) < 4.0 * seconds));
  phase.wall += seconds_since(start);
}

std::uint64_t counter_sum(const obs::MetricsSnapshot& snap,
                          const std::vector<std::string>& names) {
  std::uint64_t total = 0;
  for (const std::string& name : names) total += snap.counter(name);
  return total;
}

/// Per-layer metrics derived from the counters the program keeps, over a
/// traced phase that started from obs::reset().
void counter_metrics(Result& result, const obs::MetricsSnapshot& snap,
                     const Phase& phase, unsigned pool_threads) {
  const double ops = static_cast<double>(phase.latencies_ms.size());
  const auto per_op = [ops](std::uint64_t count) {
    return ops > 0.0 ? static_cast<double>(count) / ops : 0.0;
  };
  result.set("model.evals_per_op",
             per_op(counter_sum(snap, {"model.evals.scalar",
                                       "model.evals.unrolled",
                                       "model.evals.avx2",
                                       "model.evals.avx2fast"})),
             "count");
  result.set("model.rows_per_op",
             per_op(counter_sum(snap, {"model.rows.scalar",
                                       "model.rows.unrolled",
                                       "model.rows.avx2",
                                       "model.rows.avx2fast"})),
             "count");
  result.set("core.trials_per_op", per_op(snap.counter("mc.trials")),
             "count");
  result.set("sim.events_per_op", per_op(snap.counter("des.events")),
             "count");
  result.set("sim.heap_high_water", snap.gauge("des.heap_high_water"),
             "count");
  result.set("sim.fold.folded_ranks", per_op(snap.counter("des.folded_ranks")),
             "count");
  result.set("util.pool.busy_frac",
             phase.wall > 0.0
                 ? static_cast<double>(snap.counter("pool.busy_ns")) * 1e-9 /
                       (pool_threads * phase.wall)
                 : 0.0,
             "ratio");
  result.set("util.pool.tasks_per_op", per_op(snap.counter("pool.tasks")),
             "count");
  result.set("util.pool.steals_per_op", per_op(snap.counter("pool.steals")),
             "count");

  const double trials = static_cast<double>(snap.counter("inject.trials"));
  const auto per_trial = [trials](double count) {
    return trials > 0.0 ? count / trials : 0.0;
  };
  result.set("inject.faults_per_trial",
             per_trial(static_cast<double>(counter_sum(
                 snap, {"inject.faults.crash", "inject.faults.loss",
                        "inject.faults.sdc"}))),
             "count");
  result.set("inject.rollbacks_per_trial",
             per_trial(static_cast<double>(counter_sum(
                 snap, {"inject.rollbacks.l1", "inject.rollbacks.l2",
                        "inject.rollbacks.l3", "inject.rollbacks.l4"}))),
             "count");
  result.set("inject.full_restarts_per_trial",
             per_trial(static_cast<double>(
                 snap.counter("inject.full_restarts"))),
             "count");
  result.set("inject.lost_work_s_per_trial",
             per_trial(static_cast<double>(
                           snap.counter("inject.lost_work_ns")) *
                       1e-9),
             "s");
}

/// Check every recorded digest against the per-cycle references; returns
/// the number of mismatches.
std::uint64_t mismatches(const Phase& phase,
                         const std::vector<std::uint64_t>& references) {
  std::uint64_t bad = 0;
  for (const auto& [k, digest] : phase.digests)
    if (digest == kFailedOp || digest != references[k]) ++bad;
  return bad;
}

Result run_op_workload(OpWorkload& workload, const Options& options) {
  Result result;
  obs::enable(options.trace);
  double setup_s = 0.0;
  {
    obs::Span span("ftbench.setup");
    const auto start = Clock::now();
    workload.setup(result);
    setup_s = seconds_since(start);
  }
  if (options.setup_only) {
    result.set("setup_s", setup_s, "s");
    return result;
  }

  Phase warm;
  warm.wall = warm_up([&] {
    std::vector<double> window_ms;
    run_window(workload, warm, &window_ms);
    return window_ms;
  });

  Phase main_phase;
  if (!options.trace) {
    timed_segments(result, options, setup_s, 0.90,
                   [&](double seconds, std::size_t min_ops) {
      Phase segment;
      timed(workload, segment, seconds, min_ops);
      append(main_phase, segment);
      return Segment{std::move(segment.latencies_ms), segment.wall};
    });
    result.set("peak_rss_mb", self_peak_rss_mb(), "MiB");
  } else {
    // Counters are read over the traced half; its ops are checked too.
    Phase traced;
    traced_halves(result, options.seconds, [&](bool on, double seconds) {
      Phase& phase = on ? traced : main_phase;
      obs::Span span("ftbench.timed");
      timed(workload, phase, seconds);
      if (on)
        counter_metrics(result, obs::scrape(), phase, workload.pool_threads());
      return PhaseRate{phase.latencies_ms.size(), phase.wall};
    });
    workload.probe(result);
    append(main_phase, traced);
  }

  // References: outside every timed phase and outside setup_s.
  std::vector<std::uint64_t> references(workload.cycle());
  std::vector<double> reference_ms;
  for (std::size_t k = 0; k < workload.cycle(); ++k) {
    const auto start = Clock::now();
    references[k] = workload.reference(k);
    reference_ms.push_back(seconds_since(start) * 1e3);
    if (options.corrupt_reference) references[k] ^= 1;
  }
  if (options.trace && workload.serial_reference()) {
    result.set("util.pool.speedup",
               median(reference_ms) / median(main_phase.latencies_ms),
               "ratio");
  }
  record_checks(result, main_phase.digests.size(),
                mismatches(main_phase, references), mismatches(warm, references));

  result.info["warmup_s"] = svc::Json(warm.wall);
  result.info["warmup_ops"] = svc::Json(warm.latencies_ms.size());
  result.info["cycle"] = svc::Json(workload.cycle());
  result.info["timed_s"] = svc::Json(main_phase.wall);
  result.info["reference_ms_median"] = svc::Json(median(reference_ms));
  return result;
}

std::string arg_value(int argc, char** argv, const char* flag,
                      const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  return fallback;
}

svc::Json to_json(const Result& result, const Options& options) {
  svc::JsonObject metrics;
  for (const auto& [name, metric] : result.metrics) {
    svc::JsonObject m;
    m["value"] = svc::Json(metric.value);
    m["unit"] = svc::Json(metric.unit);
    if (metric.samples > 0) m["samples"] = svc::Json(metric.samples);
    metrics[name] = svc::Json(std::move(m));
  }
  svc::JsonObject info = result.info;
  info["workload"] = svc::Json(options.workload);
  info["seed"] = svc::Json(options.seed);
  info["seconds"] = svc::Json(options.seconds);
  info["trace"] = svc::Json(options.trace);
  info["threads"] = svc::Json(static_cast<std::uint64_t>(options.threads));
  info["nproc"] = svc::Json(static_cast<std::uint64_t>(options.nproc));
  svc::JsonObject out;
  out["correct"] = svc::Json(result.correct);
  out["attempted"] = svc::Json(result.attempted);
  out["failed"] = svc::Json(result.failed);
  out["metrics"] = svc::Json(std::move(metrics));
  out["info"] = svc::Json(std::move(info));
  return svc::Json(std::move(out));
}

/// BENCHMARK.json gates only the workloads whose end-to-end metrics hold
/// their bounds on a shared host (dse_sweep, inject_campaign). The layers
/// only the other two drive are still measured: the traced run of each
/// gated workload also runs a traced run of the ungated one below and adds
/// the per-layer metrics it does not report itself, and its output checks.
constexpr std::pair<const char*, const char*> kLayerProbes[] = {
    {"dse_sweep", "serve_mixed"},        // svc, search
    {"inject_campaign", "vulcan_fold"},  // verify, sim/fold at scale
};

/// One run of `options.workload`; a traced run also writes its Perfetto
/// trace, metrics and summary with obs::write_output_dir.
Result run_workload(const Options& options) {
  Result result;
  if (options.workload == "serve_mixed") {
    result = run_serve_mixed(options);
  } else {
    std::unique_ptr<OpWorkload> workload =
        options.workload == "dse_sweep"         ? make_dse_sweep(options)
        : options.workload == "inject_campaign" ? make_inject_campaign(options)
                                                : make_vulcan_fold(options);
    result = run_op_workload(*workload, options);
  }
  if (options.trace) {
    const std::string dir = options.work_dir + "/trace-" + options.workload +
                            "-" + std::to_string(options.seed);
    if (obs::write_output_dir(dir)) result.info["trace_dir"] = svc::Json(dir);
  }
  return result;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  options.workload = arg_value(argc, argv, "--workload", "");
  options.seed = std::strtoull(arg_value(argc, argv, "--seed", "1").c_str(),
                               nullptr, 10);
  options.seconds = std::strtod(arg_value(argc, argv, "--seconds", "10").c_str(),
                                nullptr);
  options.trace = arg_value(argc, argv, "--trace", "0") == "1";
  options.corrupt_reference =
      arg_value(argc, argv, "--corrupt-reference", "0") == "1";
  options.setup_only = arg_value(argc, argv, "--setup-only", "0") == "1";
  options.repo = arg_value(argc, argv, "--repo", ".");
  options.work_dir = arg_value(argc, argv, "--work-dir", ".");
  options.nproc = std::max(1u, std::thread::hardware_concurrency());
  options.threads = ftbesst::util::TaskPool::shared().worker_count();
  if (options.seconds <= 0.0) {
    std::cerr << "ftbench: --seconds must be > 0\n";
    return 2;
  }

  const bool known = options.workload == "serve_mixed" ||
                     options.workload == "dse_sweep" ||
                     options.workload == "inject_campaign" ||
                     options.workload == "vulcan_fold";
  if (!known) {
    std::cerr << "ftbench: unknown --workload '" << options.workload
              << "' (serve_mixed|dse_sweep|inject_campaign|vulcan_fold)\n";
    return 2;
  }

  try {
    Result result = run_workload(options);
    if (options.trace) {
      // The layers this workload does not drive, from the workload that
      // does (see kLayerProbes).
      for (const auto& [host, probe] : kLayerProbes) {
        if (options.workload != host) continue;
        Options probe_options = options;
        probe_options.workload = probe;
        const Result layers = run_workload(probe_options);
        for (const auto& [name, metric] : layers.metrics)
          result.metrics.try_emplace(name, metric);
        result.attempted += layers.attempted;
        result.failed += layers.failed;
        result.correct = result.correct && layers.correct;
        result.info[std::string("probe_") + probe] = svc::Json(layers.info);
      }
    }
    std::cout << to_json(result, options).dump() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "ftbench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  return 0;
}
