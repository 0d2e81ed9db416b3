// Pieces shared by both runners (the in-process one in main.cpp and the
// tier one in serve.cpp): warm-up, the untraced run's timed segments and
// cold set-ups, the traced run's two halves, the output checks' verdict
// and the host diagnostics.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "harness.hpp"

namespace perfbench {

double warm_up(const std::function<std::vector<double>()>& window) {
  obs::Span span("ftbench.warm_up");
  const auto start = Clock::now();
  std::vector<double> previous;
  for (;;) {
    std::vector<double> current = window();
    const double elapsed = seconds_since(start);
    if (elapsed >= kWarmMaxSeconds) break;
    if (elapsed >= kWarmMinSeconds && !previous.empty() &&
        settled(previous, current, kSettleTolerance))
      break;
    previous = std::move(current);
  }
  return seconds_since(start);
}

namespace {

/// setup_s of one `--setup-only` run of this program in a fresh process.
double fresh_setup_seconds(const Options& options) {
  std::vector<std::string> args = {
      "ftbench",    "--workload", options.workload,
      "--seed",     std::to_string(options.seed),
      "--seconds",  std::to_string(options.seconds),
      "--trace",    "0",
      "--repo",     options.repo,
      "--work-dir", options.work_dir,
      "--setup-only", "1"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int out[2];
  if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  pid_t pid = 0;
  const int spawned = ::posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                    argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  std::string text;
  if (spawned == 0) {
    char buffer[4096];
    ssize_t n = 0;
    while ((n = ::read(out[0], buffer, sizeof buffer)) > 0)
      text.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(out[0]);
  int status = 0;
  if (spawned != 0 || ::waitpid(pid, &status, 0) != pid ||
      !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("set-up process failed");
  const svc::Json line = svc::Json::parse(text);
  const svc::Json* metrics = line.find("metrics");
  const svc::Json* setup = metrics ? metrics->find("setup_s") : nullptr;
  if (!setup) throw std::runtime_error("set-up process reported no setup_s");
  return setup->number_or("value", 0.0);
}

}  // namespace

void timed_segments(
    Result& result, const Options& options, double own_setup_s, double tail_q,
    const std::function<Segment(double seconds, std::size_t min_ops)>&
        segment) {
  const HostSteal steal;
  std::vector<double> setups{own_setup_s}, p50s, rates, all_ms;
  for (int k = 0; k < kSegments; ++k) {
    setups.push_back(fresh_setup_seconds(options));
    obs::Span span("ftbench.timed");
    const std::size_t tail_need = samples_for_tail(tail_q);
    const std::size_t min_ops =
        k + 1 == kSegments && all_ms.size() < tail_need
            ? tail_need - all_ms.size()
            : 0;
    const Segment s = segment(options.seconds / kSegments, min_ops);
    p50s.push_back(nearest_rank(s.latencies_ms, 0.50).value_or(0.0));
    rates.push_back(PhaseRate{s.latencies_ms.size(), s.wall}.per_second());
    all_ms.insert(all_ms.end(), s.latencies_ms.begin(), s.latencies_ms.end());
  }
  const std::uint64_t n = all_ms.size();
  result.set("p50_ms", median(p50s), "ms", n);
  result.set("ops_per_s", median(rates), "1/s", n);
  if (const auto p90 = tail_percentile(all_ms, 0.90))
    result.set("p90_ms", *p90, "ms", n);
  if (const auto p99 = tail_percentile(all_ms, 0.99))
    result.set("p99_ms", *p99, "ms", n);
  result.set("setup_s", median(setups), "s", setups.size());
  result.info["setup_reps_s"] =
      svc::Json(svc::JsonArray(setups.begin(), setups.end()));
  result.info["segment_p50_ms"] = svc::Json(svc::JsonArray(p50s.begin(), p50s.end()));
  result.info["segment_ops_per_s"] =
      svc::Json(svc::JsonArray(rates.begin(), rates.end()));
  result.info["host_steal_pct"] = svc::Json(steal.percent());
}

void traced_halves(Result& result, double seconds,
                   const std::function<PhaseRate(bool traced,
                                                 double seconds)>& half) {
  obs::enable(false);
  const double untraced = half(false, seconds / 2.0).per_second();
  obs::reset();
  obs::enable(true);
  const double traced = half(true, seconds / 2.0).per_second();
  result.set("obs.overhead_pct", 100.0 * (untraced - traced) / untraced, "%");
  result.info["ops_per_s_untraced"] = svc::Json(untraced);
  result.info["ops_per_s_traced"] = svc::Json(traced);
}

void record_checks(Result& result, std::uint64_t attempted,
                   std::uint64_t failed, std::uint64_t warm_failed) {
  result.attempted = attempted;
  result.failed = failed;
  result.correct = failed == 0 && warm_failed == 0;
  result.set("error_rate",
             static_cast<double>(failed) /
                 static_cast<double>(std::max<std::uint64_t>(1, attempted)),
             "ratio");
  result.info["warmup_failed"] = svc::Json(warm_failed);
}

namespace {
std::pair<double, double> read_cpu_stat() {
  // First line of /proc/stat: cpu user nice system idle iowait irq softirq
  // steal ... (clock ticks).
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  stat >> cpu;
  double total = 0.0;
  for (double& f : fields) {
    if (!(stat >> f)) return {0.0, 0.0};
    total += f;
  }
  return {fields[7], total};
}
}  // namespace

HostSteal::HostSteal() {
  const auto [steal, total] = read_cpu_stat();
  steal_ = steal;
  total_ = total;
}

double HostSteal::percent() const {
  const auto [steal, total] = read_cpu_stat();
  return total > total_ ? 100.0 * (steal - steal_) / (total - total_) : 0.0;
}

double self_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

}  // namespace perfbench
