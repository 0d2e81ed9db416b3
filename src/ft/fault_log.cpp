#include "ft/fault_log.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "util/number.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace ftbesst::ft {

namespace {

constexpr std::string_view kFaultLogMagicV1 = "ftbesst-faultlog v1";
constexpr std::string_view kFaultLogMagicV2 = "ftbesst-faultlog v2";
constexpr std::string_view kTrialsKey = "trials ";

std::vector<std::string_view> split_ws(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ') ++j;
    if (j > i) out.push_back(line.substr(i, j - i));
    i = j;
  }
  return out;
}

FaultRecord parse_record(std::string_view line) {
  const auto tok = split_ws(line);
  if (tok.size() != 8)
    throw std::invalid_argument("record needs 8 fields, got " +
                                std::to_string(tok.size()) + " in '" +
                                std::string(line) + "'");
  FaultRecord r;
  r.trial = util::parse_number<std::int64_t>(tok[0], "trial");
  r.time = util::parse_number<double>(tok[1], "time");
  r.node = util::parse_number<std::int64_t>(tok[2], "node");
  r.kind = parse_failure_kind(tok[3]);
  r.detect_after = util::parse_number<double>(tok[4], "detect_after");
  r.recovery_level = util::parse_number<int>(tok[5], "recovery_level");
  if (r.recovery_level < 0 || r.recovery_level > 4)
    throw std::invalid_argument("recovery_level out of range");
  r.lost_work_seconds = util::parse_number<double>(tok[6], "lost_work");
  r.restart_cost_seconds = util::parse_number<double>(tok[7], "restart_cost");
  return r;
}

}  // namespace

void FaultLog::append_trial(const FaultLog& other, std::int64_t trial) {
  records_.reserve(records_.size() + other.records_.size());
  for (FaultRecord r : other.records_) {
    r.trial = trial;
    records_.push_back(r);
  }
}

std::string FaultLog::to_text() const {
  std::string out(trials_ > 0 ? kFaultLogMagicV2 : kFaultLogMagicV1);
  out += '\n';
  if (trials_ > 0) {
    out += kTrialsKey;
    out += std::to_string(trials_);
    out += '\n';
  }
  for (const FaultRecord& r : records_) {
    out += std::to_string(r.trial);
    out += ' ';
    out += util::format_double(r.time);
    out += ' ';
    out += std::to_string(r.node);
    out += ' ';
    out += to_string(r.kind);
    out += ' ';
    out += util::format_double(r.detect_after);
    out += ' ';
    out += std::to_string(r.recovery_level);
    out += ' ';
    out += util::format_double(r.lost_work_seconds);
    out += ' ';
    out += util::format_double(r.restart_cost_seconds);
    out += '\n';
  }
  return out;
}

FaultLog FaultLog::from_text(std::string_view text) {
  FaultLog log;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  bool v2 = false;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (line_no == 1) {
      v2 = line == kFaultLogMagicV2;
      if (!v2 && line != kFaultLogMagicV1)
        throw std::invalid_argument(
            "faultlog: bad magic line (expected '" +
            std::string(kFaultLogMagicV2) + "' or '" +
            std::string(kFaultLogMagicV1) + "')");
      continue;
    }
    if (v2 && line_no == 2) {
      const std::int64_t trials =
          line.starts_with(kTrialsKey)
              ? util::parse_number<std::int64_t>(
                    line.substr(kTrialsKey.size()), "faultlog: trials")
              : 0;
      if (trials < 1)
        throw std::invalid_argument(
            "faultlog: v2 needs a 'trials N' line (N >= 1) after the magic");
      log.trials_ = static_cast<std::size_t>(trials);
      continue;
    }
    if (line.empty()) continue;
    FaultRecord r;
    try {
      r = parse_record(line);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("faultlog line " + std::to_string(line_no) +
                                  ": " + e.what());
    }
    if (log.trials_ > 0 &&
        (r.trial < 0 || static_cast<std::uint64_t>(r.trial) >= log.trials_))
      throw std::invalid_argument("faultlog: record trial " +
                                  std::to_string(r.trial) +
                                  " outside the log's trials");
    log.add(r);
  }
  if (v2 && log.trials_ == 0)
    throw std::invalid_argument("faultlog: v2 input has no 'trials' line");
  return log;
}

void FaultLog::write_csv(std::ostream& os) const {
  util::TextTable table;
  table.set_header({"trial", "time_s", "node", "kind", "detect_after_s",
                    "recovery_level", "lost_work_s", "restart_cost_s"});
  for (const FaultRecord& r : records_)
    table.add_row({std::to_string(r.trial), util::format_double(r.time),
                   std::to_string(r.node), to_string(r.kind),
                   util::format_double(r.detect_after),
                   std::to_string(r.recovery_level),
                   util::format_double(r.lost_work_seconds),
                   util::format_double(r.restart_cost_seconds)});
  table.write_csv(os);
}

std::vector<FaultEvent> FaultLog::to_trace(std::int64_t trial) const {
  if (trial < 0 ||
      (trials_ > 0 && static_cast<std::uint64_t>(trial) >= trials_))
    throw std::out_of_range(
        "faultlog: trial " + std::to_string(trial) + " is not in the log" +
        (trials_ > 0 ? " (it holds trials 0.." + std::to_string(trials_ - 1) +
                           ")"
                     : std::string()));
  std::vector<FaultEvent> trace;
  for (const FaultRecord& r : records_) {
    if (r.trial != trial) continue;
    FaultEvent ev;
    ev.time = r.time;
    ev.node = r.node;
    ev.kind = r.kind;
    ev.detect_after = r.detect_after;
    trace.push_back(ev);
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
  return trace;
}

double weibull_shape_from_cv(double cv) {
  if (cv <= 0.0) return 10.0;  // perfectly regular -> stiffest shape we model
  const auto cv_of = [](double k) {
    const double g1 = std::tgamma(1.0 + 1.0 / k);
    const double g2 = std::tgamma(1.0 + 2.0 / k);
    return std::sqrt(std::max(0.0, g2 / (g1 * g1) - 1.0));
  };
  double lo = 0.2, hi = 10.0;
  if (cv >= cv_of(lo)) return lo;  // extremely bursty
  if (cv <= cv_of(hi)) return hi;  // extremely regular
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    // cv is strictly decreasing in k.
    if (cv_of(mid) > cv)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

FaultModelEstimate estimate_fault_model(const std::vector<FaultEvent>& events,
                                        std::int64_t nodes) {
  if (nodes < 1) throw std::invalid_argument("nodes must be >= 1");
  if (events.size() < 3)
    throw std::invalid_argument(
        "need at least 3 logged events to estimate a fault model");
  std::vector<double> gaps;
  gaps.reserve(events.size() - 1);
  for (std::size_t i = 1; i < events.size(); ++i) {
    const double gap = events[i].time - events[i - 1].time;
    if (gap < 0.0)
      throw std::invalid_argument("fault log must be time-ordered");
    gaps.push_back(gap);
  }

  FaultModelEstimate est;
  est.events = events.size();
  est.system_mtbf = util::mean(gaps);
  if (est.system_mtbf <= 0.0)
    throw std::invalid_argument("degenerate log: all events simultaneous");
  est.node_mtbf = est.system_mtbf * static_cast<double>(nodes);
  est.weibull_shape =
      weibull_shape_from_cv(util::sample_stddev(gaps) / est.system_mtbf);
  const auto losses = static_cast<double>(
      std::count_if(events.begin(), events.end(), [](const FaultEvent& e) {
        return e.kind == FailureKind::kNodeLoss;
      }));
  est.node_loss_fraction = losses / static_cast<double>(events.size());
  return est;
}

}  // namespace ftbesst::ft
