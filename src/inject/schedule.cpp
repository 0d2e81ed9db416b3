#include "inject/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "inject/ledger.hpp"

namespace ftbesst::inject {

bool FaultStream::later(const Source& a, const Source& b) {
  if (a.pending.time != b.pending.time) return a.pending.time > b.pending.time;
  if (a.pending.node != b.pending.node) return a.pending.node > b.pending.node;
  return static_cast<int>(a.pending.kind) > static_cast<int>(b.pending.kind);
}

FaultStream::FaultStream(const ft::FaultProcess* crashes,
                         const SdcProcess* sdc, std::int64_t nodes,
                         double horizon_seconds, const util::Rng& root)
    : crashes_(crashes), sdc_(sdc), horizon_(horizon_seconds) {
  if (nodes < 1) throw std::invalid_argument("schedule needs nodes >= 1");
  if (!std::isfinite(horizon_seconds) || horizon_seconds < 0.0)
    throw std::invalid_argument("schedule horizon must be finite and >= 0");
  // Each stream's first event is the next one after a virtual event at
  // t = 0 (a default FaultEvent's time).
  auto add = [&](std::uint64_t stream, std::int64_t node,
                 ft::FailureKind kind) {
    Source s;
    s.rng = root.split(stream);
    s.pending.node = node;
    s.pending.kind = kind;
    if (advance(s)) heap_.push_back(s);
  };
  heap_.reserve(2 * static_cast<std::size_t>(nodes));
  for (std::int64_t n = 0; n < nodes; ++n) {
    const auto stream = 2 * static_cast<std::uint64_t>(n);
    if (crashes != nullptr) add(stream, n, ft::FailureKind::kProcessCrash);
    if (sdc != nullptr) add(stream + 1, n, ft::FailureKind::kSilentCorruption);
  }
  std::make_heap(heap_.begin(), heap_.end(), later);
}

FaultStream::FaultStream(std::vector<ft::FaultEvent> trace,
                         std::int64_t nodes)
    : trace_(std::move(trace)) {
  validate_schedule(trace_, nodes);
}

bool FaultStream::advance(Source& s) const {
  const std::int64_t node = s.pending.node;
  // FaultProcess::next_after over a 1-node machine is exactly the per-node
  // renewal process (exp or mean-pinned Weibull interarrivals).
  s.pending = s.pending.kind == ft::FailureKind::kSilentCorruption
                  ? sdc_->next_after(s.pending.time, s.rng)
                  : crashes_->next_after(s.pending.time, 1, s.rng);
  s.pending.node = node;
  return s.pending.time < horizon_;
}

ft::FaultEvent FaultStream::next(double from) {
  // Sampled: pop the earliest pending event and refill only its stream.
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const ft::FaultEvent ev = heap_.back().pending;
    if (advance(heap_.back()))
      std::push_heap(heap_.begin(), heap_.end(), later);
    else
      heap_.pop_back();
    if (ev.time >= from) return ev;
  }
  // Replayed (a sampled stream has no trace).
  while (trace_pos_ < trace_.size() && trace_[trace_pos_].time < from)
    ++trace_pos_;
  if (trace_pos_ < trace_.size()) return trace_[trace_pos_++];
  ft::FaultEvent none;
  none.time = kNoFault;
  return none;
}

void validate_schedule(const std::vector<ft::FaultEvent>& schedule,
                       std::int64_t nodes) {
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const ft::FaultEvent& ev = schedule[i];
    if (!std::isfinite(ev.time) || ev.time < 0.0)
      throw std::invalid_argument("fault trace: bad time at entry " +
                                  std::to_string(i));
    if (!std::isfinite(ev.detect_after) || ev.detect_after < 0.0)
      throw std::invalid_argument(
          "fault trace: bad detection latency at entry " + std::to_string(i));
    if (ev.node < 0 || ev.node >= nodes)
      throw std::invalid_argument("fault trace: node id out of range at entry " +
                                  std::to_string(i));
    if (i > 0 && ev.time < schedule[i - 1].time)
      throw std::invalid_argument("fault trace must be time-ordered");
  }
}

}  // namespace ftbesst::inject
