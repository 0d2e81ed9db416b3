#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <mutex>

namespace ftbesst::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

// Capacity limits.  Generous for a simulator (the built-in instrumentation
// uses a few dozen metrics); registration past a limit yields an inert
// handle rather than an abort.
constexpr std::uint32_t kMaxCounters = 256;
constexpr std::uint32_t kMaxGauges = 64;
constexpr std::uint32_t kMaxHistograms = 64;
constexpr std::uint32_t kMaxBucketSlots = 2048;  // shared bucket arena
constexpr std::uint32_t kMaxBoundsPerHist = 128;

struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<std::atomic<std::uint64_t>, kMaxBucketSlots> buckets{};
  // Per-histogram running sum, stored as bit-cast doubles.  The shard is
  // thread-private so the CAS below never loops in practice.
  std::array<std::atomic<std::uint64_t>, kMaxHistograms> sums{};

  void add_sum(std::uint32_t hist_id, double v) noexcept {
    auto& cell = sums[hist_id];
    std::uint64_t cur = cell.load(std::memory_order_relaxed);
    for (;;) {
      const double next = std::bit_cast<double>(cur) + v;
      if (cell.compare_exchange_weak(cur, std::bit_cast<std::uint64_t>(next),
                                     std::memory_order_relaxed))
        return;
    }
  }
};

// Immutable-after-registration histogram metadata, read lock-free on the
// hot path.  A Histogram handle can only exist after its registration
// completed, and handing the handle to another thread establishes the
// happens-before needed to see these writes.
struct HistMeta {
  std::uint32_t slot_offset = 0;
  std::uint32_t n_bounds = 0;
  std::array<double, kMaxBoundsPerHist> bounds{};
};

struct HistDef {
  std::string name;
  std::vector<double> bounds;
  std::uint32_t slot_offset = 0;
};

class Registry {
 public:
  std::uint32_t intern_counter(std::string_view name) {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::uint32_t i = 0; i < counter_names_.size(); ++i)
      if (counter_names_[i] == name) return i;
    if (counter_names_.size() >= kMaxCounters) return detail::kInvalidId;
    counter_names_.emplace_back(name);
    return static_cast<std::uint32_t>(counter_names_.size() - 1);
  }

  std::uint32_t intern_gauge(std::string_view name) {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::uint32_t i = 0; i < gauge_names_.size(); ++i)
      if (gauge_names_[i] == name) return i;
    if (gauge_names_.size() >= kMaxGauges) return detail::kInvalidId;
    gauge_names_.emplace_back(name);
    return static_cast<std::uint32_t>(gauge_names_.size() - 1);
  }

  std::uint32_t intern_histogram(std::string_view name,
                                 std::vector<double> bounds) {
    if (bounds.empty() || bounds.size() > kMaxBoundsPerHist)
      return detail::kInvalidId;
    if (!std::is_sorted(bounds.begin(), bounds.end()) ||
        std::adjacent_find(bounds.begin(), bounds.end()) != bounds.end())
      return detail::kInvalidId;  // must be strictly increasing
    std::lock_guard<std::mutex> lk(mu_);
    for (std::uint32_t i = 0; i < hists_.size(); ++i)
      if (hists_[i].name == name) return i;  // first bounds win
    const auto n_slots = static_cast<std::uint32_t>(bounds.size() + 1);
    if (hists_.size() >= kMaxHistograms ||
        next_slot_ + n_slots > kMaxBucketSlots)
      return detail::kInvalidId;
    const auto id = static_cast<std::uint32_t>(hists_.size());
    HistMeta& meta = hist_meta_[id];
    meta.slot_offset = next_slot_;
    meta.n_bounds = static_cast<std::uint32_t>(bounds.size());
    std::copy(bounds.begin(), bounds.end(), meta.bounds.begin());
    hists_.push_back(HistDef{std::string(name), std::move(bounds), next_slot_});
    next_slot_ += n_slots;
    return id;
  }

  void attach(Shard* s) {
    std::lock_guard<std::mutex> lk(mu_);
    shards_.push_back(s);
  }

  void detach(Shard* s) {
    std::lock_guard<std::mutex> lk(mu_);
    shards_.erase(std::remove(shards_.begin(), shards_.end(), s),
                  shards_.end());
    fold_into_retired(*s);
  }

  void gauge_store(std::uint32_t id, double v) noexcept {
    if (id >= kMaxGauges) return;
    gauge_bits_[id].store(std::bit_cast<std::uint64_t>(v),
                          std::memory_order_relaxed);
  }

  void gauge_raise(std::uint32_t id, double v) noexcept {
    if (id >= kMaxGauges) return;
    auto& cell = gauge_bits_[id];
    std::uint64_t cur = cell.load(std::memory_order_relaxed);
    while (v > std::bit_cast<double>(cur)) {
      if (cell.compare_exchange_weak(cur, std::bit_cast<std::uint64_t>(v),
                                     std::memory_order_relaxed))
        return;
    }
  }

  const HistMeta* hist_meta(std::uint32_t id) const noexcept {
    return id < kMaxHistograms ? &hist_meta_[id] : nullptr;
  }

  MetricsSnapshot scrape() {
    std::lock_guard<std::mutex> lk(mu_);
    MetricsSnapshot snap;
    snap.counters.reserve(counter_names_.size());
    for (std::uint32_t i = 0; i < counter_names_.size(); ++i) {
      std::uint64_t total = retired_.counters[i].load(std::memory_order_relaxed);
      for (const Shard* s : shards_)
        total += s->counters[i].load(std::memory_order_relaxed);
      snap.counters.emplace_back(counter_names_[i], total);
    }
    snap.gauges.reserve(gauge_names_.size());
    for (std::uint32_t i = 0; i < gauge_names_.size(); ++i) {
      snap.gauges.emplace_back(
          gauge_names_[i],
          std::bit_cast<double>(gauge_bits_[i].load(std::memory_order_relaxed)));
    }
    snap.histograms.reserve(hists_.size());
    for (std::uint32_t h = 0; h < hists_.size(); ++h) {
      const HistDef& def = hists_[h];
      HistogramSnapshot hs;
      hs.name = def.name;
      hs.bounds = def.bounds;
      hs.buckets.assign(def.bounds.size() + 1, 0);
      for (std::size_t b = 0; b < hs.buckets.size(); ++b) {
        const std::uint32_t slot = def.slot_offset + static_cast<std::uint32_t>(b);
        std::uint64_t total = retired_.buckets[slot].load(std::memory_order_relaxed);
        for (const Shard* s : shards_)
          total += s->buckets[slot].load(std::memory_order_relaxed);
        hs.buckets[b] = total;
        hs.count += total;
      }
      double sum =
          std::bit_cast<double>(retired_.sums[h].load(std::memory_order_relaxed));
      for (const Shard* s : shards_)
        sum += std::bit_cast<double>(s->sums[h].load(std::memory_order_relaxed));
      hs.sum = sum;
      snap.histograms.push_back(std::move(hs));
    }
    return snap;
  }

  void reset() {
    std::lock_guard<std::mutex> lk(mu_);
    zero_shard(retired_);
    for (Shard* s : shards_) zero_shard(*s);
    for (auto& g : gauge_bits_) g.store(0, std::memory_order_relaxed);
  }

 private:
  static void zero_shard(Shard& s) {
    for (auto& c : s.counters) c.store(0, std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    for (auto& m : s.sums) m.store(0, std::memory_order_relaxed);
  }

  void fold_into_retired(Shard& s) {
    for (std::uint32_t i = 0; i < kMaxCounters; ++i)
      retired_.counters[i].fetch_add(
          s.counters[i].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < kMaxBucketSlots; ++i)
      retired_.buckets[i].fetch_add(
          s.buckets[i].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < kMaxHistograms; ++i)
      retired_.add_sum(i, std::bit_cast<double>(
                              s.sums[i].load(std::memory_order_relaxed)));
  }

  std::mutex mu_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<HistDef> hists_;
  std::uint32_t next_slot_ = 0;
  std::vector<Shard*> shards_;
  Shard retired_;
  std::array<std::atomic<std::uint64_t>, kMaxGauges> gauge_bits_{};
  std::array<HistMeta, kMaxHistograms> hist_meta_{};
};

Registry& registry() {
  static Registry r;
  return r;
}

// Per-thread shard, attached on first use and folded into the retired shard
// at thread exit.  The registry is a function-local static constructed no
// later than the first attach, so it outlives every shard — provided
// long-lived worker threads (the shared TaskPool) force registry
// construction before the pool static is created; obs::detail::metrics_touch
// exists for exactly that.
struct ShardOwner {
  Shard shard;
  ShardOwner() { registry().attach(&shard); }
  ~ShardOwner() { registry().detach(&shard); }
};

Shard& local_shard() {
  thread_local ShardOwner owner;
  return owner.shard;
}

const bool g_env_init = [] {
  if (const char* e = std::getenv("FTBESST_OBS"); e && e[0] == '1') enable(true);
  return true;
}();

// JSON numbers are finite: a gauge, sum or bound that is not reads as null.
util::Json finite_or_null(double v) {
  return std::isfinite(v) ? util::Json(v) : util::Json();
}

}  // namespace

namespace detail {

void counter_add(std::uint32_t id, std::uint64_t delta) noexcept {
  if (id >= kMaxCounters) return;
  local_shard().counters[id].fetch_add(delta, std::memory_order_relaxed);
}

void gauge_set(std::uint32_t id, double value) noexcept {
  registry().gauge_store(id, value);
}

void gauge_max(std::uint32_t id, double value) noexcept {
  registry().gauge_raise(id, value);
}

void hist_observe(std::uint32_t id, double value) noexcept {
  const HistMeta* meta = registry().hist_meta(id);
  if (!meta || meta->n_bounds == 0) return;
  const double* first = meta->bounds.data();
  const double* last = first + meta->n_bounds;
  // Bucket i holds values <= bounds[i].  NaN has no rank (lower_bound's
  // comparisons are all false, which would drop it into bucket 0), so route
  // it to the overflow bucket explicitly and keep it out of the sum —
  // one poisoned observation must not erase the sum of all the others.
  const bool unrankable = std::isnan(value);
  const auto idx = unrankable
                       ? meta->n_bounds
                       : static_cast<std::uint32_t>(
                             std::lower_bound(first, last, value) - first);
  Shard& shard = local_shard();
  shard.buckets[meta->slot_offset + idx].fetch_add(1,
                                                   std::memory_order_relaxed);
  if (!unrankable) shard.add_sum(id, value);
}

void metrics_touch() { registry(); }

}  // namespace detail

void enable(bool on) {
  if constexpr (!compiled()) return;
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

Counter counter(std::string_view name) {
  return Counter(registry().intern_counter(name));
}

Gauge gauge(std::string_view name) {
  return Gauge(registry().intern_gauge(name));
}

Histogram histogram(std::string_view name, std::vector<double> bounds) {
  return Histogram(registry().intern_histogram(name, std::move(bounds)));
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0 || buckets.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t prev = cum;
    cum += buckets[i];
    if (static_cast<double>(cum) >= target && buckets[i] > 0) {
      if (i >= bounds.size()) return bounds.back();  // overflow: clamp
      const double lo = (i == 0) ? 0.0 : bounds[i - 1];
      const double hi = bounds[i];
      const double frac =
          (target - static_cast<double>(prev)) / static_cast<double>(buckets[i]);
      return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
    }
  }
  return bounds.back();
}

bool MetricsSnapshot::has_counter(std::string_view name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return true;
  return false;
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return v;
  return 0;
}

double MetricsSnapshot::gauge(std::string_view name) const {
  for (const auto& [n, v] : gauges)
    if (n == name) return v;
  return 0.0;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const auto& h : histograms)
    if (h.name == name) return &h;
  return nullptr;
}

util::Json MetricsSnapshot::to_json() const {
  util::JsonObject counters_json;
  for (const auto& [name, value] : counters) counters_json[name] = value;
  util::JsonObject gauges_json;
  for (const auto& [name, value] : gauges)
    gauges_json[name] = finite_or_null(value);
  util::JsonObject histograms_json;
  for (const HistogramSnapshot& hs : histograms) {
    util::JsonArray buckets;
    for (std::size_t b = 0; b < hs.buckets.size(); ++b)
      buckets.emplace_back(util::JsonObject{
          {"le", b < hs.bounds.size() ? finite_or_null(hs.bounds[b])
                                      : util::Json()},
          {"n", hs.buckets[b]}});
    histograms_json[hs.name] = util::JsonObject{
        {"buckets", std::move(buckets)},
        {"count", hs.count},
        {"sum", finite_or_null(hs.sum)}};
  }
  return util::JsonObject{{"counters", std::move(counters_json)},
                          {"gauges", std::move(gauges_json)},
                          {"histograms", std::move(histograms_json)}};
}

MetricsSnapshot scrape() { return registry().scrape(); }

void reset() { registry().reset(); }

}  // namespace ftbesst::obs
