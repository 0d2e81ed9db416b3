#include "util/task_pool.hpp"

#include <chrono>
#include <cstdlib>
#include <string>

#include "obs/obs.hpp"
#include "util/number.hpp"

namespace ftbesst::util {

namespace {
// Which pool (if any) the current thread is a worker of, and its index.
thread_local TaskPool* t_pool = nullptr;
thread_local int t_worker = -1;

// Pool instrumentation.  Handles are registered once (cold path); every use
// below is a relaxed-load-and-branch when obs is disabled.  pool.busy_ns is
// accumulated per worker wake-cycle, not per task, so the enabled-path cost
// stays off the per-task critical path; helping threads (TaskGroup::wait)
// contribute to pool.tasks but not to pool.busy_ns, which measures worker
// occupancy only.
struct PoolMetrics {
  obs::Counter tasks = obs::counter("pool.tasks");
  obs::Counter steals = obs::counter("pool.steals");
  obs::Counter busy_ns = obs::counter("pool.busy_ns");
  obs::Counter wakeups = obs::counter("pool.wakeups");
  obs::Gauge queue_high_water = obs::gauge("pool.queue_high_water");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

unsigned default_worker_count() {
  if (const char* env = std::getenv("FTBESST_THREADS")) {
    const auto parsed = try_parse_number<unsigned>(env);
    if (parsed && *parsed > 0) return *parsed;
  }
  return std::thread::hardware_concurrency();
}
}  // namespace

TaskPool::TaskPool(unsigned workers) {
  // Force the obs registries (function-local statics) into existence before
  // any worker thread is spawned: worker thread-local shards detach from the
  // registries at thread exit, and for the shared() pool that happens during
  // static destruction — construction order here guarantees the registries
  // are torn down after the pool has joined its workers.
  obs::touch();
  pool_metrics();
  if (workers == 0) workers = default_worker_count();
  workers = std::max(1u, workers);
  workers_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w)
    workers_.push_back(std::make_unique<Worker>());
  threads_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w)
    threads_.emplace_back([this, w] { worker_loop(w); });
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
}

TaskPool& TaskPool::shared() {
  static TaskPool pool;
  return pool;
}

void TaskPool::submit(Task task) {
  if (t_pool == this) {
    // Worker submitting to its own pool: push onto its deque. The owner
    // pops newest-first (locality); thieves steal oldest-first.
    Worker& mine = *workers_[static_cast<std::size_t>(t_worker)];
    std::lock_guard<std::mutex> lock(mine.mutex);
    mine.deque.push_back(std::move(task));
  } else {
    std::lock_guard<std::mutex> lock(mutex_);
    global_.push_back(std::move(task));
  }
  const std::size_t depth = queued_.fetch_add(1, std::memory_order_release) + 1;
  pool_metrics().queue_high_water.max(static_cast<double>(depth));
  // Empty critical section: pairs with the sleep predicate so a worker
  // between its predicate check and its sleep cannot miss this notify.
  { std::lock_guard<std::mutex> lock(mutex_); }
  wake_.notify_one();
}

bool TaskPool::try_pop(int self, Task& out) {
  const std::size_t n = workers_.size();
  if (self >= 0) {
    Worker& mine = *workers_[static_cast<std::size_t>(self)];
    std::lock_guard<std::mutex> lock(mine.mutex);
    if (!mine.deque.empty()) {
      out = std::move(mine.deque.back());
      mine.deque.pop_back();
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      return true;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!global_.empty()) {
      out = std::move(global_.front());
      global_.pop_front();
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      return true;
    }
  }
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t victim = (static_cast<std::size_t>(self < 0 ? 0 : self) + i) % n;
    if (static_cast<int>(victim) == self) continue;
    Worker& other = *workers_[victim];
    std::lock_guard<std::mutex> lock(other.mutex);
    if (!other.deque.empty()) {
      out = std::move(other.deque.front());
      other.deque.pop_front();
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      pool_metrics().steals.add();
      return true;
    }
  }
  return false;
}

void TaskPool::run_task(Task& task) noexcept {
  pool_metrics().tasks.add();
  std::exception_ptr error;
  try {
    task.fn();
  } catch (...) {
    error = std::current_exception();
  }
  task.fn = nullptr;  // release captures before signalling completion
  if (task.group != nullptr) task.group->finish_one(error);
}

bool TaskPool::try_run_one() {
  Task task;
  if (!try_pop(t_pool == this ? t_worker : -1, task)) return false;
  run_task(task);
  return true;
}

void TaskPool::worker_loop(unsigned index) {
  t_pool = this;
  t_worker = static_cast<int>(index);
  for (;;) {
    Task task;
    if (obs::enabled()) {
      // Clock the whole drain cycle (one wake), not each task: busy time is
      // what utilization needs, and per-cycle clocking keeps the enabled
      // cost amortized over however many tasks the cycle runs.
      const std::uint64_t t0 = obs::now_ns();
      std::uint64_t ran = 0;
      while (try_pop(static_cast<int>(index), task)) {
        run_task(task);
        ++ran;
      }
      if (ran > 0) {
        PoolMetrics& m = pool_metrics();
        m.busy_ns.add(obs::now_ns() - t0);
        m.wakeups.add();
      }
    } else {
      while (try_pop(static_cast<int>(index), task)) run_task(task);
    }
    std::unique_lock<std::mutex> lock(mutex_);
    wake_.wait(lock, [this] {
      return stop_ || queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_) return;
  }
}

void TaskGroup::run(std::function<void()> fn) {
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  pool_->submit(TaskPool::Task{std::move(fn), this});
}

void TaskGroup::finish_one(std::exception_ptr error) noexcept {
  // The decrement and the notify both happen under the mutex, and the
  // waiter re-acquires the mutex after observing zero: once this critical
  // section ends, no thread touches the group again, so the waiter may
  // safely destroy it. (Notifying outside the lock would let a timed-out
  // waiter observe zero, return, and destroy the condvar mid-notify.)
  std::lock_guard<std::mutex> lock(mutex_);
  if (error && !error_) error_ = error;
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1)
    done_.notify_all();
}

void TaskGroup::wait() {
  join_quietly();
  std::lock_guard<std::mutex> lock(mutex_);
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void TaskGroup::join_quietly() noexcept {
  while (outstanding_.load(std::memory_order_acquire) > 0) {
    if (pool_->try_run_one()) continue;
    // Nothing to help with: our remaining tasks are running on other
    // threads. The timeout is a belt-and-braces fallback so a task
    // submitted after our last poll can never strand us.
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait_for(lock, std::chrono::milliseconds(10), [this] {
      return outstanding_.load(std::memory_order_acquire) == 0;
    });
  }
  // Serialize with the final finish_one: it decrements and notifies under
  // this mutex, so once we pass here it has fully let go of the group.
  std::lock_guard<std::mutex> lock(mutex_);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  TaskPool& pool) {
  if (n == 0) return;
  if (n == 1) {
    body(0);
    return;
  }
  std::atomic<std::size_t> next{0};
  auto claim_loop = [&body, &next, n] {
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;)
      body(i);
  };
  const std::size_t helpers =
      std::min<std::size_t>(pool.worker_count(), n) - 1;
  TaskGroup group(pool);
  for (std::size_t w = 0; w < helpers; ++w) group.run(claim_loop);
  claim_loop();  // the calling thread participates
  group.wait();
}

}  // namespace ftbesst::util
