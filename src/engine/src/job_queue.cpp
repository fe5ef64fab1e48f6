#include "kvx/engine/job_queue.hpp"

#include <chrono>

#include "kvx/obs/flight_recorder.hpp"

namespace kvx::engine {

namespace {

/// Backstop park interval: the eventcount protocol below makes lost wakeups
/// next to impossible, and this bounds the cost of one to a single interval
/// instead of a hang (it also keeps the protocol robust against the fence
/// modelling gaps some sanitizers have).
constexpr auto kParkInterval = std::chrono::milliseconds(1);

/// Ring capacity per shard when the queue is unbounded: deep enough that
/// producers only park when every worker is saturated with work.
constexpr usize kDefaultRingCapacity = 2048;

/// Pop up to `max_items` jobs from one ring into `out`.
usize take_run(JobRing& ring, usize max_items, std::vector<QueuedJob>& out) {
  usize got = 0;
  QueuedJob item;
  while (got < max_items && ring.try_pop(item)) {
    out.push_back(std::move(item));
    ++got;
  }
  return got;
}

}  // namespace

ShardedJobQueue::ShardedJobQueue(usize shards, usize max_depth)
    : max_depth_(max_depth) {
  if (shards == 0) shards = 1;
  // Bounded: the rings together must hold max_depth jobs, so the global
  // ticket — not ring capacity — is what exerts the backpressure.
  const usize per_ring = max_depth == 0
                             ? kDefaultRingCapacity
                             : (max_depth + shards - 1) / shards;
  rings_.reserve(shards);
  for (usize s = 0; s < shards; ++s) {
    rings_.push_back(std::make_unique<JobRing>(per_ring));
  }
}

bool ShardedJobQueue::try_reserve() noexcept {
  u64 cur = size_.load(std::memory_order_relaxed);
  for (;;) {
    if (max_depth_ != 0 && cur >= max_depth_) return false;
    if (size_.compare_exchange_weak(cur, cur + 1,
                                    std::memory_order_relaxed)) {
      const u64 now = cur + 1;
      u64 hw = high_water_.load(std::memory_order_relaxed);
      while (now > hw && !high_water_.compare_exchange_weak(
                             hw, now, std::memory_order_relaxed)) {
      }
      return true;
    }
  }
}

bool ShardedJobQueue::try_push_any(QueuedJob& item) noexcept {
  const usize n = rings_.size();
  const u64 start = cursor_.fetch_add(1, std::memory_order_relaxed);
  for (usize i = 0; i < n; ++i) {
    if (rings_[(start + i) % n]->try_push(std::move(item))) return true;
  }
  return false;
}

void ShardedJobQueue::wake_consumers(bool all) noexcept {
  // Eventcount waker side: the seq_cst fence orders the preceding ring
  // publication against the sleeper-count read — either we see the sleeper
  // (and notify), or the sleeper's registration came later and its own
  // re-check sees our push.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleeping_consumers_.load(std::memory_order_relaxed) != 0) {
    { std::lock_guard lock(park_mutex_); }  // order with wait registration
    if (all) {
      not_empty_.notify_all();
    } else {
      not_empty_.notify_one();
    }
  }
}

void ShardedJobQueue::wake_producers() noexcept {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleeping_producers_.load(std::memory_order_relaxed) != 0) {
    { std::lock_guard lock(park_mutex_); }
    not_full_.notify_all();
  }
}

void ShardedJobQueue::park_consumer() {
  obs::FlightRecorder::global().record(obs::FlightEventType::kQueuePark, 0);
  std::unique_lock lock(park_mutex_);
  sleeping_consumers_.fetch_add(1, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // Re-check after registering: anything published between the caller's
  // failed scan and this point means we must not sleep.
  if (!closed_.load(std::memory_order_acquire) &&
      size_.load(std::memory_order_relaxed) == 0) {
    not_empty_.wait_for(lock, kParkInterval);
  }
  sleeping_consumers_.fetch_sub(1, std::memory_order_relaxed);
}

void ShardedJobQueue::park_producer() {
  obs::FlightRecorder::global().record(obs::FlightEventType::kQueuePark, 1);
  std::unique_lock lock(park_mutex_);
  sleeping_producers_.fetch_add(1, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!closed_.load(std::memory_order_acquire)) {
    not_full_.wait_for(lock, kParkInterval);
  }
  sleeping_producers_.fetch_sub(1, std::memory_order_relaxed);
}

bool ShardedJobQueue::push(QueuedJob item) {
  for (;;) {
    if (closed()) return false;
    if (!try_reserve()) {
      park_producer();  // bounded queue at max_depth: backpressure
      continue;
    }
    if (try_push_any(item)) {
      wake_consumers(/*all=*/false);
      return true;
    }
    release(1);  // every ring full (can only outpace the bound transiently)
    park_producer();
  }
}

usize ShardedJobQueue::push_bulk(std::span<QueuedJob> items, usize chunk) {
  if (chunk == 0) chunk = 1;
  const usize n = rings_.size();
  usize pushed = 0;
  while (pushed < items.size()) {
    // One contiguous chunk per round-robin shard keeps dispatch-signature
    // runs together on a single worker.
    const u64 shard = cursor_.fetch_add(1, std::memory_order_relaxed);
    usize in_chunk = 0;
    while (pushed < items.size() && in_chunk < chunk) {
      if (closed()) {
        if (in_chunk != 0) wake_consumers(/*all=*/true);
        return pushed;  // items[pushed...] left for the caller to retire
      }
      if (!try_reserve()) {
        if (in_chunk != 0) wake_consumers(/*all=*/true);
        park_producer();
        continue;
      }
      QueuedJob& item = items[pushed];
      if (!rings_[shard % n]->try_push(std::move(item)) &&
          !try_push_any(item)) {
        release(1);
        if (in_chunk != 0) wake_consumers(/*all=*/true);
        park_producer();
        continue;
      }
      ++pushed;
      ++in_chunk;
    }
    // Sleepers are woken once per chunk, not once per job — the bulk API's
    // synchronization amortization.
    wake_consumers(/*all=*/in_chunk > 1);
  }
  return pushed;
}

usize ShardedJobQueue::pop_bulk(usize worker, usize max_items,
                                std::vector<QueuedJob>& out) {
  out.clear();
  if (max_items == 0) max_items = 1;
  const usize n = rings_.size();
  for (;;) {
    // Own shard first; steal a whole run from the first non-empty victim
    // only when it is dry.
    usize got = take_run(*rings_[worker % n], max_items, out);
    for (usize v = 1; v < n && got == 0; ++v) {
      const usize victim = (worker + v) % n;
      got = take_run(*rings_[victim], max_items, out);
      if (got > 0) {
        obs::FlightRecorder::global().record(
            obs::FlightEventType::kQueueSteal, 0, victim, got);
      }
    }
    if (got > 0) {
      release(got);
      wake_producers();
      return got;
    }
    if (closed() && size_.load(std::memory_order_acquire) == 0) return 0;
    park_consumer();
  }
}

void ShardedJobQueue::close() {
  closed_.store(true, std::memory_order_release);
  { std::lock_guard lock(park_mutex_); }
  not_empty_.notify_all();
  not_full_.notify_all();
}

}  // namespace kvx::engine
