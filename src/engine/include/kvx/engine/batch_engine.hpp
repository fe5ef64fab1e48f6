// BatchHashEngine — host-parallel batch hashing on top of the paper's
// SIMD-parallel accelerator.
//
// The paper parallelizes *inside* one vector register file: SN ∈ {1, 3, 6}
// Keccak states permute in lockstep per accelerator. This engine adds the
// second level the ROADMAP's throughput goal needs: a pool of worker shards,
// each owning an independent simulated accelerator (ParallelSha3), fed by a
// sharded lock-free scheduler — one bounded MPMC ring per worker, producers
// distributing round-robin, idle workers stealing runs from their victims
// (kvx/engine/job_queue.hpp). Total parallelism = threads × SN.
//
// Guarantees:
//  * Deterministic ordering — every job carries a dense sequence id and
//    drain()/drain_results()/drain_batch() return outcomes in submission
//    order, independent of worker scheduling and stealing. Digests are
//    bit-identical to a single-threaded run.
//  * Fail-soft isolation — jobs fail individually. A malformed job, an
//    injected fault or a dispatch error marks ONLY the jobs of that
//    dispatch group as failed; batch-mates and every other job complete
//    normally. Invariant: submitted == completed + failed, exactly, at
//    every quiescent point (mirrored by the Prometheus counters).
//  * Lane filling — workers pop runs of jobs (batch_window, default 4·SN)
//    so each simulator dispatch can fill all SN lanes; submit_batch()
//    pushes contiguous chunks of that size per queue shard so runs group
//    well by dispatch signature.
//  * Graceful shutdown — close() stops intake; queued jobs still complete.
//    The destructor closes and joins; nothing is dropped.
//  * Backpressure — a bounded queue (max_queue) blocks submit() instead of
//    buffering without limit.
//
// See docs/engine.md for the architecture, failure semantics and sizing
// guidance.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "kvx/core/parallel_sha3.hpp"
#include "kvx/engine/job.hpp"
#include "kvx/engine/job_queue.hpp"
#include "kvx/engine/stats.hpp"
#include "kvx/obs/metrics.hpp"
#include "kvx/obs/postmortem.hpp"

namespace kvx::engine {

struct EngineConfig {
  /// Worker shards, each with its own simulated accelerator.
  unsigned threads = 1;
  /// Per-shard accelerator configuration (SN = ele_num / 5). Set
  /// accel.fault_injector for deterministic fault injection; all shards
  /// share the injector's decision stream.
  core::VectorKeccakConfig accel{core::Arch::k64Lmul8, 15, 24};
  /// Per-shard ParallelSha3 options (e.g. on-device absorb).
  core::ParallelSha3Options accel_options{};
  /// Jobs a worker grabs per queue pop; 0 = 4 × SN (enough to fill the
  /// lanes even with some length mismatch).
  usize batch_window = 0;
  /// Queue bound for submit() backpressure; 0 = unbounded.
  usize max_queue = 0;
  /// Pin worker i to host CPU i mod hardware_concurrency (Linux only,
  /// best-effort). Helps cache locality on dedicated hosts; leave off on
  /// shared machines where the OS scheduler should keep the freedom.
  bool pin_workers = false;
};

class BatchHashEngine {
 public:
  explicit BatchHashEngine(const EngineConfig& config);
  ~BatchHashEngine();

  BatchHashEngine(const BatchHashEngine&) = delete;
  BatchHashEngine& operator=(const BatchHashEngine&) = delete;

  /// Submit one job; returns its sequence id (dense, starting at 0).
  ///
  /// Malformed jobs (variable-output algorithm without out_len,
  /// fixed-output algorithm with a mismatching out_len, key material on a
  /// non-KMAC job) are accepted and retired immediately as per-job
  /// failures — they get a sequence id and a JobResult carrying the
  /// validation error, and count toward the failed totals. Only submitting
  /// after close() throws.
  u64 submit(HashJob job);

  /// Bulk submit: one sequence-id reservation, one metrics update and one
  /// validation pass for the whole span, then chunked round-robin pushes
  /// across the queue shards — the amortized path high-rate producers
  /// should use. Returns the sequence id of the first job (the span's jobs
  /// occupy the dense range [first, first + jobs.size())); for an empty
  /// span, the id the next submitted job would get. Safe to call from many
  /// producer threads concurrently: each span gets a contiguous id range.
  u64 submit_batch(std::span<const HashJob> jobs);

  /// Submit a span of jobs; returns the sequence id of the first. (Alias
  /// of submit_batch, kept for source compatibility.)
  u64 submit_all(std::span<const HashJob> jobs) { return submit_batch(jobs); }

  /// Block until every job submitted so far has retired, then *append* all
  /// outcomes not yet collected to `out` in submission order — one
  /// JobResult per job, failed or not — reusing the caller's buffer.
  /// Returns the number appended. The engine stays usable for further
  /// submissions afterwards (unless closed).
  usize drain_batch(std::vector<JobResult>& out);

  /// Non-blocking drain for event loops: append the contiguous prefix of
  /// already-retired outcomes (in submission order) to `out` and return the
  /// number appended — possibly 0, never waiting. `max` != 0 caps the
  /// collection (bounding event-loop work per wakeup). A job whose result
  /// is still pending stops the prefix even if later jobs have retired, so
  /// ordering is identical to the blocking drains.
  usize try_drain_ready(std::vector<JobResult>& out, usize max = 0);

  /// Register a completion-notification fd (an eventfd or pipe write end):
  /// after every retirement the engine write()s a u64 of 1 to it, so an
  /// epoll/poll loop can sleep on the fd and call try_drain_ready() on
  /// wakeup instead of ever blocking in drain. -1 (the default) disables.
  /// The caller owns the fd and must keep it open while set; writes that
  /// fail (EAGAIN on a saturated eventfd counter is harmless — the edge is
  /// already pending) are ignored. Thread-safe.
  void set_notify_fd(int fd) noexcept {
    notify_fd_.store(fd, std::memory_order_release);
  }

  /// Block until every job submitted so far has retired, then return all
  /// outcomes not yet collected, in submission order — one JobResult per
  /// job, failed or not. The engine stays usable for further submissions
  /// afterwards (unless closed).
  std::vector<JobResult> drain_results();

  /// Digest-only convenience over drain_results(): throws Error if ANY
  /// job failed (message carries the failure count and the first error),
  /// otherwise returns the digests in submission order.
  std::vector<std::vector<u8>> drain();

  /// Block until job `seq` retires and return a copy of its outcome.
  /// Throws Error if `seq` was never issued or its result was already
  /// collected by a drain call.
  JobResult result(u64 seq);

  /// Stop accepting new jobs. Already-queued jobs still complete; call
  /// drain()/drain_results() to collect them. Idempotent.
  void close();

  [[nodiscard]] unsigned threads() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }
  [[nodiscard]] unsigned lanes_per_shard() const noexcept {
    return config_.accel.sn();
  }
  /// Jobs currently queued (pushed, not yet popped by a worker) — the
  /// lock-free backpressure signal servers compare against max_queue; see
  /// also in_flight() for queued + executing.
  [[nodiscard]] usize queue_depth() const noexcept { return queue_.depth(); }
  /// Jobs submitted but not yet retired (queued or executing). Lock-free:
  /// three atomic loads of the engine counters.
  [[nodiscard]] u64 in_flight() const noexcept;
  /// Snapshot of the engine counters (thread-safe at any time, lock-free;
  /// mid-flight, completed + failed ≤ submitted holds at every snapshot).
  [[nodiscard]] EngineStats stats() const;

 private:
  /// Cache-line-aligned so one shard's counter churn never false-shares
  /// with its neighbour (shards are also separately heap-allocated).
  struct alignas(64) Shard {
    std::unique_ptr<core::ParallelSha3> accel;
    /// This shard's counters: a slot of the engine's post-mortem block, or
    /// own_counters past pm::kMaxShards. Written by this shard's worker
    /// once per batch (relaxed), read by stats() and the crash handler.
    obs::pm::ShardCounters* counters = nullptr;
    obs::pm::ShardCounters own_counters;
    /// Cumulative accel->backend_fallbacks() already accounted for, so
    /// dispatch-time demotions are attributed per batch by diffing the
    /// accelerator's monotone counter (worker thread only).
    u64 fallbacks_seen = 0;
    unsigned index = 0;      ///< dense shard id (flight-recorder dispatch tag)
  };

  void worker_loop(unsigned index, Shard& shard);
  /// Dispatch `batch`, then retire every job of it. Nothing is retired or
  /// counted until every dispatch has run, so a throw leaves the whole
  /// batch to fail_batch.
  void process_batch(Shard& shard, std::vector<QueuedJob>& batch);
  /// Retire every job of `batch` as failed with the same error (the
  /// worker-loop backstop for non-dispatch failures).
  void fail_batch(Shard& shard, const std::vector<QueuedJob>& batch,
                  const char* what);
  /// Stamp one retirement's submit-to-retire latency into the engine's
  /// histogram and the process-wide one (`flight_seq` becomes the latter's
  /// bucket exemplar when the sample is its new maximum). Lock-free.
  void record_latency(u64 sample_ns, u64 flight_seq) noexcept;
  /// Retire job `seq` as failed at submit time (event, latency, counters,
  /// then the slot write). Caller holds state_mutex_.
  void fail_job_locked(u64 seq, u64 submit_ns, std::string error);
  /// Poke the completion-notification fd, if one is set (one u64 write;
  /// failures ignored). Called after every retirement batch.
  void notify_retire() noexcept;

  EngineConfig config_;
  usize window_;
  ShardedJobQueue queue_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  /// Tokens for the callback-bound queue-depth gauges (aggregate + one per
  /// queue shard), unbound in the destructor before queue_ dies.
  std::vector<std::pair<obs::Gauge*, u64>> depth_gauges_;
  /// The engine counters (submitted/completed/failed + per-shard): a
  /// post-mortem pool block when one is free (released in the destructor),
  /// own_counters_ otherwise. Every counter is written here once and read
  /// from here by stats(), in_flight() and the crash handler.
  obs::pm::EngineCounters* counters_ = nullptr;
  obs::pm::EngineCounters own_counters_;
  /// Submit-to-retire latency of every retired job (failed included).
  obs::Histogram latency_{obs::fine_latency_bounds_ns()};
  /// Completion-notification fd (eventfd/pipe), -1 = disabled. The caller
  /// owns it; see set_notify_fd().
  std::atomic<int> notify_fd_{-1};

  /// Guards the result slots below, collected_, closed_ and the sequence
  /// reservation (counters_->submitted only advances under it).
  mutable std::mutex state_mutex_;
  std::condition_variable all_done_;
  u64 collected_ = 0;   ///< results already returned by drain calls
  bool closed_ = false;
  u64 backend_compile_ns_ = 0;  ///< trace compile+fuse time at construction
  std::chrono::steady_clock::time_point start_time_;
  /// Outcome of job seq = collected_ + i at index i; filled out of order
  /// by workers, returned in order by drain calls. done_[i] flags slot i
  /// as retired (results_[i].ok() cannot distinguish "pending" from
  /// "succeeded" on its own).
  std::vector<JobResult> results_;
  std::vector<u8> done_;
};

/// One-shot convenience: run `jobs` through a temporary engine and return
/// the digests in submission order (throws on any per-job failure, like
/// drain()).
[[nodiscard]] std::vector<std::vector<u8>> run_batch(
    const EngineConfig& config, std::span<const HashJob> jobs);

}  // namespace kvx::engine
