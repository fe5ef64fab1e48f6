// Stress/invariant soak for the sharded engine scheduler: the payload of
// the CI ThreadSanitizer/AddressSanitizer matrix for PR 6.
//
// Matrix: backend ∈ {fused, trace, interpreter} × threads ∈ {1,2,4,8} ×
// SN ∈ {1,3,6}, > 100k jobs in total, sized per backend so the soak stays
// seconds-scale (fused carries the bulk, the interpreter a sanity slice).
// Each cell hammers ONE engine with several producer threads calling
// submit_batch() in ragged chunks — malformed jobs sprinkled in — while a
// concurrent drainer collects via drain_batch(). Checked per cell:
//  * every digest is bit-identical to the host golden model;
//  * results come back in exact submission order (each producer records
//    its chunk's first sequence id; the collected stream is indexed by it);
//  * exact accounting — submitted == completed + failed, failed == the
//    malformed count, in EngineStats AND the Prometheus counter deltas;
//  * bounded cells: queue high-water never exceeds max_queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "kvx/common/error.hpp"
#include "kvx/common/rng.hpp"
#include "kvx/engine/batch_engine.hpp"
#include "kvx/obs/metrics.hpp"
#include "kvx/sim/exec_backend.hpp"

namespace kvx::engine {
namespace {

constexpr Algo kAllAlgos[] = {Algo::kSha3_224, Algo::kSha3_256,
                              Algo::kSha3_384, Algo::kSha3_512,
                              Algo::kShake128, Algo::kShake256,
                              Algo::kKmac128,  Algo::kKmac256};

std::vector<u8> random_bytes(SplitMix64& rng, usize n) {
  std::vector<u8> out(n);
  for (u8& b : out) b = static_cast<u8>(rng.next());
  return out;
}

/// A small pool of distinct, *cheap* jobs (single-block messages, short
/// outputs) the producers draw from. Golden digests are computed once per
/// pool, so 100k submissions only cost 32 host-model hashes per cell.
std::vector<HashJob> make_job_pool(usize count, u64 seed) {
  SplitMix64 rng(seed);
  std::vector<HashJob> jobs(count);
  for (HashJob& job : jobs) {
    job.algo = kAllAlgos[rng.below(std::size(kAllAlgos))];
    job.message = random_bytes(rng, rng.below(80));
    if (fixed_digest_bytes(job.algo) == 0) {
      job.out_len = 1 + rng.below(64);
    }
    if (job.algo == Algo::kKmac128 || job.algo == Algo::kKmac256) {
      job.key = random_bytes(rng, 16 + rng.below(16));
      if (rng.below(2) == 0) job.customization = random_bytes(rng, 8);
    }
  }
  return jobs;
}

/// Deliberately malformed (SHAKE without out_len): accepted by submit and
/// retired as a per-job failure.
HashJob malformed_job() {
  HashJob job;
  job.algo = Algo::kShake128;
  return job;
}

/// What one producer submitted with one submit_batch call: the contiguous
/// sequence range starting at first_seq maps index-for-index onto pool
/// indices (-1 = malformed).
struct ChunkRecord {
  u64 first_seq = 0;
  std::vector<int> pool_idx;
};

struct SoakOutcome {
  std::vector<JobResult> results;  ///< results[seq] — submission order
  std::vector<ChunkRecord> chunks;
  usize expected_failures = 0;
  EngineStats stats;
};

/// Run one soak cell: kProducers threads submit ~total_jobs in ragged
/// submit_batch chunks against one engine while a drainer thread collects
/// concurrently with drain_batch.
SoakOutcome run_soak(const EngineConfig& cfg, usize total_jobs, u64 seed,
                     std::span<const HashJob> pool) {
  constexpr unsigned kProducers = 3;
  BatchHashEngine engine(cfg);
  SoakOutcome out;
  std::mutex chunks_mutex;
  std::atomic<usize> malformed{0};

  // Concurrent drainer: appends in-order result runs while producers are
  // still submitting — the collected stream must stay seq-indexed.
  std::atomic<bool> stop_drainer{false};
  std::thread drainer([&engine, &out, &stop_drainer] {
    while (!stop_drainer.load(std::memory_order_relaxed)) {
      engine.drain_batch(out.results);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> producers;
  const usize per_producer = total_jobs / kProducers;
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      SplitMix64 rng(seed * 977 + p);
      usize sent = 0;
      while (sent < per_producer) {
        const usize n =
            std::min<usize>(1 + rng.below(96), per_producer - sent);
        std::vector<HashJob> batch;
        batch.reserve(n);
        ChunkRecord rec;
        rec.pool_idx.reserve(n);
        for (usize i = 0; i < n; ++i) {
          if (rng.below(150) == 0) {
            batch.push_back(malformed_job());
            rec.pool_idx.push_back(-1);
            malformed.fetch_add(1, std::memory_order_relaxed);
          } else {
            const int k = static_cast<int>(rng.below(pool.size()));
            batch.push_back(pool[static_cast<usize>(k)]);
            rec.pool_idx.push_back(k);
          }
        }
        rec.first_seq = engine.submit_batch(batch);
        {
          std::lock_guard lock(chunks_mutex);
          out.chunks.push_back(std::move(rec));
        }
        sent += n;
      }
    });
  }
  for (std::thread& p : producers) p.join();
  stop_drainer.store(true, std::memory_order_relaxed);
  drainer.join();
  engine.close();
  engine.drain_batch(out.results);  // leftovers after the drainer stopped
  out.expected_failures = malformed.load();
  out.stats = engine.stats();
  return out;
}

void check_soak(const SoakOutcome& out,
                std::span<const std::vector<u8>> golden, usize total_jobs) {
  ASSERT_EQ(out.results.size(), total_jobs);
  ASSERT_EQ(out.stats.submitted, total_jobs);
  // The fail-soft invariant, exact at quiescence.
  EXPECT_EQ(out.stats.submitted, out.stats.completed + out.stats.failed);
  EXPECT_EQ(out.stats.failed, out.expected_failures);
  // Workers idle once drained: every queue shard must read empty.
  for (const usize d : out.stats.queue_shard_depths) EXPECT_EQ(d, 0u);
  // Ordering + correctness: each chunk's results sit at the contiguous
  // range its submit_batch call reserved, digests matching the golden
  // model job-for-job.
  usize accounted = 0;
  for (const ChunkRecord& chunk : out.chunks) {
    for (usize i = 0; i < chunk.pool_idx.size(); ++i) {
      const usize seq = static_cast<usize>(chunk.first_seq) + i;
      ASSERT_LT(seq, out.results.size());
      const JobResult& r = out.results[seq];
      const int k = chunk.pool_idx[i];
      if (k < 0) {
        ASSERT_FALSE(r.ok()) << "malformed job at seq " << seq;
      } else {
        ASSERT_TRUE(r.ok()) << "seq " << seq << ": " << r.error;
        ASSERT_EQ(r.digest, golden[static_cast<usize>(k)])
            << "digest mismatch at seq " << seq << " (pool job " << k << ")";
      }
      ++accounted;
    }
  }
  // Chunks cover the whole id space exactly once (ranges are disjoint by
  // construction if this count matches).
  EXPECT_EQ(accounted, total_jobs);
}

class ScalingSoakTest
    : public ::testing::TestWithParam<
          std::tuple<sim::ExecBackend, unsigned, unsigned>> {
 protected:
  sim::ExecBackend backend() const { return std::get<0>(GetParam()); }
  unsigned threads() const { return std::get<1>(GetParam()); }
  unsigned sn() const { return std::get<2>(GetParam()); }

  EngineConfig config() const {
    EngineConfig cfg;
    cfg.threads = threads();
    cfg.accel = {core::Arch::k64Lmul8, 5 * sn(), 24};
    cfg.accel.backend = backend();
    return cfg;
  }

  /// Per-backend cell sizing: > 100k jobs over the 36-cell matrix, with the
  /// jit (the production path) carrying the bulk and the interpreter a
  /// sanity slice — total 12·(6000 + 2200 + 200) = 100 800.
  usize cell_jobs() const {
    switch (backend()) {
      case sim::ExecBackend::kJit: return 6000;
      case sim::ExecBackend::kHostSimd: return 2200;
      case sim::ExecBackend::kInterpreter: return 200;
    }
    return 200;
  }

  u64 cell_seed() const {
    return 40'000 + static_cast<u64>(backend()) * 100 + threads() * 10 + sn();
  }
};

TEST_P(ScalingSoakTest, ConcurrentBulkSubmitDrainSoak) {
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& submitted_c =
      registry.counter("kvx_engine_jobs_submitted_total");
  obs::Counter& completed_c =
      registry.counter("kvx_engine_jobs_completed_total");
  obs::Counter& failures_c = registry.counter("kvx_engine_job_failures_total");
  const u64 sub0 = submitted_c.value();
  const u64 com0 = completed_c.value();
  const u64 fail0 = failures_c.value();

  const auto pool = make_job_pool(32, cell_seed());
  std::vector<std::vector<u8>> golden(pool.size());
  for (usize i = 0; i < pool.size(); ++i) {
    golden[i] = host_reference_digest(pool[i]);
  }
  const usize total = (cell_jobs() / 3) * 3;  // 3 producers, equal shares
  const SoakOutcome out = run_soak(config(), total, cell_seed(), pool);
  check_soak(out, golden, total);

  // The process-global Prometheus counters moved by exactly this cell.
  EXPECT_EQ(submitted_c.value() - sub0, total);
  EXPECT_EQ(completed_c.value() - com0, out.stats.completed);
  EXPECT_EQ(failures_c.value() - fail0, out.stats.failed);
}

INSTANTIATE_TEST_SUITE_P(
    BackendThreadSnMatrix, ScalingSoakTest,
    ::testing::Combine(::testing::Values(sim::ExecBackend::kJit,
                                         sim::ExecBackend::kHostSimd,
                                         sim::ExecBackend::kInterpreter),
                       ::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(1u, 3u, 6u)),
    [](const auto& info) {
      // gtest parameter names must be [A-Za-z0-9_]: "host-simd" → "host_simd".
      std::string name(sim::backend_name(std::get<0>(info.param)));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_t" + std::to_string(std::get<1>(info.param)) + "_sn" +
             std::to_string(std::get<2>(info.param));
    });

// --- bounded-queue soak ---------------------------------------------------------

TEST(ScalingSoak, BoundedQueueHoldsBoundUnderConcurrentBulkSubmit) {
  // Backpressure under the sharded scheduler: three bulk producers against
  // a tiny bound. The strict reserve ticket must keep the high water at or
  // below the bound no matter how the chunks interleave.
  EngineConfig cfg;
  cfg.threads = 2;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  cfg.max_queue = 8;
  const auto pool = make_job_pool(16, 99);
  std::vector<std::vector<u8>> golden(pool.size());
  for (usize i = 0; i < pool.size(); ++i) {
    golden[i] = host_reference_digest(pool[i]);
  }
  const SoakOutcome out = run_soak(cfg, 3000, 99, pool);
  check_soak(out, golden, 3000);
  EXPECT_LE(out.stats.queue_high_water, 8u);
}

// --- submit_batch / drain_batch API semantics -----------------------------------

TEST(ScalingSoak, SubmitBatchInterleavesWithSingleSubmit) {
  // Mixed intake paths on one engine: ids stay dense and every result lands
  // at its submission position.
  EngineConfig cfg;
  cfg.threads = 2;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  BatchHashEngine engine(cfg);
  const auto pool = make_job_pool(8, 123);
  std::vector<int> order;
  for (int round = 0; round < 10; ++round) {
    const u64 first = engine.submit_batch(std::span(pool).subspan(0, 5));
    EXPECT_EQ(first, static_cast<u64>(order.size()));
    for (int i = 0; i < 5; ++i) order.push_back(i);
    const u64 seq = engine.submit(pool[7]);
    EXPECT_EQ(seq, static_cast<u64>(order.size()));
    order.push_back(7);
  }
  engine.close();
  // Submitting after close throws without issuing ids — the id space stays
  // dense and fully retired.
  EXPECT_THROW(engine.submit_batch(std::span(pool).subspan(0, 2)), Error);
  std::vector<JobResult> results;
  EXPECT_EQ(engine.drain_batch(results), order.size());
  for (usize i = 0; i < order.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(results[i].digest,
              host_reference_digest(pool[static_cast<usize>(order[i])]));
  }
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.submitted, st.completed + st.failed);
}

TEST(ScalingSoak, DrainBatchAppendsAndReturnsCount) {
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  BatchHashEngine engine(cfg);
  const auto pool = make_job_pool(6, 321);
  engine.submit_batch(pool);
  std::vector<JobResult> results;
  EXPECT_EQ(engine.drain_batch(results), 6u);
  EXPECT_EQ(results.size(), 6u);
  // Second round appends after the existing contents.
  engine.submit_batch(std::span(pool).subspan(0, 2));
  EXPECT_EQ(engine.drain_batch(results), 2u);
  ASSERT_EQ(results.size(), 8u);
  EXPECT_EQ(results[6].digest, host_reference_digest(pool[0]));
  EXPECT_EQ(results[7].digest, host_reference_digest(pool[1]));
  // Empty drain is a no-op returning 0.
  EXPECT_EQ(engine.drain_batch(results), 0u);
  EXPECT_EQ(results.size(), 8u);
}

TEST(ScalingSoak, PinWorkersIsBestEffortAndHarmless) {
  // pin_workers must never affect results — only placement. On hosts or
  // sandboxes where affinity calls fail, it silently degrades to unpinned.
  EngineConfig cfg;
  cfg.threads = 4;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  cfg.pin_workers = true;
  const auto pool = make_job_pool(12, 555);
  BatchHashEngine engine(cfg);
  engine.submit_batch(pool);
  engine.close();
  std::vector<JobResult> results;
  ASSERT_EQ(engine.drain_batch(results), pool.size());
  for (usize i = 0; i < pool.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(results[i].digest, host_reference_digest(pool[i]));
  }
}

}  // namespace
}  // namespace kvx::engine
