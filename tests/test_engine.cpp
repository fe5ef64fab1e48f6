// Differential tests for the host-parallel batch hashing engine.
//
// The engine adds a second parallelism level (worker threads) on top of the
// paper's SIMD batching (SN states per register file). Correctness bar:
// for randomized job mixes over all algorithms, lengths 0..4·rate, SN ∈
// {1, 3, 6} and 1..8 worker threads, every digest must be bit-identical to
// (a) the host golden model and (b) a single-threaded ParallelSha3 dispatch
// — regardless of worker scheduling. These tests are the payload of the CI
// ThreadSanitizer job.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <tuple>

#include "kvx/common/error.hpp"
#include "kvx/common/hex.hpp"
#include "kvx/common/rng.hpp"
#include "kvx/engine/batch_engine.hpp"
#include "kvx/obs/metrics.hpp"

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

/// A reproducible mixed workload: random algorithm, message length in
/// [0, 4·rate], XOF/KMAC output lengths up to a few rate blocks.
std::vector<HashJob> random_job_mix(usize count, u64 seed) {
  SplitMix64 rng(seed);
  std::vector<HashJob> jobs(count);
  for (HashJob& job : jobs) {
    job.algo = kAllAlgos[rng.below(std::size(kAllAlgos))];
    const usize rate = keccak::rate_bytes(base_function(job.algo));
    job.message = random_bytes(rng, rng.below(4 * rate + 1));
    if (fixed_digest_bytes(job.algo) == 0) {
      job.out_len = 1 + rng.below(200);
    }
    if (job.algo == Algo::kKmac128 || job.algo == Algo::kKmac256) {
      job.key = random_bytes(rng, 16 + rng.below(32));
      if (rng.below(2) == 0) job.customization = random_bytes(rng, 8);
    }
  }
  return jobs;
}

std::vector<std::vector<u8>> host_references(std::span<const HashJob> jobs) {
  std::vector<std::vector<u8>> refs(jobs.size());
  for (usize i = 0; i < jobs.size(); ++i) {
    refs[i] = host_reference_digest(jobs[i]);
  }
  return refs;
}

/// Single-threaded accelerator reference: each job dispatched alone through
/// one ParallelSha3 (no engine, no host threads).
std::vector<std::vector<u8>> single_thread_references(
    const core::VectorKeccakConfig& accel, std::span<const HashJob> jobs) {
  core::ParallelSha3 ps(accel);
  std::vector<std::vector<u8>> refs(jobs.size());
  for (usize i = 0; i < jobs.size(); ++i) {
    const HashJob& job = jobs[i];
    const std::vector<std::vector<u8>> msgs{job.message};
    const usize out_len = job.resolved_out_len();
    switch (job.algo) {
      case Algo::kKmac128:
      case Algo::kKmac256:
        refs[i] = ps.kmac_batch(job.algo == Algo::kKmac128 ? 128u : 256u,
                                job.key, msgs, out_len, job.customization)[0];
        break;
      default:
        refs[i] = ps.xof_batch(base_function(job.algo), msgs, out_len)[0];
        break;
    }
  }
  return refs;
}

// --- the differential matrix: SN ∈ {1,3,6} × threads ∈ {1,2,4,8} -------------

class EngineMatrixTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {
 protected:
  unsigned sn() const { return std::get<0>(GetParam()); }
  unsigned threads() const { return std::get<1>(GetParam()); }
  EngineConfig config() const {
    EngineConfig c;
    c.threads = threads();
    c.accel = {core::Arch::k64Lmul8, 5 * sn(), 24};
    return c;
  }
};

TEST_P(EngineMatrixTest, MixedJobsMatchHostAndSingleThread) {
  const auto jobs = random_job_mix(24, 1000 + sn() * 10 + threads());
  const auto outs = run_batch(config(), jobs);
  ASSERT_EQ(outs.size(), jobs.size());
  const auto host = host_references(jobs);
  const auto single = single_thread_references(config().accel, jobs);
  for (usize i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(to_hex(outs[i]), to_hex(host[i]))
        << algo_name(jobs[i].algo) << " job " << i << " vs host";
    EXPECT_EQ(to_hex(outs[i]), to_hex(single[i]))
        << algo_name(jobs[i].algo) << " job " << i << " vs 1-thread accel";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SnByThreads, EngineMatrixTest,
    ::testing::Combine(::testing::Values(1u, 3u, 6u),
                       ::testing::Values(1u, 2u, 4u, 8u)),
    [](const auto& info) {
      return "SN" + std::to_string(std::get<0>(info.param)) + "_T" +
             std::to_string(std::get<1>(info.param));
    });

// --- ordering and determinism --------------------------------------------------

TEST(Engine, ResultOrderIsSubmissionOrder) {
  // Jobs with per-index-distinguishable digests: if the engine permuted
  // results, some index would disagree with its own host reference.
  const auto jobs = random_job_mix(40, 7);
  const auto host = host_references(jobs);
  EngineConfig cfg;
  cfg.threads = 4;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  const auto outs = run_batch(cfg, jobs);
  for (usize i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(to_hex(outs[i]), to_hex(host[i])) << i;
  }
}

TEST(Engine, ThreadCountDoesNotChangeResults) {
  const auto jobs = random_job_mix(30, 8);
  EngineConfig cfg;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  cfg.threads = 1;
  const auto a = run_batch(cfg, jobs);
  cfg.threads = 8;
  const auto b = run_batch(cfg, jobs);
  EXPECT_EQ(a, b);
}

TEST(Engine, DrainThenReuseKeepsOrdering) {
  EngineConfig cfg;
  cfg.threads = 3;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  BatchHashEngine engine(cfg);
  const auto first = random_job_mix(10, 21);
  const auto second = random_job_mix(10, 22);
  engine.submit_all(first);
  const auto outs1 = engine.drain();
  engine.submit_all(second);
  const auto outs2 = engine.drain();
  EXPECT_EQ(outs1, host_references(first));
  EXPECT_EQ(outs2, host_references(second));
}

// --- edge cases -----------------------------------------------------------------

TEST(Engine, ZeroJobsDrainIsEmpty) {
  EngineConfig cfg;
  cfg.threads = 2;
  BatchHashEngine engine(cfg);
  EXPECT_TRUE(engine.drain().empty());
  EXPECT_TRUE(run_batch(cfg, {}).empty());
}

TEST(Engine, ShutdownWhileQueuedCompletesEverything) {
  // close() immediately after a burst: nothing may be dropped, results stay
  // in submission order.
  const auto jobs = random_job_mix(32, 9);
  EngineConfig cfg;
  cfg.threads = 4;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  BatchHashEngine engine(cfg);
  engine.submit_all(jobs);
  engine.close();
  const auto outs = engine.drain();
  ASSERT_EQ(outs.size(), jobs.size());
  EXPECT_EQ(outs, host_references(jobs));
}

TEST(Engine, DestructorWithoutDrainJoinsCleanly) {
  const auto jobs = random_job_mix(16, 10);
  EngineConfig cfg;
  cfg.threads = 2;
  BatchHashEngine engine(cfg);
  engine.submit_all(jobs);
  // No drain: the destructor must close, finish queued work and join
  // without deadlock or leak (ASan/TSan verify the latter).
}

TEST(Engine, SubmitAfterCloseThrows) {
  BatchHashEngine engine({});
  engine.close();
  EXPECT_THROW((void)engine.submit({Algo::kSha3_256, {0x61}}), Error);
}

TEST(Engine, MalformedJobsFailIndividually) {
  // Malformed jobs are retired as per-job failures, never exceptions: one
  // bad job in a stream must not discard its stream-mates.
  BatchHashEngine engine({});
  HashJob shake_no_len;
  shake_no_len.algo = Algo::kShake128;
  HashJob good;
  good.algo = Algo::kSha3_256;
  good.message = {'o', 'k'};
  HashJob wrong_digest;
  wrong_digest.algo = Algo::kSha3_256;
  wrong_digest.out_len = 31;
  HashJob keyed_sha3;
  keyed_sha3.algo = Algo::kSha3_512;
  keyed_sha3.key = {1, 2, 3};

  (void)engine.submit(shake_no_len);
  (void)engine.submit(good);
  (void)engine.submit(wrong_digest);
  (void)engine.submit(keyed_sha3);
  const auto results = engine.drain_results();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_NE(results[0].error.find("out_len"), std::string::npos);
  EXPECT_TRUE(results[1].ok());
  EXPECT_EQ(results[1].digest, host_reference_digest(good));
  EXPECT_FALSE(results[2].ok());
  EXPECT_FALSE(results[3].ok());
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.submitted, 4u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.failed, 3u);

  // The digest-only drain() still surfaces failures, as an exception.
  (void)engine.submit(shake_no_len);
  EXPECT_THROW((void)engine.drain(), Error);

  EXPECT_THROW(BatchHashEngine bad({.threads = 0}), Error);
}

TEST(Engine, ResultWaitsPerJob) {
  BatchHashEngine engine({});
  HashJob good;
  good.algo = Algo::kSha3_256;
  good.message = {'a', 'b'};
  HashJob bad;
  bad.algo = Algo::kShake128;  // missing out_len: immediate per-job failure
  const u64 s0 = engine.submit(good);
  const u64 s1 = engine.submit(bad);
  const JobResult r1 = engine.result(s1);
  EXPECT_FALSE(r1.ok());
  const JobResult r0 = engine.result(s0);
  EXPECT_TRUE(r0.ok());
  EXPECT_EQ(r0.digest, host_reference_digest(good));
  EXPECT_EQ(r0.backend, engine.stats().backend);
  EXPECT_THROW((void)engine.result(99), Error);
  (void)engine.drain_results();
  EXPECT_THROW((void)engine.result(s0), Error);  // already collected
}

// One deliberately invalid job in a 100-job stream must fail alone: the 99
// valid jobs retire with digests identical to a clean run, on every backend
// and thread count (the fail-soft acceptance test).
class FailSoftMatrixTest
    : public ::testing::TestWithParam<std::tuple<sim::ExecBackend, unsigned>> {
};

TEST_P(FailSoftMatrixTest, InvalidJobAmongHundredFailsAlone) {
  const auto [backend, threads] = GetParam();
  auto jobs = random_job_mix(100, 31);
  constexpr usize kBadIndex = 42;
  jobs[kBadIndex] = HashJob{};
  jobs[kBadIndex].algo = Algo::kShake256;  // out_len left 0: invalid
  const auto host = host_references(jobs);

  EngineConfig cfg;
  cfg.threads = threads;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  cfg.accel.backend = backend;
  BatchHashEngine engine(cfg);
  engine.submit_all(jobs);
  const auto results = engine.drain_results();
  ASSERT_EQ(results.size(), jobs.size());
  for (usize i = 0; i < results.size(); ++i) {
    if (i == kBadIndex) {
      EXPECT_FALSE(results[i].ok());
      EXPECT_TRUE(results[i].digest.empty());
      EXPECT_TRUE(results[i].backend.empty());
      continue;
    }
    ASSERT_TRUE(results[i].ok()) << "job " << i << ": " << results[i].error;
    EXPECT_EQ(to_hex(results[i].digest), to_hex(host[i])) << "job " << i;
    EXPECT_FALSE(results[i].backend.empty());
  }
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.submitted, 100u);
  EXPECT_EQ(st.completed, 99u);
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.totals().failures, 0u);  // failed at submit, not in a shard
}

INSTANTIATE_TEST_SUITE_P(
    BackendsByThreads, FailSoftMatrixTest,
    ::testing::Combine(::testing::Values(sim::ExecBackend::kInterpreter,
                                         sim::ExecBackend::kHostSimd,
                                         sim::ExecBackend::kJit),
                       ::testing::Values(1u, 8u)),
    [](const auto& info) {
      // gtest parameter names must be [A-Za-z0-9_]: "host-simd" → "host_simd".
      std::string name(sim::backend_name(std::get<0>(info.param)));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_T" + std::to_string(std::get<1>(info.param));
    });

TEST(Engine, LongXofSqueezeThroughEngine) {
  HashJob job;
  job.algo = Algo::kShake256;
  job.message = {'x', 'o', 'f'};
  job.out_len = 500;  // multi-block squeeze
  EngineConfig cfg;
  cfg.threads = 2;
  const auto outs = run_batch(cfg, std::vector<HashJob>{job, job});
  EXPECT_EQ(to_hex(outs[0]), to_hex(keccak::shake256(job.message, 500)));
  EXPECT_EQ(outs[0], outs[1]);
}

TEST(Engine, BoundedQueueAppliesBackpressure) {
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.max_queue = 2;
  BatchHashEngine engine(cfg);
  const auto jobs = random_job_mix(12, 11);
  engine.submit_all(jobs);  // blocks as needed; must not deadlock
  const auto outs = engine.drain();
  EXPECT_EQ(outs, host_references(jobs));
  EXPECT_LE(engine.stats().queue_high_water, 2u);
}

TEST(Engine, OnDeviceAbsorbShards) {
  EngineConfig cfg;
  cfg.threads = 2;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  cfg.accel_options.on_device_absorb = true;
  const auto jobs = random_job_mix(12, 12);
  const auto outs = run_batch(cfg, jobs);
  EXPECT_EQ(outs, host_references(jobs));
}

// --- stats ----------------------------------------------------------------------

TEST(Engine, StatsAccountForEveryJobAndByte) {
  const auto jobs = random_job_mix(20, 13);
  u64 expect_bytes = 0;
  for (const HashJob& j : jobs) expect_bytes += j.message.size();
  EngineConfig cfg;
  cfg.threads = 3;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  BatchHashEngine engine(cfg);
  engine.submit_all(jobs);
  (void)engine.drain();
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.submitted, jobs.size());
  EXPECT_EQ(st.completed, jobs.size());
  EXPECT_EQ(st.shards.size(), 3u);
  const ShardStats totals = st.totals();
  EXPECT_EQ(totals.jobs, jobs.size());
  EXPECT_EQ(totals.bytes, expect_bytes);
  EXPECT_GT(totals.sim_cycles, 0u);
  EXPECT_GT(totals.permutations, 0u);
  EXPECT_GE(totals.dispatches, 1u);
  EXPECT_GE(st.queue_high_water, 1u);
}

TEST(Engine, FailureMetricsStayConsistent) {
  // Regression (PR 5): failed jobs used to bump the internal completed
  // count without ever touching kvx_engine_jobs_completed_total, the
  // latency histogram or the shard stats — the registry silently diverged
  // from EngineStats. The metrics are process-global, so diff them.
  auto& r = obs::MetricsRegistry::global();
  obs::Counter& submitted_c = r.counter("kvx_engine_jobs_submitted_total");
  obs::Counter& completed_c = r.counter("kvx_engine_jobs_completed_total");
  obs::Counter& failures_c = r.counter("kvx_engine_job_failures_total");
  obs::Histogram& latency_h = r.histogram("kvx_engine_job_latency_ns");
  const u64 sub0 = submitted_c.value();
  const u64 com0 = completed_c.value();
  const u64 fail0 = failures_c.value();
  const u64 lat0 = latency_h.count();

  auto jobs = random_job_mix(20, 33);
  jobs[7] = HashJob{};
  jobs[7].algo = Algo::kShake128;  // invalid: out_len missing
  EngineConfig cfg;
  cfg.threads = 2;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  BatchHashEngine engine(cfg);
  engine.submit_all(jobs);
  (void)engine.drain_results();

  EXPECT_EQ(submitted_c.value() - sub0, 20u);
  EXPECT_EQ(completed_c.value() - com0, 19u);
  EXPECT_EQ(failures_c.value() - fail0, 1u);
  // Every retirement is latency-stamped, failed or not (dropping failures
  // would skew the percentiles toward surviving jobs).
  EXPECT_EQ(latency_h.count() - lat0, 20u);
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.latency.count, 20u);
  EXPECT_EQ(st.submitted, st.completed + st.failed);
}

TEST(Engine, QueueDepthGaugePublishesFinalDepth) {
  // Regression (PR 5, reworked in PR 6): the depth gauge used to be
  // published after dropping the queue mutex, so a stale sample could land
  // last. It is now *bound* — every read evaluates the live ring depths —
  // so staleness is impossible by construction. Hammer a sharded queue from
  // both sides with a concurrent scraper (TSan covers the ordering), then
  // check the bound gauge reports exactly zero once drained.
  obs::Gauge& gauge = obs::MetricsRegistry::global().gauge(
      "kvx_engine_queue_depth");
  ShardedJobQueue queue(2);
  const u64 token =
      gauge.bind([&queue] { return static_cast<double>(queue.depth()); });
  constexpr usize kPerProducer = 200;
  constexpr unsigned kProducers = 4;
  std::vector<std::thread> producers;
  std::vector<std::thread> consumers;
  std::atomic<bool> stop_scraper{false};
  // Scrape while the queue churns: a bound gauge must always report a value
  // the queue could truthfully have had (never negative, never garbage).
  std::thread scraper([&gauge, &stop_scraper] {
    while (!stop_scraper.load(std::memory_order_relaxed)) {
      EXPECT_GE(gauge.value(), 0.0);
    }
  });
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (usize n = 0; n < kPerProducer; ++n) {
        QueuedJob qj;
        qj.seq = p * kPerProducer + n;
        (void)queue.push(std::move(qj));
      }
    });
  }
  for (unsigned c = 0; c < 2; ++c) {
    consumers.emplace_back([&queue, c] {
      std::vector<QueuedJob> out;
      while (queue.pop_bulk(c, 7, out) > 0) {
      }
    });
  }
  for (std::thread& p : producers) p.join();
  queue.close();
  for (std::thread& c : consumers) c.join();
  stop_scraper.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
  // Unbind freezes the final live value, so post-unbind scrapes stay 0.
  gauge.unbind(token);
  EXPECT_EQ(gauge.value(), 0.0);
}

// --- shard cloning (the core-level enabler) -------------------------------------

TEST(Engine, ParallelSha3CloneSharesProgramAndMatches) {
  core::ParallelSha3 original({core::Arch::k64Lmul8, 15, 24});
  const auto copy = original.clone();
  // The immutable program is shared (cheap clone), the simulator is not.
  EXPECT_EQ(original.shared_program().get(), copy->shared_program().get());
  SplitMix64 rng(14);
  std::vector<std::vector<u8>> msgs{random_bytes(rng, 100),
                                    random_bytes(rng, 300)};
  const auto a = original.hash_batch(keccak::Sha3Function::kSha3_384, msgs);
  const auto b = copy->hash_batch(keccak::Sha3Function::kSha3_384, msgs);
  EXPECT_EQ(a, b);
  EXPECT_EQ(to_hex(a[0]), to_hex(keccak::sha3_384(msgs[0])));
}

TEST(Engine, DispatchGroupMatchesRawBatch) {
  // The exposed partial-batch entry point must agree with raw_batch for an
  // equal-length lockstep group.
  core::ParallelSha3 ps({core::Arch::k64Lmul8, 15, 24});
  SplitMix64 rng(15);
  std::vector<std::vector<u8>> msgs{random_bytes(rng, 64),
                                    random_bytes(rng, 64),
                                    random_bytes(rng, 64)};
  std::vector<std::vector<u8>> outs(3);
  ps.dispatch_group(136, 0x06, msgs, outs, 32);
  const auto expect = ps.raw_batch(136, 0x06, msgs, 32);
  for (usize i = 0; i < 3; ++i) EXPECT_EQ(outs[i], expect[i]);
  EXPECT_EQ(to_hex(outs[0]), to_hex(keccak::sha3_256(msgs[0])));
}

}  // namespace
}  // namespace kvx::engine
