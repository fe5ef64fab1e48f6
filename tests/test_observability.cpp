// Tests for the observability layer: the metrics registry, the marker
// helpers and — most importantly — per-step cycle attribution. The paper's
// claims are cycle-exact, so the attribution invariants are too: every
// cycle of the permutation window lands in exactly one step bucket
// (θ + ρπ + χι + absorb + other == total), the breakdown is bit-identical
// across all three execution backends, and the loop-program totals agree
// with the single-round measurements the paper's tables are built from.
#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <vector>

#include "kvx/common/error.hpp"
#include "kvx/common/rng.hpp"
#include "kvx/core/step_attribution.hpp"
#include "kvx/core/vector_keccak.hpp"
#include "kvx/engine/batch_engine.hpp"
#include "kvx/obs/metrics.hpp"
#include "kvx/obs/process_metrics.hpp"
#include "kvx/sim/processor.hpp"

namespace kvx {
namespace {

using keccak::State;

std::vector<State> random_states(usize n, u64 seed) {
  SplitMix64 rng(seed);
  std::vector<State> states(n);
  for (State& s : states) {
    for (u64& lane : s.flat()) lane = rng.next();
  }
  return states;
}

// ---------------------------------------------------------------------------
// Metrics registry

TEST(Metrics, CounterSumsAcrossThreads) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("test_total", "help");
  constexpr usize kThreads = 8;
  constexpr u64 kIncs = 10000;
  std::vector<std::thread> workers;
  for (usize t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (u64 i = 0; i < kIncs; ++i) c.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kIncs);
  // Re-registering the same name returns the same counter.
  EXPECT_EQ(&reg.counter("test_total"), &c);
}

TEST(Metrics, GaugeSetAndAdd) {
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("depth");
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.add(-5.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Metrics, HistogramBucketsAndCumulative) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat", "", {10, 100, 1000});
  h.observe(5);     // le=10
  h.observe(10);    // le=10 (upper-inclusive)
  h.observe(50);    // le=100
  h.observe(5000);  // +Inf only
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 5u + 10u + 50u + 5000u);
  const std::vector<u64> cum = h.cumulative_counts();
  ASSERT_EQ(cum.size(), 4u);  // 3 bounds + Inf
  EXPECT_EQ(cum[0], 2u);
  EXPECT_EQ(cum[1], 3u);
  EXPECT_EQ(cum[2], 3u);
  EXPECT_EQ(cum[3], 4u);
}

TEST(Metrics, KindMismatchAndBadNamesThrow) {
  obs::MetricsRegistry reg;
  reg.counter("a_counter");
  EXPECT_THROW(reg.gauge("a_counter"), Error);
  EXPECT_THROW(reg.counter("bad name"), Error);
  EXPECT_THROW(reg.counter("9starts_with_digit"), Error);
  EXPECT_THROW(reg.histogram("h", "", {10, 10}), Error);  // not increasing
}

TEST(Metrics, PrometheusAndJsonExposition) {
  obs::MetricsRegistry reg;
  reg.counter("jobs_total", "jobs").inc(7);
  reg.gauge("queue_depth").set(3);
  reg.histogram("lat_ns", "", {100, 200}).observe(150);

  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# TYPE jobs_total counter"), std::string::npos);
  EXPECT_NE(prom.find("jobs_total 7"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE queue_depth gauge"), std::string::npos);
  EXPECT_NE(prom.find("lat_ns_bucket{le=\"200\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("lat_ns_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("lat_ns_count 1"), std::string::npos);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs_total\":7"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(Metrics, SummaryQuantileExposition) {
  obs::MetricsRegistry reg;
  obs::Summary& s = reg.summary("lat_quantiles_ns", "latency quantiles");
  const u64 token = s.bind([] {
    obs::Summary::Snapshot snap;
    snap.quantiles = {{0.5, 100.0}, {0.99, 900.0}, {0.999, 990.0}};
    snap.count = 1000;
    snap.sum = 123456.0;
    return snap;
  });

  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# TYPE lat_quantiles_ns summary"), std::string::npos);
  EXPECT_NE(prom.find("lat_quantiles_ns{quantile=\"0.5\"} 100"),
            std::string::npos);
  EXPECT_NE(prom.find("lat_quantiles_ns{quantile=\"0.99\"} 900"),
            std::string::npos);
  EXPECT_NE(prom.find("lat_quantiles_ns{quantile=\"0.999\"} 990"),
            std::string::npos);
  EXPECT_NE(prom.find("lat_quantiles_ns_sum"), std::string::npos);
  EXPECT_NE(prom.find("lat_quantiles_ns_count 1000"), std::string::npos);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"summaries\""), std::string::npos);
  EXPECT_NE(json.find("\"0.999\":990"), std::string::npos);
  EXPECT_NE(json.find("\"count\":1000"), std::string::npos);

  // Unbind freezes the final snapshot; the series must not vanish.
  s.unbind(token);
  EXPECT_NE(reg.to_prometheus().find("quantile=\"0.999\""),
            std::string::npos);
}

TEST(Metrics, BuildInfoAndProcessMetricsExposition) {
  // Both register into the process-global registry (idempotently), exactly
  // as every BatchHashEngine construction does.
  obs::publish_build_info("avx2", "on");
  obs::register_process_metrics();

  const std::string prom = obs::MetricsRegistry::global().to_prometheus();
  EXPECT_NE(prom.find("kvx_build_info{"), std::string::npos);
  EXPECT_NE(prom.find("host_simd_isa=\"avx2\""), std::string::npos);
  EXPECT_NE(prom.find("jit=\"on\""), std::string::npos);
  EXPECT_NE(prom.find("version=\""), std::string::npos);
  EXPECT_NE(prom.find("compiler=\""), std::string::npos);
  EXPECT_NE(prom.find("kvx_process_rss_bytes"), std::string::npos);
  EXPECT_NE(prom.find("kvx_process_cpu_seconds_total"), std::string::npos);
  EXPECT_NE(prom.find("kvx_process_uptime_seconds"), std::string::npos);

  // The bound gauges must evaluate to live nonzero values on Linux.
  obs::MetricSample rss{};
  bool found = false;
  for (const obs::MetricSample& s :
       obs::MetricsRegistry::global().snapshot()) {
    if (s.name == "kvx_process_rss_bytes") {
      rss = s;
      found = true;
    }
  }
  ASSERT_TRUE(found);
#if defined(__linux__)
  EXPECT_GT(rss.gauge_value, 0.0);
#endif
}

// ---------------------------------------------------------------------------
// Markers and attribution

TEST(StepAttribution, MarkerDeltasPerRound) {
  using namespace core;
  sim::SimdProcessor proc({});
  const KeccakProgram prog =
      build_keccak_program({Arch::k64Lmul8, 5, 24, /*single_round=*/false});
  proc.load_program(prog.image);
  proc.run();

  // 24 round bodies => 23 inter-round deltas, all identical (every round
  // body is the same instruction sequence), summing to last - first.
  const std::vector<u64> deltas = proc.marker_deltas(Markers::kRoundStart);
  ASSERT_EQ(deltas.size(), 23u);
  for (const u64 d : deltas) EXPECT_EQ(d, deltas[0]);
  const u64 span =
      proc.cycles_between(Markers::kPermStart, Markers::kPermEnd);
  EXPECT_GT(span, std::accumulate(deltas.begin(), deltas.end(), u64{0}));
}

TEST(StepAttribution, EmptyAndTrivialStreams) {
  EXPECT_EQ(core::attribute_step_cycles({}), obs::StepCycleStats{});
  const sim::Marker one[] = {{core::Markers::kPermStart, 10}};
  EXPECT_EQ(core::attribute_step_cycles(one), obs::StepCycleStats{});
}

// The heart of the layer: for each paper configuration the attribution must
// (a) tile the permutation window exactly, (b) reproduce the paper's pinned
// cycles/permutation, and (c) be bit-identical across all three backends.
class AttributionArchTest : public ::testing::TestWithParam<core::Arch> {};

TEST_P(AttributionArchTest, ExactSumAndBackendIdentical) {
  using namespace core;
  const Arch arch = GetParam();
  u64 expected_perm_cycles = 0;
  switch (arch) {
    case Arch::k64Lmul1: expected_perm_cycles = 2566; break;
    case Arch::k64Lmul8: expected_perm_cycles = 1894; break;
    case Arch::k32Lmul8: expected_perm_cycles = 3646; break;
    default: FAIL() << "unexpected arch";
  }

  obs::StepCycleStats per_backend[3];
  const sim::ExecBackend backends[] = {sim::ExecBackend::kInterpreter,
                                       sim::ExecBackend::kHostSimd,
                                       sim::ExecBackend::kJit};
  for (usize b = 0; b < 3; ++b) {
    VectorKeccakConfig cfg{arch, 5, 24};
    cfg.backend = backends[b];
    VectorKeccak vk(cfg);
    auto states = random_states(1, 99);
    vk.permute(states);
    per_backend[b] = vk.last_step_cycles();
  }

  const obs::StepCycleStats& s = per_backend[0];
  // (a) exact tiling: no cycle unattributed, none double-counted.
  EXPECT_EQ(s.attributed(), s.total);
  EXPECT_EQ(s.rounds, 24u);
  EXPECT_GT(s.theta, 0u);
  EXPECT_GT(s.rho_pi, 0u);
  EXPECT_GT(s.chi_iota, 0u);
  // (b) the pinned paper number.
  EXPECT_EQ(s.total, expected_perm_cycles);
  // (c) bit-identical across backends.
  EXPECT_EQ(per_backend[1], s);
  EXPECT_EQ(per_backend[2], s);
}

INSTANTIATE_TEST_SUITE_P(PaperConfigs, AttributionArchTest,
                         ::testing::Values(core::Arch::k64Lmul1,
                                           core::Arch::k64Lmul8,
                                           core::Arch::k32Lmul8));

TEST(StepAttribution, LoopMatchesSingleRoundMeasurement) {
  using namespace core;
  // The per-round step costs measured from the dedicated single-round
  // programs (the paper's "# N cc" annotations) must equal the loop-program
  // attribution divided by 24 — i.e. attribution adds zero measurement
  // bias; loop control is isolated in `other`.
  for (const Arch arch : {Arch::k64Lmul1, Arch::k64Lmul8, Arch::k32Lmul8}) {
    sim::ProcessorConfig cfg;
    cfg.vector.elen_bits = arch_elen(arch);
    cfg.vector.ele_num = 5;

    sim::SimdProcessor single(cfg);
    single.load_program(
        build_keccak_program({arch, 5, 24, /*single_round=*/true}).image);
    single.run();
    const u64 theta1 =
        single.cycles_between(Markers::kRoundStart, Markers::kStepRho);
    const u64 rho_pi1 =
        single.cycles_between(Markers::kStepRho, Markers::kStepChi);
    const u64 chi_iota1 =
        single.cycles_between(Markers::kStepChi, Markers::kRoundEnd);

    sim::SimdProcessor loop(cfg);
    loop.load_program(
        build_keccak_program({arch, 5, 24, /*single_round=*/false}).image);
    loop.run();
    const obs::StepCycleStats s = core::attribute_step_cycles(loop.markers());

    ASSERT_EQ(s.rounds, 24u) << arch_name(arch);
    EXPECT_EQ(s.theta, 24 * theta1) << arch_name(arch);
    EXPECT_EQ(s.rho_pi, 24 * rho_pi1) << arch_name(arch);
    EXPECT_EQ(s.chi_iota, 24 * chi_iota1) << arch_name(arch);
  }
}

// ---------------------------------------------------------------------------
// Engine integration

TEST(EngineObservability, StepCyclesTileSimCyclesExactly) {
  using namespace engine;
  SplitMix64 rng(7);
  std::vector<HashJob> jobs(24);
  for (HashJob& job : jobs) {
    job.algo = Algo::kSha3_256;
    job.message.resize(rng.below(400));
    for (u8& b : job.message) b = static_cast<u8>(rng.next());
  }

  EngineConfig cfg;
  cfg.threads = 2;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  BatchHashEngine eng(cfg);
  eng.submit_all(jobs);
  (void)eng.drain();

  const EngineStats st = eng.stats();
  const ShardStats t = st.totals();
  // Both sim_cycles and step_cycles accumulate the kPermStart..kPermEnd
  // window of every dispatch, so they must agree to the cycle.
  EXPECT_EQ(t.step_cycles.total, t.sim_cycles);
  EXPECT_EQ(t.step_cycles.attributed(), t.step_cycles.total);
  EXPECT_GT(t.step_cycles.rounds, 0u);
  // Every shard's breakdown obeys the same tiling invariant.
  for (const ShardStats& sh : st.shards) {
    EXPECT_EQ(sh.step_cycles.attributed(), sh.step_cycles.total);
    EXPECT_EQ(sh.step_cycles.total, sh.sim_cycles);
  }
}

TEST(EngineObservability, LatencyQuantilesOrderedAndThroughputDerived) {
  using namespace engine;
  std::vector<HashJob> jobs(40);
  for (HashJob& job : jobs) {
    job.algo = Algo::kSha3_256;
    job.message.assign(200, 0xA5);
  }
  EngineConfig cfg;
  cfg.threads = 2;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  BatchHashEngine eng(cfg);
  eng.submit_all(jobs);
  (void)eng.drain();

  const EngineStats st = eng.stats();
  EXPECT_EQ(st.latency.count, jobs.size());
  EXPECT_LE(st.latency.p50_ns, st.latency.p99_ns);
  EXPECT_LE(st.latency.p99_ns, st.latency.p999_ns);
  EXPECT_LE(st.latency.p999_ns, st.latency.max_ns);
  EXPECT_GT(st.latency.max_ns, 0u);

  ASSERT_GT(st.elapsed_ns, 0u);
  const ThroughputStats tp = st.throughput();
  const ShardStats t = st.totals();
  const double secs = static_cast<double>(st.elapsed_ns) / 1e9;
  EXPECT_DOUBLE_EQ(tp.jobs_per_sec, static_cast<double>(t.jobs) / secs);
  EXPECT_DOUBLE_EQ(tp.bytes_per_sec, static_cast<double>(t.bytes) / secs);
  EXPECT_DOUBLE_EQ(tp.mb_per_sec, tp.bytes_per_sec / 1e6);
  // Zero window => all-zero rates, not a division by zero.
  const ThroughputStats zero = st.throughput(0);
  EXPECT_EQ(zero.jobs_per_sec, 0.0);

  // The global registry carries the same totals as EngineStats.
  auto& reg = obs::MetricsRegistry::global();
  EXPECT_GE(reg.counter("kvx_engine_jobs_completed_total").value(),
            jobs.size());
  EXPECT_GE(reg.counter("kvx_engine_sim_cycles_total").value(), t.sim_cycles);
}

}  // namespace
}  // namespace kvx
