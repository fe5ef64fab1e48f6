// Fault-injection tests: the fail-soft contract of the sim + core + engine
// stack under deterministic injected faults.
//
// Fault model (see kvx/sim/fault_injector.hpp): faults are *detected*
// corruption — a bit flip or synthetic error that raises SimError, like a
// parity/ECC check would. The contract under test:
//  * jit/host-simd faults demote the dispatch one tier at a time
//    (jit → host-simd → interpreter) and still produce the correct digest
//    (and identical cycle counts);
//  * interpreter-tier faults surface as per-job errors in the engine, never
//    as silently wrong digests;
//  * compile-site faults demote at construction and are counted;
//  * all accounting invariants (submitted == completed + failed, both in
//    EngineStats and the Prometheus counters) hold exactly.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "kvx/common/error.hpp"
#include "kvx/common/hex.hpp"
#include "kvx/common/rng.hpp"
#include "kvx/core/vector_keccak.hpp"
#include "kvx/engine/batch_engine.hpp"
#include "kvx/keccak/permutation.hpp"
#include "kvx/obs/metrics.hpp"
#include "kvx/sim/fault_injector.hpp"
#include "machine_state.hpp"

namespace kvx {
namespace {

using core::VectorKeccak;
using core::VectorKeccakConfig;
using engine::Algo;
using engine::BatchHashEngine;
using engine::EngineConfig;
using engine::EngineStats;
using engine::HashJob;
using engine::JobResult;
using sim::ExecBackend;
using sim::FaultInjector;
using sim::FaultKind;
using sim::FaultPlan;
using sim::FaultSite;

std::vector<keccak::State> random_states(usize n, u64 seed) {
  SplitMix64 rng(seed);
  std::vector<keccak::State> states(n);
  for (keccak::State& s : states) {
    for (unsigned x = 0; x < 5; ++x) {
      for (unsigned y = 0; y < 5; ++y) s.lane(x, y) = rng.next();
    }
  }
  return states;
}

void expect_states_equal(std::span<const keccak::State> a,
                         std::span<const keccak::State> b) {
  ASSERT_EQ(a.size(), b.size());
  for (usize s = 0; s < a.size(); ++s) {
    for (unsigned x = 0; x < 5; ++x) {
      for (unsigned y = 0; y < 5; ++y) {
        EXPECT_EQ(a[s].lane(x, y), b[s].lane(x, y))
            << "state " << s << " lane (" << x << "," << y << ")";
      }
    }
  }
}

VectorKeccakConfig accel_config(ExecBackend backend) {
  VectorKeccakConfig cfg{core::Arch::k64Lmul8, 15, 24};
  cfg.backend = backend;
  return cfg;
}

/// Interpreter reference permutation of the same inputs, no injector.
std::vector<keccak::State> reference_permute(u64 seed) {
  VectorKeccak ref(accel_config(ExecBackend::kInterpreter));
  auto states = random_states(3, seed);
  ref.permute(states);
  return states;
}

// --- FaultInjector unit behavior -----------------------------------------------

TEST(FaultInjector, DecisionStreamIsDeterministic) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.rate = 0.1;
  FaultInjector a(plan);
  FaultInjector b(plan);
  u64 injected = 0;
  for (usize n = 0; n < 500; ++n) {
    const FaultSite site =
        n % 5 == 0 ? FaultSite::kTraceCompile : FaultSite::kExecute;
    const auto fa = a.draw(site);
    const auto fb = b.draw(site);
    EXPECT_EQ(fa, fb) << "draw " << n;
    injected += fa.has_value() ? 1 : 0;
  }
  EXPECT_EQ(a.stats().draws, 500u);
  // rate 0.1 over 500 draws: expect a plausible, non-zero injected count.
  EXPECT_GT(injected, 10u);
  EXPECT_LT(injected, 150u);
}

TEST(FaultInjector, AtDrawFiresExactlyOnce) {
  FaultPlan plan;
  plan.at_draw = 3;
  plan.kinds = static_cast<u32>(FaultKind::kSimFault);
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.draw(FaultSite::kExecute).has_value());
  EXPECT_FALSE(inj.draw(FaultSite::kExecute).has_value());
  const auto f = inj.draw(FaultSite::kExecute);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(*f, FaultKind::kSimFault);
  for (usize n = 0; n < 20; ++n) {
    EXPECT_FALSE(inj.draw(FaultSite::kExecute).has_value());
  }
}

TEST(FaultInjector, SiteRestrictsKinds) {
  FaultPlan plan;
  plan.rate = 1.0;
  plan.kinds = static_cast<u32>(FaultKind::kCompileFail);
  FaultInjector inj(plan);
  // A compile-only mask never faults an execute site (and vice versa).
  EXPECT_FALSE(inj.draw(FaultSite::kExecute).has_value());
  EXPECT_EQ(*inj.draw(FaultSite::kTraceCompile), FaultKind::kCompileFail);
}

TEST(FaultInjector, ParseFaultPlanRoundTrip) {
  const FaultPlan plan = sim::parse_fault_plan(
      "seed=7,rate=1e-3,at=5,at-instruction=9,kinds=regflip+sim");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.rate, 1e-3);
  EXPECT_EQ(plan.at_draw, 5u);
  EXPECT_EQ(plan.at_instruction, 9u);
  EXPECT_EQ(plan.kinds, static_cast<u32>(FaultKind::kRegfileBitFlip) |
                            static_cast<u32>(FaultKind::kSimFault));
  EXPECT_EQ(sim::parse_fault_plan("kinds=all").kinds, sim::kAllFaultKinds);
  EXPECT_THROW((void)sim::parse_fault_plan("rate=2"), Error);
  EXPECT_THROW((void)sim::parse_fault_plan("nonsense"), Error);
  EXPECT_THROW((void)sim::parse_fault_plan("kinds=bogus"), Error);
  EXPECT_THROW((void)sim::parse_fault_plan("rate=abc"), Error);
}

// --- VectorKeccak fallback chain -----------------------------------------------

// Flight-recorder demotion events and post-mortem dumps carry the raw
// enumerator values, so they are pinned (exec_backend.hpp asserts the same).
static_assert(static_cast<int>(ExecBackend::kInterpreter) == 0);
static_assert(static_cast<int>(ExecBackend::kHostSimd) == 3);
static_assert(static_cast<int>(ExecBackend::kJit) == 4);

TEST(ExecBackendChain, DemotesJitToHostSimdToInterpreter) {
  EXPECT_EQ(sim::demote_backend(ExecBackend::kJit), ExecBackend::kHostSimd);
  EXPECT_EQ(sim::demote_backend(ExecBackend::kHostSimd),
            ExecBackend::kInterpreter);
  EXPECT_EQ(sim::demote_backend(ExecBackend::kInterpreter),
            ExecBackend::kInterpreter);
  for (const ExecBackend b : {ExecBackend::kInterpreter,
                              ExecBackend::kHostSimd, ExecBackend::kJit}) {
    EXPECT_EQ(sim::parse_backend(sim::backend_name(b)), b);
  }
  EXPECT_EQ(sim::kBackendNamesHelp, "interpreter, host-simd, jit");
}

TEST(ExecBackendChain, ParseRejectsTheRemovedTierNames) {
  for (const char* name : {"trace", "compiled-trace", "fused", "fused-trace"}) {
    EXPECT_FALSE(sim::parse_backend(name).has_value()) << name;
  }
  EXPECT_FALSE(sim::parse_backend("bogus").has_value());
}

TEST(FaultInjection, HostSimdSimFaultDemotesToInterpreterAndRecovers) {
  // Construction consumes draw 1 (host-simd compile site); the first
  // dispatch consumes draw 2 — arm exactly that one.
  auto cfg = accel_config(ExecBackend::kHostSimd);
  FaultPlan plan;
  plan.at_draw = 2;
  plan.kinds = static_cast<u32>(FaultKind::kSimFault);
  cfg.fault_injector = std::make_shared<FaultInjector>(plan);
  VectorKeccak vk(cfg);
  ASSERT_EQ(vk.active_backend(), ExecBackend::kHostSimd);

  auto states = random_states(3, 66);
  vk.permute(states);
  EXPECT_EQ(vk.last_backend(), ExecBackend::kInterpreter);
  EXPECT_EQ(vk.backend_fallbacks(), 1u);
  EXPECT_NE(vk.last_fallback_error().find("injected fault"),
            std::string::npos);
  expect_states_equal(states, reference_permute(66));

  // Cycle counts pass through the demotion unchanged (the interpreter
  // charges what the recording charged).
  VectorKeccak clean(accel_config(ExecBackend::kHostSimd));
  auto clean_states = random_states(3, 66);
  clean.permute(clean_states);
  EXPECT_EQ(vk.last_timing().permutation_cycles,
            clean.last_timing().permutation_cycles);
  EXPECT_EQ(vk.last_timing().total_cycles, clean.last_timing().total_cycles);

  // One-shot: the next dispatch runs host-simd again.
  vk.permute(states);
  EXPECT_EQ(vk.last_backend(), ExecBackend::kHostSimd);
  EXPECT_EQ(vk.backend_fallbacks(), 1u);
}

TEST(FaultInjection, JitSimFaultDemotesToHostSimdAndRecovers) {
  // Top of the three-tier chain. Construction consumes one compile-site
  // draw per attempted tier — on a host that cannot emit native code the
  // jit tier demotes at construction and draws once more — so probe the
  // draw count with a never-firing injector first, then arm exactly the
  // first dispatch draw. The faulted dispatch must recover one tier down
  // from whatever tier construction landed on, bit-exactly.
  auto probe_cfg = accel_config(ExecBackend::kJit);
  probe_cfg.fault_injector = std::make_shared<FaultInjector>(FaultPlan{});
  VectorKeccak probe(probe_cfg);
  const ExecBackend built = probe.active_backend();
  ASSERT_GE(built, ExecBackend::kHostSimd);

  auto cfg = accel_config(ExecBackend::kJit);
  FaultPlan plan;
  plan.at_draw = probe_cfg.fault_injector->stats().draws + 1;
  plan.kinds = static_cast<u32>(FaultKind::kSimFault);
  cfg.fault_injector = std::make_shared<FaultInjector>(plan);
  VectorKeccak vk(cfg);
  ASSERT_EQ(vk.active_backend(), built);
  const u64 built_fallbacks = vk.backend_fallbacks();

  auto states = random_states(3, 44);
  vk.permute(states);
  EXPECT_EQ(vk.last_backend(), sim::demote_backend(built));
  EXPECT_EQ(vk.backend_fallbacks(), built_fallbacks + 1);
  EXPECT_NE(vk.last_fallback_error().find("injected fault"),
            std::string::npos);
  expect_states_equal(states, reference_permute(44));

  // Cycle counts pass through the demotion unchanged.
  VectorKeccak clean(accel_config(ExecBackend::kJit));
  auto clean_states = random_states(3, 44);
  clean.permute(clean_states);
  EXPECT_EQ(vk.last_timing().permutation_cycles,
            clean.last_timing().permutation_cycles);
  EXPECT_EQ(vk.last_timing().total_cycles, clean.last_timing().total_cycles);

  // One-shot: the next dispatch runs the built tier again.
  vk.permute(states);
  EXPECT_EQ(vk.last_backend(), built);
  EXPECT_EQ(vk.backend_fallbacks(), built_fallbacks + 1);
}

// A bit flip on a direct dispatch. The jit and host-simd tiers leave the
// machine pending on a copy of the input, so the injected flip must first
// materialize it, then corrupt it and raise; the dispatch demotes one tier
// down with the same attempt path as any other execute fault, the caller
// gets golden states, and the next read of the machine shows the clean
// retry, not the flip.
class DirectDispatchFlipTest
    : public ::testing::TestWithParam<std::tuple<ExecBackend, FaultKind>> {};

TEST_P(DirectDispatchFlipTest, MaterializesCorruptsThrowsAndDemotes) {
  const auto [asked, kind] = GetParam();
  auto probe_cfg = accel_config(asked);
  probe_cfg.fault_injector = std::make_shared<FaultInjector>(FaultPlan{});
  VectorKeccak probe(probe_cfg);
  const ExecBackend built = probe.active_backend();
  ASSERT_GE(built, ExecBackend::kHostSimd);

  auto cfg = accel_config(asked);
  FaultPlan plan;
  plan.at_draw = probe_cfg.fault_injector->stats().draws + 1;
  plan.kinds = static_cast<u32>(kind);
  cfg.fault_injector = std::make_shared<FaultInjector>(plan);
  VectorKeccak vk(cfg);
  ASSERT_EQ(vk.active_backend(), built);
  obs::Counter& materializations = obs::MetricsRegistry::global().counter(
      "kvx_sim_materializations_total");
  const u64 m0 = materializations.value();

  auto states = random_states(3, 0xF11);
  vk.permute(states);
  expect_states_equal(states, reference_permute(0xF11));
  EXPECT_EQ(cfg.fault_injector->stats().bit_flips, 1u);
  EXPECT_EQ(materializations.value(), m0 + 1);
  EXPECT_EQ(vk.last_backend(), sim::demote_backend(built));
  const auto& attempts = vk.last_dispatch_attempts();
  ASSERT_EQ(attempts.size(), 2u);
  EXPECT_EQ(attempts[0].tier, built);
  EXPECT_TRUE(attempts[0].injected);
  EXPECT_NE(attempts[0].error.find("bit flip"), std::string::npos);
  EXPECT_EQ(attempts[1].tier, sim::demote_backend(built));
  EXPECT_EQ(attempts[1].error, "");

  VectorKeccak ref(accel_config(ExecBackend::kInterpreter));
  auto ref_states = random_states(3, 0xF11);
  ref.permute(ref_states);
  test::expect_same_machine(vk, ref, "after the demoted retry");
}

INSTANTIATE_TEST_SUITE_P(
    TiersByFlip, DirectDispatchFlipTest,
    ::testing::Combine(::testing::Values(ExecBackend::kHostSimd,
                                         ExecBackend::kJit),
                       ::testing::Values(FaultKind::kRegfileBitFlip,
                                         FaultKind::kMemoryBitFlip)),
    [](const auto& info) {
      std::string name(sim::backend_name(std::get<0>(info.param)));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + (std::get<1>(info.param) == FaultKind::kRegfileBitFlip
                         ? "_regflip"
                         : "_memflip");
    });

TEST(FaultInjection, JitCompileFaultChainDemotesToInterpreter) {
  auto cfg = accel_config(ExecBackend::kJit);
  FaultPlan plan;
  plan.rate = 1.0;
  plan.kinds = static_cast<u32>(FaultKind::kCompileFail);
  cfg.fault_injector = std::make_shared<FaultInjector>(plan);
  VectorKeccak vk(cfg);
  // jit rejected -> host-simd rejected -> interpreter: two counted
  // demotions, then clean dispatches.
  EXPECT_EQ(vk.active_backend(), ExecBackend::kInterpreter);
  EXPECT_EQ(vk.backend_fallbacks(), 2u);
  auto states = random_states(3, 322);
  vk.permute(states);
  expect_states_equal(states, reference_permute(322));
}

TEST(FaultInjection, HostSimdCompileFaultChainDemotesToInterpreter) {
  auto cfg = accel_config(ExecBackend::kHostSimd);
  FaultPlan plan;
  plan.rate = 1.0;
  plan.kinds = static_cast<u32>(FaultKind::kCompileFail);
  cfg.fault_injector = std::make_shared<FaultInjector>(plan);
  VectorKeccak vk(cfg);
  // host-simd rejected -> interpreter: one counted demotion, then clean
  // dispatches (kCompileFail does not apply to execute sites).
  EXPECT_EQ(vk.active_backend(), ExecBackend::kInterpreter);
  EXPECT_EQ(vk.backend_fallbacks(), 1u);
  EXPECT_NE(vk.last_fallback_error().find("compilation rejected"),
            std::string::npos);
  auto states = random_states(3, 321);
  vk.permute(states);
  expect_states_equal(states, reference_permute(321));
}

class BitFlipTest : public ::testing::TestWithParam<FaultKind> {};

TEST_P(BitFlipTest, DetectedFlipDemotesAndRecoversExactly) {
  auto cfg = accel_config(ExecBackend::kHostSimd);
  FaultPlan plan;
  plan.at_draw = 2;
  plan.kinds = static_cast<u32>(GetParam());
  cfg.fault_injector = std::make_shared<FaultInjector>(plan);
  VectorKeccak vk(cfg);
  auto states = random_states(3, 88);
  vk.permute(states);
  EXPECT_EQ(vk.backend_fallbacks(), 1u);
  EXPECT_EQ(cfg.fault_injector->stats().bit_flips, 1u);
  // The demoted retry restages the inputs, so the flip cannot leak into
  // the result: lanes match the clean interpreter reference exactly.
  expect_states_equal(states, reference_permute(88));
}

INSTANTIATE_TEST_SUITE_P(Kinds, BitFlipTest,
                         ::testing::Values(FaultKind::kRegfileBitFlip,
                                           FaultKind::kMemoryBitFlip),
                         [](const auto& info) {
                           return info.param == FaultKind::kRegfileBitFlip
                                      ? "Regfile"
                                      : "Memory";
                         });

TEST(FaultInjection, InterpreterFaultPropagatesThenRecovers) {
  auto cfg = accel_config(ExecBackend::kInterpreter);
  FaultPlan plan;
  plan.at_draw = 1;  // interpreter has no compile draw: first dispatch
  plan.kinds = static_cast<u32>(FaultKind::kSimFault);
  cfg.fault_injector = std::make_shared<FaultInjector>(plan);
  VectorKeccak vk(cfg);
  auto states = random_states(3, 99);
  // No tier below the interpreter: the SimError reaches the caller.
  EXPECT_THROW(vk.permute(states), SimError);
  // One-shot: the retry computes the correct permutation.
  vk.permute(states);
  expect_states_equal(states, reference_permute(99));
}

TEST(FaultInjection, AtInstructionFaultIsOneShot) {
  auto cfg = accel_config(ExecBackend::kInterpreter);
  FaultPlan plan;
  plan.at_instruction = 100;
  cfg.fault_injector = std::make_shared<FaultInjector>(plan);
  VectorKeccak vk(cfg);
  auto states = random_states(3, 111);
  EXPECT_THROW(vk.permute(states), SimError);
  EXPECT_EQ(cfg.fault_injector->stats().sim_faults, 1u);
  vk.permute(states);  // disarmed: runs clean
  expect_states_equal(states, reference_permute(111));
}

TEST(FaultInjection, CompileFaultChainDemotesToInterpreter) {
  // Compile faults at rate 1.0 reject every compiled tier: whichever tier
  // is asked for, construction walks the chain below it — one counted
  // demotion per tier, in chain order — and lands on the interpreter.
  const std::vector<ExecBackend> chain = {ExecBackend::kJit,
                                          ExecBackend::kHostSimd};
  for (usize first = 0; first <= chain.size(); ++first) {
    const ExecBackend asked =
        first < chain.size() ? chain[first] : ExecBackend::kInterpreter;
    SCOPED_TRACE(sim::backend_name(asked));
    auto cfg = accel_config(asked);
    FaultPlan plan;
    plan.rate = 1.0;
    plan.kinds = static_cast<u32>(FaultKind::kCompileFail);
    cfg.fault_injector = std::make_shared<FaultInjector>(plan);
    VectorKeccak vk(cfg);
    EXPECT_EQ(vk.active_backend(), ExecBackend::kInterpreter);
    EXPECT_EQ(vk.backend_fallbacks(), chain.size() - first);
    ASSERT_EQ(vk.construction_attempts().size(), chain.size() - first);
    for (usize t = first; t < chain.size(); ++t) {
      EXPECT_EQ(vk.construction_attempts()[t - first].tier, chain[t]);
    }
    if (asked != ExecBackend::kInterpreter) {
      EXPECT_NE(vk.last_fallback_error().find("compilation rejected"),
                std::string::npos);
    }
    // kCompileFail does not apply to execute sites: dispatches run clean.
    auto states = random_states(3, 123);
    vk.permute(states);
    EXPECT_EQ(vk.last_backend(), ExecBackend::kInterpreter);
    expect_states_equal(states, reference_permute(123));
  }
}

// --- engine-level fail-soft ------------------------------------------------------

std::vector<HashJob> fuzz_jobs(usize count, u64 seed) {
  constexpr Algo kAlgos[] = {Algo::kSha3_256, Algo::kSha3_512,
                             Algo::kShake128, Algo::kKmac256};
  SplitMix64 rng(seed);
  std::vector<HashJob> jobs(count);
  for (HashJob& job : jobs) {
    job.algo = kAlgos[rng.below(std::size(kAlgos))];
    job.message.resize(1 + rng.below(160));
    for (u8& b : job.message) b = static_cast<u8>(rng.next());
    if (engine::fixed_digest_bytes(job.algo) == 0) job.out_len = 32;
    if (job.algo == Algo::kKmac256) job.key = {1, 2, 3, 4, 5, 6, 7, 8};
  }
  return jobs;
}

TEST(FaultInjection, EngineCountsDispatchFallbacks) {
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  cfg.accel.backend = ExecBackend::kHostSimd;
  FaultPlan plan;
  plan.at_draw = 2;  // shard construction draws 1; first dispatch draws 2
  plan.kinds = static_cast<u32>(FaultKind::kSimFault);
  cfg.accel.fault_injector = std::make_shared<FaultInjector>(plan);

  obs::Counter& fallbacks_c = obs::MetricsRegistry::global().counter(
      "kvx_engine_fallbacks_total");
  const u64 fb0 = fallbacks_c.value();

  BatchHashEngine engine(cfg);
  const auto jobs = fuzz_jobs(12, 55);
  engine.submit_all(jobs);
  const auto results = engine.drain_results();
  for (usize i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].error;
    EXPECT_EQ(results[i].digest, engine::host_reference_digest(jobs[i]))
        << "job " << i;
  }
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.totals().fallbacks, 1u);
  EXPECT_EQ(fallbacks_c.value() - fb0, 1u);
}

TEST(FaultInjection, EngineCountsConstructionFallbacks) {
  EngineConfig cfg;
  cfg.threads = 2;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  cfg.accel.backend = ExecBackend::kHostSimd;
  FaultPlan plan;
  plan.rate = 1.0;
  plan.kinds = static_cast<u32>(FaultKind::kCompileFail);
  cfg.accel.fault_injector = std::make_shared<FaultInjector>(plan);

  BatchHashEngine engine(cfg);
  // Every shard demoted host-simd -> interpreter at construction.
  EXPECT_EQ(engine.stats().backend, "interpreter");
  EXPECT_EQ(engine.stats().totals().fallbacks, 2u);  // 1 per shard
  const auto jobs = fuzz_jobs(8, 56);
  engine.submit_all(jobs);
  const auto results = engine.drain_results();
  for (usize i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].error;
    EXPECT_EQ(results[i].digest, engine::host_reference_digest(jobs[i]));
    EXPECT_EQ(results[i].backend, "interpreter");
  }
}

TEST(FaultInjection, InterpreterEngineFaultFailsOnlyItsDispatchGroup) {
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  cfg.accel.backend = ExecBackend::kInterpreter;
  FaultPlan plan;
  plan.at_draw = 1;
  plan.kinds = static_cast<u32>(FaultKind::kSimFault);
  cfg.accel.fault_injector = std::make_shared<FaultInjector>(plan);

  BatchHashEngine engine(cfg);
  const auto jobs = fuzz_jobs(40, 57);
  engine.submit_all(jobs);
  const auto results = engine.drain_results();
  usize failed = 0;
  for (usize i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      ++failed;
      EXPECT_NE(results[i].error.find("injected fault"), std::string::npos);
      EXPECT_TRUE(results[i].digest.empty());
    } else {
      EXPECT_EQ(results[i].digest, engine::host_reference_digest(jobs[i]))
          << "job " << i;
    }
  }
  // The armed fault hits the first dispatch group and nothing else.
  EXPECT_GE(failed, 1u);
  EXPECT_LT(failed, jobs.size());
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.submitted, jobs.size());
  EXPECT_EQ(st.failed, failed);
  EXPECT_EQ(st.completed, jobs.size() - failed);
  EXPECT_EQ(st.totals().failures, failed);
}

TEST(FaultInjection, ShardedSchedulerRecoversAndAttributesFallbacks) {
  // Regression (PR 6): the kvx-fuzz --quick configuration (SN=3, 2 workers,
  // 120 jobs, rate 0.02) pushed through the *sharded* scheduler's bulk
  // submit path. Fault-injected dispatches must still recover down the
  // host-simd -> interpreter chain exactly as under the old queue, and
  // every demotion must be attributed to the shard whose dispatch demoted —
  // a shard that never dispatched cannot carry a dispatch-time fallback.
  auto& r = obs::MetricsRegistry::global();
  obs::Counter& submitted_c = r.counter("kvx_engine_jobs_submitted_total");
  obs::Counter& completed_c = r.counter("kvx_engine_jobs_completed_total");
  obs::Counter& failures_c = r.counter("kvx_engine_job_failures_total");
  obs::Counter& fallbacks_c = r.counter("kvx_engine_fallbacks_total");
  const u64 sub0 = submitted_c.value();
  const u64 com0 = completed_c.value();
  const u64 fail0 = failures_c.value();
  const u64 fb0 = fallbacks_c.value();

  EngineConfig cfg;
  cfg.threads = 2;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  cfg.accel.backend = ExecBackend::kHostSimd;
  FaultPlan plan;
  plan.seed = 7;
  plan.rate = 0.02;
  // Execute-site kinds only, so construction compiles clean and every
  // counted fallback is attributable to a dispatch.
  plan.kinds = static_cast<u32>(FaultKind::kSimFault) |
               static_cast<u32>(FaultKind::kRegfileBitFlip) |
               static_cast<u32>(FaultKind::kMemoryBitFlip);
  cfg.accel.fault_injector = std::make_shared<FaultInjector>(plan);

  const auto jobs = fuzz_jobs(120, 58);
  BatchHashEngine engine(cfg);
  engine.submit_batch(jobs);
  engine.close();
  std::vector<JobResult> results;
  ASSERT_EQ(engine.drain_batch(results), jobs.size());
  usize failed = 0;
  for (usize i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      // Only a fault that fell all the way to the interpreter tier may
      // surface as a per-job error — never a silently wrong digest.
      ++failed;
      EXPECT_NE(results[i].error.find("injected fault"), std::string::npos);
      EXPECT_TRUE(results[i].digest.empty());
    } else {
      EXPECT_EQ(results[i].digest, engine::host_reference_digest(jobs[i]))
          << "job " << i << " diverged from the golden model";
    }
  }

  const EngineStats st = engine.stats();
  EXPECT_EQ(st.submitted, jobs.size());
  EXPECT_EQ(st.completed + st.failed, st.submitted);
  EXPECT_EQ(st.failed, failed);
  EXPECT_EQ(submitted_c.value() - sub0, jobs.size());
  EXPECT_EQ((completed_c.value() - com0) + (failures_c.value() - fail0),
            jobs.size());

  // The chain actually engaged (seed chosen so rate 0.02 injects), and the
  // attribution is exact: registry delta == EngineStats total == the sum
  // over shards, with nothing on dispatch-less shards.
  const u64 fb_delta = fallbacks_c.value() - fb0;
  EXPECT_GE(fb_delta, 1u);
  EXPECT_EQ(st.totals().fallbacks, fb_delta);
  u64 shard_sum = 0;
  for (const auto& shard : st.shards) {
    shard_sum += shard.fallbacks;
    if (shard.dispatches == 0) EXPECT_EQ(shard.fallbacks, 0u);
  }
  EXPECT_EQ(shard_sum, fb_delta);
}

/// Every backend under probabilistic injection must keep all engine
/// invariants and never produce a silently wrong digest.
void expect_invariants_under_random_faults(core::Arch arch, unsigned sn,
                                           ExecBackend backend,
                                           unsigned threads) {
  auto& r = obs::MetricsRegistry::global();
  obs::Counter& submitted_c = r.counter("kvx_engine_jobs_submitted_total");
  obs::Counter& completed_c = r.counter("kvx_engine_jobs_completed_total");
  obs::Counter& failures_c = r.counter("kvx_engine_job_failures_total");
  const u64 sub0 = submitted_c.value();
  const u64 com0 = completed_c.value();
  const u64 fail0 = failures_c.value();

  EngineConfig cfg;
  cfg.threads = threads;
  cfg.accel = {arch, 5 * sn, 24};
  cfg.accel.backend = backend;
  FaultPlan plan;
  plan.seed = 1000 + static_cast<u64>(backend) * 10 + threads;
  plan.rate = 0.05;
  cfg.accel.fault_injector = std::make_shared<FaultInjector>(plan);

  const auto jobs = fuzz_jobs(60, plan.seed);
  BatchHashEngine engine(cfg);
  engine.submit_all(jobs);
  const auto results = engine.drain_results();
  ASSERT_EQ(results.size(), jobs.size());
  usize failed = 0;
  for (usize i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      ++failed;
      EXPECT_FALSE(results[i].error.empty());
      EXPECT_TRUE(results[i].digest.empty());
    } else {
      EXPECT_EQ(results[i].digest, engine::host_reference_digest(jobs[i]))
          << "job " << i << " diverged from the golden model";
    }
  }
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.submitted, jobs.size());
  EXPECT_EQ(st.completed + st.failed, st.submitted);
  EXPECT_EQ(st.failed, failed);
  EXPECT_EQ(st.latency.count, jobs.size());
  EXPECT_EQ(submitted_c.value() - sub0, jobs.size());
  EXPECT_EQ((completed_c.value() - com0) + (failures_c.value() - fail0),
            jobs.size());
  EXPECT_EQ(failures_c.value() - fail0, failed);
}

// The acceptance matrix in miniature (kvx-fuzz runs the full-size version):
// every backend × thread count under probabilistic injection.
class EngineFaultMatrixTest
    : public ::testing::TestWithParam<std::tuple<ExecBackend, unsigned>> {};

TEST_P(EngineFaultMatrixTest, InvariantsHoldUnderRandomFaults) {
  const auto [backend, threads] = GetParam();
  expect_invariants_under_random_faults(core::Arch::k64Lmul8, 3, backend,
                                        threads);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsByThreads, EngineFaultMatrixTest,
    ::testing::Combine(::testing::Values(ExecBackend::kInterpreter,
                                         ExecBackend::kHostSimd,
                                         ExecBackend::kJit),
                       ::testing::Values(1u, 8u)),
    [](const auto& info) {
      // gtest parameter names must be [A-Za-z0-9_]: "host-simd" → "host_simd".
      std::string name(sim::backend_name(std::get<0>(info.param)));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_T" + std::to_string(std::get<1>(info.param));
    });

// The same matrix on the paper's 32-bit split-half arch (SN=6), whose
// host-simd and jit tiers run split plans: an execute fault inside one must
// restage and recover one tier down with golden results, and the engine
// invariants must hold under random faults on every backend.
class SplitArchFaultMatrixTest : public ::testing::TestWithParam<ExecBackend> {
 protected:
  static VectorKeccakConfig config(ExecBackend backend) {
    VectorKeccakConfig cfg{core::Arch::k32Lmul8, 30, 24};
    cfg.backend = backend;
    return cfg;
  }
};

TEST_P(SplitArchFaultMatrixTest, ExecuteFaultRecoversOneTierDown) {
  // Probe how many compile-site draws construction takes on this host
  // (a host that cannot emit native code demotes jit and draws again),
  // then arm exactly the first dispatch draw.
  auto probe_cfg = config(GetParam());
  probe_cfg.fault_injector = std::make_shared<FaultInjector>(FaultPlan{});
  VectorKeccak probe(probe_cfg);
  const ExecBackend built = probe.active_backend();
  if (GetParam() != ExecBackend::kJit) ASSERT_EQ(built, GetParam());

  auto cfg = config(GetParam());
  FaultPlan plan;
  plan.at_draw = probe_cfg.fault_injector->stats().draws + 1;
  plan.kinds = static_cast<u32>(FaultKind::kSimFault);
  cfg.fault_injector = std::make_shared<FaultInjector>(plan);
  VectorKeccak vk(cfg);
  ASSERT_EQ(vk.active_backend(), built);

  auto states = random_states(6, 0x32B);
  auto golden = states;
  for (keccak::State& s : golden) keccak::permute(s);
  if (built == ExecBackend::kInterpreter) {
    // The floor has nowhere to demote: the fault surfaces, and the next
    // dispatch (restaged from the caller's states) is clean.
    auto faulted = states;
    EXPECT_THROW(vk.permute(faulted), SimError);
    vk.permute(states);
    expect_states_equal(states, golden);
    return;
  }
  vk.permute(states);
  EXPECT_EQ(vk.last_backend(), sim::demote_backend(built));
  EXPECT_NE(vk.last_fallback_error().find("injected fault"),
            std::string::npos);
  expect_states_equal(states, golden);
  EXPECT_EQ(vk.last_timing().permutation_cycles, 3646u);

  // One-shot: the next dispatch runs the built tier again.
  vk.permute(states);
  EXPECT_EQ(vk.last_backend(), built);
}

TEST_P(SplitArchFaultMatrixTest, EngineInvariantsHoldUnderRandomFaults) {
  expect_invariants_under_random_faults(core::Arch::k32Lmul8, 6, GetParam(),
                                        2);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SplitArchFaultMatrixTest,
    ::testing::Values(ExecBackend::kInterpreter, ExecBackend::kHostSimd,
                      ExecBackend::kJit),
    [](const auto& info) {
      std::string name(sim::backend_name(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- per-job failure forensics ---------------------------------------------------

TEST(FaultForensics, ConstructionDemotionPathNamesEveryRejectedTier) {
  // Compile faults at rate 1.0 reject every compiled tier at construction;
  // jobs then succeed on the interpreter and each carries the full
  // construction-time demotion path: jit, host-simd — both injected — in
  // chain order.
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  cfg.accel.backend = ExecBackend::kJit;
  FaultPlan plan;
  plan.rate = 1.0;
  plan.kinds = static_cast<u32>(FaultKind::kCompileFail);
  cfg.accel.fault_injector = std::make_shared<FaultInjector>(plan);

  BatchHashEngine engine(cfg);
  const auto jobs = fuzz_jobs(6, 91);
  engine.submit_all(jobs);
  const auto results = engine.drain_results();
  const std::vector<std::string> expect_rejected = {"jit", "host-simd"};
  for (const JobResult& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.backend, "interpreter");
    ASSERT_GE(r.demotion_path.size(), expect_rejected.size());
    for (usize t = 0; t < expect_rejected.size(); ++t) {
      EXPECT_EQ(r.demotion_path[t].backend, expect_rejected[t]);
      EXPECT_FALSE(r.demotion_path[t].error.empty());
      EXPECT_TRUE(r.demotion_path[t].injected) << r.demotion_path[t].error;
    }
    // The chain terminates in the tier that produced the digest.
    EXPECT_EQ(r.demotion_path.back().backend, "interpreter");
    EXPECT_TRUE(r.demotion_path.back().error.empty());
    EXPECT_NE(r.flight_seq, 0u);
  }
}

TEST(FaultForensics, FailedJobCarriesDemotionPathToTheInterpreter) {
  // Sim faults at rate 1.0 fault EVERY dispatch at every tier: the jobs
  // fail with a demotion path that names all three tiers of the chain, each
  // with its (injected) error. One identical-algo group, because tier
  // demotion is sticky — only the first failing dispatch walks the whole
  // chain; later groups would start already demoted. Where this build or
  // host cannot emit native code, the jit entry is instead the genuine
  // construction rejection, not an injected fault.
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  cfg.accel.backend = ExecBackend::kJit;
  const bool jit_emits =
      VectorKeccak(cfg.accel).active_backend() == ExecBackend::kJit;
  FaultPlan plan;
  plan.rate = 1.0;
  plan.kinds = static_cast<u32>(FaultKind::kSimFault);
  cfg.accel.fault_injector = std::make_shared<FaultInjector>(plan);

  BatchHashEngine engine(cfg);
  std::vector<HashJob> jobs(4);
  for (usize i = 0; i < jobs.size(); ++i) {
    jobs[i].algo = Algo::kSha3_256;
    jobs[i].message.assign(32 + i, static_cast<u8>(i));
  }
  engine.submit_all(jobs);
  const auto results = engine.drain_results();
  const std::vector<std::string> chain = {"jit", "host-simd",
                                          "interpreter"};
  for (const JobResult& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.digest.empty());
    ASSERT_EQ(r.demotion_path.size(), chain.size());
    for (usize t = 0; t < chain.size(); ++t) {
      EXPECT_EQ(r.demotion_path[t].backend, chain[t]);
      EXPECT_FALSE(r.demotion_path[t].error.empty()) << chain[t];
      EXPECT_EQ(r.demotion_path[t].injected, t != 0 || jit_emits)
          << chain[t];
    }
    EXPECT_NE(r.flight_seq, 0u);
  }
}

TEST(FaultForensics, CleanDispatchCarriesNoDemotionPath) {
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  cfg.accel.backend = ExecBackend::kHostSimd;

  BatchHashEngine engine(cfg);
  const auto jobs = fuzz_jobs(6, 93);
  engine.submit_all(jobs);
  const auto results = engine.drain_results();
  for (const JobResult& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.demotion_path.empty());
    EXPECT_NE(r.flight_seq, 0u);
  }
}

}  // namespace
}  // namespace kvx
