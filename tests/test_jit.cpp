// Tests of the trace-to-native JIT backend (tier zero of three): emitted
// machine code must be bit-identical to every tier below it (digests,
// register file, data memory) across all paper configurations — the 32-bit
// split arch included — and every emitted ISA, cycle reporting must pass
// the pinned paper values through untouched, unsupported hosts/ISA
// resolutions/unlowerable programs must demote cleanly to host-simd, the
// trace cache must key emissions per ISA while sharing one host-SIMD plan
// (and export occupancy gauges), the engine must report the jit tier, and
// — the disassembly self-check — every emitted byte sequence must decode
// against the encoder's fixed allowlist, with 64-bit emission sizes pinned.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>

#include "kvx/common/error.hpp"
#include "kvx/common/rng.hpp"
#include "kvx/core/parallel_sha3.hpp"
#include "kvx/core/vector_keccak.hpp"
#include "kvx/engine/batch_engine.hpp"
#include "kvx/keccak/permutation.hpp"
#include "kvx/keccak/sha3.hpp"
#include "kvx/obs/metrics.hpp"
#include "kvx/sim/compiled_trace.hpp"
#include "kvx/sim/host_simd.hpp"
#include "kvx/sim/jit/jit_code.hpp"
#include "kvx/sim/jit/jit_trace.hpp"
#include "kvx/sim/trace_fusion.hpp"

namespace kvx::core {
namespace {

using keccak::State;
using sim::ExecBackend;
using sim::HostSimdIsa;

std::vector<State> random_states(usize n, u64 seed) {
  SplitMix64 rng(seed);
  std::vector<State> states(n);
  for (State& s : states) {
    for (u64& lane : s.flat()) lane = rng.next();
  }
  return states;
}

std::vector<std::vector<u8>> random_messages(usize n, u64 seed) {
  SplitMix64 rng(seed);
  std::vector<std::vector<u8>> msgs(n);
  for (auto& m : msgs) {
    m.resize(rng.next() % 500);
    for (u8& b : m) b = static_cast<u8>(rng.next());
  }
  return msgs;
}

sim::ProcessorConfig proc_config(const VectorKeccakConfig& c) {
  sim::ProcessorConfig pc;
  pc.vector.elen_bits = arch_elen(c.arch);
  pc.vector.ele_num = c.ele_num;
  pc.vector.sn = c.sn();
  return pc;
}

sim::TraceCompileOptions verify_opts(const KeccakProgram& program,
                                     const VectorKeccakConfig& c) {
  sim::TraceCompileOptions opts;
  opts.verify_base = program.image.symbol("state");
  opts.verify_len = usize{5} * c.ele_num * 8;
  return opts;
}

/// Restores automatic CPUID dispatch when a test that forces an ISA exits.
struct IsaGuard {
  ~IsaGuard() { sim::host_simd_force_isa(std::nullopt); }
};

/// The ISAs the jit emitter can target on this build (scalar/portable
/// resolutions reject emission by design).
std::vector<HostSimdIsa> emittable_isas() {
  std::vector<HostSimdIsa> isas;
  for (const HostSimdIsa isa : {HostSimdIsa::kAvx2, HostSimdIsa::kAvx512}) {
    if (sim::host_simd_isa_available(isa)) isas.push_back(isa);
  }
  return isas;
}

#define KVX_REQUIRE_JIT_HOST()                                        \
  do {                                                                \
    if (!sim::jit_supported()) {                                      \
      GTEST_SKIP() << "jit backend not supported on this build/host"; \
    }                                                                 \
    if (emittable_isas().empty()) {                                   \
      GTEST_SKIP() << "no AVX2/AVX-512 dispatch compiled in";         \
    }                                                                 \
  } while (0)

// ---------------------------------------------------------------------------
// Differential: jit vs the two tiers below it.
// ---------------------------------------------------------------------------

class JitDifferential
    : public ::testing::TestWithParam<std::tuple<Arch, unsigned>> {
 protected:
  Arch arch() const { return std::get<0>(GetParam()); }
  unsigned sn() const { return std::get<1>(GetParam()); }
  VectorKeccakConfig config(ExecBackend backend) const {
    VectorKeccakConfig c{arch(), 5 * sn(), 24};
    c.backend = backend;
    return c;
  }
};

TEST_P(JitDifferential, PermuteMatchesInterpreterOnEveryEmittedIsa) {
  // Ragged SN included: SN=3/6 leave partially covered pack groups on both
  // emitted ISAs; the pack/unpack shims must zero-pad and drop pad lanes.
  KVX_REQUIRE_JIT_HOST();
  IsaGuard guard;
  VectorKeccak interp(config(ExecBackend::kInterpreter));

  for (const HostSimdIsa isa : emittable_isas()) {
    sim::host_simd_force_isa(isa);
    VectorKeccak jit(config(ExecBackend::kJit));
    ASSERT_EQ(jit.active_backend(), ExecBackend::kJit)
        << sim::host_simd_isa_name(isa) << " emission unexpectedly fell back: "
        << jit.last_fallback_error();
    ASSERT_EQ(jit.jit_isa(), isa);
    EXPECT_GT(jit.jit_code_bytes(), 0u);

    for (const u64 seed : {7u, 77u, 7777u}) {
      auto a = random_states(sn(), seed);
      auto b = a;
      auto golden = a;
      interp.permute(a);
      jit.permute(b);
      ASSERT_EQ(jit.last_backend(), ExecBackend::kJit);
      for (State& s : golden) keccak::permute(s);
      for (usize i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], golden[i]) << "interpreter diverged from golden model";
        EXPECT_EQ(b[i], a[i])
            << sim::host_simd_isa_name(isa) << " state " << i;
      }
      // Cycle accounting passes through the recorded totals bit-identically.
      EXPECT_EQ(jit.last_timing().total_cycles,
                interp.last_timing().total_cycles);
      EXPECT_EQ(jit.last_timing().permutation_cycles,
                interp.last_timing().permutation_cycles);
      EXPECT_EQ(jit.last_timing().instructions,
                interp.last_timing().instructions);
    }
  }
}

TEST_P(JitDifferential, Sha3DigestsMatchAcrossAllThreeBackends) {
  // Automatic dispatch, no pins: where the resolution is scalar/portable
  // (e.g. SN=1 auto-narrowing) the jit accelerator demotes to host-simd —
  // digests must match the golden model either way.
  ParallelSha3 interp(config(ExecBackend::kInterpreter));
  ParallelSha3 hs(config(ExecBackend::kHostSimd));
  ParallelSha3 jit(config(ExecBackend::kJit));
  const auto msgs = random_messages(4 * sn() + 1, 0xBEEF + sn());

  const auto di = interp.hash_batch(keccak::Sha3Function::kSha3_256, msgs);
  const auto dh = hs.hash_batch(keccak::Sha3Function::kSha3_256, msgs);
  const auto dj = jit.hash_batch(keccak::Sha3Function::kSha3_256, msgs);
  ASSERT_EQ(di.size(), msgs.size());
  for (usize i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(di[i],
              keccak::hash(keccak::Sha3Function::kSha3_256, msgs[i], 32));
    EXPECT_EQ(dh[i], di[i]) << "host-simd, message " << i;
    EXPECT_EQ(dj[i], di[i]) << "jit, message " << i;
  }
}

TEST_P(JitDifferential, RegisterFileAndMemoryBitIdenticalToHostSimd) {
  // The emitted function materializes exactly the last-writer values the
  // plan materializes, and the replay shim replays the same record ranges
  // — so the post-execute register file and data memory must be
  // byte-identical to the host-SIMD tier's (and hence the interpreter's).
  KVX_REQUIRE_JIT_HOST();
  IsaGuard guard;
  sim::host_simd_force_isa(emittable_isas().front());

  const VectorKeccakConfig cfg = config(ExecBackend::kInterpreter);
  const auto program = VectorKeccak::build_program(cfg);
  const auto opts = verify_opts(*program, cfg);
  const auto hs = sim::lower_host_simd(sim::fuse_trace(
      sim::compile_trace(program->image, proc_config(cfg), opts)));
  const auto jit = sim::lower_jit(hs);
  ASSERT_EQ(jit->shared_host_simd().get(), hs.get());
  // The paper program never lowers 100% (absorb/setup items replay through
  // the shim): partial coverage here proves the shim path is on the line.
  EXPECT_GT(jit->lowered_coverage(), 0.5);
  EXPECT_LT(jit->lowered_coverage(), 1.0);

  sim::SimdProcessor ph(proc_config(cfg));
  sim::SimdProcessor pj(proc_config(cfg));
  ph.load_program(program->image);
  pj.load_program(program->image);

  SplitMix64 rng(0xFACE + sn());
  std::vector<u8> state_data(opts.verify_len);
  for (u8& byte : state_data) byte = static_cast<u8>(rng.next());
  ph.dmem().write_block(opts.verify_base, state_data);
  pj.dmem().write_block(opts.verify_base, state_data);

  hs->execute(ph.vector(), ph.dmem(), ph.config().cycle_model);
  jit->execute(pj.vector(), pj.dmem(), pj.config().cycle_model);

  for (unsigned r = 0; r < 32; ++r) {
    EXPECT_EQ(pj.vector().get_register(r), ph.vector().get_register(r))
        << "v" << r;
  }
  EXPECT_EQ(jit->final_scalar_regs(), hs->final_scalar_regs());
  std::vector<u8> mh(ph.dmem().size());
  std::vector<u8> mj(pj.dmem().size());
  ph.dmem().read_block(0, mh);
  pj.dmem().read_block(0, mj);
  EXPECT_EQ(mj, mh);
  EXPECT_EQ(jit->total_cycles(), hs->total_cycles());
  EXPECT_EQ(jit->instructions(), hs->instructions());
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, JitDifferential,
    ::testing::Values(std::make_tuple(Arch::k64Lmul1, 1u),
                      std::make_tuple(Arch::k64Lmul8, 3u),
                      std::make_tuple(Arch::k64Fused, 3u),
                      std::make_tuple(Arch::k64Lmul8, 6u),
                      std::make_tuple(Arch::k64Lmul8, 8u),
                      // The 32-bit split halves through the split shims.
                      std::make_tuple(Arch::k32Lmul8, 1u),
                      std::make_tuple(Arch::k32Lmul8, 3u),
                      std::make_tuple(Arch::k32Lmul8, 6u),
                      std::make_tuple(Arch::k32Lmul8, 8u)));

// ---------------------------------------------------------------------------
// Cycle pinning and the demotion chain.
// ---------------------------------------------------------------------------

TEST(Jit, PermutationCyclesMatchPinnedPaperValues) {
  // Timing is pass-through from the recorded interpreter run: the paper's
  // cycle counts must survive the jit tier untouched. An ISA pin keeps the
  // SN=1 configs from auto-narrowing to the (unemittable) scalar kernels.
  KVX_REQUIRE_JIT_HOST();
  IsaGuard guard;
  sim::host_simd_force_isa(emittable_isas().back());

  const auto perm_cycles = [](Arch arch, ExecBackend want) {
    VectorKeccakConfig c{arch, 5, 24};
    c.backend = ExecBackend::kJit;
    VectorKeccak vk(c);
    EXPECT_EQ(vk.active_backend(), want) << arch_name(arch);
    std::vector<State> states(1);
    vk.permute(states);
    return vk.last_timing().permutation_cycles;
  };
  EXPECT_EQ(perm_cycles(Arch::k64Lmul1, ExecBackend::kJit), 2566u);
  EXPECT_EQ(perm_cycles(Arch::k64Lmul8, ExecBackend::kJit), 1894u);
  EXPECT_EQ(perm_cycles(Arch::k32Lmul8, ExecBackend::kJit), 3646u);
}

TEST(Jit, SplitArchEmitsNativeCodeWithCorrectDigests) {
  // The 32-bit split arch at SN=6 under automatic dispatch: native code,
  // no construction demotion.
  KVX_REQUIRE_JIT_HOST();
  VectorKeccakConfig c{Arch::k32Lmul8, 30, 24};
  c.backend = ExecBackend::kJit;
  VectorKeccak vk(c);
  EXPECT_EQ(vk.active_backend(), ExecBackend::kJit)
      << vk.last_fallback_error();
  EXPECT_EQ(vk.backend_fallbacks(), 0u);
  EXPECT_GT(vk.jit_code_bytes(), 0u);
  EXPECT_TRUE(vk.jit_isa().has_value());

  auto states = random_states(6, 0x5EED);
  auto golden = states;
  vk.permute(states);
  EXPECT_EQ(vk.last_backend(), ExecBackend::kJit);
  for (State& s : golden) keccak::permute(s);
  for (usize i = 0; i < states.size(); ++i) EXPECT_EQ(states[i], golden[i]);
}

TEST(Jit, UnlowerableProgramDemotesToHostSimdWithCorrectDigests) {
  // The pure-RVV ablation has no super-kernels to lower: its host-SIMD plan
  // is all replay, the jit has nothing to emit, and construction demotes
  // once, to host-simd, on every host.
  VectorKeccakConfig c{Arch::k64PureRvv, 15, 24};
  c.backend = ExecBackend::kJit;
  VectorKeccak vk(c);
  EXPECT_EQ(vk.active_backend(), ExecBackend::kHostSimd);
  EXPECT_EQ(vk.backend_fallbacks(), 1u);
  EXPECT_EQ(vk.jit_code_bytes(), 0u);
  EXPECT_FALSE(vk.jit_isa().has_value());

  auto states = random_states(3, 0x5EED);
  auto golden = states;
  vk.permute(states);
  for (State& s : golden) keccak::permute(s);
  for (usize i = 0; i < states.size(); ++i) EXPECT_EQ(states[i], golden[i]);
}

TEST(Jit, DispatchCountsTheSameTransposesAsHostSimd) {
  // The emitted code runs the plan's transposes through its shims, so one
  // jit dispatch must advance kvx_hostsimd_{packs,unpacks}_total exactly as
  // one host-simd dispatch of the same plan does — on a 64-bit plan and a
  // split one, with ragged pack groups.
  KVX_REQUIRE_JIT_HOST();
  IsaGuard guard;
  auto& packs = obs::MetricsRegistry::global().counter(
      "kvx_hostsimd_packs_total");
  auto& unpacks = obs::MetricsRegistry::global().counter(
      "kvx_hostsimd_unpacks_total");
  for (const HostSimdIsa isa : emittable_isas()) {
    sim::host_simd_force_isa(isa);
    for (const VectorKeccakConfig& c :
         {VectorKeccakConfig{Arch::k64Lmul8, 30, 24},
          VectorKeccakConfig{Arch::k32Lmul8, 30, 24}}) {
      SCOPED_TRACE(std::string(arch_name(c.arch)) + " " +
                   std::string(sim::host_simd_isa_name(isa)));
      const auto program = VectorKeccak::build_program(c);
      const auto hs = sim::lower_host_simd(
          sim::fuse_trace(sim::compile_trace(program->image, proc_config(c),
                                             verify_opts(*program, c))));
      const auto jit = sim::lower_jit(hs);
      const auto dispatch = [&](const auto& t) {
        sim::SimdProcessor p(proc_config(c));
        p.load_program(program->image);
        const u64 p0 = packs.value(), u0 = unpacks.value();
        t.execute(p.vector(), p.dmem(), p.config().cycle_model);
        return std::pair{packs.value() - p0, unpacks.value() - u0};
      };
      const auto want = dispatch(*hs);
      EXPECT_GT(want.first, 0u);
      EXPECT_GT(want.second, 0u);
      EXPECT_EQ(dispatch(*jit), want);
    }
  }
}

TEST(Jit, ScalarIsaResolutionDemotesToHostSimd) {
  // A scalar pin (or a non-x86-64 host, or KVX_JIT=OFF — all reject inside
  // lower_jit) must demote construction one tier, to host-simd, which runs
  // the same plan through its scalar kernels.
  IsaGuard guard;
  sim::host_simd_force_isa(HostSimdIsa::kScalar);
  VectorKeccakConfig c{Arch::k64Lmul8, 15, 24};
  c.backend = ExecBackend::kJit;
  VectorKeccak vk(c);
  EXPECT_EQ(vk.active_backend(), ExecBackend::kHostSimd);
  EXPECT_EQ(vk.backend_fallbacks(), 1u);

  auto states = random_states(3, 0x51A7);
  auto golden = states;
  vk.permute(states);
  for (State& s : golden) keccak::permute(s);
  for (usize i = 0; i < states.size(); ++i) EXPECT_EQ(states[i], golden[i]);
}

TEST(Jit, IsaDriftAtDispatchDemotesToHostSimdAndRecovers) {
  // The emitted code is pinned to one ISA; if the dispatch resolution moves
  // under it (a test pin here; CPUID never changes mid-process) execute()
  // must refuse rather than run mismatched code, and the per-dispatch
  // fail-soft retry lands on host-simd with correct results.
  KVX_REQUIRE_JIT_HOST();
  IsaGuard guard;
  const HostSimdIsa emitted = emittable_isas().back();
  sim::host_simd_force_isa(emitted);
  VectorKeccakConfig c{Arch::k64Lmul8, 15, 24};
  c.backend = ExecBackend::kJit;
  VectorKeccak vk(c);
  ASSERT_EQ(vk.active_backend(), ExecBackend::kJit);

  sim::host_simd_force_isa(HostSimdIsa::kScalar);
  auto states = random_states(3, 0xD41F7);
  auto golden = states;
  vk.permute(states);
  EXPECT_EQ(vk.last_backend(), ExecBackend::kHostSimd);
  EXPECT_EQ(vk.backend_fallbacks(), 1u);
  EXPECT_NE(vk.last_fallback_error().find("ISA changed"), std::string::npos);
  for (State& s : golden) keccak::permute(s);
  for (usize i = 0; i < states.size(); ++i) EXPECT_EQ(states[i], golden[i]);

  // The drift was the pin's fault, not the trace's: restoring the pin makes
  // the very next dispatch run native again, with no recompilation.
  sim::host_simd_force_isa(emitted);
  auto again = random_states(3, 0xD41F7);
  vk.permute(again);
  EXPECT_EQ(vk.last_backend(), ExecBackend::kJit);
  EXPECT_EQ(vk.backend_fallbacks(), 1u);
  for (usize i = 0; i < again.size(); ++i) EXPECT_EQ(again[i], states[i]);
}

// ---------------------------------------------------------------------------
// Trace-cache keying and occupancy gauges.
// ---------------------------------------------------------------------------

TEST(JitCache, KeysEmissionsPerIsaSharingOneHostSimdPlan) {
  KVX_REQUIRE_JIT_HOST();
  IsaGuard guard;
  VectorKeccakConfig c{Arch::k64Lmul8, 15, 24};
  const auto program = VectorKeccak::build_program(c);
  const auto opts = verify_opts(*program, c);
  auto& cache = sim::TraceCache::global();
  const auto isas = emittable_isas();

  sim::host_simd_force_isa(isas.front());
  const auto jit1 =
      cache.get_or_compile_jit(program->image, proc_config(c), opts);
  ASSERT_NE(jit1, nullptr);
  EXPECT_EQ(jit1->isa(), isas.front());
  // Second lookup under the same resolution hits, returning the identical
  // sealed buffer.
  EXPECT_EQ(
      cache.get_or_compile_jit(program->image, proc_config(c), opts).get(),
      jit1.get());
  // The emission wraps the SAME host-SIMD plan the host-simd tier hands
  // out — one plan, N per-ISA compilations of it.
  const auto hs =
      cache.get_or_compile_host_simd(program->image, proc_config(c), opts);
  EXPECT_EQ(jit1->shared_host_simd().get(), hs.get());

  if (isas.size() > 1) {
    // The resolved ISA is part of the jit key: an AVX2 emission and an
    // AVX-512 emission of one program coexist, both sharing the plan.
    sim::host_simd_force_isa(isas[1]);
    const auto jit2 =
        cache.get_or_compile_jit(program->image, proc_config(c), opts);
    EXPECT_NE(jit2.get(), jit1.get());
    EXPECT_EQ(jit2->isa(), isas[1]);
    EXPECT_EQ(jit2->shared_host_simd().get(), hs.get());
    sim::host_simd_force_isa(isas.front());
    EXPECT_EQ(
        cache.get_or_compile_jit(program->image, proc_config(c), opts).get(),
        jit1.get());
  }
}

TEST(JitCache, OccupancyGaugesTrackResidentArtifacts) {
  // kvx_trace_cache_entries / kvx_trace_cache_bytes must follow the cache
  // exactly: one host-SIMD plan plus one emission after a jit compile,
  // resident bytes covering the recording, fused trace, plan and
  // page-rounded W^X buffer, and both snapping back to zero on clear().
  IsaGuard guard;
  auto& cache = sim::TraceCache::global();
  auto& registry = obs::MetricsRegistry::global();
  obs::Gauge& entries_g = registry.gauge("kvx_trace_cache_entries");
  obs::Gauge& bytes_g = registry.gauge("kvx_trace_cache_bytes");

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  EXPECT_DOUBLE_EQ(entries_g.value(), 0.0);
  EXPECT_DOUBLE_EQ(bytes_g.value(), 0.0);

  VectorKeccakConfig c{Arch::k64Lmul8, 15, 24};
  const auto program = VectorKeccak::build_program(c);
  const auto opts = verify_opts(*program, c);
  u64 want_entries = 1;  // the host-simd plan (owning trace + fused)
  u64 jit_bytes = 0;
  if (sim::jit_supported() && !emittable_isas().empty()) {
    sim::host_simd_force_isa(emittable_isas().front());
    const auto jit =
        cache.get_or_compile_jit(program->image, proc_config(c), opts);
    want_entries = 2;  // + the native emission
    jit_bytes = jit->memory_bytes();
    EXPECT_GE(jit->memory_bytes(), jit->code_size());
  } else {
    (void)cache.get_or_compile_host_simd(program->image, proc_config(c),
                                         opts);
  }

  const sim::TraceCacheStats st = cache.stats();
  EXPECT_EQ(st.entries, want_entries);
  // Every resident artifact came from exactly one counted build: one
  // recording and one fusion pass per plan.
  EXPECT_EQ(st.lowerings + st.jit_compiles, st.entries);
  EXPECT_EQ(st.compiles, st.lowerings);
  EXPECT_EQ(st.fusions, st.lowerings);
  EXPECT_GT(st.resident_bytes, jit_bytes);
  EXPECT_DOUBLE_EQ(entries_g.value(), static_cast<double>(st.entries));
  EXPECT_DOUBLE_EQ(bytes_g.value(), static_cast<double>(st.resident_bytes));

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  EXPECT_DOUBLE_EQ(entries_g.value(), 0.0);
  EXPECT_DOUBLE_EQ(bytes_g.value(), 0.0);
}

// ---------------------------------------------------------------------------
// Disassembly self-check: the emitted bytes against the encoder allowlist.
// ---------------------------------------------------------------------------

TEST(JitDisasm, EmittedCodeDecodesEndToEndOnEveryIsa) {
  // Tile the whole emitted function with the length-decoder: every byte
  // must belong to an allowlisted instruction form and the instruction
  // stream must end exactly at code_size() (the literal pool is data and
  // deliberately outside the decodable prefix). A single table typo in the
  // encoder shifts the tiling and fails here.
  KVX_REQUIRE_JIT_HOST();
  IsaGuard guard;
  // A 64-bit plan and a split (32-bit) plan, whose transposes go through
  // the split shims with their movabs-loaded plane-offset pairs.
  for (const VectorKeccakConfig& c :
       {VectorKeccakConfig{Arch::k64Lmul8, 15, 24},
        VectorKeccakConfig{Arch::k32Lmul8, 30, 24}}) {
    SCOPED_TRACE(arch_name(c.arch));
    const auto program = VectorKeccak::build_program(c);
    const auto opts = verify_opts(*program, c);

    for (const HostSimdIsa isa : emittable_isas()) {
      sim::host_simd_force_isa(isa);
      const auto jit = sim::lower_jit(sim::lower_host_simd(sim::fuse_trace(
          sim::compile_trace(program->image, proc_config(c), opts))));
      ASSERT_EQ(jit->isa(), isa);
      ASSERT_GT(jit->code_size(), 0u);

      usize off = 0;
      usize insns = 0;
      while (off < jit->code_size()) {
        const auto d =
            sim::jit_decode_one(jit->code() + off, jit->code_size() - off);
        ASSERT_TRUE(d.has_value())
            << sim::host_simd_isa_name(isa) << ": undecodable byte 0x"
            << std::hex << unsigned{jit->code()[off]} << " at offset "
            << std::dec << off;
        ASSERT_GT(d->length, 0u);
        off += d->length;
        ++insns;
      }
      EXPECT_EQ(off, jit->code_size());
      // A 24-round emission is thousands of instructions; a trivially small
      // count means the emitter silently skipped the round bodies.
      EXPECT_GT(insns, 500u) << sim::host_simd_isa_name(isa);
      // Every round runs natively, so the deduplicated pool holds all 22
      // distinct round constants.
      EXPECT_EQ(jit->literal_count(), 22u);
      EXPECT_GE(jit->buffer_bytes(), jit->code_size());
    }
  }
}

TEST(JitDisasm, SixtyFourBitEmissionSizesArePinned) {
  // A 64-bit plan's emitted code is pinned to the byte: all 24 rounds in
  // one segment, each final-round kernel with live-out scratch (64lmul1:
  // χ; 64lmul8: θ and χ) preceded by a scratch shim call, and every
  // round's ι constant in the pool (22 distinct values: rounds 20 and 22
  // repeat the constants of rounds 6 and 5, counting from 0). Any change
  // to the 64-bit emitter moves these numbers and must update them on
  // purpose.
  KVX_REQUIRE_JIT_HOST();
  IsaGuard guard;
  struct Pin {
    Arch arch;
    unsigned sn;
    HostSimdIsa isa;
    usize code_size;
  };
  for (const Pin& pin : {Pin{Arch::k64Lmul1, 1, HostSimdIsa::kAvx2, 61014},
                         Pin{Arch::k64Lmul8, 3, HostSimdIsa::kAvx2, 61051},
                         Pin{Arch::k64Lmul1, 1, HostSimdIsa::kAvx512, 21816},
                         Pin{Arch::k64Lmul8, 3, HostSimdIsa::kAvx512, 22403}}) {
    if (!sim::host_simd_isa_available(pin.isa)) continue;
    sim::host_simd_force_isa(pin.isa);
    const VectorKeccakConfig c{pin.arch, 5 * pin.sn, 24};
    const auto program = VectorKeccak::build_program(c);
    const auto jit = sim::lower_jit(sim::lower_host_simd(
        sim::fuse_trace(sim::compile_trace(program->image, proc_config(c),
                                           verify_opts(*program, c)))));
    EXPECT_EQ(jit->code_size(), pin.code_size)
        << arch_name(pin.arch) << " SN=" << pin.sn << " "
        << sim::host_simd_isa_name(pin.isa);
    EXPECT_EQ(jit->literal_count(), 22u);
  }
}

TEST(JitDisasm, DecoderRefusesBytesOutsideTheAllowlist) {
  const u8 syscall_insn[] = {0x0F, 0x05};
  EXPECT_FALSE(sim::jit_decode_one(syscall_insn, 2).has_value());
  const u8 int3[] = {0xCC};
  EXPECT_FALSE(sim::jit_decode_one(int3, 1).has_value());
  // A truncated buffer never decodes past its end.
  const u8 movabs_prefix[] = {0x48, 0xB8, 0x01};
  EXPECT_FALSE(sim::jit_decode_one(movabs_prefix, 3).has_value());
}

// ---------------------------------------------------------------------------
// Engine reporting.
// ---------------------------------------------------------------------------

TEST(Jit, EngineReportsJitBackendIsaAndCodeBytes) {
  KVX_REQUIRE_JIT_HOST();
  IsaGuard guard;
  const HostSimdIsa isa = emittable_isas().front();
  sim::host_simd_force_isa(isa);

  engine::EngineConfig cfg;
  cfg.threads = 2;
  cfg.accel = {Arch::k64Lmul8, 15, 24};
  cfg.accel.backend = ExecBackend::kJit;
  engine::BatchHashEngine eng(cfg);

  const auto msgs = random_messages(10, 0x117);
  std::vector<engine::HashJob> jobs(msgs.size());
  for (usize i = 0; i < msgs.size(); ++i) {
    jobs[i].algo = engine::Algo::kSha3_256;
    jobs[i].message = msgs[i];
  }
  eng.submit_all(jobs);
  const auto results = eng.drain_results();
  for (usize i = 0; i < msgs.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].error;
    EXPECT_EQ(results[i].digest,
              keccak::hash(keccak::Sha3Function::kSha3_256, msgs[i], 32));
  }

  const engine::EngineStats st = eng.stats();
  EXPECT_EQ(st.backend, "jit");
  EXPECT_EQ(st.effective_backend, "jit");
  EXPECT_EQ(st.host_simd_isa, sim::host_simd_isa_name(isa));
  EXPECT_GT(st.jit_code_bytes, 0u);
  EXPECT_GT(st.host_simd_coverage, 0.5);
  EXPECT_GT(st.fusion_coverage, 0.5);
}

}  // namespace
}  // namespace kvx::core
