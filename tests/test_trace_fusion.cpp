// Tests of the fusion matcher, run through the host-SIMD plan and the jit
// against the interpreter: digests, full vector register file, data memory
// and cycle counts must be bit-identical across the paper configurations
// plus the fused-ISE variant, with a random register file checked on every
// host-SIMD ISA and jit emission; the 32-bit round must fuse to three
// kernels (θ32, ρπ32, split χι) in every round, the final one included;
// scratch without a recipe must still demote to per-record replay when it
// is live-out; constant-stride gathers/scatters must compile to strided
// records that match per-element access; and unrecognizable programs must
// become one replay range.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <tuple>

#include "kvx/common/error.hpp"
#include "kvx/common/rng.hpp"
#include "kvx/core/parallel_sha3.hpp"
#include "kvx/core/vector_keccak.hpp"
#include "kvx/engine/batch_engine.hpp"
#include "kvx/keccak/permutation.hpp"
#include "kvx/keccak/sha3.hpp"
#include "kvx/sim/compiled_trace.hpp"
#include "kvx/sim/host_simd.hpp"
#include "kvx/sim/jit/jit_trace.hpp"
#include "kvx/sim/trace_fusion.hpp"

namespace kvx::core {
namespace {

using keccak::State;
using sim::ExecBackend;
using sim::HostSimdIsa;

/// Restores automatic CPUID dispatch when a test that forces an ISA exits.
struct IsaGuard {
  ~IsaGuard() { sim::host_simd_force_isa(std::nullopt); }
};

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
    m.resize(rng.next() % 500);  // mixes short, rate-boundary and multi-block
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

/// The paper configurations plus the fused-ISE variant and the widest SN,
/// so every matcher form (standard θ, vthetac, ρπ rows, fused vrhopi/vchi,
/// 32-bit split halves, row-wise LMUL=1 χ) is exercised.
class FusionDifferential
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

TEST_P(FusionDifferential, PermuteMatchesInterpreterBitExactly) {
  VectorKeccak interp(config(ExecBackend::kInterpreter));
  VectorKeccak hs(config(ExecBackend::kHostSimd));
  ASSERT_EQ(hs.active_backend(), ExecBackend::kHostSimd)
      << "host-simd compilation unexpectedly fell back";
  // The Keccak programs must actually fuse — the permutation loop is
  // nothing but θ/ρπ/χι patterns, so well over half the records should be
  // covered by super-kernels.
  EXPECT_GT(hs.fusion_coverage(), 0.5) << arch_name(arch());

  for (const u64 seed : {7u, 77u, 7777u}) {
    auto a = random_states(sn(), seed);
    auto b = a;
    auto golden = a;
    interp.permute(a);
    hs.permute(b);
    for (State& s : golden) keccak::permute(s);
    for (usize i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], golden[i]) << "interpreter diverged from golden model";
      EXPECT_EQ(b[i], a[i]) << arch_name(arch()) << " state " << i;
    }
    // Timing passes through from the recorded interpreter run untouched.
    EXPECT_EQ(hs.last_timing().total_cycles,
              interp.last_timing().total_cycles);
    EXPECT_EQ(hs.last_timing().permutation_cycles,
              interp.last_timing().permutation_cycles);
    EXPECT_EQ(hs.last_timing().instructions,
              interp.last_timing().instructions);
  }
}

TEST_P(FusionDifferential, RandomizedRegisterFileSeedReplay) {
  // Seed machines with the same random register file and state data, run
  // one through the interpreter and the others through the host-SIMD plan
  // on every compiled ISA and the jit on every emittable ISA, and compare
  // every vector register and all of data memory against the
  // interpreter's. This is the strongest check on the
  // liveness pass and the scratch recipes: an elided scratch write that
  // was actually live-out, or a live-out row written from a wrong recipe,
  // would surface as a register mismatch here.
  const VectorKeccakConfig cfg = config(ExecBackend::kInterpreter);
  const auto program = VectorKeccak::build_program(cfg);

  sim::TraceCompileOptions opts;
  opts.verify_base = program->image.symbol("state");
  opts.verify_len = usize{5} * cfg.ele_num * 8;
  const auto fused = sim::fuse_trace(
      sim::compile_trace(program->image, proc_config(cfg), opts));
  ASSERT_GT(fused->super_kernel_count(), 0u);
  const auto hs = sim::lower_host_simd(fused);

  SplitMix64 rng(0xFADE + sn());
  std::vector<std::vector<u8>> regs(32);
  for (auto& row : regs) {
    row.resize(fused->base().reg_bytes());
    for (u8& byte : row) byte = static_cast<u8>(rng.next());
  }
  std::vector<u8> state_data(opts.verify_len);
  for (u8& byte : state_data) byte = static_cast<u8>(rng.next());
  const auto machine = [&] {
    auto p = std::make_unique<sim::SimdProcessor>(proc_config(cfg));
    p->load_program(program->image);
    for (unsigned r = 0; r < 32; ++r) p->vector().set_register(r, regs[r]);
    p->dmem().write_block(opts.verify_base, state_data);
    return p;
  };
  const auto interp = machine();
  interp->run();
  std::vector<u8> want_mem(interp->dmem().size());
  interp->dmem().read_block(0, want_mem);

  const auto check = [&](const std::string& tier, const auto& t) {
    const auto p = machine();
    t.execute(p->vector(), p->dmem(), p->config().cycle_model);
    for (unsigned r = 0; r < 32; ++r) {
      EXPECT_EQ(p->vector().get_register(r), interp->vector().get_register(r))
          << tier << " v" << r;
    }
    std::vector<u8> mem(p->dmem().size());
    p->dmem().read_block(0, mem);
    EXPECT_EQ(mem, want_mem) << tier;
    EXPECT_EQ(t.total_cycles(), interp->cycles()) << tier;
    EXPECT_EQ(t.instructions(), interp->stats().instructions) << tier;
  };
  IsaGuard guard;
  for (const HostSimdIsa isa :
       {HostSimdIsa::kScalar, HostSimdIsa::kPortable, HostSimdIsa::kAvx2,
        HostSimdIsa::kAvx512}) {
    if (!sim::host_simd_isa_available(isa)) continue;
    sim::host_simd_force_isa(isa);
    const std::string name(sim::host_simd_isa_name(isa));
    check("host-simd/" + name, *hs);
    if (sim::jit_supported() &&
        (isa == HostSimdIsa::kAvx2 || isa == HostSimdIsa::kAvx512)) {
      check("jit/" + name, *sim::lower_jit(hs));
    }
  }
}

TEST_P(FusionDifferential, Sha3DigestsMatchAcrossAllThreeBackends) {
  ParallelSha3 interp(config(ExecBackend::kInterpreter));
  ParallelSha3 hs(config(ExecBackend::kHostSimd));
  ParallelSha3 jit(config(ExecBackend::kJit));
  const auto msgs = random_messages(4 * sn() + 1, 0xFACE + sn());

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

INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, FusionDifferential,
    ::testing::Values(std::make_tuple(Arch::k64Lmul1, 1u),
                      std::make_tuple(Arch::k64Lmul1, 6u),
                      std::make_tuple(Arch::k64Lmul8, 3u),
                      std::make_tuple(Arch::k32Lmul8, 3u),
                      std::make_tuple(Arch::k32Lmul8, 8u),
                      std::make_tuple(Arch::k64Fused, 3u),
                      std::make_tuple(Arch::k64Lmul8, 6u)));

TEST(TraceFusion, PermutationCyclesMatchPinnedPaperValues) {
  // Cycle pass-through: the fused plan, asked for at the top of the chain
  // (jit where it emits, else its host-SIMD plan), must report the same
  // pinned paper-model cycle counts as the interpreter.
  const auto perm_cycles = [](Arch arch) {
    VectorKeccakConfig c{arch, 5, 24};
    c.backend = ExecBackend::kJit;
    VectorKeccak vk(c);
    EXPECT_NE(vk.active_backend(), ExecBackend::kInterpreter);
    EXPECT_GT(vk.fusion_coverage(), 0.5) << arch_name(arch);
    std::vector<State> states(1);
    vk.permute(states);
    return vk.last_timing().permutation_cycles;
  };
  EXPECT_EQ(perm_cycles(Arch::k64Lmul1), 2566u);
  EXPECT_EQ(perm_cycles(Arch::k64Lmul8), 1894u);
  EXPECT_EQ(perm_cycles(Arch::k32Lmul8), 3646u);
}

TEST(TraceFusion, SplitChiIotaFusesToOneKernelPerRound) {
  // The 32-bit round is θ32, ρπ32 and ONE split χι: χ(lo) + χ(hi) + the
  // ι(lo)/ι(hi) pair, carrying the joined 64-bit round constant. The final
  // round's θ32 and χι have live-out scratch; they stay fused and write it
  // back, with no fall-back to replay or to the χ halves. The host-SIMD
  // plan must match the base trace's per-record replay byte for byte.
  const VectorKeccakConfig cfg{Arch::k32Lmul8, 15, 24};
  const auto program = VectorKeccak::build_program(cfg);
  sim::TraceCompileOptions opts;
  opts.verify_base = program->image.symbol("state");
  opts.verify_len = usize{5} * cfg.ele_num * 8;
  const auto base =
      sim::compile_trace(program->image, proc_config(cfg), opts);
  const auto fused = sim::fuse_trace(base);

  std::vector<sim::FusedOpKind> kernels;
  std::vector<u64> rcs;
  for (const sim::FusedOp& f : fused->fused_ops()) {
    if (f.kind == sim::FusedOpKind::kReplayRange) continue;
    kernels.push_back(f.kind);
    if (f.kind == sim::FusedOpKind::kChi32) {
      EXPECT_EQ(f.count, 28u);
      EXPECT_NE(f.flags & sim::kFusedHasIota, 0);
      rcs.push_back(f.iota_rc);
    }
  }
  ASSERT_EQ(kernels.size(), 24u * 3);
  ASSERT_EQ(rcs.size(), 24u);
  for (usize r = 0; r < 24; ++r) {
    EXPECT_EQ(kernels[3 * r], sim::FusedOpKind::kTheta32) << "round " << r;
    EXPECT_EQ(kernels[3 * r + 1], sim::FusedOpKind::kRhoPi32) << "round " << r;
    EXPECT_EQ(kernels[3 * r + 2], sim::FusedOpKind::kChi32) << "round " << r;
    EXPECT_EQ(rcs[r], keccak::round_constants()[r]) << "round " << r;
  }

  sim::SimdProcessor pt(proc_config(cfg));
  sim::SimdProcessor pf(proc_config(cfg));
  pt.load_program(program->image);
  pf.load_program(program->image);
  SplitMix64 rng(0x5417);
  std::vector<u8> row(pt.vector().reg_bytes());
  for (unsigned r = 0; r < 32; ++r) {
    for (u8& byte : row) byte = static_cast<u8>(rng.next());
    pt.vector().set_register(r, row);
    pf.vector().set_register(r, row);
  }
  std::vector<u8> state_data(opts.verify_len);
  for (u8& byte : state_data) byte = static_cast<u8>(rng.next());
  pt.dmem().write_block(opts.verify_base, state_data);
  pf.dmem().write_block(opts.verify_base, state_data);
  base->replay(0, base->op_count(), pt.vector(), pt.dmem(),
               pt.config().cycle_model);
  sim::lower_host_simd(fused)->execute(pf.vector(), pf.dmem(),
                                       pf.config().cycle_model);
  for (unsigned r = 0; r < 32; ++r) {
    EXPECT_EQ(pf.vector().get_register(r), pt.vector().get_register(r))
        << "v" << r;
  }
  std::vector<u8> mt(pt.dmem().size());
  std::vector<u8> mf(pf.dmem().size());
  pt.dmem().read_block(0, mt);
  pf.dmem().read_block(0, mf);
  EXPECT_EQ(mf, mt);
}

TEST(TraceFusion, StridedGatherScatterRecordsMatchPerElementAccess) {
  // Gathers and scatters whose resolved addresses have a constant stride
  // (indexed with 8i / 8i + 4 like the 32-bit program's lo/hi exchange, or
  // vlse/vsse) compile to one strided record each; an irregular index
  // vector keeps the per-element record. Replay must match the
  // interpreter's element-by-element LSU exactly.
  const auto program = assembler::assemble(R"(
    la a0, data
    li t1, 5
    vsetvli x0, t1, e32, m1, tu, mu
    la a1, idx_lo
    vle32.v v30, (a1)
    la a1, idx_hi
    vle32.v v31, (a1)
    la a1, idx_perm
    vle32.v v29, (a1)
    vluxei32.v v1, (a0), v30
    vluxei32.v v2, (a0), v31
    vluxei32.v v3, (a0), v29
    li t0, 12
    vlse32.v v4, (a0), t0
    vxor.vv v5, v1, v2
    vxor.vv v5, v5, v3
    vxor.vv v5, v5, v4
    la a2, out
    vsuxei32.v v5, (a2), v30
    vsuxei32.v v4, (a2), v31
    la a3, out2
    vsuxei32.v v3, (a3), v29
    vsse32.v v1, (a3), t0
    ebreak
.data
data:
    .word 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88
    .word 0x99, 0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF, 0x100
idx_lo:
    .word 0, 8, 16, 24, 32
idx_hi:
    .word 4, 12, 20, 28, 36
idx_perm:
    .word 12, 0, 36, 4, 20
out:
    .zero 64
out2:
    .zero 64
  )");
  sim::ProcessorConfig cfg;
  cfg.vector.elen_bits = 64;
  cfg.vector.ele_num = 5;
  const auto trace = sim::compile_trace(program, cfg, {});

  usize strided_loads = 0, strided_stores = 0, gathers = 0, scatters = 0;
  const sim::TraceOp* first_strided = nullptr;
  for (const sim::TraceOp& op : trace->ops()) {
    switch (op.kind) {
      case sim::TraceOpKind::kLoadStrided:
        ++strided_loads;
        if (first_strided == nullptr) first_strided = &op;
        EXPECT_EQ(op.n, 5u);
        break;
      case sim::TraceOpKind::kStoreStrided: ++strided_stores; break;
      case sim::TraceOpKind::kLoadGather: ++gathers; break;
      case sim::TraceOpKind::kStoreScatter: ++scatters; break;
      default: break;
    }
  }
  EXPECT_EQ(strided_loads, 3u);   // 8i, 8i + 4, vlse stride 12
  EXPECT_EQ(strided_stores, 3u);  // 8i, 8i + 4, vsse stride 12
  EXPECT_EQ(gathers, 1u);         // idx_perm stays per element
  EXPECT_EQ(scatters, 1u);
  ASSERT_NE(first_strided, nullptr);
  EXPECT_EQ(first_strided->imm, 8);

  sim::SimdProcessor pi(cfg);
  sim::SimdProcessor pt(cfg);
  pi.load_program(program);
  pt.load_program(program);
  pi.run();
  trace->replay(0, trace->op_count(), pt.vector(), pt.dmem(),
                pt.config().cycle_model);
  for (unsigned r = 0; r < 32; ++r) {
    EXPECT_EQ(pt.vector().get_register(r), pi.vector().get_register(r))
        << "v" << r;
  }
  std::vector<u8> mi(pi.dmem().size());
  std::vector<u8> mt(pt.dmem().size());
  pi.dmem().read_block(0, mi);
  pt.dmem().read_block(0, mt);
  EXPECT_EQ(mt, mi);

  // The span is checked again, as one span, against the memory a replay
  // is handed: one that ends inside the record's span rejects it.
  sim::Memory short_mem(first_strided->aux + 20);
  const auto strided_index =
      static_cast<usize>(first_strided - trace->ops().data());
  EXPECT_THROW(trace->replay(strided_index, 1, pt.vector(), short_mem,
                             pt.config().cycle_model),
               SimError);
}

TEST(TraceFusion, StridedMemoryTransfersCheckTheirSpanOnce) {
  sim::Memory mem(64);
  for (u32 i = 0; i < 16; ++i) mem.write32(4 * i, 0x100 + i);
  std::array<u8, 12> out{};
  mem.read_strided(8, 16, 4, out);  // elements at 8, 24, 40
  u32 words[3];
  std::memcpy(words, out.data(), sizeof words);
  EXPECT_EQ(words[0], 0x102u);
  EXPECT_EQ(words[1], 0x106u);
  EXPECT_EQ(words[2], 0x10Au);
  // Ascending element order: with stride 0 the last element wins, as it
  // does element by element.
  const std::array<u8, 8> two = {1, 0, 0, 0, 2, 0, 0, 0};
  mem.write_strided(60, 0, 4, two);
  EXPECT_EQ(mem.read32(60), 2u);
  // Out of bounds, misaligned base, misaligned stride, partial element.
  EXPECT_THROW(mem.read_strided(40, 16, 4, out), SimError);
  EXPECT_THROW(mem.read_strided(2, 16, 4, out), SimError);
  EXPECT_THROW(mem.read_strided(0, 6, 4, out), SimError);
  EXPECT_THROW(mem.write_strided(0, 8, 8, std::span(two).first(6)), SimError);
}

TEST(TraceFusion, NonFusibleProgramFallsBackToPerRecordReplay) {
  // A hand-built program with none of the Keccak step patterns: the fusion
  // pass must produce zero super-kernels (one big replay range), the
  // host-SIMD plan one replay item, and running it must still be
  // bit-identical to the interpreter.
  const auto program = assembler::assemble(R"(
    la a0, data
    vsetvli x0, x0, e64, m1, tu, mu
    vle64.v v1, (a0)
    vxor.vv v2, v1, v1
    vadd.vv v3, v1, v1
    vand.vv v4, v3, v1
    vse64.v v4, (a0)
    ebreak
.data
data:
    .dword 1, 2, 3, 4, 5
  )");
  sim::ProcessorConfig cfg;
  cfg.vector.elen_bits = 64;
  cfg.vector.ele_num = 5;
  const auto base = sim::compile_trace(program, cfg, {});
  const auto fused = sim::fuse_trace(base);
  EXPECT_EQ(fused->super_kernel_count(), 0u);
  EXPECT_EQ(fused->fused_record_count(), 0u);
  EXPECT_EQ(fused->coverage(), 0.0);
  ASSERT_EQ(fused->fused_ops().size(), 1u);
  EXPECT_EQ(fused->fused_ops()[0].kind, sim::FusedOpKind::kReplayRange);
  EXPECT_EQ(fused->fused_ops()[0].count, base->op_count());
  const auto hs = sim::lower_host_simd(fused);
  ASSERT_EQ(hs->items().size(), 1u);
  EXPECT_EQ(hs->items()[0].kernel_count, 0u);
  EXPECT_EQ(hs->items()[0].count, base->op_count());

  sim::SimdProcessor pi(cfg);
  sim::SimdProcessor pf(cfg);
  pi.load_program(program);
  pf.load_program(program);
  pi.run();
  hs->execute(pf.vector(), pf.dmem(), pf.config().cycle_model);
  for (unsigned r = 0; r < 32; ++r) {
    EXPECT_EQ(pf.vector().get_register(r), pi.vector().get_register(r))
        << "v" << r;
  }
  std::vector<u8> mi(pi.dmem().size());
  std::vector<u8> mf(pf.dmem().size());
  pi.dmem().read_block(0, mi);
  pf.dmem().read_block(0, mf);
  EXPECT_EQ(mf, mi);
}

TEST(TraceFusion, LiveScratchWithoutRecipeStillDemotes) {
  // θ, then the in-place ρ rows and a π scatter into v10..v14, then the
  // stores. Everything is live at the end, so both groups have live-out
  // scratch: θ's v5/v6/v7 have recipes and stay fused (written back), the
  // ρ'd v0..v4 have none, so the ρπ group must still demote to per-record
  // replay. A random register file must come out of the host-SIMD plan as
  // the interpreter's.
  const auto program = assembler::assemble(R"(
    li s1, 5
    vsetvli x0, s1, e64, m1, tu, mu
    la a0, state
    vle64.v v0, (a0)
    addi a1, a0, 40
    vle64.v v1, (a1)
    addi a1, a1, 40
    vle64.v v2, (a1)
    addi a1, a1, 40
    vle64.v v3, (a1)
    addi a1, a1, 40
    vle64.v v4, (a1)
    vxor.vv v5, v3, v4
    vxor.vv v6, v1, v2
    vxor.vv v7, v0, v6
    vxor.vv v5, v5, v7
    vslideupm.vi v6, v5, 1
    vslidedownm.vi v7, v5, 1
    vrotup.vi v7, v7, 1
    vxor.vv v5, v6, v7
    vxor.vv v0, v0, v5
    vxor.vv v1, v1, v5
    vxor.vv v2, v2, v5
    vxor.vv v3, v3, v5
    vxor.vv v4, v4, v5
    v64rho.vi v0, v0, 0
    v64rho.vi v1, v1, 1
    v64rho.vi v2, v2, 2
    v64rho.vi v3, v3, 3
    v64rho.vi v4, v4, 4
    vpi.vi v10, v0, 0
    vpi.vi v10, v1, 1
    vpi.vi v10, v2, 2
    vpi.vi v10, v3, 3
    vpi.vi v10, v4, 4
    vse64.v v10, (a0)
    ebreak
.data
state:
    .zero 200
  )");
  sim::ProcessorConfig cfg;
  cfg.vector.elen_bits = 64;
  cfg.vector.ele_num = 5;
  const auto base = sim::compile_trace(program, cfg, {});
  const auto fused = sim::fuse_trace(base);

  ASSERT_EQ(fused->super_kernel_count(), 1u);
  const sim::FusedOp* theta = nullptr;
  for (const sim::FusedOp& f : fused->fused_ops()) {
    EXPECT_NE(f.kind, sim::FusedOpKind::kRhoPi64) << "ρπ was not demoted";
    if (f.kind == sim::FusedOpKind::kTheta64) theta = &f;
  }
  ASSERT_NE(theta, nullptr);
  ASSERT_EQ(theta->scratch_count, 3u);
  const u32 rb = static_cast<u32>(base->reg_bytes());
  const sim::ScratchRow* rows =
      fused->scratch_rows().data() + theta->scratch_first;
  using V = sim::ScratchValue;
  const std::array<std::pair<u32, V>, 3> want = {
      std::pair{5 * rb, V::kThetaD}, std::pair{6 * rb, V::kParityPrev},
      std::pair{7 * rb, V::kParityNextRot}};
  for (const auto& [off, value] : want) {
    const auto* row = std::find_if(
        rows, rows + 3, [&](const sim::ScratchRow& r) { return r.off == off; });
    ASSERT_NE(row, rows + 3) << "no scratch row at v" << off / rb;
    EXPECT_EQ(row->value, value) << "v" << off / rb;
  }

  sim::SimdProcessor pi(cfg);
  sim::SimdProcessor pf(cfg);
  pi.load_program(program);
  pf.load_program(program);
  SplitMix64 rng(0xDE30);
  std::vector<u8> row(base->reg_bytes());
  for (unsigned r = 0; r < 32; ++r) {
    for (u8& byte : row) byte = static_cast<u8>(rng.next());
    pi.vector().set_register(r, row);
    pf.vector().set_register(r, row);
  }
  std::vector<u8> state_data(200);
  for (u8& byte : state_data) byte = static_cast<u8>(rng.next());
  pi.dmem().write_block(program.symbol("state"), state_data);
  pf.dmem().write_block(program.symbol("state"), state_data);
  pi.run();
  sim::lower_host_simd(fused)->execute(pf.vector(), pf.dmem(),
                                       pf.config().cycle_model);
  for (unsigned r = 0; r < 32; ++r) {
    EXPECT_EQ(pf.vector().get_register(r), pi.vector().get_register(r))
        << "v" << r;
  }
  std::vector<u8> mi(pi.dmem().size());
  std::vector<u8> mf(pf.dmem().size());
  pi.dmem().read_block(0, mi);
  pf.dmem().read_block(0, mf);
  EXPECT_EQ(mf, mi);
}

TEST(TraceFusion, EngineStatsReportFusionCoverageAndLatency) {
  // EngineStats::fusion_coverage reads the matcher result the host-SIMD
  // plan owns.
  const auto msgs = random_messages(12, 0x1234);
  std::vector<engine::HashJob> jobs(msgs.size());
  for (usize i = 0; i < msgs.size(); ++i) {
    jobs[i] = {engine::Algo::kSha3_256, msgs[i]};
  }
  engine::EngineConfig cfg;
  cfg.threads = 2;
  cfg.accel = {Arch::k64Lmul8, 15, 24};
  cfg.accel.backend = ExecBackend::kHostSimd;
  engine::BatchHashEngine eng(cfg);
  eng.submit_all(jobs);
  (void)eng.drain();
  const engine::EngineStats st = eng.stats();
  EXPECT_EQ(st.backend, "host-simd");
  EXPECT_GT(st.fusion_coverage, 0.5);
  EXPECT_EQ(st.latency.count, jobs.size());
  EXPECT_GT(st.latency.p50_ns, 0u);
  EXPECT_GE(st.latency.p99_ns, st.latency.p50_ns);
}

}  // namespace
}  // namespace kvx::core
