// Tests of the host-SIMD execution backend: the packed-state transpose
// (plain and lo/hi split) must round-trip arbitrary regfile contents
// (including ragged final groups), plan execution must be bit-identical to
// a full replay / the interpreter / the golden model across all paper
// configurations — the 32-bit split arch included — and on every host ISA
// compiled in, every round of a paper plan (the final one included) must
// run in one lowered segment, a trace with nothing to lower (pure RVV) must
// run as an all-replay plan, cycle reporting must pass the pinned paper
// values through untouched, the trace cache must serve one plan per
// program, and the engine must report the host-simd tier and dispatch ISA.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>

#include "kvx/common/error.hpp"
#include "kvx/common/rng.hpp"
#include "kvx/core/parallel_sha3.hpp"
#include "kvx/core/vector_keccak.hpp"
#include "kvx/engine/batch_engine.hpp"
#include "kvx/keccak/permutation.hpp"
#include "kvx/keccak/sha3.hpp"
#include "kvx/keccak/turboshake.hpp"
#include "kvx/obs/metrics.hpp"
#include "kvx/sim/compiled_trace.hpp"
#include "kvx/sim/host_simd.hpp"
#include "kvx/sim/jit/jit_trace.hpp"
#include "kvx/sim/trace_fusion.hpp"
#include "machine_state.hpp"

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

/// Restores automatic CPUID dispatch when a test that forces an ISA exits.
struct IsaGuard {
  ~IsaGuard() { sim::host_simd_force_isa(std::nullopt); }
};

// ---------------------------------------------------------------------------
// Packed-state transpose properties.
// ---------------------------------------------------------------------------

class PackTranspose : public ::testing::TestWithParam<std::tuple<u32, u32>> {
 protected:
  u32 sn() const { return std::get<0>(GetParam()); }
  u32 pack() const { return std::get<1>(GetParam()); }
};

TEST_P(PackTranspose, RoundTripsArbitraryRegfileContents) {
  // Pack, then unpack into a scrubbed copy: every lane byte of the covered
  // states must be restored exactly, and no byte outside them touched.
  const u32 rb = 40 * sn();  // five 64-bit lanes per state per row
  const u32 loc = 3 * rb;    // non-zero row offset, as in real plans
  SplitMix64 rng(0xC0DE + sn() * 16 + pack());
  std::vector<u8> file(loc + 5 * rb);
  for (u8& b : file) b = static_cast<u8>(rng.next());

  for (u32 s0 = 0; s0 < sn(); s0 += pack()) {
    std::vector<u64> buf(usize{25} * pack(), 0xAAAAAAAAAAAAAAAAull);
    sim::host_simd_pack(file.data(), loc, rb, sn(), s0, pack(), buf.data());

    // buf[(5y + x)·pack + p] == lane (x, y) of state s0 + p; pad lanes of
    // states at/beyond SN are zero-filled.
    for (u32 y = 0; y < 5; ++y) {
      for (u32 x = 0; x < 5; ++x) {
        for (u32 p = 0; p < pack(); ++p) {
          const u64 got = buf[(5 * y + x) * pack() + p];
          if (s0 + p >= sn()) {
            EXPECT_EQ(got, 0u) << "pad lane not zeroed";
            continue;
          }
          u64 want = 0;
          std::memcpy(&want,
                      &file[loc + y * rb + (5 * (s0 + p) + x) * 8], 8);
          EXPECT_EQ(got, want) << "x=" << x << " y=" << y << " p=" << p;
        }
      }
    }

    // Scrub the covered lanes, unpack, and require the whole file byte-for
    // byte equal to the original (covered lanes restored, rest untouched).
    std::vector<u8> scrubbed = file;
    for (u32 y = 0; y < 5; ++y) {
      for (u32 p = 0; p < pack() && s0 + p < sn(); ++p) {
        std::memset(&scrubbed[loc + y * rb + 5 * (s0 + p) * 8], 0x5C, 40);
      }
    }
    sim::host_simd_unpack(scrubbed.data(), loc, rb, sn(), s0, pack(),
                          buf.data());
    EXPECT_EQ(scrubbed, file) << "s0=" << s0;
  }
}

TEST_P(PackTranspose, SplitRoundTripsLoHiPlanes) {
  // The 32-bit arch's split pack joins word (x, y) of the lo planes and of
  // the hi planes into one 64-bit lane, hi << 32 | lo; split unpack must
  // restore both plane sets exactly and touch nothing else.
  const u32 rb = 20 * sn();  // five 32-bit words per state per row
  const u32 lo = 2 * rb;
  const u32 hi = 16 * rb;    // the program's v16 hi-half group
  SplitMix64 rng(0x5B17 + sn() * 16 + pack());
  std::vector<u8> file(hi + 5 * rb);
  for (u8& b : file) b = static_cast<u8>(rng.next());

  for (u32 s0 = 0; s0 < sn(); s0 += pack()) {
    std::vector<u64> buf(usize{25} * pack(), 0xAAAAAAAAAAAAAAAAull);
    sim::host_simd_pack_split(file.data(), lo, hi, rb, sn(), s0, pack(),
                              buf.data());
    for (u32 y = 0; y < 5; ++y) {
      for (u32 x = 0; x < 5; ++x) {
        for (u32 p = 0; p < pack(); ++p) {
          const u64 got = buf[(5 * y + x) * pack() + p];
          if (s0 + p >= sn()) {
            EXPECT_EQ(got, 0u) << "pad lane not zeroed";
            continue;
          }
          const usize e = y * rb + (5 * (s0 + p) + x) * 4;
          u32 want_lo = 0, want_hi = 0;
          std::memcpy(&want_lo, &file[lo + e], 4);
          std::memcpy(&want_hi, &file[hi + e], 4);
          EXPECT_EQ(got, (u64{want_hi} << 32) | want_lo)
              << "x=" << x << " y=" << y << " p=" << p;
        }
      }
    }

    std::vector<u8> scrubbed = file;
    for (u32 y = 0; y < 5; ++y) {
      for (u32 p = 0; p < pack() && s0 + p < sn(); ++p) {
        std::memset(&scrubbed[lo + y * rb + 5 * (s0 + p) * 4], 0x5C, 20);
        std::memset(&scrubbed[hi + y * rb + 5 * (s0 + p) * 4], 0xC5, 20);
      }
    }
    sim::host_simd_unpack_split(scrubbed.data(), lo, hi, rb, sn(), s0, pack(),
                                buf.data());
    EXPECT_EQ(scrubbed, file) << "s0=" << s0;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PackWidths, PackTranspose,
    ::testing::Combine(::testing::Values(1u, 3u, 6u, 8u),   // SN
                       ::testing::Values(1u, 2u, 4u, 8u)),  // states/register
    [](const auto& info) {
      return "sn" + std::to_string(std::get<0>(info.param)) + "pack" +
             std::to_string(std::get<1>(info.param));
    });

TEST(HostSimdPack, RaggedFinalGroupDropsPadLanes) {
  // SN=6, pack=4: the second group covers states 4..7 of which 6 and 7 are
  // padding. Unpacking must write states 4 and 5 only.
  const u32 sn = 6, pack = 4, rb = 40 * sn;
  SplitMix64 rng(0xBEEF);
  std::vector<u8> file(usize{5} * rb);
  for (u8& b : file) b = static_cast<u8>(rng.next());

  std::vector<u64> buf(usize{25} * pack);
  sim::host_simd_pack(file.data(), 0, rb, sn, 4, pack, buf.data());
  for (u32 i = 0; i < 25; ++i) {
    EXPECT_EQ(buf[i * pack + 2], 0u);  // state 6: pad
    EXPECT_EQ(buf[i * pack + 3], 0u);  // state 7: pad
  }

  // Flip every packed lane, unpack, and verify only states 4/5 changed.
  for (u64& v : buf) v = ~v;
  std::vector<u8> out = file;
  sim::host_simd_unpack(out.data(), 0, rb, sn, 4, pack, buf.data());
  for (u32 y = 0; y < 5; ++y) {
    for (u32 s = 0; s < sn; ++s) {
      for (u32 x = 0; x < 5; ++x) {
        u64 orig = 0, now = 0;
        std::memcpy(&orig, &file[y * rb + (5 * s + x) * 8], 8);
        std::memcpy(&now, &out[y * rb + (5 * s + x) * 8], 8);
        if (s >= 4) {
          EXPECT_EQ(now, ~orig) << "covered lane not written";
        } else {
          EXPECT_EQ(now, orig) << "lane outside the group was touched";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Differential: host-simd vs full replay, the interpreter and the jit.
// ---------------------------------------------------------------------------

class HostSimdDifferential
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

TEST_P(HostSimdDifferential, PermuteMatchesInterpreterBitExactly) {
  VectorKeccak interp(config(ExecBackend::kInterpreter));
  VectorKeccak hs(config(ExecBackend::kHostSimd));
  ASSERT_EQ(hs.active_backend(), ExecBackend::kHostSimd)
      << "host-simd lowering unexpectedly fell back";
  EXPECT_GT(hs.host_simd_coverage(), 0.5) << arch_name(arch());

  for (const u64 seed : {5u, 55u, 5555u}) {
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
    EXPECT_EQ(hs.last_timing().total_cycles,
              interp.last_timing().total_cycles);
    EXPECT_EQ(hs.last_timing().permutation_cycles,
              interp.last_timing().permutation_cycles);
    EXPECT_EQ(hs.last_timing().instructions,
              interp.last_timing().instructions);
  }
}

TEST_P(HostSimdDifferential, RegisterFileBitIdenticalToFullReplay) {
  // The lowered plan materializes exactly the last-writer values back to
  // the regfile, so the post-execute register file and data memory must be
  // byte-identical to a replay of every recorded record (and hence the
  // interpreter's).
  const VectorKeccakConfig cfg = config(ExecBackend::kInterpreter);
  const auto program = VectorKeccak::build_program(cfg);

  sim::TraceCompileOptions opts;
  opts.verify_base = program->image.symbol("state");
  opts.verify_len = usize{5} * cfg.ele_num * 8;
  const auto fused = sim::fuse_trace(
      sim::compile_trace(program->image, proc_config(cfg), opts));
  const auto hs = sim::lower_host_simd(fused);
  ASSERT_GT(hs->lowered_kernel_count(), 0u);

  sim::SimdProcessor pf(proc_config(cfg));
  sim::SimdProcessor ph(proc_config(cfg));
  pf.load_program(program->image);
  ph.load_program(program->image);

  SplitMix64 rng(0xFEED + sn());
  std::vector<u8> state_data(opts.verify_len);
  for (u8& byte : state_data) byte = static_cast<u8>(rng.next());
  pf.dmem().write_block(opts.verify_base, state_data);
  ph.dmem().write_block(opts.verify_base, state_data);

  hs->base().replay(0, hs->base().op_count(), pf.vector(), pf.dmem(),
                    pf.config().cycle_model);
  hs->execute(ph.vector(), ph.dmem(), ph.config().cycle_model);

  for (unsigned r = 0; r < 32; ++r) {
    EXPECT_EQ(ph.vector().get_register(r), pf.vector().get_register(r))
        << "v" << r;
  }
  std::vector<u8> mf(pf.dmem().size());
  std::vector<u8> mh(ph.dmem().size());
  pf.dmem().read_block(0, mf);
  ph.dmem().read_block(0, mh);
  EXPECT_EQ(mh, mf);
  EXPECT_EQ(hs->total_cycles(), hs->base().total_cycles());
}

TEST_P(HostSimdDifferential, Sha3DigestsMatchAcrossAllThreeBackends) {
  ParallelSha3 interp(config(ExecBackend::kInterpreter));
  ParallelSha3 hs(config(ExecBackend::kHostSimd));
  ParallelSha3 jit(config(ExecBackend::kJit));
  const auto msgs = random_messages(4 * sn() + 1, 0xF00D + sn());

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

TEST_P(HostSimdDifferential, EveryCompiledIsaProducesIdenticalResults) {
  // The plan is ISA-independent; each compiled-in dispatch width must
  // produce the same digests and the same pass-through cycles.
  IsaGuard guard;
  VectorKeccak interp(config(ExecBackend::kInterpreter));
  auto want = random_states(sn(), 0xABCD);
  interp.permute(want);

  for (const HostSimdIsa isa :
       {HostSimdIsa::kScalar, HostSimdIsa::kPortable, HostSimdIsa::kAvx2,
        HostSimdIsa::kAvx512}) {
    if (!sim::host_simd_isa_available(isa)) continue;
    sim::host_simd_force_isa(isa);
    ASSERT_EQ(sim::host_simd_active_isa(), isa);
    VectorKeccak hs(config(ExecBackend::kHostSimd));
    ASSERT_EQ(hs.active_backend(), ExecBackend::kHostSimd);
    auto got = random_states(sn(), 0xABCD);
    hs.permute(got);
    for (usize i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i])
          << sim::host_simd_isa_name(isa) << " state " << i;
    }
    EXPECT_EQ(hs.last_timing().permutation_cycles,
              interp.last_timing().permutation_cycles)
        << sim::host_simd_isa_name(isa);
  }
}

TEST_P(HostSimdDifferential, EveryTierLeavesTheInterpretersMachineState) {
  // One random staged state through the interpreter and through the
  // host-simd and (where it emits) jit tiers: register file, data memory,
  // final scalar registers and cycles must all be the interpreter's.
  const VectorKeccakConfig cfg = config(ExecBackend::kInterpreter);
  const auto program = VectorKeccak::build_program(cfg);
  sim::TraceCompileOptions opts;
  opts.verify_base = program->image.symbol("state");
  opts.verify_len = usize{5} * cfg.ele_num * 8;
  const auto hs = sim::lower_host_simd(sim::fuse_trace(
      sim::compile_trace(program->image, proc_config(cfg), opts)));

  SplitMix64 rng(0x7135 + sn());
  std::vector<u8> state_data(opts.verify_len);
  for (u8& byte : state_data) byte = static_cast<u8>(rng.next());
  const auto machine = [&] {
    auto p = std::make_unique<sim::SimdProcessor>(proc_config(cfg));
    p->load_program(program->image);
    p->dmem().write_block(opts.verify_base, state_data);
    return p;
  };
  const auto interp = machine();
  interp->run();
  std::vector<u8> want_mem(interp->dmem().size());
  interp->dmem().read_block(0, want_mem);
  std::array<u32, 32> want_x{};
  for (unsigned r = 0; r < 32; ++r) want_x[r] = interp->scalar().regs().read(r);

  const auto check = [&](const char* tier, const auto& t) {
    const auto p = machine();
    t.execute(p->vector(), p->dmem(), p->config().cycle_model);
    for (unsigned r = 0; r < 32; ++r) {
      EXPECT_EQ(p->vector().get_register(r), interp->vector().get_register(r))
          << tier << " v" << r;
    }
    std::vector<u8> mem(p->dmem().size());
    p->dmem().read_block(0, mem);
    EXPECT_EQ(mem, want_mem) << tier;
    EXPECT_EQ(t.final_scalar_regs(), want_x) << tier;
    EXPECT_EQ(t.total_cycles(), interp->cycles()) << tier;
    EXPECT_EQ(t.cycles_between(Markers::kPermStart, Markers::kPermEnd),
              interp->cycles_between(Markers::kPermStart, Markers::kPermEnd))
        << tier;
  };
  check("host-simd", *hs);
  // Both native tiers run a direct plan straight from the caller's states:
  // the staged states in, exactly the interpreter's stored states out.
  const auto region = want_mem.data() + opts.verify_base;
  const auto check_direct = [&](const char* tier, const auto& t) {
    auto states = test::unstaged_states(state_data.data(), sn());
    t.permute(states);
    EXPECT_EQ(states, test::unstaged_states(region, sn())) << tier;
  };
  ASSERT_EQ(hs->direct_state_base(), opts.verify_base);
  check_direct("host-simd direct", *hs);
  const HostSimdIsa isa = sim::host_simd_dispatch_isa(hs->sn());
  if (sim::jit_supported() && sim::jit_emits(isa, hs->sn())) {
    check_direct("jit", *sim::lower_jit(hs));
  }
  if (arch() == Arch::k32Lmul8) {
    EXPECT_EQ(hs->cycles_between(Markers::kPermStart, Markers::kPermEnd),
              3646u);
  }
}

TEST_P(HostSimdDifferential, DirectDispatchLeavesTheInterpretersMachine) {
  // The direct path through VectorKeccak under automatic dispatch: after
  // back-to-back dispatches processor() shows the interpreter's machine,
  // and at SN=1 on an AVX-512 host the plane-kernel counter proves that
  // every dispatch ran the plane kernels (elsewhere it must not move).
  test::expect_tier_at_interpreter_state(
      config(ExecBackend::kHostSimd), ExecBackend::kHostSimd, "host-simd",
      "kvx_hostsimd_dispatch_avx512_plane_total");
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, HostSimdDifferential,
    ::testing::Values(std::make_tuple(Arch::k64Lmul1, 1u),
                      std::make_tuple(Arch::k64Lmul8, 1u),
                      std::make_tuple(Arch::k64Lmul8, 3u),
                      std::make_tuple(Arch::k64Fused, 3u),
                      std::make_tuple(Arch::k64Lmul8, 6u),
                      std::make_tuple(Arch::k64Lmul8, 8u),
                      // The fused-ISE variant at every other plan SN.
                      std::make_tuple(Arch::k64Fused, 1u),
                      std::make_tuple(Arch::k64Fused, 6u),
                      std::make_tuple(Arch::k64Fused, 8u),
                      // The 32-bit split halves: the plane kernels (scalar
                      // without AVX-512) at SN=1, ragged pack groups at
                      // SN=3/6, a full AVX-512 group at 8.
                      std::make_tuple(Arch::k32Lmul8, 1u),
                      std::make_tuple(Arch::k32Lmul8, 3u),
                      std::make_tuple(Arch::k32Lmul8, 6u),
                      std::make_tuple(Arch::k32Lmul8, 8u)));

// ---------------------------------------------------------------------------
// Demotion, cycle pinning, cache keying, engine reporting.
// ---------------------------------------------------------------------------

TEST(HostSimd, PermutationCyclesMatchPinnedPaperValues) {
  const auto perm_cycles = [](Arch arch, ExecBackend want) {
    VectorKeccakConfig c{arch, 5, 24};
    c.backend = ExecBackend::kHostSimd;
    VectorKeccak vk(c);
    EXPECT_EQ(vk.active_backend(), want) << arch_name(arch);
    std::vector<State> states(1);
    vk.permute(states);
    return vk.last_timing().permutation_cycles;
  };
  EXPECT_EQ(perm_cycles(Arch::k64Lmul1, ExecBackend::kHostSimd), 2566u);
  EXPECT_EQ(perm_cycles(Arch::k64Lmul8, ExecBackend::kHostSimd), 1894u);
  // The 32-bit split halves lower too (the plane kernels at SN=1 under
  // AVX-512, scalar without), cycles intact.
  EXPECT_EQ(perm_cycles(Arch::k32Lmul8, ExecBackend::kHostSimd), 3646u);
}

/// The record kinds a Keccak step compiles to: everything but the loads,
/// stores, splats, copies and generic records around the permutation.
bool is_step_record(sim::TraceOpKind k) {
  using K = sim::TraceOpKind;
  switch (k) {
    case K::kBinVV: case K::kBinVS: case K::kSlideMod5: case K::kRotup64:
    case K::kRho64Row: case K::kRho32Row: case K::kRot32Pair: case K::kPiRow:
    case K::kRhoPiRow: case K::kIota: case K::kThetaCRow: case K::kChiRow:
      return true;
    default:
      return false;
  }
}

/// A paper plan runs every round natively: the state load replay, ONE
/// segment of 24 × 3 kernels, the state store replay — and the two replay
/// ranges hold no step record.
void expect_every_round_native(const sim::HostSimdTrace& hs) {
  const auto& items = hs.items();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(hs.segment_count(), 1u);
  EXPECT_EQ(items[1].kernel_count, 72u);
  for (const usize i : {usize{0}, usize{2}}) {
    ASSERT_EQ(items[i].kernel_count, 0u) << "item " << i;
    ASSERT_GT(items[i].count, 0u) << "item " << i;
    for (u32 r = items[i].first; r < items[i].first + items[i].count; ++r) {
      EXPECT_FALSE(is_step_record(hs.base().ops()[r].kind))
          << "record " << r << " replays in item " << i;
    }
  }
}

TEST(HostSimd, PaperPlansRunEveryRoundNatively) {
  // The final round's live-out θ/χ scratch is written back from its recipe,
  // so no round of a paper config falls out of the lowered segment — on
  // every ISA, for the host-SIMD plan and the jit emitted from it — and
  // the result is still the interpreter's.
  IsaGuard guard;
  for (const Arch arch : {Arch::k64Lmul1, Arch::k64Lmul8, Arch::k32Lmul8}) {
    for (const unsigned sn : {1u, 3u, 6u, 8u}) {
      SCOPED_TRACE(std::string(arch_name(arch)) + " SN=" + std::to_string(sn));
      const VectorKeccakConfig cfg{arch, 5 * sn, 24};
      const auto program = VectorKeccak::build_program(cfg);
      sim::TraceCompileOptions opts;
      opts.verify_base = program->image.symbol("state");
      opts.verify_len = usize{5} * cfg.ele_num * 8;
      const auto hs = sim::lower_host_simd(sim::fuse_trace(
          sim::compile_trace(program->image, proc_config(cfg), opts)));
      expect_every_round_native(*hs);

      VectorKeccakConfig ci = cfg;
      ci.backend = ExecBackend::kInterpreter;
      VectorKeccak interp(ci);
      auto want = random_states(sn, 0x24 + sn);
      interp.permute(want);
      for (const HostSimdIsa isa :
           {HostSimdIsa::kScalar, HostSimdIsa::kPortable, HostSimdIsa::kAvx2,
            HostSimdIsa::kAvx512}) {
        if (!sim::host_simd_isa_available(isa)) continue;
        SCOPED_TRACE(sim::host_simd_isa_name(isa));
        sim::host_simd_force_isa(isa);
        std::vector<ExecBackend> tiers{ExecBackend::kHostSimd};
        if (sim::jit_supported() && sim::jit_emits(isa, sn)) {
          expect_every_round_native(sim::lower_jit(hs)->host_simd());
          tiers.push_back(ExecBackend::kJit);
        }
        for (const ExecBackend tier : tiers) {
          VectorKeccakConfig ct = cfg;
          ct.backend = tier;
          VectorKeccak vk(ct);
          ASSERT_EQ(vk.active_backend(), tier);
          auto got = random_states(sn, 0x24 + sn);
          vk.permute(got);
          EXPECT_EQ(got, want) << sim::backend_name(tier);
        }
      }
    }
  }
}

TEST(HostSimd, SplitArchLowersWithCorrectDigests) {
  VectorKeccakConfig c{Arch::k32Lmul8, 30, 24};
  c.backend = ExecBackend::kHostSimd;
  VectorKeccak vk(c);
  EXPECT_EQ(vk.active_backend(), ExecBackend::kHostSimd);
  EXPECT_EQ(vk.backend_fallbacks(), 0u);
  EXPECT_GT(vk.host_simd_coverage(), 0.5);
  EXPECT_GT(vk.fusion_coverage(), 0.5);

  auto states = random_states(6, 0x5EED);
  auto golden = states;
  vk.permute(states);
  EXPECT_EQ(vk.last_backend(), ExecBackend::kHostSimd);
  for (State& s : golden) keccak::permute(s);
  for (usize i = 0; i < states.size(); ++i) EXPECT_EQ(states[i], golden[i]);
}

TEST(HostSimd, PureRvvLandsOnHostSimdAtInterpreterState) {
  // The pure-RVV ablation has no θ/ρπ/χ super-kernels to lower. Asked for
  // at jit or host-simd, it lands on host-simd as an all-replay plan (the
  // jit has nothing to emit and demotes once) that is not direct, and the
  // register file, data memory and cycles are the interpreter's — after
  // back-to-back dispatches, with full and partial batches.
  for (const unsigned sn : {1u, 3u, 6u, 8u}) {
    for (const ExecBackend asked :
         {ExecBackend::kHostSimd, ExecBackend::kJit}) {
      const std::string what = "SN=" + std::to_string(sn) + " asked " +
                               std::string(sim::backend_name(asked));
      SCOPED_TRACE(what);
      VectorKeccakConfig c{Arch::k64PureRvv, 5 * sn, 24};
      c.backend = asked;
      VectorKeccak vk(c);
      EXPECT_EQ(vk.active_backend(), ExecBackend::kHostSimd);
      EXPECT_EQ(vk.backend_fallbacks(), asked == ExecBackend::kJit ? 1u : 0u);
      EXPECT_EQ(vk.host_simd_coverage(), 0.0);
      test::expect_tier_at_interpreter_state(c, ExecBackend::kHostSimd, what);
    }
  }
}

TEST(HostSimd, NothingToLowerBuildsAnAllReplayPlan) {
  // Lowering a trace without super-kernel runs returns a plan of one
  // replay range over every record instead of throwing; the jit refuses
  // it (nothing to emit), which is what demotes jit to host-simd.
  const VectorKeccakConfig cfg{Arch::k64PureRvv, 15, 24};
  const auto program = VectorKeccak::build_program(cfg);
  sim::TraceCompileOptions opts;
  opts.verify_base = program->image.symbol("state");
  opts.verify_len = usize{5} * cfg.ele_num * 8;
  const auto trace =
      sim::compile_trace(program->image, proc_config(cfg), opts);
  const auto hs = sim::lower_host_simd(sim::fuse_trace(trace));
  EXPECT_EQ(hs->segment_count(), 0u);
  EXPECT_EQ(hs->lowered_kernel_count(), 0u);
  EXPECT_EQ(hs->sn(), 0u);
  EXPECT_FALSE(hs->direct_state_base().has_value());
  EXPECT_EQ(hs->lowered_coverage(), 0.0);
  ASSERT_EQ(hs->items().size(), 1u);
  EXPECT_EQ(hs->items()[0].kernel_count, 0u);
  EXPECT_EQ(hs->items()[0].first, 0u);
  EXPECT_EQ(hs->items()[0].count, trace->op_count());
  EXPECT_THROW((void)sim::lower_jit(hs), SimError);
}

TEST(HostSimd, TraceCacheServesOnePlanPerProgram) {
  // The cache builds one plan per program and configuration; the plan owns
  // its fused trace and the recording under it.
  sim::TraceCache::global().clear();
  VectorKeccakConfig c{Arch::k64Lmul8, 15, 24};
  const auto program = VectorKeccak::build_program(c);
  sim::TraceCompileOptions opts;
  opts.verify_base = program->image.symbol("state");
  opts.verify_len = usize{5} * c.ele_num * 8;

  const auto hs = sim::TraceCache::global().get_or_compile_host_simd(
      program->image, proc_config(c), opts);
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(&hs->fused().base(), &hs->base());
  EXPECT_GT(hs->base().op_count(), 0u);

  // Second lookup hits, returning the identical plan.
  const auto hs2 = sim::TraceCache::global().get_or_compile_host_simd(
      program->image, proc_config(c), opts);
  EXPECT_EQ(hs2.get(), hs.get());
  const sim::TraceCacheStats st = sim::TraceCache::global().stats();
  EXPECT_EQ(st.lowerings, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_GE(st.resident_bytes,
            hs->base().memory_bytes() + hs->fused().memory_bytes() +
                hs->memory_bytes());
}

TEST(HostSimd, TraceCacheKeysLoweringsSeparately) {
  // A host-simd plan and a jit emission of the same program coexist in the
  // cache: the emission is a distinct artifact keyed by its own salt, and
  // it wraps the SAME plan the host-simd tier hands out. Where nothing can
  // be emitted, the failed emission leaves the cached plan untouched.
  sim::TraceCache::global().clear();
  VectorKeccakConfig c{Arch::k64Lmul8, 15, 24};
  const auto program = VectorKeccak::build_program(c);
  sim::TraceCompileOptions opts;
  opts.verify_base = program->image.symbol("state");
  opts.verify_len = usize{5} * c.ele_num * 8;
  sim::TraceCache& cache = sim::TraceCache::global();

  const auto hs =
      cache.get_or_compile_host_simd(program->image, proc_config(c), opts);
  ASSERT_NE(hs, nullptr);
  const HostSimdIsa isa = sim::host_simd_dispatch_isa(hs->sn());
  if (sim::jit_supported() && sim::jit_emits(isa, hs->sn())) {
    const auto jit =
        cache.get_or_compile_jit(program->image, proc_config(c), opts);
    ASSERT_NE(jit, nullptr);
    EXPECT_EQ(jit->shared_host_simd().get(), hs.get());
    const auto jit2 =
        cache.get_or_compile_jit(program->image, proc_config(c), opts);
    EXPECT_EQ(jit2.get(), jit.get());
    const sim::TraceCacheStats st = cache.stats();
    EXPECT_EQ(st.jit_compiles, 1u);
    EXPECT_EQ(st.entries, 2u);
  } else {
    EXPECT_THROW(
        (void)cache.get_or_compile_jit(program->image, proc_config(c), opts),
        SimError);
    EXPECT_EQ(cache.stats().jit_compiles, 0u);
  }
  EXPECT_EQ(cache.stats().compiles, 1u);
  EXPECT_EQ(cache.stats().lowerings, 1u);
  EXPECT_EQ(
      cache.get_or_compile_host_simd(program->image, proc_config(c), opts)
          .get(),
      hs.get());
}

TEST(HostSimd, AutomaticDispatchRunsTheBestIsaAndPlanesAtSn1) {
  // In automatic mode every SN >= 2 runs the best available ISA, AVX-512
  // included however many of its lanes are padding; SN=1 runs the plane
  // kernels under AVX-512 and scalar without it. A pin always wins.
  if (std::getenv("KVX_HOST_SIMD_ISA") != nullptr) {
    GTEST_SKIP() << "KVX_HOST_SIMD_ISA pins the dispatch ISA";
  }
  IsaGuard guard;
  sim::host_simd_force_isa(std::nullopt);
  const HostSimdIsa best = sim::host_simd_active_isa();
  for (const u32 sn : {2u, 3u, 4u, 6u, 8u}) {
    EXPECT_EQ(sim::host_simd_dispatch_isa(sn), best) << "SN=" << sn;
    EXPECT_FALSE(sim::host_simd_plane_form(best, sn)) << "SN=" << sn;
  }
  const bool avx512 = sim::host_simd_isa_available(HostSimdIsa::kAvx512);
  const HostSimdIsa lone = sim::host_simd_dispatch_isa(1);
  EXPECT_EQ(lone, avx512 ? HostSimdIsa::kAvx512 : HostSimdIsa::kScalar);
  EXPECT_EQ(sim::host_simd_plane_form(lone, 1), avx512);
  EXPECT_EQ(sim::host_simd_form_name(lone, 1),
            avx512 ? "avx512-plane" : "scalar");
  for (const HostSimdIsa isa :
       {HostSimdIsa::kScalar, HostSimdIsa::kPortable, HostSimdIsa::kAvx2,
        HostSimdIsa::kAvx512}) {
    if (!sim::host_simd_isa_available(isa)) continue;
    sim::host_simd_force_isa(isa);
    for (const u32 sn : {1u, 3u, 8u}) {
      EXPECT_EQ(sim::host_simd_dispatch_isa(sn), isa)
          << sim::host_simd_isa_name(isa) << " SN=" << sn;
    }
  }
}

TEST(HostSimd, ZeroStateKatThroughEveryDirectForm) {
  // Keccak-f[1600] of the all-zero state, lane 0 = 0xF1258F7940E1DDE7,
  // through HostSimdTrace::permute (and the jit where it emits: AVX2) at
  // SN=1 on every compiled ISA: the plane kernels under AVX-512 — which
  // transpose nothing, so the pack counters stay put — and the packed ones
  // elsewhere.
  IsaGuard guard;
  const VectorKeccakConfig c{Arch::k64Lmul8, 5, 24};
  const auto program = VectorKeccak::build_program(c);
  sim::TraceCompileOptions opts;
  opts.verify_base = program->image.symbol("state");
  opts.verify_len = usize{5} * c.ele_num * 8;
  const auto hs = sim::lower_host_simd(sim::fuse_trace(
      sim::compile_trace(program->image, proc_config(c), opts)));
  ASSERT_TRUE(hs->direct_state_base().has_value());
  State want;
  keccak::permute(want);
  ASSERT_EQ(want.lane(0, 0), 0xF1258F7940E1DDE7ull);

  auto& registry = obs::MetricsRegistry::global();
  auto& hs_planes =
      registry.counter("kvx_hostsimd_dispatch_avx512_plane_total");
  auto& packs = registry.counter("kvx_hostsimd_packs_total");
  for (const HostSimdIsa isa :
       {HostSimdIsa::kScalar, HostSimdIsa::kPortable, HostSimdIsa::kAvx2,
        HostSimdIsa::kAvx512}) {
    if (!sim::host_simd_isa_available(isa)) continue;
    SCOPED_TRACE(sim::host_simd_isa_name(isa));
    sim::host_simd_force_isa(isa);
    const bool plane = isa == HostSimdIsa::kAvx512;
    const u64 planes0 = hs_planes.value(), packs0 = packs.value();
    std::vector<State> states(1);
    hs->permute(states);
    EXPECT_EQ(states[0], want);
    EXPECT_EQ(hs_planes.value() - planes0, plane ? 1u : 0u);
    EXPECT_EQ(packs.value() - packs0, plane ? 0u : 1u);
    if (sim::jit_supported() && sim::jit_emits(isa, 1)) {
      states.assign(1, State{});
      sim::lower_jit(hs)->permute(states);
      EXPECT_EQ(states[0], want);
    }
  }
}

TEST(HostSimd, TwelveRoundSn1PlanStartsMidSchedule) {
  // Keccak-p[1600,12] (rounds 12..23): the kernel list does not start at
  // round 0, so its ι constants must come from the plan. Both tiers under
  // automatic dispatch, on every paper arch, against the golden model and
  // the interpreter's machine (plane kernels proven by their counter where
  // they run; a jit request demotes to them).
  const char* planes = "kvx_hostsimd_dispatch_avx512_plane_total";
  const bool emits = sim::jit_supported() &&
                     sim::jit_emits(sim::host_simd_dispatch_isa(1), 1);
  for (const Arch arch :
       {Arch::k64Lmul1, Arch::k64Lmul8, Arch::k32Lmul8, Arch::k64Fused}) {
    SCOPED_TRACE(arch_name(arch));
    VectorKeccakConfig c{arch, 5, 12};
    c.first_round = 12;
    c.backend = ExecBackend::kHostSimd;
    VectorKeccak vk(c);
    auto states = random_states(1, 0x12);
    auto golden = states;
    keccak::permute_12(golden[0]);
    vk.permute(states);
    EXPECT_EQ(states, golden);
    test::expect_tier_at_interpreter_state(c, ExecBackend::kHostSimd,
                                           "host-simd", planes);
    c.backend = ExecBackend::kJit;
    test::expect_tier_at_interpreter_state(
        c, emits ? ExecBackend::kJit : ExecBackend::kHostSimd, "jit", planes);
  }
}

TEST(HostSimd, EngineReportsWhatSn1Runs) {
  // EngineStats::host_simd_isa names what the dispatches run: the plane
  // kernels at SN=1 under AVX-512 (a jit request demotes to them), the
  // dispatch ISA otherwise — also for the pure-RVV ablation, whose
  // all-replay plan is not direct and never runs the plane kernels.
  const HostSimdIsa isa = sim::host_simd_dispatch_isa(1);
  const auto msgs = random_messages(3, 0x5171);
  struct Case {
    Arch arch;
    ExecBackend backend;
    bool direct;
  };
  for (const Case& k : {Case{Arch::k64Lmul8, ExecBackend::kHostSimd, true},
                        Case{Arch::k64Lmul8, ExecBackend::kJit, true},
                        Case{Arch::k64PureRvv, ExecBackend::kHostSimd, false}}) {
    SCOPED_TRACE(std::string(arch_name(k.arch)) + " " +
                 std::string(sim::backend_name(k.backend)));
    engine::EngineConfig cfg;
    cfg.threads = 1;
    cfg.accel = {k.arch, 5, 24};
    cfg.accel.backend = k.backend;
    engine::BatchHashEngine eng(cfg);
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
    if (st.effective_backend == "jit") {
      EXPECT_FALSE(sim::host_simd_plane_form(isa, 1));
      EXPECT_EQ(st.host_simd_isa, sim::host_simd_isa_name(isa));
      continue;
    }
    EXPECT_EQ(st.effective_backend, "host-simd");
    EXPECT_EQ(st.host_simd_isa, k.direct ? sim::host_simd_form_name(isa, 1)
                                         : sim::host_simd_isa_name(isa));
    EXPECT_EQ(st.host_simd_isa == "avx512-plane",
              k.direct && isa == HostSimdIsa::kAvx512);
  }
}

TEST(HostSimd, EngineReportsHostSimdBackendAndIsa) {
  engine::EngineConfig cfg;
  cfg.threads = 2;
  cfg.accel = {Arch::k64Lmul8, 15, 24};
  cfg.accel.backend = ExecBackend::kHostSimd;
  engine::BatchHashEngine eng(cfg);

  const auto msgs = random_messages(10, 0xE16);
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
  EXPECT_EQ(st.backend, "host-simd");
  EXPECT_EQ(st.effective_backend, "host-simd");
  EXPECT_EQ(st.host_simd_isa,
            sim::host_simd_isa_name(sim::host_simd_dispatch_isa(3)));
  EXPECT_GT(st.host_simd_coverage, 0.5);
  EXPECT_GT(st.fusion_coverage, 0.5);
}

}  // namespace
}  // namespace kvx::core
