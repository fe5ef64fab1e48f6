// Shared checks of the simulated machine a dispatch leaves behind, read
// through VectorKeccak::processor() — which materializes a pending direct
// dispatch — so every tier is held to the interpreter's register file,
// data memory and timing.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "kvx/common/rng.hpp"
#include "kvx/core/vector_keccak.hpp"
#include "kvx/obs/metrics.hpp"
#include "kvx/sim/host_simd.hpp"

namespace kvx::test {

inline std::vector<keccak::State> seeded_states(usize n, u64 seed) {
  SplitMix64 rng(seed);
  std::vector<keccak::State> states(n);
  for (keccak::State& s : states) {
    for (u64& lane : s.flat()) lane = rng.next();
  }
  return states;
}

/// The `sn` states staged plane-major in `bytes`: row y at byte y·40·sn,
/// lane (x, y) of state s at element 5s + x.
inline std::vector<keccak::State> unstaged_states(const u8* bytes, usize sn) {
  std::vector<keccak::State> states(sn);
  for (usize s = 0; s < sn; ++s) {
    for (unsigned y = 0; y < 5; ++y) {
      for (unsigned x = 0; x < 5; ++x) {
        const u8* lane = bytes + y * 40 * sn + 8 * (5 * s + x);
        std::memcpy(&states[s].lane(x, y), lane, 8);
      }
    }
  }
  return states;
}

/// All 32 vector registers, the whole of data memory and the three timing
/// fields of `got` equal `want`'s.
inline void expect_same_machine(const core::VectorKeccak& got,
                                const core::VectorKeccak& want,
                                const std::string& what) {
  const sim::SimdProcessor& pg = got.processor();
  const sim::SimdProcessor& pw = want.processor();
  for (unsigned r = 0; r < 32; ++r) {
    EXPECT_EQ(pg.vector().get_register(r), pw.vector().get_register(r))
        << what << " v" << r;
  }
  std::vector<u8> mg(pg.dmem().size());
  std::vector<u8> mw(pw.dmem().size());
  pg.dmem().read_block(0, mg);
  pw.dmem().read_block(0, mw);
  EXPECT_EQ(mg, mw) << what << " dmem";
  EXPECT_EQ(got.last_timing().total_cycles, want.last_timing().total_cycles)
      << what;
  EXPECT_EQ(got.last_timing().permutation_cycles,
            want.last_timing().permutation_cycles)
      << what;
  EXPECT_EQ(got.last_timing().instructions, want.last_timing().instructions)
      << what;
}

/// `cfg` (built on `tier`) against the interpreter through processor(),
/// with a full batch and with one state fewer than SN: two back-to-back
/// dispatches of different inputs must leave exactly the machine of an
/// interpreter that ran only the second, and a third dispatch after that
/// read must leave the machine of the third. With `plane_counter` named,
/// each of the three dispatches must advance that counter by one when it
/// runs the plane kernels (sim::host_simd_plane_form at the dispatch ISA),
/// and not at all otherwise.
inline void expect_tier_at_interpreter_state(
    core::VectorKeccakConfig cfg, sim::ExecBackend tier,
    const std::string& what, const char* plane_counter = nullptr) {
  core::VectorKeccakConfig icfg = cfg;
  icfg.backend = sim::ExecBackend::kInterpreter;
  const usize sn = cfg.sn();
  const bool plane = sim::host_simd_plane_form(
      sim::host_simd_dispatch_isa(cfg.sn()), cfg.sn());
  for (const usize n : {sn, sn - 1}) {
    SCOPED_TRACE(what + " with " + std::to_string(n) + " of SN=" +
                 std::to_string(sn) + " states");
    core::VectorKeccak vk(cfg);
    ASSERT_EQ(vk.active_backend(), tier) << vk.last_fallback_error();
    core::VectorKeccak interp(icfg);
    const auto first = seeded_states(n, 0xA5 + sn);
    const auto second = seeded_states(n, 0x5A + sn);
    obs::Counter* planes =
        plane_counter != nullptr
            ? &obs::MetricsRegistry::global().counter(plane_counter)
            : nullptr;
    const u64 planes0 = planes != nullptr ? planes->value() : 0;

    auto got = first;
    vk.permute(got);
    got = second;
    vk.permute(got);
    EXPECT_EQ(vk.last_backend(), tier);
    auto want = second;
    interp.permute(want);
    EXPECT_EQ(got, want);
    expect_same_machine(vk, interp, "second of two dispatches");

    got = first;
    vk.permute(got);
    want = first;
    interp.permute(want);
    EXPECT_EQ(got, want);
    expect_same_machine(vk, interp, "dispatch after a read");
    if (planes != nullptr) {
      EXPECT_EQ(planes->value() - planes0, plane ? 3u : 0u) << plane_counter;
    }
  }
}

}  // namespace kvx::test
