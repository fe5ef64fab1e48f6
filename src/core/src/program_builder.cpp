#include "kvx/core/program_builder.hpp"

#include <cstdarg>
#include <cstdio>

#include "kvx/common/error.hpp"
#include "kvx/common/strings.hpp"
#include "kvx/keccak/permutation.hpp"
#include "kvx/sim/scalar_core.hpp"

namespace kvx::core {
namespace {

/// Tiny assembly emitter: collects lines, supports printf-style emission.
class Emitter {
 public:
  void raw(const std::string& s) { out_ += s; out_ += '\n'; }

  void op(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string line(static_cast<usize>(n), '\0');
    std::vsnprintf(line.data(), static_cast<usize>(n) + 1, fmt, args);
    va_end(args);
    out_ += "    ";
    out_ += line;
    out_ += '\n';
  }

  void label(const char* name) { out_ += name; out_ += ":\n"; }
  void comment(const char* text) { out_ += "    # "; out_ += text; out_ += '\n'; }
  void blank() { out_ += '\n'; }

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

void emit_marker(Emitter& e, u32 id) {
  e.op("csrwi 0x%X, %u", sim::csr::kMarker, id);
}

// ---------------------------------------------------------------------------
// 64-bit architecture (Algorithms 2 and 3).
// ---------------------------------------------------------------------------

/// θ step at LMUL=1 (shared by Algorithm 2 and Algorithm 3).
void emit_theta64(Emitter& e) {
  e.comment("theta step");
  e.op("vxor.vv v5,v3,v4");
  e.op("vxor.vv v6,v1,v2");
  e.op("vxor.vv v7,v0,v6");
  e.op("vxor.vv v5,v5,v7");
  e.op("vslideupm.vi v6,v5,1");
  e.op("vslidedownm.vi v7,v5,1");
  e.op("vrotup.vi v7,v7,1");
  e.op("vxor.vv v5,v6,v7");
  e.op("vxor.vv v0,v0,v5");
  e.op("vxor.vv v1,v1,v5");
  e.op("vxor.vv v2,v2,v5");
  e.op("vxor.vv v3,v3,v5");
  e.op("vxor.vv v4,v4,v5");
}

/// One round body per Algorithm 2 (LMUL = 1 throughout).
void emit_round64_lmul1(Emitter& e, bool sm) {
  emit_theta64(e);
  if (sm) emit_marker(e, Markers::kStepRho);
  e.comment("rho step");
  for (int y = 0; y < 5; ++y) e.op("v64rho.vi v%d,v%d,%d", y, y, y);
  if (sm) emit_marker(e, Markers::kStepPi);
  e.comment("pi step");
  for (int y = 0; y < 5; ++y) e.op("vpi.vi v5,v%d,%d", y, y);
  if (sm) emit_marker(e, Markers::kStepChi);
  e.comment("chi step");
  for (int k = 0; k < 5; ++k) e.op("vslidedownm.vi v%d,v%d,1", 10 + k, 5 + k);
  for (int k = 0; k < 5; ++k) e.op("vxor.vx v%d,v%d,s2", 10 + k, 10 + k);
  for (int k = 0; k < 5; ++k) e.op("vslidedownm.vi v%d,v%d,2", 15 + k, 5 + k);
  for (int k = 0; k < 5; ++k) e.op("vand.vv v%d,v%d,v%d", 10 + k, 10 + k, 15 + k);
  for (int k = 0; k < 5; ++k) e.op("vxor.vv v%d,v%d,v%d", k, 5 + k, 10 + k);
  if (sm) emit_marker(e, Markers::kStepIota);
  e.comment("iota step");
  e.op("viota.vx v0,v0,s3");
}

/// One round body per Algorithm 3 (ρ, π, χ at LMUL = 8, VL = 5·EleNum).
void emit_round64_lmul8(Emitter& e, bool sm) {
  emit_theta64(e);
  if (sm) emit_marker(e, Markers::kStepRho);
  e.comment("rho step (LMUL=8)");
  e.op("vsetvli x0,s5,e64,m8,tu,mu");
  e.op("v64rho.vi v0,v0,-1");
  if (sm) emit_marker(e, Markers::kStepPi);
  e.comment("pi step (LMUL=8)");
  e.op("vpi.vi v8,v0,-1");
  if (sm) emit_marker(e, Markers::kStepChi);
  e.comment("chi step (LMUL=8)");
  e.op("vslidedownm.vi v16,v8,1");
  e.op("vxor.vx v16,v16,s2");
  e.op("vslidedownm.vi v24,v8,2");
  e.op("vand.vv v16,v16,v24");
  e.op("vxor.vv v0,v8,v16");
  if (sm) emit_marker(e, Markers::kStepIota);
  e.comment("iota step");
  e.op("vsetvli x0,s1,e64,m1,tu,mu");
  e.op("viota.vx v0,v0,s3");
}

/// One round using the fused-instruction extension (paper §5 future work):
/// θ's slide/rotate/xor combine collapses into vthetac, ρ∘π into vrhopi,
/// and the whole χ row computation into vchi.
void emit_round64_fused(Emitter& e, bool sm) {
  e.comment("theta step (fused parity-combine)");
  e.op("vxor.vv v5,v3,v4");
  e.op("vxor.vv v6,v1,v2");
  e.op("vxor.vv v7,v0,v6");
  e.op("vxor.vv v5,v5,v7");
  e.op("vthetac.vv v6,v5");
  for (int y = 0; y < 5; ++y) e.op("vxor.vv v%d,v%d,v6", y, y);
  if (sm) emit_marker(e, Markers::kStepRho);
  e.comment("fused rho+pi step (LMUL=8)");
  e.op("vsetvli x0,s5,e64,m8,tu,mu");
  if (sm) emit_marker(e, Markers::kStepPi);  // rho and pi are one instruction
  e.op("vrhopi.vi v8,v0,-1");
  if (sm) emit_marker(e, Markers::kStepChi);
  e.comment("fused chi step (LMUL=8)");
  e.op("vchi.vv v0,v8");
  if (sm) emit_marker(e, Markers::kStepIota);
  e.comment("iota step");
  e.op("vsetvli x0,s1,e64,m1,tu,mu");
  e.op("viota.vx v0,v0,s3");
}

/// One round with the LMUL = 4 + 1 split the paper's §4.1 rejects: the
/// first four planes are grouped (m4), the fifth runs alone (m1), paying a
/// vsetvli reconfiguration at every hand-over.
void emit_round64_lmul4(Emitter& e, bool sm) {
  emit_theta64(e);
  if (sm) emit_marker(e, Markers::kStepRho);
  e.comment("rho step (LMUL=4 group, then the fifth plane at LMUL=1)");
  e.op("vsetvli x0,s6,e64,m4,tu,mu");
  e.op("v64rho.vi v0,v0,-1");
  e.op("vsetvli x0,s1,e64,m1,tu,mu");
  e.op("v64rho.vi v4,v4,4");
  if (sm) emit_marker(e, Markers::kStepPi);
  e.comment("pi step (4 + 1)");
  e.op("vsetvli x0,s6,e64,m4,tu,mu");
  e.op("vpi.vi v8,v0,-1");
  e.op("vsetvli x0,s1,e64,m1,tu,mu");
  e.op("vpi.vi v8,v4,4");
  if (sm) emit_marker(e, Markers::kStepChi);
  e.comment("chi step (4 + 1)");
  e.op("vsetvli x0,s6,e64,m4,tu,mu");
  e.op("vslidedownm.vi v16,v8,1");
  e.op("vxor.vx v16,v16,s2");
  e.op("vslidedownm.vi v24,v8,2");
  e.op("vand.vv v16,v16,v24");
  e.op("vxor.vv v0,v8,v16");
  e.op("vsetvli x0,s1,e64,m1,tu,mu");
  e.op("vslidedownm.vi v20,v12,1");
  e.op("vxor.vx v20,v20,s2");
  e.op("vslidedownm.vi v28,v12,2");
  e.op("vand.vv v20,v20,v28");
  e.op("vxor.vv v4,v12,v20");
  if (sm) emit_marker(e, Markers::kStepIota);
  e.comment("iota step");
  e.op("viota.vx v0,v0,s3");
}

std::string build_source_64(const ProgramOptions& o) {
  const bool lmul8 = o.arch == Arch::k64Lmul8;
  const bool fused = o.arch == Arch::k64Fused;
  const bool lmul4 = o.arch == Arch::k64Lmul4Plus1;
  const unsigned row_bytes = o.ele_num * 8;
  Emitter e;
  e.raw("# Keccak-f[1600], 64-bit architecture, " +
        std::string(lmul4 ? "LMUL=4+1 (the alternative SS4.1 rejects)"
                    : fused ? "fused-instruction extension (paper SS5 future work)"
                    : lmul8 ? "LMUL=8 (Algorithm 3)"
                            : "LMUL=1 (Algorithm 2)"));
  e.raw(strfmt("# EleNum=%u, SN=%u, rounds=%u", o.ele_num, o.ele_num / 5,
               o.rounds));
  e.raw(".text");
  e.comment("prologue: s1=EleNum, s2=-1 (NOT via XOR), s3=round, s4=rounds");
  e.op("li s1, %u", o.ele_num);
  e.op("li s2, -1");
  e.op("li s3, %u", o.first_round);
  e.op("li s4, %u", o.first_round + o.rounds);
  if (lmul8 || fused) e.op("li s5, %u", 5 * o.ele_num);
  if (lmul4) e.op("li s6, %u", 4 * o.ele_num);
  e.op("vsetvli x0,s1,e64,m1,tu,mu");
  e.comment("load the five planes from data memory");
  e.op("la a0, state");
  e.op("mv a1, a0");
  for (int y = 0; y < 5; ++y) {
    e.op("vle64.v v%d,(a1)", y);
    if (y != 4) e.op("addi a1,a1,%u", row_bytes);
  }
  e.blank();

  const auto emit_round = [&](bool sm) {
    if (lmul4) {
      emit_round64_lmul4(e, sm);
    } else if (fused) {
      emit_round64_fused(e, sm);
    } else if (lmul8) {
      emit_round64_lmul8(e, sm);
    } else {
      emit_round64_lmul1(e, sm);
    }
  };
  if (o.single_round) {
    emit_marker(e, Markers::kRoundStart);
    emit_round(true);
    emit_marker(e, Markers::kRoundEnd);
  } else if (o.absorb_blocks > 0) {
    // On-device sponge: for each staged block, XOR it into the state held
    // in v0..v4 and run the full permutation — the state never leaves the
    // register file between blocks (paper SS4.1: "without loading or
    // storing intermediate data to/from memory").
    e.comment("on-device absorb loop");
    e.op("li s6, 0");
    e.op("li s7, %u", o.absorb_blocks);
    e.op("la a2, blocks");
    emit_marker(e, Markers::kPermStart);
    e.label("absorb_block");
    emit_marker(e, Markers::kAbsorb);
    e.op("mv a1, a2");
    for (int y = 0; y < 5; ++y) {
      e.op("vle64.v v%d,(a1)", 10 + y);
      if (y != 4) e.op("addi a1,a1,%u", row_bytes);
    }
    for (int y = 0; y < 5; ++y) e.op("vxor.vv v%d,v%d,v%d", y, y, 10 + y);
    e.op("addi a2,a2,%u", 5 * row_bytes);
    e.op("li s3, %u", o.first_round);
    e.label("permutation");
    emit_marker(e, Markers::kRoundStart);
    emit_round(true);
    emit_marker(e, Markers::kRoundEnd);
    e.comment("next round");
    e.op("addi s3,s3,1");
    e.op("blt s3,s4,permutation");
    e.comment("next block");
    e.op("addi s6,s6,1");
    e.op("blt s6,s7,absorb_block");
    emit_marker(e, Markers::kPermEnd);
  } else {
    emit_marker(e, Markers::kPermStart);
    e.label("permutation");
    emit_marker(e, Markers::kRoundStart);
    emit_round(true);
    emit_marker(e, Markers::kRoundEnd);
    e.comment("next round");
    e.op("addi s3,s3,1");
    e.op("blt s3,s4,permutation");
    emit_marker(e, Markers::kPermEnd);
  }

  e.blank();
  e.comment("store the five planes back");
  e.op("mv a1, a0");
  for (int y = 0; y < 5; ++y) {
    e.op("vse64.v v%d,(a1)", y);
    if (y != 4) e.op("addi a1,a1,%u", row_bytes);
  }
  e.op("ebreak");
  e.blank();
  e.raw(".data");
  e.label("state");
  e.op(".zero %u", 5 * row_bytes);
  if (o.absorb_blocks > 0) {
    e.label("blocks");
    e.op(".zero %u", o.absorb_blocks * 5 * row_bytes);
  }
  return e.take();
}

// ---------------------------------------------------------------------------
// 32-bit architecture (§3.2): lo halves in v0..v4, hi halves in v16..v20.
// ---------------------------------------------------------------------------

void emit_round32_lmul8(Emitter& e, bool sm) {
  e.comment("theta step (LMUL=1, both halves)");
  // Column parities: B_lo -> v5, B_hi -> v21.
  e.op("vxor.vv v5,v3,v4");
  e.op("vxor.vv v6,v1,v2");
  e.op("vxor.vv v7,v0,v6");
  e.op("vxor.vv v5,v5,v7");
  e.op("vxor.vv v21,v19,v20");
  e.op("vxor.vv v22,v17,v18");
  e.op("vxor.vv v23,v16,v22");
  e.op("vxor.vv v21,v21,v23");
  // C[x] = B[x-1] ^ ROT64(B[x+1], 1) via the paired rotate instructions.
  e.op("vslideupm.vi v6,v5,1");
  e.op("vslideupm.vi v22,v21,1");
  e.op("vslidedownm.vi v7,v5,1");
  e.op("vslidedownm.vi v23,v21,1");
  e.op("v32lrotup.vv v8,v23,v7");
  e.op("v32hrotup.vv v24,v23,v7");
  e.op("vxor.vv v5,v6,v8");
  e.op("vxor.vv v21,v22,v24");
  for (int y = 0; y < 5; ++y) e.op("vxor.vv v%d,v%d,v5", y, y);
  for (int y = 0; y < 5; ++y) e.op("vxor.vv v%d,v%d,v21", 16 + y, 16 + y);
  if (sm) emit_marker(e, Markers::kStepRho);
  e.comment("rho step (LMUL=8, paired hi/lo rotation)");
  e.op("vsetvli x0,s5,e32,m8,tu,mu");
  e.op("v32lrho.vv v8,v16,v0");
  e.op("v32hrho.vv v24,v16,v0");
  if (sm) emit_marker(e, Markers::kStepPi);
  e.comment("pi step (LMUL=8, both halves)");
  e.op("vpi.vi v0,v8,-1");
  e.op("vpi.vi v16,v24,-1");
  if (sm) emit_marker(e, Markers::kStepChi);
  e.comment("chi step (LMUL=8), low then high halves");
  e.op("vslidedownm.vi v8,v0,1");
  e.op("vxor.vx v8,v8,s2");
  e.op("vslidedownm.vi v24,v0,2");
  e.op("vand.vv v8,v8,v24");
  e.op("vxor.vv v0,v0,v8");
  e.op("vslidedownm.vi v8,v16,1");
  e.op("vxor.vx v8,v8,s2");
  e.op("vslidedownm.vi v24,v16,2");
  e.op("vand.vv v8,v8,v24");
  e.op("vxor.vv v16,v16,v8");
  if (sm) emit_marker(e, Markers::kStepIota);
  e.comment("iota step (split RC table; runs twice per round)");
  e.op("vsetvli x0,s1,e32,m1,tu,mu");
  e.op("viota.vx v0,v0,s6");
  e.op("viota.vx v16,v16,s7");
}

std::string build_source_32(const ProgramOptions& o) {
  const unsigned row_bytes = o.ele_num * 8;  // 64-bit lanes in memory
  Emitter e;
  e.raw("# Keccak-f[1600], 32-bit architecture, LMUL=8 (paper §3.2/§4.1)");
  e.raw(strfmt("# EleNum=%u, SN=%u, rounds=%u", o.ele_num, o.ele_num / 5,
               o.rounds));
  e.raw(".text");
  e.op("li s1, %u", o.ele_num);
  e.op("li s5, %u", 5 * o.ele_num);
  e.op("li s2, -1");
  e.op("li s3, %u", o.first_round);
  e.op("li s4, %u", o.first_round + o.rounds);
  e.op("li s6, %u", 2 * o.first_round);      // RC index, low halves
  e.op("li s7, %u", 2 * o.first_round + 1);  // RC index, high halves
  e.op("vsetvli x0,s1,e32,m1,tu,mu");
  e.comment("index vectors for the hi/lo lane exchange (indexed addressing)");
  e.op("la a1, idx_lo");
  e.op("vle32.v v30,(a1)");
  e.op("la a1, idx_hi");
  e.op("vle32.v v31,(a1)");
  e.comment("indexed loads: lo words -> v0..v4, hi words -> v16..v20");
  e.op("la a0, state");
  e.op("mv a1, a0");
  for (int y = 0; y < 5; ++y) {
    e.op("vluxei32.v v%d,(a1),v30", y);
    e.op("vluxei32.v v%d,(a1),v31", 16 + y);
    if (y != 4) e.op("addi a1,a1,%u", row_bytes);
  }
  e.blank();

  if (o.single_round) {
    emit_marker(e, Markers::kRoundStart);
    emit_round32_lmul8(e, true);
    emit_marker(e, Markers::kRoundEnd);
  } else {
    emit_marker(e, Markers::kPermStart);
    e.label("permutation");
    emit_marker(e, Markers::kRoundStart);
    emit_round32_lmul8(e, true);
    emit_marker(e, Markers::kRoundEnd);
    e.comment("next round");
    e.op("addi s6,s6,2");
    e.op("addi s7,s7,2");
    e.op("addi s3,s3,1");
    e.op("blt s3,s4,permutation");
    emit_marker(e, Markers::kPermEnd);
  }

  e.blank();
  e.comment("indexed stores back to the 64-bit lane layout");
  e.op("mv a1, a0");
  for (int y = 0; y < 5; ++y) {
    e.op("vsuxei32.v v%d,(a1),v30", y);
    e.op("vsuxei32.v v%d,(a1),v31", 16 + y);
    if (y != 4) e.op("addi a1,a1,%u", row_bytes);
  }
  e.op("ebreak");
  e.blank();
  e.raw(".data");
  e.label("state");
  e.op(".zero %u", 5 * row_bytes);
  e.label("idx_lo");
  for (unsigned i = 0; i < o.ele_num; ++i) e.op(".word %u", 8 * i);
  e.label("idx_hi");
  for (unsigned i = 0; i < o.ele_num; ++i) e.op(".word %u", 8 * i + 4);
  return e.take();
}

// ---------------------------------------------------------------------------
// Pure-RVV ablation (64-bit, no custom instructions).
// ---------------------------------------------------------------------------
//
// Register map:
//   v0..v4   state A           v15/v16/v17  gather indices (down1/up1/down2)
//   v5..v9   E / F scratch     v18..v22     rho shift amounts per plane
//   v10..v14 chi scratch       v23..v27     rho complement shifts per plane
//   v28      staging (pi indices / iota RC row)
// Scalars: s8=63, s9=idx_pi base, s10=scratch base, t5=rc row cursor.

void emit_round64_purervv(Emitter& e, const ProgramOptions& o, bool sm) {
  const unsigned row_bytes = o.ele_num * 8;
  e.comment("theta (vrgather slides + shift/or rotate)");
  e.op("vxor.vv v5,v3,v4");
  e.op("vxor.vv v6,v1,v2");
  e.op("vxor.vv v7,v0,v6");
  e.op("vxor.vv v5,v5,v7");
  e.op("vrgather.vv v6,v5,v16");   // B[x-1]
  e.op("vrgather.vv v7,v5,v15");   // B[x+1]
  e.op("vsll.vi v8,v7,1");
  e.op("vsrl.vx v9,v7,s8");
  e.op("vor.vv v7,v8,v9");
  e.op("vxor.vv v5,v6,v7");
  for (int y = 0; y < 5; ++y) e.op("vxor.vv v%d,v%d,v5", y, y);
  if (sm) emit_marker(e, Markers::kStepRho);
  e.comment("rho (per-element shift vectors, three ops per plane)");
  for (int y = 0; y < 5; ++y) {
    e.op("vsll.vv v10,v%d,v%d", y, 18 + y);
    e.op("vsrl.vv v11,v%d,v%d", y, 23 + y);
    e.op("vor.vv v%d,v10,v11", 5 + y);
  }
  if (sm) emit_marker(e, Markers::kStepPi);
  e.comment("pi (indexed-store scatter through memory, then reload)");
  e.op("mv t2, s9");
  for (int b = 0; b < 5; ++b) {
    e.op("vle32.v v28,(t2)");
    e.op("addi t2,t2,%u", o.ele_num * 4);
    e.op("vsuxei32.v v%d,(s10),v28", 5 + b);
  }
  e.op("mv t3, s10");
  for (int y = 0; y < 5; ++y) {
    e.op("vle64.v v%d,(t3)", 5 + y);
    if (y != 4) e.op("addi t3,t3,%u", row_bytes);
  }
  if (sm) emit_marker(e, Markers::kStepChi);
  e.comment("chi (vrgather slides)");
  for (int y = 0; y < 5; ++y) {
    e.op("vrgather.vv v10,v%d,v15", 5 + y);
    e.op("vxor.vx v10,v10,s2");
    e.op("vrgather.vv v11,v%d,v17", 5 + y);
    e.op("vand.vv v10,v10,v11");
    e.op("vxor.vv v%d,v%d,v10", y, 5 + y);
  }
  if (sm) emit_marker(e, Markers::kStepIota);
  e.comment("iota (staged RC row from memory)");
  e.op("vle64.v v28,(t5)");
  e.op("addi t5,t5,%u", row_bytes);
  e.op("vxor.vv v0,v0,v28");
}

std::string build_source_64_purervv(const ProgramOptions& o) {
  const unsigned row_bytes = o.ele_num * 8;
  const unsigned sn = o.ele_num / 5;
  Emitter e;
  e.raw("# Keccak-f[1600], 64-bit, standard RVV 1.0 instructions ONLY");
  e.raw("# (ablation: what the programmer must do without the custom ISE)");
  e.raw(strfmt("# EleNum=%u, SN=%u, rounds=%u", o.ele_num, sn, o.rounds));
  e.raw(".text");
  e.op("li s1, %u", o.ele_num);
  e.op("li s2, -1");
  e.op("li s3, 0");
  e.op("li s4, %u", o.rounds);
  e.op("li s8, 63");
  e.op("vsetvli x0,s1,e64,m1,tu,mu");
  e.comment("constant vectors: gather indices and rho shift amounts");
  e.op("la a1, tables");
  e.op("vle64.v v15,(a1)");
  for (int r = 0; r < 2; ++r) {
    e.op("addi a1,a1,%u", row_bytes);
    e.op("vle64.v v%d,(a1)", 16 + r);
  }
  for (int r = 0; r < 10; ++r) {
    e.op("addi a1,a1,%u", row_bytes);
    e.op("vle64.v v%d,(a1)", 18 + r);
  }
  e.op("la s9, idx_pi");
  e.op("la s10, scratch");
  e.op("la t5, rc_rows");
  e.comment("load the five planes");
  e.op("la a0, state");
  e.op("mv a1, a0");
  for (int y = 0; y < 5; ++y) {
    e.op("vle64.v v%d,(a1)", y);
    if (y != 4) e.op("addi a1,a1,%u", row_bytes);
  }
  e.blank();

  if (o.single_round) {
    emit_marker(e, Markers::kRoundStart);
    emit_round64_purervv(e, o, true);
    emit_marker(e, Markers::kRoundEnd);
  } else {
    emit_marker(e, Markers::kPermStart);
    e.label("permutation");
    emit_marker(e, Markers::kRoundStart);
    emit_round64_purervv(e, o, true);
    emit_marker(e, Markers::kRoundEnd);
    e.comment("next round");
    e.op("addi s3,s3,1");
    e.op("blt s3,s4,permutation");
    emit_marker(e, Markers::kPermEnd);
  }

  e.blank();
  e.op("mv a1, a0");
  for (int y = 0; y < 5; ++y) {
    e.op("vse64.v v%d,(a1)", y);
    if (y != 4) e.op("addi a1,a1,%u", row_bytes);
  }
  e.op("ebreak");

  // ---- data section ----
  const auto& rho = keccak::rho_offsets();
  const auto& rc = keccak::round_constants();
  e.blank();
  e.raw(".data");
  e.label("state");
  e.op(".zero %u", 5 * row_bytes);
  e.label("scratch");
  e.op(".zero %u", 5 * row_bytes + row_bytes);  // + dump zone for tail elems
  e.label("tables");
  // slide-down-1, slide-up-1, slide-down-2 gather indices.
  for (int delta : {+1, -1, +2}) {
    for (unsigned ei = 0; ei < o.ele_num; ++ei) {
      u64 idx = ei;
      if (ei < 5 * sn) {
        const unsigned i = ei / 5, j = ei % 5;
        idx = 5 * i + static_cast<unsigned>((static_cast<int>(j) + delta + 10) % 5);
      }
      e.op(".dword %llu", static_cast<unsigned long long>(idx));
    }
  }
  // rho shift amounts then complements, per plane.
  for (int pass = 0; pass < 2; ++pass) {
    for (unsigned y = 0; y < 5; ++y) {
      for (unsigned ei = 0; ei < o.ele_num; ++ei) {
        unsigned off = ei < 5 * sn ? rho[y][ei % 5] : 0;
        if (pass == 1) off = (64 - off) % 64;
        e.op(".dword %u", off);
      }
    }
  }
  e.label("idx_pi");
  // Scatter indices: source plane b element (5i + a) lands at
  // F[x = b, y = 2(a - b) mod 5] -> byte offset (y*EleNum + 5i + b)*8.
  for (unsigned b = 0; b < 5; ++b) {
    for (unsigned ei = 0; ei < o.ele_num; ++ei) {
      u32 off;
      if (ei < 5 * sn) {
        const unsigned i = ei / 5, a = ei % 5;
        const unsigned y = (2 * (a + 5 - b)) % 5;
        off = (y * o.ele_num + 5 * i + b) * 8;
      } else {
        off = 5 * row_bytes + ei * 8;  // dump zone
      }
      e.op(".word %u", off);
    }
  }
  e.op(".align 3");  // idx_pi is word-granular; RC rows are dwords
  e.label("rc_rows");
  for (unsigned r = 0; r < o.rounds; ++r) {
    for (unsigned ei = 0; ei < o.ele_num; ++ei) {
      const bool lane0 = ei < 5 * sn && ei % 5 == 0;
      e.op(".dword 0x%llx",
           static_cast<unsigned long long>(
               lane0 ? rc[(o.first_round + r) % 24] : 0));
    }
  }
  return e.take();
}

}  // namespace

std::string_view arch_name(Arch arch) noexcept {
  switch (arch) {
    case Arch::k64Lmul1: return "64-bit LMUL=1";
    case Arch::k64Lmul8: return "64-bit LMUL=8";
    case Arch::k32Lmul8: return "32-bit LMUL=8";
    case Arch::k64PureRvv: return "64-bit pure-RVV";
    case Arch::k64Fused: return "64-bit fused-ISE";
    case Arch::k64Lmul4Plus1: return "64-bit LMUL=4+1";
  }
  return "?";
}

std::optional<Arch> parse_arch(std::string_view name) noexcept {
  if (name == "64lmul1") return Arch::k64Lmul1;
  if (name == "64lmul8") return Arch::k64Lmul8;
  if (name == "32lmul8") return Arch::k32Lmul8;
  if (name == "64fused") return Arch::k64Fused;
  return std::nullopt;
}

KeccakProgram build_keccak_program(const ProgramOptions& options) {
  KVX_CHECK_MSG(options.ele_num >= 5, "need at least one Keccak state");
  KVX_CHECK_MSG(options.rounds >= 1 && options.rounds <= 24,
                "rounds must be in [1, 24]");
  KVX_CHECK_MSG(options.first_round + options.rounds <= 24,
                "first_round + rounds must not exceed 24");
  KVX_CHECK_MSG(options.absorb_blocks == 0 || !options.single_round,
                "absorb mode and single_round are exclusive");
  KVX_CHECK_MSG(options.absorb_blocks == 0 || options.arch != Arch::k32Lmul8,
                "on-device absorb is implemented for the 64-bit archs");
  KVX_CHECK_MSG(options.absorb_blocks == 0 || options.arch != Arch::k64PureRvv,
                "on-device absorb is implemented for the custom-ISE archs");
  KeccakProgram prog;
  prog.options = options;
  switch (options.arch) {
    case Arch::k64Lmul1:
    case Arch::k64Lmul8:
    case Arch::k64Fused:
    case Arch::k64Lmul4Plus1:
      prog.source = build_source_64(options);
      break;
    case Arch::k32Lmul8:
      prog.source = build_source_32(options);
      break;
    case Arch::k64PureRvv:
      prog.source = build_source_64_purervv(options);
      break;
  }
  prog.image = assembler::assemble(prog.source);
  return prog;
}

}  // namespace kvx::core
