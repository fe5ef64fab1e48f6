// Builders for the Keccak-f[1600] assembly programs of the paper.
//
// Four program variants are generated:
//  * Arch::k64Lmul1 — the paper's Algorithm 2: 64-bit architecture, every
//    vector instruction operates on one register (LMUL = 1);
//  * Arch::k64Lmul8 — Algorithm 3: ρ/π/χ run over all five planes under a
//    single instruction (LMUL = 8, VL = 5·EleNum);
//  * Arch::k32Lmul8 — the 32-bit architecture (§3.2): lanes split into
//    hi/lo 32-bit words in separate registers, paired rotation
//    instructions, indexed loads/stores for the hi/lo exchange;
//  * Arch::k64PureRvv — ablation: the same permutation written with ONLY
//    standard RVV 1.0 instructions (vrgather for slides, vsll/vsrl/vor for
//    rotations, memory round-trips for π, a staged RC row for ι) — what a
//    programmer must do without the paper's custom extensions.
//
// The generated source is human-readable assembly (dumpable by examples)
// and is assembled into a Program image on construction.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "kvx/asm/assembler.hpp"

namespace kvx::core {

enum class Arch {
  k64Lmul1,
  k64Lmul8,
  k32Lmul8,
  k64PureRvv,
  /// The paper's §5 future-work direction: coarser-grained fused
  /// instructions (vthetac, vrhopi, vchi) on top of the LMUL=8 layout.
  k64Fused,
  /// The alternative the paper's §4.1 rejects: group four planes at
  /// LMUL=4 and handle the fifth at LMUL=1, "configuring the LMUL value
  /// in an alternating way". Implemented to quantify the rejection.
  k64Lmul4Plus1,
};

/// Human-readable name of an architecture variant.
[[nodiscard]] std::string_view arch_name(Arch arch) noexcept;

/// Parse a CLI architecture name ("64lmul1", "64lmul8", "32lmul8",
/// "64fused"); nullopt for anything else.
[[nodiscard]] std::optional<Arch> parse_arch(std::string_view name) noexcept;

/// Names parse_arch accepts, for CLI usage and error messages.
inline constexpr std::string_view kArchNamesHelp =
    "64lmul1|64lmul8|32lmul8|64fused";

/// ELEN (bits) of a variant.
[[nodiscard]] constexpr unsigned arch_elen(Arch arch) noexcept {
  return arch == Arch::k32Lmul8 ? 32u : 64u;
}

struct ProgramOptions {
  Arch arch = Arch::k64Lmul1;
  unsigned ele_num = 5;   ///< elements per vector register
  unsigned rounds = 24;   ///< permutation rounds
  bool single_round = false;  ///< emit one un-looped round between the round
                              ///< markers (exact round-latency measurement)
  unsigned absorb_blocks = 0; ///< >0: emit an on-device sponge program that
                              ///< XORs this many staged message blocks into
                              ///< the state (one permutation after each)
                              ///< without leaving the register file
                              ///< (64-bit architectures only)
  unsigned first_round = 0;  ///< starting iota round-constant index: 0 for
                             ///< the paper's reduced-round convention,
                             ///< 24 − rounds for the FIPS 202 Keccak-p
                             ///< convention (TurboSHAKE runs rounds 12..23)
};

/// Marker ids the generated programs emit via the marker CSR.
///
/// Every round body — looped or single_round — is bracketed by
/// kRoundStart/kRoundEnd and emits the step boundaries (markers cost zero
/// cycles, see the cycle model): θ spans kRoundStart..kStepRho, ρ spans
/// kStepRho..kStepPi, and so on; ι ends at kRoundEnd. Loop-mode programs
/// additionally bracket the whole permutation (kPermStart..kPermEnd), so
/// the inter-round loop control is the kRoundEnd..kRoundStart gap. The
/// observability layer folds these into obs::StepCycleStats
/// (kvx/core/step_attribution.hpp).
struct Markers {
  static constexpr u32 kPermStart = 1;  ///< before the first round
  static constexpr u32 kPermEnd = 2;    ///< after the last round
  static constexpr u32 kRoundStart = 3; ///< before each round body
  static constexpr u32 kRoundEnd = 4;   ///< after each round body
  static constexpr u32 kStepRho = 11;
  static constexpr u32 kStepPi = 12;
  static constexpr u32 kStepChi = 13;
  static constexpr u32 kStepIota = 14;
  /// absorb-mode programs: start of each block's absorb phase.
  static constexpr u32 kAbsorb = 5;
};

/// A generated Keccak program: source text plus the assembled image.
/// Data-section symbols:
///   "state"   — 5 rows × EleNum lanes of 8 bytes (plane-major; the 32-bit
///               architecture uses the same 64-bit-lane layout and performs
///               the hi/lo split with indexed addressing, as in §3.2)
///   "idx_lo"/"idx_hi" — (32-bit arch) index tables for the hi/lo exchange
///   "scratch" / "idx_pi" / "rc_rows" — (pure-RVV arch) π round-trip area,
///               π scatter indices and staged ι rows
struct KeccakProgram {
  ProgramOptions options;
  std::string source;
  assembler::Program image;

  /// Byte offset of lane (x, y) of state `s` inside the "state" region.
  [[nodiscard]] u32 lane_offset(unsigned s, unsigned x, unsigned y) const {
    return (y * options.ele_num + 5 * s + x) * 8;
  }
};

/// Build (and assemble) a Keccak program.
[[nodiscard]] KeccakProgram build_keccak_program(const ProgramOptions& options);

}  // namespace kvx::core
