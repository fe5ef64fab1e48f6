// Fusion matcher: finds the Keccak steps in a compiled trace.
//
// The compiled trace (compiled_trace.hpp) reduced the program to a flat
// array of pre-decoded records. The fusion pass pattern-matches the
// recurring record sequences the Keccak program builders emit and describes
// each as ONE step-level super-kernel (FusedOp), which the host-SIMD plan
// (host_simd.hpp) lowers to host vector code:
//
//   pattern (records)                        super-kernel
//   ------------------------------------     -----------------------------
//   θ  4×xor + 2×slide + rotup + xor + 5×apply   kTheta64  (13 records)
//   θ  4×xor + vthetac + 5×apply                 kTheta64  (10 records)
//   θ  dual-half parity/slides/rot32 (32-bit)    kTheta32  (26 records)
//   ρπ 5×v64rho-row + 5×vpi-row                  kRhoPi64  (10 records)
//   ρπ 5×vrhopi-row                              kRhoPi64  (5 records)
//   ρπ 5×5×rho32-row + 2×5×vpi-row (32-bit)      kRhoPi32  (20 records)
//   χ  2×5 slides + not/and/xor (grouped)        kChi      (13 records)
//   χ  row-wise 25-record form (LMUL=1)          kChi      (25 records)
//   χ  5×vchi-row                                kChi      (5 records)
//   ι  merged into the preceding χ kernel        (+1 record)
//   χ(lo) + χ(hi) + ι(lo) + ι(hi) (32-bit)       kChi32    (28 records)
//
// A lowered super-kernel keeps θ parity / χ slide scratch in host
// registers instead of round-tripping through the register file. The
// matcher therefore records a scratch RECIPE for each elided row: which
// function of the group's input lanes the row finally holds (θ: D, C[x−1],
// rotl(C[x+1], 1), ...; χ: B[x+2] and ~B[x+1] & B[x+2] per plane). A
// backward byte-granularity liveness pass over the recorded reads/writes
// (all bytes live at end-of-trace — callers compare the final register
// file) finds the rows that are live-out; a lowered kernel writes exactly
// those rows back from its recipe (write_scratch_rows), so the final round
// lowers like every other. Only a group with a live-out row that has no
// recipe (the ρ scratch of the in-place ρπ forms) is demoted to
// per-record replay. Unrecognized record sequences become replay ranges, so
// the output covers every record of arbitrary programs, not just the
// paper's.
#pragma once

#include "kvx/sim/compiled_trace.hpp"

namespace kvx::sim {

enum class FusedOpKind : u8 {
  kReplayRange,  ///< per-record fallback over [first, first+count)
  kTheta64,      ///< θ over five 64-bit planes
  kTheta32,      ///< θ over the split lo/hi 32-bit halves
  kRhoPi64,      ///< ρ rotate + π scatter, 64-bit planes
  kRhoPi32,      ///< ρ rotate + π scatter, lo/hi 32-bit halves
  kChi,          ///< χ row computation (either element width)
  kChi32,        ///< χ over the split lo/hi 32-bit halves; ι's 64-bit RC
                 ///< (hi word << 32 | lo word) when merged
};

/// FusedOp::flags bit: the following ι record was merged into this χ kernel
/// (round constant XORed into lane x=0 of output row 0 while storing).
inline constexpr u8 kFusedHasIota = 1;

/// What an elided scratch row finally holds, per 5-lane state group, as a
/// function of the fused op's input planes P0..P4 (θ: the planes before θ;
/// χ: the source planes). C[x] = P0[x] ^ ... ^ P4[x] is the column parity,
/// B the χ input plane `y` of the row's ScratchRow.
enum class ScratchValue : u8 {
  kNone,           ///< no recipe: a live-out row demotes its group
  kParity12,       ///< P1[x] ^ P2[x]
  kParity012,      ///< P0[x] ^ P1[x] ^ P2[x]
  kParity,         ///< C[x]
  kParityPrev,     ///< C[x−1]
  kParityNext,     ///< C[x+1]
  kParityNextRot,  ///< rotl(C[x+1], 1)
  kThetaD,         ///< D[x] = C[x−1] ^ rotl(C[x+1], 1)
  kChiNext2,       ///< B[x+2]
  kChiAndNot,      ///< ~B[x+1] & B[x+2]
};

/// One live-out scratch row a fused op writes back (a whole register row:
/// element 5s + x holds the value for lane x of state s).
struct ScratchRow {
  u32 off = 0;  ///< regfile byte offset of the row
  ScratchValue value = ScratchValue::kNone;
  u8 y = 0;     ///< χ values: the input plane
  u8 half = 0;  ///< 0: 64-bit elements; 1 / 2: the lo / hi 32-bit word
};

/// Write `count` scratch rows for states [s0, min(s0 + pack, sn)) from
/// their packed input lanes: buf[(5y + x)·pack + p] = lane (x, y) of state
/// s0 + p, the layout of host_simd_pack / host_simd_pack_split (a split
/// lane joins hi << 32 | lo), with `pack` at most 16 (the widest SN the
/// matcher fuses). The one writer the host-simd and jit tiers share.
void write_scratch_rows(u8* file, u32 sn, u32 s0, u32 pack, const u64* buf,
                        const ScratchRow* rows, u32 count) noexcept;

/// One matched super-kernel (or replay range). Offsets are regfile byte
/// offsets like TraceOp's; `src2`/`dst2` are the high-half planes of the
/// 32-bit kernels.
struct FusedOp {
  FusedOpKind kind{};
  u8 flags = 0;
  u8 sn = 0;     ///< Keccak states per row
  u8 sew = 64;   ///< element width in bits
  u32 first = 0; ///< first base-trace record this op covers
  u32 count = 0; ///< base-trace records covered
  u32 src = 0;
  u32 src2 = 0;
  u32 dst = 0;
  u32 dst2 = 0;
  /// Live-out scratch rows a lowered op writes before its kernel runs:
  /// [scratch_first, scratch_first + scratch_count) of scratch_rows().
  u32 scratch_first = 0;
  u32 scratch_count = 0;
  u64 iota_rc = 0;
};

/// An immutable fusion-matcher result over a shared compiled trace: the
/// fused ops cover every base-trace record in order. Only the host-SIMD
/// plan reads it; thread-safe to share.
class FusedTrace {
 public:
  [[nodiscard]] const CompiledTrace& base() const noexcept { return *base_; }

  // --- fusion statistics ---
  /// Fraction of base-trace records covered by super-kernels, in [0, 1].
  [[nodiscard]] double coverage() const noexcept {
    const usize total = base_->op_count();
    return total == 0 ? 0.0
                      : static_cast<double>(fused_records_) /
                            static_cast<double>(total);
  }
  [[nodiscard]] usize super_kernel_count() const noexcept {
    return super_kernels_;
  }
  [[nodiscard]] usize fused_record_count() const noexcept {
    return fused_records_;
  }
  [[nodiscard]] const std::vector<FusedOp>& fused_ops() const noexcept {
    return fused_;
  }
  /// The live-out scratch recipes the fused ops index into.
  [[nodiscard]] const std::vector<ScratchRow>& scratch_rows() const noexcept {
    return scratch_;
  }
  /// Approximate heap bytes of this artifact alone (the base trace is
  /// accounted separately).
  [[nodiscard]] usize memory_bytes() const noexcept {
    return fused_.size() * sizeof(FusedOp) +
           scratch_.size() * sizeof(ScratchRow);
  }

 private:
  friend std::shared_ptr<const FusedTrace> fuse_trace(
      std::shared_ptr<const CompiledTrace> base);

  std::shared_ptr<const CompiledTrace> base_;
  std::vector<FusedOp> fused_;
  std::vector<ScratchRow> scratch_;
  usize fused_records_ = 0;
  usize super_kernels_ = 0;
};

/// Run the fusion pass over `base`. Never fails: a trace with no
/// recognizable patterns becomes one big replay range.
[[nodiscard]] std::shared_ptr<const FusedTrace> fuse_trace(
    std::shared_ptr<const CompiledTrace> base);

}  // namespace kvx::sim
