// Host-SIMD execution backend: the one trace-backed executor.
//
// The compiled trace (compiled_trace.hpp) records one interpreter run as
// pre-decoded records, and the fusion matcher (trace_fusion.hpp) finds the
// θ/ρπ/χι Keccak steps among them. This backend plans the result: it lowers
// maximal RUNS of matched steps directly to the host's own vector ISA,
// keeping the whole 25-lane Keccak state resident in host registers across
// entire round sequences, and replays every other record range (state
// loads and stores, short runs, unmatched records) from the recording.
//
// Representation change. The simulator regfile is plane-major: row y holds
// lane (x, y) of state s at element 5s + x, so one SIMULATED register mixes
// lanes of several states. The host-SIMD plan TRANSPOSES that into a
// lane-major packed form at segment entry: host vector register V[5y + x]
// holds lane (x, y) of P consecutive states, one state per 64-bit host
// lane (P = 8 under AVX-512, 4 under AVX2 and the portable GCC/Clang
// vector-extension fallback, 1 for the pure-scalar build). In that form
// every Keccak step is state-parallel and branch-free:
//
//   θ    five XOR5 column parities + rotate-by-1 combine + 25 XOR applies
//        (AVX-512: ternarylogic XOR3 folds the 5-way XOR tree)
//   ρπ   25 rotates by COMPILE-TIME constants into renamed registers —
//        π is pure register renaming, no shuffles at all
//        (AVX-512: native vprolq; AVX2: shift-shift-or)
//   χ+ι  25 a ^ (~b & c) row ops plus one broadcast-XOR round constant
//        (AVX-512: single-instruction ternarylogic Chi)
//
// The 32-bit split-half arch (paper §3.2) keeps each lane as a lo word in
// one plane set and a hi word in another, and its rounds fuse to the split
// kernels kTheta32 / kRhoPi32 / kChi32 (the χ pair plus the ι pair, with a
// joined 64-bit round constant). Those lower to the SAME θ/ρπ/χι kernels:
// only the segment edges differ. Split pack joins the lo and hi words of
// each lane into one u64 lane (hi << 32 | lo), split unpack separates them
// again, so the segment body is identical to a 64-bit one.
//
// Whole-plane transposed loads/stores happen only at segment boundaries
// (absorb/squeeze edges of the lowered run): the plan marks, per segment,
// the LAST super-kernel that writes each regfile location and materializes
// exactly those values back, so the register file after execute() is
// bit-identical to a full replay's — inter-segment replay ranges (the state
// load and stores) read exactly what they would have under the
// interpreter. A kernel whose fused op has live-out scratch (the final
// round's θ and χ, see trace_fusion.hpp) writes those rows from the packed
// state just before it runs, through write_scratch_rows, so all 24 rounds
// of a paper plan stay in one segment. Records the plan does not lower
// replay unchanged — an unlowered step rewrites its scratch rows exactly as
// the interpreter would — so the backend is correct on arbitrary programs;
// a trace with nothing to lower (the pure-RVV ablation) is an all-replay
// plan.
//
// The host ISA is picked once per process by CPUID at dispatch time
// (AVX-512F → AVX2 → portable → scalar), overridable with the
// KVX_HOST_SIMD_ISA environment variable ("avx512" / "avx2" / "portable" /
// "scalar" / "auto") and programmatically for tests. The plan itself is
// ISA-independent — one cached lowering serves every dispatch width.
//
// Cycle accounting passes through to the recorded interpreter totals,
// bit-identical by construction.
#pragma once

#include <optional>

#include "kvx/sim/trace_fusion.hpp"

namespace kvx::sim {

/// Host instruction sets the lowered kernels can dispatch to, worst first.
enum class HostSimdIsa : u8 {
  kScalar,    ///< plain u64 arithmetic, 1 state per "register"
  kPortable,  ///< GCC/Clang vector extensions, 4 states per register
  kAvx2,      ///< AVX2 intrinsics, 4 states per 256-bit register
  kAvx512,    ///< AVX-512F intrinsics, 8 states per 512-bit register
};

/// Stable lowercase name ("scalar" / "portable" / "avx2" / "avx512").
[[nodiscard]] std::string_view host_simd_isa_name(HostSimdIsa isa) noexcept;

/// Parse an ISA name as accepted by KVX_HOST_SIMD_ISA (returns nullopt for
/// unknown names; "auto" is handled by the dispatcher, not here).
[[nodiscard]] std::optional<HostSimdIsa> parse_host_simd_isa(
    std::string_view name) noexcept;

/// True when `isa` was compiled in AND the running CPU supports it. kScalar
/// is always available.
[[nodiscard]] bool host_simd_isa_available(HostSimdIsa isa) noexcept;

/// The ISA execute() dispatches to right now: the forced ISA if one is set
/// and available, else the KVX_HOST_SIMD_ISA override if set and available,
/// else the best available by CPUID.
[[nodiscard]] HostSimdIsa host_simd_active_isa() noexcept;

/// Test hook: pin dispatch to `isa` (ignored if unavailable on this host),
/// nullopt restores automatic CPUID selection.
void host_simd_force_isa(std::optional<HostSimdIsa> isa) noexcept;

/// The ISA a plan with `sn` states actually dispatches to. Equal to
/// host_simd_active_isa() under a forced or KVX_HOST_SIMD_ISA pin; in
/// automatic mode, narrowed to the smallest available pack width covering
/// SN in one group (SN=1 runs scalar, SN<=4 runs AVX2/portable even on an
/// AVX-512 host) — padding lanes are packed, rotated and dropped for
/// nothing, so the narrower runner wins on small batches.
[[nodiscard]] HostSimdIsa host_simd_dispatch_isa(u32 sn) noexcept;

/// States packed per host register under `isa` (8/4/4/1).
[[nodiscard]] u32 host_simd_pack_width(HostSimdIsa isa) noexcept;

// ---------------------------------------------------------------------------
// Packed-state transpose. Public because the property tests round-trip it
// directly; the segment runners use the same two functions.
// ---------------------------------------------------------------------------

/// Transpose `pack` consecutive states starting at state index `s0` from the
/// plane-major regfile span at byte offset `loc` (five rows of `rb` bytes,
/// element 5s + x of row y = lane (x, y) of state s) into the lane-major
/// buffer: buf[(5y + x)·pack + p] = lane (x, y) of state s0 + p. States at
/// or beyond `sn` (the ragged final group) are zero-filled.
void host_simd_pack(const u8* file, u32 loc, u32 rb, u32 sn, u32 s0, u32 pack,
                    u64* buf) noexcept;

/// Inverse transpose: write the packed lanes of states [s0, s0 + pack) back
/// to the regfile span at `loc`. Lanes of states at or beyond `sn` are
/// dropped — they correspond to no regfile bytes.
void host_simd_unpack(u8* file, u32 loc, u32 rb, u32 sn, u32 s0, u32 pack,
                      const u64* buf) noexcept;

/// Split-half pack (the 32-bit arch): element 5s + x of row y at `lo_loc`
/// holds the low 32-bit word of lane (x, y) of state s, the same element
/// at `hi_loc` its high word (rows of `rb` bytes, 4-byte elements). Writes
/// the joined lanes, hi << 32 | lo, in host_simd_pack's buffer layout.
void host_simd_pack_split(const u8* file, u32 lo_loc, u32 hi_loc, u32 rb,
                          u32 sn, u32 s0, u32 pack, u64* buf) noexcept;

/// Inverse of host_simd_pack_split: each packed lane's low word goes to the
/// `lo_loc` planes, its high word to the `hi_loc` planes.
void host_simd_unpack_split(u8* file, u32 lo_loc, u32 hi_loc, u32 rb, u32 sn,
                            u32 s0, u32 pack, const u64* buf) noexcept;

// ---------------------------------------------------------------------------
// Lowered plan.
// ---------------------------------------------------------------------------

enum class HostSimdKernelKind : u8 { kTheta, kRhoPi, kChi };

/// One lowered super-kernel inside a segment. All regfile interaction is in
/// `unpack_loc` and the scratch rows: kernels chain through host registers,
/// only the marked last-writer kernels transpose the packed state back out,
/// and a kernel with live-out scratch writes those rows before it runs.
struct HostSimdKernel {
  HostSimdKernelKind kind{};
  bool iota = false;    ///< χ only: XOR `iota_rc` into lane (0, 0)
  bool unpack = false;  ///< materialize the packed state to `unpack_loc`
  u32 unpack_loc = 0;   ///< regfile byte offset of this kernel's output
  u32 unpack_loc2 = 0;  ///< split segments: offset of the hi-word planes
  /// The fused op's live-out scratch: FusedTrace::scratch_rows() range.
  u32 scratch_first = 0;
  u32 scratch_count = 0;
  u64 iota_rc = 0;
};

/// One step of the plan: either a maximal lowered segment (kernel_count > 0,
/// packed from `pack_loc` at entry) or a replay of base-trace records
/// [first, first + count) (kernel_count == 0; adjacent ranges are merged).
/// A split segment packs and unpacks through the lo/hi plane pairs
/// (`pack_loc`, `pack_loc2`) and (`unpack_loc`, `unpack_loc2`).
struct HostSimdItem {
  u32 first = 0;  ///< replay items: first base-trace record
  u32 count = 0;  ///< replay items: base-trace records replayed
  u32 kernel_first = 0;
  u32 kernel_count = 0;
  u32 pack_loc = 0;
  u32 pack_loc2 = 0;   ///< split segments: offset of the hi-word planes
  bool split = false;  ///< 32-bit split-half segment
};

/// An immutable host-SIMD plan over a fused trace (which owns the base
/// recording). Thread-safe to share: execute() only mutates the
/// VectorUnit/Memory it is handed (the segment runners use stack-resident
/// packed state only).
class HostSimdTrace {
 public:
  /// Run the plan against `vu`'s register file and `mem`, staged exactly as
  /// for an interpreter run. Register file and data memory end up
  /// bit-identical to the interpreter's; timing is the recorded one.
  void execute(VectorUnit& vu, Memory& mem, const CycleModel& cm) const;

  // --- recorded timing (passes through to the base trace) ---
  [[nodiscard]] u64 total_cycles() const noexcept {
    return base().total_cycles();
  }
  [[nodiscard]] u64 instructions() const noexcept {
    return base().instructions();
  }
  [[nodiscard]] const RunStats& run_stats() const noexcept {
    return base().run_stats();
  }
  [[nodiscard]] const std::vector<Marker>& markers() const noexcept {
    return base().markers();
  }
  [[nodiscard]] u64 cycles_between(u32 from, u32 to) const {
    return base().cycles_between(from, to);
  }
  [[nodiscard]] const std::array<u32, 32>& final_scalar_regs() const noexcept {
    return base().final_scalar_regs();
  }
  [[nodiscard]] const FusedTrace& fused() const noexcept { return *fused_; }
  [[nodiscard]] const CompiledTrace& base() const noexcept {
    return fused_->base();
  }

  // --- lowering statistics ---
  /// Fraction of base-trace records covered by LOWERED kernels, in [0, 1].
  [[nodiscard]] double lowered_coverage() const noexcept {
    const usize total = base().op_count();
    return total == 0 ? 0.0
                      : static_cast<double>(lowered_records_) /
                            static_cast<double>(total);
  }
  [[nodiscard]] usize lowered_kernel_count() const noexcept {
    return kernels_.size();
  }
  [[nodiscard]] usize segment_count() const noexcept { return segments_; }
  [[nodiscard]] const std::vector<HostSimdItem>& items() const noexcept {
    return items_;
  }
  [[nodiscard]] const std::vector<HostSimdKernel>& kernels() const noexcept {
    return kernels_;
  }
  /// Keccak states per simulated register row (the engine's SN); 0 for an
  /// all-replay plan.
  [[nodiscard]] u32 sn() const noexcept { return sn_; }
  /// Add one dispatch's transposes, at `groups` pack-width groups per
  /// segment, to kvx_hostsimd_{packs,unpacks}_total. Both native tiers
  /// (this one and the jit) count through here.
  void count_transposes(u32 groups) const;
  /// Approximate heap bytes of this plan alone (the fused trace and base
  /// recording are accounted separately).
  [[nodiscard]] usize memory_bytes() const noexcept {
    return items_.size() * sizeof(HostSimdItem) +
           kernels_.size() * sizeof(HostSimdKernel);
  }

 private:
  friend std::shared_ptr<const HostSimdTrace> lower_host_simd(
      std::shared_ptr<const FusedTrace> fused);

  std::shared_ptr<const FusedTrace> fused_;
  std::vector<HostSimdItem> items_;
  std::vector<HostSimdKernel> kernels_;
  usize lowered_records_ = 0;
  usize segments_ = 0;
  usize unpack_marks_ = 0;  ///< kernels with the unpack flag (obs accounting)
  u32 sn_ = 0;
};

/// Build the host-SIMD plan for `fused`. A trace with nothing to lower (no
/// matched θ/ρπ/χ super-kernel runs, e.g. the pure-RVV ablation) becomes an
/// all-replay plan.
[[nodiscard]] std::shared_ptr<const HostSimdTrace> lower_host_simd(
    std::shared_ptr<const FusedTrace> fused);

}  // namespace kvx::sim
