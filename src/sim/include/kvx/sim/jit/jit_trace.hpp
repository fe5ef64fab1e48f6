// Trace-to-native JIT backend: tier zero of the backend chain.
//
// The host-SIMD tier (host_simd.hpp) already plans the recorded trace into
// straight-line θ/ρπ/χι segments over lane-major packed state, but still
// walks the plan with indirect dispatch on every item/kernel. This backend
// removes that last layer: lower_jit() emits the WHOLE plan as one
// contiguous x86-64 function into an mmap'd W^X code buffer, laid out as
//
//   prologue      frame setup, ctx pointer pinned in rbx, 64-byte-aligned
//                 packed-state buffers carved from the stack
//   round bodies  per segment × pack-width group: a call to the packed
//                 transpose shim, then fully unrolled θ/ρπ/χι machine code —
//                 AVX-512F: state resident in zmm0–24, vpternlogq 0x96/0xD2
//                 folds the XOR trees and Chi, vprolq bakes the ρ rotations,
//                 π is pure register renaming via an in-place cycle walk;
//                 AVX2: memory-resident double-buffered state with
//                 shift/shift/or rotates — with spill/reload around the
//                 last-writer unpack shim calls and the scratch shim calls
//                 that write a kernel's live-out scratch rows (the SysV ABI
//                 makes every vector register caller-saved)
//   literal pool  ι round constants, reached rip-relative by vpbroadcastq
//
// A split segment (the 32-bit arch's lo/hi halves, see host_simd.hpp) emits
// the same round bodies; only its transpose calls differ: the split shims
// join and separate the lo/hi words, and receive both plane offsets.
//
// A paper plan is one segment for all 24 rounds: the final round's live-out
// θ/χ scratch goes through the scratch shim, which runs the same
// write_scratch_rows as the host-SIMD tier. The plan's replay ranges (the
// state load/store, short runs) call CompiledTrace::replay through a shim
// that traps C++ exceptions into the ctx and returns nonzero, which the
// emitted code turns into a branch to the epilogue — execute() then
// rethrows, and the caller demotes per the chain (jit → host-simd →
// interpreter).
//
// The emission ISA is resolved by the same dispatcher the host-SIMD tier
// uses (host_simd_dispatch_isa: CPUID, KVX_HOST_SIMD_ISA, test pins,
// SN-narrowing); scalar/portable resolutions — and non-x86-64 hosts,
// all-replay plans with nothing to emit, and mmap/mprotect refusals — throw
// SimError so construction demotes cleanly.
// Cycle accounting passes through to the recorded interpreter totals,
// bit-identical, exactly like every other trace-backed tier.
#pragma once

#include "kvx/sim/host_simd.hpp"
#include "kvx/sim/jit/jit_code.hpp"

namespace kvx::sim {

/// True when this build can emit native code at all (x86-64 with mmap).
[[nodiscard]] bool jit_supported() noexcept;

/// An immutable native compilation of a host-SIMD plan. Thread-safe to
/// share: the code buffer is sealed read+execute before publication and the
/// emitted function only mutates the VectorUnit/Memory it is handed
/// (packed state lives in the caller's stack frame).
class JitTrace {
 public:
  /// Same contract as HostSimdTrace::execute — identical register file,
  /// data memory and (pass-through) cycle accounting. Throws SimError if
  /// the dispatch ISA no longer matches the one this trace was emitted for
  /// (e.g. a test pin changed) — the caller demotes to host-simd.
  void execute(VectorUnit& vu, Memory& mem, const CycleModel& cm) const;

  // --- recorded timing (passes through to the base trace) ---
  [[nodiscard]] u64 total_cycles() const noexcept {
    return hs_->total_cycles();
  }
  [[nodiscard]] u64 instructions() const noexcept {
    return hs_->instructions();
  }
  [[nodiscard]] const RunStats& run_stats() const noexcept {
    return hs_->run_stats();
  }
  [[nodiscard]] const std::vector<Marker>& markers() const noexcept {
    return hs_->markers();
  }
  [[nodiscard]] u64 cycles_between(u32 from, u32 to) const {
    return hs_->cycles_between(from, to);
  }
  [[nodiscard]] const std::array<u32, 32>& final_scalar_regs() const noexcept {
    return hs_->final_scalar_regs();
  }

  /// Shared ownership of the host-SIMD plan — the demotion target
  /// (jit → host-simd) without a second trace-cache round trip.
  [[nodiscard]] const std::shared_ptr<const HostSimdTrace>& shared_host_simd()
      const noexcept {
    return hs_;
  }
  [[nodiscard]] const HostSimdTrace& host_simd() const noexcept {
    return *hs_;
  }
  [[nodiscard]] double lowered_coverage() const noexcept {
    return hs_->lowered_coverage();
  }

  // --- emitted-code introspection (stats, disassembly self-check) ---
  /// ISA the code was emitted for (kAvx512 or kAvx2 only).
  [[nodiscard]] HostSimdIsa isa() const noexcept { return isa_; }
  [[nodiscard]] u32 pack() const noexcept { return pack_; }
  /// Entry point and decodable instruction bytes (excludes pool padding).
  [[nodiscard]] const u8* code() const noexcept { return buf_.data(); }
  [[nodiscard]] usize code_size() const noexcept { return code_size_; }
  /// Whole mapped W^X region (page-rounded; the cache's resident-bytes
  /// accounting unit).
  [[nodiscard]] usize buffer_bytes() const noexcept { return buf_.size(); }
  [[nodiscard]] usize literal_count() const noexcept { return literals_; }
  /// Occupancy accounting unit: the code buffer (the shared host-SIMD plan
  /// is accounted by its own cache entry).
  [[nodiscard]] usize memory_bytes() const noexcept { return buf_.size(); }

 private:
  friend std::shared_ptr<const JitTrace> lower_jit(
      std::shared_ptr<const HostSimdTrace> hs);

  std::shared_ptr<const HostSimdTrace> hs_;
  JitCodeBuffer buf_;
  usize code_size_ = 0;
  usize literals_ = 0;
  HostSimdIsa isa_ = HostSimdIsa::kAvx2;
  u32 pack_ = 0;
  u32 groups_ = 0;
};

/// Emit native code for `hs` at the ISA host_simd_dispatch_isa(hs->sn())
/// resolves to right now. Throws kvx::SimError when emission is impossible
/// (non-x86-64 build, a plan without lowered segments, scalar/portable ISA
/// resolution, mmap/mprotect failure) — the caller demotes to the host-SIMD
/// tier.
[[nodiscard]] std::shared_ptr<const JitTrace> lower_jit(
    std::shared_ptr<const HostSimdTrace> hs);

}  // namespace kvx::sim
