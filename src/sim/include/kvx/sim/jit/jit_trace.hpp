// Trace-to-native JIT backend: tier zero of the backend chain.
//
// The host-SIMD tier (host_simd.hpp) already plans the recorded trace into
// straight-line θ/ρπ/χι segments over lane-major packed state, but still
// walks the plan with indirect dispatch on every kernel. This backend
// removes that last layer for direct plans — [state-load replay][one
// segment][state-store replay], the shape every shipped Keccak program
// lowers to: lower_jit() emits the segment as one contiguous x86-64
// function into an mmap'd W^X code buffer,
//
//   void fn(u64* buf)   buf = one pack-width group of packed states
//                       (host_simd_pack_states layout), 64-byte aligned,
//                       1600 bytes; permuted in place
//
// laid out as
//
//   round bodies  fully unrolled θ/ρπ/χι machine code — AVX-512F: state
//                 loaded into zmm0–24 at entry and stored back at exit,
//                 vpternlogq 0x96/0xD2 folds the XOR trees and Chi, vprolq
//                 bakes the ρ rotations, π is pure register renaming via an
//                 in-place cycle walk; AVX2: buffer-resident state double-
//                 buffered across ρπ, shift/shift/or rotates
//   literal pool  ι round constants, reached rip-relative by vpbroadcastq
//
// The function touches nothing but the buffer: no calls, no stack frame,
// no regfile. A split segment (the 32-bit arch's lo/hi halves) emits the
// same bodies, since the caller's states are already whole 64-bit lanes.
// permute() transposes the caller's states group by group through it; the
// register file and data memory a dispatch would leave are produced, when
// something reads them, by the shared host-SIMD plan's execute().
//
// The emission ISA is resolved by the same dispatcher the host-SIMD tier
// uses (host_simd_dispatch_isa: CPUID, KVX_HOST_SIMD_ISA, test pins, and
// scalar for SN=1 without AVX-512). Scalar/portable resolutions, the SN=1
// plane form under AVX-512 (host_simd_plane_form: host-simd's plane
// kernels already keep the state in five registers) — and non-x86-64
// hosts, plans that are not direct (nothing lowered, or any other shape),
// and mmap/mprotect refusals — throw SimError so construction demotes
// cleanly to host-simd.
#pragma once

#include "kvx/sim/host_simd.hpp"
#include "kvx/sim/jit/jit_code.hpp"

namespace kvx::sim {

/// True when this build can emit native code at all (x86-64 with mmap).
[[nodiscard]] bool jit_supported() noexcept;

/// True when lower_jit emits code for a direct `sn`-state plan dispatched
/// at `isa`: AVX2 or AVX-512, except the SN=1 plane form.
[[nodiscard]] constexpr bool jit_emits(HostSimdIsa isa, u32 sn) noexcept {
  return (isa == HostSimdIsa::kAvx2 || isa == HostSimdIsa::kAvx512) &&
         !host_simd_plane_form(isa, sn);
}

/// An immutable native compilation of a direct host-SIMD plan. Thread-safe
/// to share: the code buffer is sealed read+execute before publication and
/// the emitted function only mutates the buffer it is handed (which lives
/// in permute()'s stack frame).
class JitTrace {
 public:
  /// Same contract as HostSimdTrace::permute — the states end up exactly as
  /// the plan's execute() leaves them in the staged-state region. Throws
  /// SimError, before touching a state, if the dispatch ISA no longer
  /// matches the one this trace was emitted for (e.g. a test pin changed) —
  /// the caller demotes to host-simd.
  void permute(std::span<keccak::State> states) const;

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
};

/// Emit native code for `hs` at the ISA host_simd_dispatch_isa(hs->sn())
/// resolves to right now. Throws kvx::SimError when emission is impossible
/// (non-x86-64 build, a plan that is not direct, scalar/portable ISA
/// resolution, mmap/mprotect failure) — the caller demotes to the host-SIMD
/// tier.
[[nodiscard]] std::shared_ptr<const JitTrace> lower_jit(
    std::shared_ptr<const HostSimdTrace> hs);

}  // namespace kvx::sim
