// x86-64 machine-code emission for the JIT backend: a W^X code buffer, a
// minimal fixed-allowlist encoder, and the matching length-decoder.
//
// The encoder deliberately supports ONLY the instruction forms the trace
// emitter needs (see jit_trace.cpp): `ret`, `vzeroupper`, VEX-encoded
// 256-bit AVX2 forms and EVEX-encoded 512-bit AVX-512F forms. Memory
// operands are restricted to [rdi + disp32] (the caller's packed-state
// buffer, the emitted function's one argument) and [rip + disp32] (the
// trailing round-constant literal pool); EVEX memory forms always use
// disp32, never the compressed disp8·N form, so every emitted byte sequence
// has exactly one shape per mnemonic.
//
// jit_decode_one() is the test oracle for that discipline: it walks the
// same allowlist and refuses anything outside it, so the disassembly
// self-check in test_jit can tile the emitted buffer end to end and prove
// no encoder table typo produced an unintended instruction.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "kvx/common/types.hpp"

namespace kvx::sim {

// ---------------------------------------------------------------------------
// W^X code buffer.
// ---------------------------------------------------------------------------

/// An mmap'd code region with a write-XOR-execute lifecycle: allocated
/// readable+writable, filled once by the emitter, then seal()ed to
/// readable+executable for the lifetime of the owning JitTrace (which the
/// TraceCache shares across engine shards — the buffer is immutable after
/// seal, so concurrent execution needs no further synchronization).
class JitCodeBuffer {
 public:
  JitCodeBuffer() = default;
  ~JitCodeBuffer();
  JitCodeBuffer(JitCodeBuffer&& other) noexcept;
  JitCodeBuffer& operator=(JitCodeBuffer&& other) noexcept;
  JitCodeBuffer(const JitCodeBuffer&) = delete;
  JitCodeBuffer& operator=(const JitCodeBuffer&) = delete;

  /// mmap a writable region of at least `bytes` (page-rounded). Throws
  /// kvx::SimError on mmap failure — the caller demotes to host-simd.
  static JitCodeBuffer allocate(usize bytes);

  /// Flip the region to read+execute. Throws kvx::SimError on mprotect
  /// failure (e.g. a W^X-enforcing kernel policy) — the caller demotes.
  void seal();

  [[nodiscard]] u8* data() noexcept { return base_; }
  [[nodiscard]] const u8* data() const noexcept { return base_; }
  /// Page-rounded mapped size (the resident-bytes accounting unit).
  [[nodiscard]] usize size() const noexcept { return size_; }
  [[nodiscard]] bool sealed() const noexcept { return sealed_; }

 private:
  u8* base_ = nullptr;
  usize size_ = 0;
  bool sealed_ = false;
};

// ---------------------------------------------------------------------------
// Encoder.
// ---------------------------------------------------------------------------

/// Appends to a growable byte vector; finalize() resolves the literal-pool
/// fixups once the layout is complete. Vector register numbers are 0–15
/// for the VEX (ymm) forms and 0–31 for the EVEX (zmm) forms; memory
/// operands are byte displacements from rdi.
class JitAssembler {
 public:
  void ret();
  void vzeroupper();

  // --- VEX 256-bit (AVX2) ---
  void vex_load(unsigned dst, i32 disp);   ///< vmovdqu ymm, [rdi+d]
  void vex_store(unsigned src, i32 disp);  ///< vmovdqu [rdi+d], ymm
  /// vpxor (0xEF) / vpand (0xDB) / vpandn (0xDF) / vpor (0xEB): dst = a op b.
  void vex_rrr(u8 opcode, unsigned dst, unsigned a, unsigned b);
  /// Same ops with the second source in memory: dst = a op [rdi+d].
  void vex_rrm(u8 opcode, unsigned dst, unsigned a, i32 disp);
  /// vpsllq (reg field 6) / vpsrlq (reg field 2): dst = src shift imm.
  void vex_shift_imm(unsigned reg_field, unsigned dst, unsigned src, u8 imm);
  /// vpbroadcastq ymm, [rip + literal]; the displacement is fixed up in
  /// finalize() once the pool position is known.
  void vex_broadcast_lit(unsigned dst, u32 lit_index);

  // --- EVEX 512-bit (AVX-512F) ---
  void evex_load(unsigned dst, i32 disp);   ///< vmovdqu64 zmm, [rdi+d]
  void evex_store(unsigned src, i32 disp);  ///< vmovdqu64 [rdi+d], zmm
  void evex_mov_rr(unsigned dst, unsigned src); ///< vmovdqu64 zmm, zmm
  void evex_vpxorq(unsigned dst, unsigned a, unsigned b);
  void evex_vpternlogq(unsigned dst, unsigned a, unsigned b, u8 imm);
  void evex_vprolq(unsigned dst, unsigned src, u8 imm);
  void evex_broadcast_lit(unsigned dst, u32 lit_index);

  // --- literal pool ---
  /// Intern a 64-bit constant; returns its pool index (deduplicated).
  u32 add_literal(u64 value);

  /// Patch all pending fixups and append the 8-byte-aligned literal pool.
  /// Returns the finished byte image; code_size() is the decodable prefix
  /// (everything before pool padding).
  [[nodiscard]] std::vector<u8> finalize();
  [[nodiscard]] usize code_size() const noexcept { return code_size_; }
  [[nodiscard]] usize literal_count() const noexcept {
    return literals_.size();
  }

 private:
  void byte(u8 b) { code_.push_back(b); }
  void imm32(u32 v);
  void rdi_mem_operand(unsigned reg_field, i32 disp);
  void rip_lit_operand(unsigned reg_field, u32 lit_index);
  void vex3(unsigned reg, unsigned rm_reg, u8 mmmmm, u8 w, unsigned vvvv,
            u8 l, u8 pp);
  void evex(unsigned reg, unsigned rm_reg, u8 mm, u8 w, unsigned vvvv, u8 pp);

  std::vector<u8> code_;
  std::vector<u64> literals_;
  struct LitFixup {
    usize disp_pos;  ///< offset of the disp32 field
    u32 lit_index;
  };
  std::vector<LitFixup> lit_fixups_;
  usize code_size_ = 0;
};

// ---------------------------------------------------------------------------
// Length-decoder (the disassembly self-check oracle).
// ---------------------------------------------------------------------------

struct JitDecodedInsn {
  u32 length = 0;          ///< bytes consumed
  std::string_view name;   ///< mnemonic, for test diagnostics
};

/// Decode one instruction at `p` (at most `n` bytes available). Returns
/// nullopt if the bytes do not match any allowlisted encoder form — the
/// self-check test treats that as an emitter table bug.
[[nodiscard]] std::optional<JitDecodedInsn> jit_decode_one(const u8* p,
                                                           usize n);

}  // namespace kvx::sim
