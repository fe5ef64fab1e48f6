#include "kvx/sim/jit/jit_code.hpp"

#include <cstring>

#include "kvx/common/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define KVX_JIT_HAVE_MMAP 1
#else
#define KVX_JIT_HAVE_MMAP 0
#endif

namespace kvx::sim {

// ---------------------------------------------------------------------------
// JitCodeBuffer
// ---------------------------------------------------------------------------

JitCodeBuffer::~JitCodeBuffer() {
#if KVX_JIT_HAVE_MMAP
  if (base_ != nullptr) ::munmap(base_, size_);
#endif
}

JitCodeBuffer::JitCodeBuffer(JitCodeBuffer&& other) noexcept
    : base_(other.base_), size_(other.size_), sealed_(other.sealed_) {
  other.base_ = nullptr;
  other.size_ = 0;
  other.sealed_ = false;
}

JitCodeBuffer& JitCodeBuffer::operator=(JitCodeBuffer&& other) noexcept {
  if (this != &other) {
#if KVX_JIT_HAVE_MMAP
    if (base_ != nullptr) ::munmap(base_, size_);
#endif
    base_ = other.base_;
    size_ = other.size_;
    sealed_ = other.sealed_;
    other.base_ = nullptr;
    other.size_ = 0;
    other.sealed_ = false;
  }
  return *this;
}

JitCodeBuffer JitCodeBuffer::allocate(usize bytes) {
#if KVX_JIT_HAVE_MMAP
  const usize page = static_cast<usize>(::sysconf(_SC_PAGESIZE));
  const usize size = (bytes + page - 1) / page * page;
  void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    throw SimError("jit: mmap of code buffer failed");
  }
  JitCodeBuffer buf;
  buf.base_ = static_cast<u8*>(p);
  buf.size_ = size;
  return buf;
#else
  (void)bytes;
  throw SimError("jit: no executable-memory support on this platform");
#endif
}

void JitCodeBuffer::seal() {
#if KVX_JIT_HAVE_MMAP
  KVX_CHECK_MSG(base_ != nullptr && !sealed_, "seal of empty/sealed buffer");
  if (::mprotect(base_, size_, PROT_READ | PROT_EXEC) != 0) {
    throw SimError("jit: mprotect(PROT_EXEC) failed (W^X policy?)");
  }
  sealed_ = true;
#else
  throw SimError("jit: no executable-memory support on this platform");
#endif
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

namespace {
constexpr unsigned kRdi = 7;  ///< base register of every [reg + disp32] form
}  // namespace

void JitAssembler::imm32(u32 v) {
  byte(static_cast<u8>(v));
  byte(static_cast<u8>(v >> 8));
  byte(static_cast<u8>(v >> 16));
  byte(static_cast<u8>(v >> 24));
}

void JitAssembler::ret() { byte(0xC3); }

void JitAssembler::vzeroupper() {
  // VEX3 form of vzeroupper (C5-prefix-free keeps the decoder to two prefix
  // shapes): C4 E1 78 77.
  byte(0xC4);
  byte(0xE1);
  byte(0x78);
  byte(0x77);
}

void JitAssembler::rdi_mem_operand(unsigned reg_field, i32 disp) {
  byte(static_cast<u8>(0x80 | ((reg_field & 7) << 3) | kRdi));  // mod=10
  imm32(static_cast<u32>(disp));
}

void JitAssembler::rip_lit_operand(unsigned reg_field, u32 lit_index) {
  byte(static_cast<u8>(((reg_field & 7) << 3) | 0x05));  // mod=00, rm=101
  lit_fixups_.push_back({code_.size(), lit_index});
  imm32(0);
}

void JitAssembler::vex3(unsigned reg, unsigned rm_reg, u8 mmmmm, u8 w,
                        unsigned vvvv, u8 l, u8 pp) {
  byte(0xC4);
  byte(static_cast<u8>(((reg >= 8 ? 0u : 1u) << 7) | (1u << 6) |
                       ((rm_reg >= 8 ? 0u : 1u) << 5) | mmmmm));
  byte(static_cast<u8>((static_cast<unsigned>(w) << 7) |
                       ((~vvvv & 0xFu) << 3) |
                       (static_cast<unsigned>(l) << 2) | pp));
}

void JitAssembler::evex(unsigned reg, unsigned rm_reg, u8 mm, u8 w,
                        unsigned vvvv, u8 pp) {
  byte(0x62);
  byte(static_cast<u8>((((reg >> 3) & 1u ? 0u : 1u) << 7) |
                       (((rm_reg >> 4) & 1u ? 0u : 1u) << 6) |
                       (((rm_reg >> 3) & 1u ? 0u : 1u) << 5) |
                       (((reg >> 4) & 1u ? 0u : 1u) << 4) | mm));
  byte(static_cast<u8>((static_cast<unsigned>(w) << 7) |
                       ((~vvvv & 0xFu) << 3) | (1u << 2) | pp));
  // 512-bit, unmasked, no broadcast: L'L = 10, V' = ~vvvv[4], aaa = 0.
  byte(static_cast<u8>(0x40u | (((vvvv >> 4) & 1u ? 0u : 1u) << 3)));
}

void JitAssembler::vex_load(unsigned dst, i32 disp) {
  vex3(dst, kRdi, 1, 0, 0, 1, 2);  // F3 0F, L=256
  byte(0x6F);
  rdi_mem_operand(dst, disp);
}

void JitAssembler::vex_store(unsigned src, i32 disp) {
  vex3(src, kRdi, 1, 0, 0, 1, 2);
  byte(0x7F);
  rdi_mem_operand(src, disp);
}

void JitAssembler::vex_rrr(u8 opcode, unsigned dst, unsigned a, unsigned b) {
  vex3(dst, b, 1, 0, a, 1, 1);  // 66 0F, L=256
  byte(opcode);
  byte(static_cast<u8>(0xC0 | ((dst & 7) << 3) | (b & 7)));
}

void JitAssembler::vex_rrm(u8 opcode, unsigned dst, unsigned a, i32 disp) {
  vex3(dst, kRdi, 1, 0, a, 1, 1);
  byte(opcode);
  rdi_mem_operand(dst, disp);
}

void JitAssembler::vex_shift_imm(unsigned reg_field, unsigned dst,
                                 unsigned src, u8 imm) {
  // Shift-by-immediate is VEX.NDD: the destination lives in vvvv.
  vex3(0, src, 1, 0, dst, 1, 1);
  byte(0x73);
  byte(static_cast<u8>(0xC0 | ((reg_field & 7) << 3) | (src & 7)));
  byte(imm);
}

void JitAssembler::vex_broadcast_lit(unsigned dst, u32 lit_index) {
  vex3(dst, 0, 2, 0, 0, 1, 1);  // 66 0F38.W0, L=256
  byte(0x59);
  rip_lit_operand(dst, lit_index);
}

void JitAssembler::evex_load(unsigned dst, i32 disp) {
  evex(dst, kRdi, 1, 1, 0, 2);  // F3 0F.W1
  byte(0x6F);
  rdi_mem_operand(dst, disp);
}

void JitAssembler::evex_store(unsigned src, i32 disp) {
  evex(src, kRdi, 1, 1, 0, 2);
  byte(0x7F);
  rdi_mem_operand(src, disp);
}

void JitAssembler::evex_mov_rr(unsigned dst, unsigned src) {
  evex(dst, src, 1, 1, 0, 2);
  byte(0x6F);
  byte(static_cast<u8>(0xC0 | ((dst & 7) << 3) | (src & 7)));
}

void JitAssembler::evex_vpxorq(unsigned dst, unsigned a, unsigned b) {
  evex(dst, b, 1, 1, a, 1);  // 66 0F.W1
  byte(0xEF);
  byte(static_cast<u8>(0xC0 | ((dst & 7) << 3) | (b & 7)));
}

void JitAssembler::evex_vpternlogq(unsigned dst, unsigned a, unsigned b,
                                   u8 imm) {
  evex(dst, b, 3, 1, a, 1);  // 66 0F3A.W1
  byte(0x25);
  byte(static_cast<u8>(0xC0 | ((dst & 7) << 3) | (b & 7)));
  byte(imm);
}

void JitAssembler::evex_vprolq(unsigned dst, unsigned src, u8 imm) {
  // Rotate-by-immediate is EVEX.NDD: the destination lives in vvvv and the
  // modrm reg field selects the /1 (rol) form.
  evex(1, src, 1, 1, dst, 1);
  byte(0x72);
  byte(static_cast<u8>(0xC0 | (1u << 3) | (src & 7)));
  byte(imm);
}

void JitAssembler::evex_broadcast_lit(unsigned dst, u32 lit_index) {
  evex(dst, 0, 2, 1, 0, 1);  // 66 0F38.W1
  byte(0x59);
  rip_lit_operand(dst, lit_index);
}

u32 JitAssembler::add_literal(u64 value) {
  for (usize i = 0; i < literals_.size(); ++i) {
    if (literals_[i] == value) return static_cast<u32>(i);
  }
  literals_.push_back(value);
  return static_cast<u32>(literals_.size() - 1);
}

std::vector<u8> JitAssembler::finalize() {
  code_size_ = code_.size();
  std::vector<u8> out = code_;
  // 8-align the literal pool; the padding sits past code_size() so the
  // disassembly self-check never sees it.
  while (out.size() % 8 != 0) out.push_back(0xCC);
  const usize pool = out.size();
  for (const u64 lit : literals_) {
    for (unsigned i = 0; i < 8; ++i) {
      out.push_back(static_cast<u8>(lit >> (8 * i)));
    }
  }
  for (const LitFixup& fx : lit_fixups_) {
    const usize target = pool + usize{8} * fx.lit_index;
    const i64 rel = static_cast<i64>(target) - static_cast<i64>(fx.disp_pos + 4);
    const u32 v = static_cast<u32>(static_cast<i32>(rel));
    std::memcpy(out.data() + fx.disp_pos, &v, 4);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Length-decoder
// ---------------------------------------------------------------------------

namespace {

/// modrm/displacement length for the two memory shapes the encoder can
/// produce, plus register-direct. Returns 0 for anything else.
u32 modrm_tail_len(const u8* p, usize n) {
  if (n < 1) return 0;
  const u8 modrm = p[0];
  const u8 mod = static_cast<u8>(modrm >> 6);
  const u8 rm = static_cast<u8>(modrm & 7);
  if (mod == 3) return 1;                      // register direct
  if (mod == 0 && rm == 5) return n >= 5 ? 5 : 0;  // [rip + disp32]
  if (mod == 2 && rm == 7) return n >= 5 ? 5 : 0;  // [rdi + disp32]
  return 0;
}

std::optional<JitDecodedInsn> decode_vex3(const u8* p, usize n) {
  if (n < 4) return std::nullopt;
  const u8 mmmmm = static_cast<u8>(p[1] & 0x1F);
  const u8 w = static_cast<u8>(p[2] >> 7);
  const u8 l = static_cast<u8>((p[2] >> 2) & 1);
  const u8 pp = static_cast<u8>(p[2] & 3);
  const u8 op = p[3];
  if (mmmmm == 1 && pp == 0 && l == 0 && op == 0x77) {
    return JitDecodedInsn{4, "vzeroupper"};
  }
  if (w != 0 || l != 1) return std::nullopt;
  const u8* body = p + 4;
  const usize left = n - 4;
  const u32 tail = modrm_tail_len(body, left);
  if (tail == 0) return std::nullopt;
  if (mmmmm == 1 && pp == 2 && (op == 0x6F || op == 0x7F)) {
    return JitDecodedInsn{4 + tail, op == 0x6F ? "vmovdqu(load)"
                                               : "vmovdqu(store)"};
  }
  if (mmmmm == 1 && pp == 1) {
    switch (op) {
      case 0xEF: return JitDecodedInsn{4 + tail, "vpxor"};
      case 0xDB: return JitDecodedInsn{4 + tail, "vpand"};
      case 0xDF: return JitDecodedInsn{4 + tail, "vpandn"};
      case 0xEB: return JitDecodedInsn{4 + tail, "vpor"};
      case 0x73: {
        const u8 reg = static_cast<u8>((body[0] >> 3) & 7);
        if ((reg != 2 && reg != 6) || (body[0] >> 6) != 3) {
          return std::nullopt;
        }
        if (left < tail + 1) return std::nullopt;
        return JitDecodedInsn{4 + tail + 1, reg == 6 ? "vpsllq" : "vpsrlq"};
      }
      default: return std::nullopt;
    }
  }
  if (mmmmm == 2 && pp == 1 && op == 0x59) {
    return JitDecodedInsn{4 + tail, "vpbroadcastq"};
  }
  return std::nullopt;
}

std::optional<JitDecodedInsn> decode_evex(const u8* p, usize n) {
  if (n < 6) return std::nullopt;
  if ((p[1] & 0x0C) != 0) return std::nullopt;  // reserved bits must be 0
  const u8 mm = static_cast<u8>(p[1] & 3);
  const u8 w = static_cast<u8>(p[2] >> 7);
  const u8 pp = static_cast<u8>(p[2] & 3);
  if ((p[2] & 0x04) == 0) return std::nullopt;  // fixed-1 bit
  if ((p[3] & 0xF0) != 0x40) return std::nullopt;  // z=0, L'L=10, b=0
  const u8 op = p[4];
  const u8* body = p + 5;
  const usize left = n - 5;
  const u32 tail = modrm_tail_len(body, left);
  if (tail == 0 || w != 1) return std::nullopt;
  if (mm == 1 && pp == 2 && (op == 0x6F || op == 0x7F)) {
    return JitDecodedInsn{5 + tail, op == 0x6F ? "vmovdqu64(load)"
                                               : "vmovdqu64(store)"};
  }
  if (mm == 1 && pp == 1 && op == 0xEF) {
    return JitDecodedInsn{5 + tail, "vpxorq"};
  }
  if (mm == 1 && pp == 1 && op == 0x72) {
    const u8 reg = static_cast<u8>((body[0] >> 3) & 7);
    if (reg != 1 || (body[0] >> 6) != 3) return std::nullopt;
    if (left < tail + 1) return std::nullopt;
    return JitDecodedInsn{5 + tail + 1, "vprolq"};
  }
  if (mm == 3 && pp == 1 && op == 0x25) {
    if (left < tail + 1) return std::nullopt;
    return JitDecodedInsn{5 + tail + 1, "vpternlogq"};
  }
  if (mm == 2 && pp == 1 && op == 0x59) {
    return JitDecodedInsn{5 + tail, "vpbroadcastq"};
  }
  return std::nullopt;
}

}  // namespace

std::optional<JitDecodedInsn> jit_decode_one(const u8* p, usize n) {
  if (n == 0) return std::nullopt;
  if (p[0] == 0x62) return decode_evex(p, n);
  if (p[0] == 0xC4) return decode_vex3(p, n);
  if (p[0] == 0xC3) return JitDecodedInsn{1, "ret"};
  return std::nullopt;
}

}  // namespace kvx::sim
