#include "kvx/sim/jit/jit_trace.hpp"

#include <cstdint>
#include <cstring>
#include <exception>

#include "kvx/common/error.hpp"
#include "kvx/obs/metrics.hpp"

namespace kvx::sim {

namespace {

// ---------------------------------------------------------------------------
// Runtime context and shims.
//
// The emitted function receives one pointer (rdi): this context. It keeps
// the ctx pinned in rbx and calls back into C++ for the packed transposes,
// for the live-out scratch writes and for the plan's replay ranges. The
// SysV ABI makes every vector register caller-saved, so the emitter spills
// the packed state around every shim call (AVX-512) or keeps it
// memory-resident (AVX2).
// ---------------------------------------------------------------------------

struct JitCtx {
  u8* file = nullptr;  ///< vu.file_data() of this dispatch
  u32 rb = 0;          ///< regfile row stride in bytes
  u32 sn = 0;          ///< states per register row
  u32 pack = 0;        ///< states per host register
  const HostSimdTrace* hs = nullptr;
  VectorUnit* vu = nullptr;
  Memory* mem = nullptr;
  const CycleModel* cm = nullptr;
  std::exception_ptr* error = nullptr;
};

void jit_pack_shim(JitCtx* ctx, u64* buf, u32 loc, u32 s0) noexcept {
  host_simd_pack(ctx->file, loc, ctx->rb, ctx->sn, s0, ctx->pack, buf);
}

void jit_unpack_shim(JitCtx* ctx, u64* buf, u32 loc, u32 s0) noexcept {
  host_simd_unpack(ctx->file, loc, ctx->rb, ctx->sn, s0, ctx->pack, buf);
}

/// Split-segment transposes (the 32-bit arch): `locs` is the lo-plane
/// offset in the low word and the hi-plane offset in the high word.
void jit_pack_split_shim(JitCtx* ctx, u64* buf, u64 locs, u32 s0) noexcept {
  host_simd_pack_split(ctx->file, static_cast<u32>(locs),
                       static_cast<u32>(locs >> 32), ctx->rb, ctx->sn, s0,
                       ctx->pack, buf);
}

void jit_unpack_split_shim(JitCtx* ctx, u64* buf, u64 locs, u32 s0) noexcept {
  host_simd_unpack_split(ctx->file, static_cast<u32>(locs),
                         static_cast<u32>(locs >> 32), ctx->rb, ctx->sn, s0,
                         ctx->pack, buf);
}

/// Write plan kernel `kernel`'s live-out scratch rows from its packed input
/// state, before the emitted kernel body runs.
void jit_scratch_shim(JitCtx* ctx, u64* buf, u32 kernel, u32 s0) noexcept {
  const HostSimdKernel& k = ctx->hs->kernels()[kernel];
  write_scratch_rows(ctx->file, ctx->sn, s0, ctx->pack, buf,
                     ctx->hs->fused().scratch_rows().data() + k.scratch_first,
                     k.scratch_count);
}

/// Replay one unlowered plan item's records. Returns nonzero on a C++
/// exception (captured into ctx->error); the emitted code branches to the
/// epilogue and execute() rethrows — native frames never unwind.
int jit_replay_shim(JitCtx* ctx, u32 item_index) noexcept {
  try {
    const HostSimdItem& item = ctx->hs->items()[item_index];
    ctx->hs->base().replay(item.first, item.count, *ctx->vu, *ctx->mem,
                           *ctx->cm);
    return 0;
  } catch (...) {
    *ctx->error = std::current_exception();
    return 1;
  }
}

// ---------------------------------------------------------------------------
// Emission.
// ---------------------------------------------------------------------------

/// ρ/π as a register permutation: new[kPi[s]] = rol(old[s], kAmt[s]), with
/// s = 5r + x' indexing V[5y + x] = lane (x, y). Matches the kRhoPi64
/// step's mapping (host_simd_kernels.inc), which lower_host_simd already
/// cross-checked against keccak::rho_offsets().
struct RhoPiMap {
  unsigned dst[25];
  u8 amt[25];
};

RhoPiMap rho_pi_map() {
  static constexpr u8 kRho[5][5] = {{0, 1, 62, 28, 27},
                                    {36, 44, 6, 55, 20},
                                    {3, 10, 43, 25, 39},
                                    {41, 45, 15, 21, 8},
                                    {18, 2, 61, 56, 14}};
  RhoPiMap m{};
  for (unsigned r = 0; r < 5; ++r) {
    for (unsigned xp = 0; xp < 5; ++xp) {
      const unsigned s = 5 * r + xp;
      m.dst[s] = 5 * ((2 * (xp + 5 - r)) % 5) + r;
      m.amt[s] = kRho[r][xp];
    }
  }
  return m;
}

/// Stack frame: the packed-state buffers live at [rsp, rsp + 1600) —
/// 25 × 64 bytes under AVX-512 (one zmm spill slot per state register), or
/// two 25 × 32 double buffers under AVX2 (ρπ writes the renamed registers
/// into the alternate buffer and the buffers swap roles).
constexpr u32 kFrameBytes = 1664;  // 1600 + 64-byte alignment headroom
constexpr i32 kAvx2BufBytes = 25 * 32;

/// Transpose-shim call: rdi = ctx, rsi = packed-state buffer, rdx = plane
/// offset (u32; a split segment's lo/hi offsets as one u64 via movabs),
/// rcx = first state of the pack group.
template <typename Loc>
void emit_shim_call(JitAssembler& a, void (*fn)(JitCtx*, u64*, Loc, u32),
                    i32 buf_off, Loc loc, u32 s0) {
  a.vzeroupper();
  a.mov_rr64(kRdi, kRbx);
  a.lea_rsp_disp32(kRsi, buf_off);
  if constexpr (sizeof(Loc) == 8) {
    a.mov_ri64(kRdx, loc);
  } else {
    a.mov_ri32(kRdx, loc);
  }
  a.mov_ri32(kRcx, s0);
  a.mov_ri64(kRax, static_cast<u64>(reinterpret_cast<std::uintptr_t>(fn)));
  a.call_rax();
}

void emit_replay_call(JitAssembler& a, u32 item_index) {
  a.vzeroupper();
  a.mov_rr64(kRdi, kRbx);
  a.mov_ri32(kRsi, item_index);
  a.mov_ri64(kRax, static_cast<u64>(reinterpret_cast<std::uintptr_t>(
                       &jit_replay_shim)));
  a.call_rax();
  a.test_eax_eax();
  a.jnz_placeholder();
}

// --- AVX-512 kernels: state resident in zmm0–24, scratch zmm25–31 ---

void emit_theta512(JitAssembler& a) {
  // Column parities C[x] = XOR over the five rows, two ternary-logic XOR3s
  // each; then D[x] = C[x+4] ^ rol(C[x+1], 1) applied down the column.
  for (unsigned x = 0; x < 5; ++x) {
    a.evex_mov_rr(25 + x, x);
    a.evex_vpternlogq(25 + x, x + 5, x + 10, 0x96);
    a.evex_vpternlogq(25 + x, x + 15, x + 20, 0x96);
  }
  for (unsigned x = 0; x < 5; ++x) {
    a.evex_vprolq(30, 25 + (x + 1) % 5, 1);
    a.evex_vpxorq(30, 30, 25 + (x + 4) % 5);
    for (unsigned y = 0; y < 5; ++y) a.evex_vpxorq(5 * y + x, 5 * y + x, 30);
  }
}

void emit_rhopi512(JitAssembler& a, const RhoPiMap& m) {
  // π is pure register renaming: walk each permutation cycle with a single
  // temporary, rotating by the ρ immediates as the values move. Writing the
  // cycle in reverse order keeps every source register still-unread.
  bool done[25] = {};
  done[0] = true;  // lane (0,0) is the fixed point with rotation 0
  for (unsigned s = 1; s < 25; ++s) {
    if (done[s]) continue;
    unsigned cyc[25];
    unsigned k = 0;
    for (unsigned c = s; !done[c]; c = m.dst[c]) {
      cyc[k++] = c;
      done[c] = true;
    }
    a.evex_mov_rr(30, cyc[0]);
    a.evex_vprolq(cyc[0], cyc[k - 1], m.amt[cyc[k - 1]]);
    for (unsigned i = k - 1; i >= 2; --i) {
      a.evex_vprolq(cyc[i], cyc[i - 1], m.amt[cyc[i - 1]]);
    }
    a.evex_vprolq(cyc[1], 30, m.amt[cyc[0]]);
  }
}

void emit_chi512(JitAssembler& a, const HostSimdKernel& ker) {
  // One ternary-logic Chi per lane, with the old row saved in scratch.
  for (unsigned y = 0; y < 25; y += 5) {
    for (unsigned x = 0; x < 5; ++x) a.evex_mov_rr(25 + x, y + x);
    for (unsigned x = 0; x < 5; ++x) {
      a.evex_vpternlogq(y + x, 25 + (x + 1) % 5, 25 + (x + 2) % 5, 0xD2);
    }
  }
  if (ker.iota) {
    a.evex_broadcast_lit(31, a.add_literal(ker.iota_rc));
    a.evex_vpxorq(0, 0, 31);
  }
}

// --- AVX2 kernels: memory-resident state, double-buffered across ρπ ---

void emit_theta2(JitAssembler& a, i32 cur) {
  for (unsigned x = 0; x < 5; ++x) {
    a.vex_load(x, cur + static_cast<i32>(x) * 32);
    for (unsigned k = 1; k < 5; ++k) {
      a.vex_rrm(0xEF, x, x, cur + static_cast<i32>(x + 5 * k) * 32);
    }
  }
  for (unsigned x = 0; x < 5; ++x) {
    a.vex_shift_imm(6, 10, (x + 1) % 5, 1);
    a.vex_shift_imm(2, 11, (x + 1) % 5, 63);
    a.vex_rrr(0xEB, 10, 10, 11);
    a.vex_rrr(0xEF, 5 + x, 10, (x + 4) % 5);
  }
  for (unsigned i = 0; i < 25; ++i) {
    a.vex_rrm(0xEF, 10, 5 + i % 5, cur + static_cast<i32>(i) * 32);
    a.vex_store(10, cur + static_cast<i32>(i) * 32);
  }
}

void emit_rhopi2(JitAssembler& a, const RhoPiMap& m, i32 cur, i32 alt) {
  for (unsigned s = 0; s < 25; ++s) {
    a.vex_load(0, cur + static_cast<i32>(s) * 32);
    if (m.amt[s] != 0) {
      a.vex_shift_imm(6, 1, 0, m.amt[s]);
      a.vex_shift_imm(2, 2, 0, static_cast<u8>(64 - m.amt[s]));
      a.vex_rrr(0xEB, 0, 1, 2);
    }
    a.vex_store(0, alt + static_cast<i32>(m.dst[s]) * 32);
  }
}

void emit_chi2(JitAssembler& a, const HostSimdKernel& ker, i32 cur) {
  for (unsigned y = 0; y < 25; y += 5) {
    for (unsigned x = 0; x < 5; ++x) {
      a.vex_load(x, cur + static_cast<i32>(y + x) * 32);
    }
    for (unsigned x = 0; x < 5; ++x) {
      a.vex_rrr(0xDF, 5, (x + 1) % 5, (x + 2) % 5);
      a.vex_rrr(0xEF, 5, 5, x);
      if (ker.iota && y == 0 && x == 0) {
        a.vex_broadcast_lit(6, a.add_literal(ker.iota_rc));
        a.vex_rrr(0xEF, 5, 5, 6);
      }
      a.vex_store(5, cur + static_cast<i32>(y + x) * 32);
    }
  }
}

void emit_function(JitAssembler& a, const HostSimdTrace& hs, HostSimdIsa isa,
                   u32 pack, u32 groups) {
  const RhoPiMap m = rho_pi_map();
  const bool wide = isa == HostSimdIsa::kAvx512;

  // Prologue: rbp frame, ctx pinned in callee-saved rbx (r12 saved only to
  // keep the frame 16-byte aligned), packed-state buffers carved from the
  // stack and 64-byte aligned.
  a.push_r64(kRbp);
  a.mov_rr64(kRbp, kRsp);
  a.push_r64(kRbx);
  a.push_r64(kR12);
  a.mov_rr64(kRbx, kRdi);
  a.sub_rsp_imm32(kFrameBytes);
  a.and_rsp_imm8(-64);

  // AVX-512 spill/reload of the zmm0–24 state around shim calls.
  const auto store_state = [&a] {
    for (unsigned i = 0; i < 25; ++i) a.evex_store(i, static_cast<i32>(i) * 64);
  };
  const auto load_state = [&a] {
    for (unsigned i = 0; i < 25; ++i) a.evex_load(i, static_cast<i32>(i) * 64);
  };
  const auto& items = hs.items();
  const auto& kernels = hs.kernels();
  for (u32 it = 0; it < items.size(); ++it) {
    const HostSimdItem& item = items[it];
    if (item.kernel_count == 0) {
      emit_replay_call(a, it);
      continue;
    }
    // Split segments differ only in which transposes they call.
    const auto emit_pack = [&](u32 s0) {
      if (item.split) {
        emit_shim_call(a, &jit_pack_split_shim, 0,
                       (u64{item.pack_loc2} << 32) | item.pack_loc, s0);
      } else {
        emit_shim_call(a, &jit_pack_shim, 0, item.pack_loc, s0);
      }
    };
    const auto emit_unpack = [&](const HostSimdKernel& ker, i32 buf_off,
                                 u32 s0) {
      if (item.split) {
        emit_shim_call(a, &jit_unpack_split_shim, buf_off,
                       (u64{ker.unpack_loc2} << 32) | ker.unpack_loc, s0);
      } else {
        emit_shim_call(a, &jit_unpack_shim, buf_off, ker.unpack_loc, s0);
      }
    };
    for (u32 g = 0; g < groups; ++g) {
      const u32 s0 = g * pack;
      emit_pack(s0);
      i32 cur = 0, alt = kAvx2BufBytes;
      if (wide) load_state();
      for (u32 k = 0; k < item.kernel_count; ++k) {
        const HostSimdKernel& ker = kernels[item.kernel_first + k];
        if (ker.scratch_count != 0) {  // cur is 0 under AVX-512
          if (wide) store_state();
          emit_shim_call(a, &jit_scratch_shim, cur, item.kernel_first + k, s0);
          if (wide) load_state();
        }
        switch (ker.kind) {
          case HostSimdKernelKind::kTheta:
            wide ? emit_theta512(a) : emit_theta2(a, cur);
            break;
          case HostSimdKernelKind::kRhoPi:
            if (wide) {
              emit_rhopi512(a, m);
            } else {
              emit_rhopi2(a, m, cur, alt);
              std::swap(cur, alt);
            }
            break;
          case HostSimdKernelKind::kChi:
            wide ? emit_chi512(a, ker) : emit_chi2(a, ker, cur);
            break;
        }
        if (ker.unpack) {
          if (wide) {
            store_state();
            emit_unpack(ker, 0, s0);
            if (k + 1 < item.kernel_count) load_state();
          } else {
            emit_unpack(ker, cur, s0);
          }
        }
      }
    }
  }

  // Shared epilogue — also the landing pad of every replay error branch.
  a.bind_jnz_targets(a.pos());
  a.vzeroupper();
  a.lea_rbp_disp8(kRsp, -16);
  a.pop_r64(kR12);
  a.pop_r64(kRbx);
  a.pop_r64(kRbp);
  a.ret();
}

// ---------------------------------------------------------------------------
// Observability.
// ---------------------------------------------------------------------------

obs::Counter& jit_dispatch_counter(HostSimdIsa isa) {
  static obs::Counter& avx2 = obs::MetricsRegistry::global().counter(
      "kvx_jit_dispatch_avx2_total",
      "JIT executions dispatched to AVX2-emitted code");
  static obs::Counter& avx512 = obs::MetricsRegistry::global().counter(
      "kvx_jit_dispatch_avx512_total",
      "JIT executions dispatched to AVX-512-emitted code");
  return isa == HostSimdIsa::kAvx512 ? avx512 : avx2;
}

obs::Counter& jit_emitted_bytes_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "kvx_jit_emitted_bytes_total",
      "Native code bytes emitted by the JIT backend (pre-page-rounding)");
  return c;
}

}  // namespace

bool jit_supported() noexcept {
#if !defined(KVX_JIT)
#define KVX_JIT 1
#endif
#if KVX_JIT && defined(__x86_64__) && (defined(__unix__) || defined(__APPLE__))
  return true;
#else
  return false;
#endif
}

std::shared_ptr<const JitTrace> lower_jit(
    std::shared_ptr<const HostSimdTrace> hs) {
  KVX_CHECK_MSG(hs != nullptr, "lower_jit: null host-simd plan");
  if (!jit_supported()) {
    throw SimError("jit: native emission requires an x86-64 host with mmap");
  }
  if (hs->segment_count() == 0) {
    throw SimError("jit: the host-simd plan lowers nothing to emit");
  }
  const HostSimdIsa isa = host_simd_dispatch_isa(hs->sn());
  if (isa != HostSimdIsa::kAvx2 && isa != HostSimdIsa::kAvx512) {
    throw SimError("jit: dispatch ISA '" +
                   std::string(host_simd_isa_name(isa)) +
                   "' has no native emitter");
  }
  const u32 pack = host_simd_pack_width(isa);
  const u32 groups = (hs->sn() + pack - 1) / pack;

  JitAssembler a;
  emit_function(a, *hs, isa, pack, groups);
  const std::vector<u8> image = a.finalize();

  auto trace = std::make_shared<JitTrace>();
  trace->hs_ = std::move(hs);
  trace->buf_ = JitCodeBuffer::allocate(image.size());
  std::memcpy(trace->buf_.data(), image.data(), image.size());
  trace->buf_.seal();
  trace->code_size_ = a.code_size();
  trace->literals_ = a.literal_count();
  trace->isa_ = isa;
  trace->pack_ = pack;
  trace->groups_ = groups;
  jit_emitted_bytes_counter().inc(image.size());
  return trace;
}

void JitTrace::execute(VectorUnit& vu, Memory& mem,
                       const CycleModel& cm) const {
  KVX_CHECK_MSG(vu.reg_bytes() == hs_->base().reg_bytes(),
                "trace compiled for a different vector configuration");
  // An ISA pin or environment change since emission invalidates the baked
  // code paths; throwing demotes this dispatch to host-simd, which
  // re-resolves per execute.
  if (host_simd_dispatch_isa(hs_->sn()) != isa_) {
    throw SimError("jit: host ISA changed since emission");
  }
  JitCtx ctx;
  ctx.file = vu.file_data();
  ctx.rb = static_cast<u32>(hs_->base().reg_bytes());
  ctx.sn = hs_->sn();
  ctx.pack = pack_;
  ctx.hs = hs_.get();
  ctx.vu = &vu;
  ctx.mem = &mem;
  ctx.cm = &cm;
  std::exception_ptr error;
  ctx.error = &error;
  const unsigned entry_sn = vu.config().effective_sn();

  using Fn = void (*)(JitCtx*);
  const auto fn =
      reinterpret_cast<Fn>(reinterpret_cast<std::uintptr_t>(buf_.data()));
  fn(&ctx);

  if (vu.config().effective_sn() != entry_sn) vu.set_sn(entry_sn);
  if (error) std::rethrow_exception(error);
  jit_dispatch_counter(isa_).inc();
  hs_->count_transposes(groups_);
}

}  // namespace kvx::sim
