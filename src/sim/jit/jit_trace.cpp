#include "kvx/sim/jit/jit_trace.hpp"

#include <cstdint>
#include <cstring>

#include "kvx/common/error.hpp"
#include "kvx/obs/metrics.hpp"

namespace kvx::sim {

namespace {

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

/// The packed-state buffer the emitted function works in: 25 × 64 bytes,
/// one zmm per state register under AVX-512, or two 25 × 32 buffers under
/// AVX2 (ρπ writes the renamed registers into the alternate buffer and the
/// buffers swap roles).
constexpr i32 kAvx2BufBytes = 25 * 32;

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

void emit_function(JitAssembler& a, const HostSimdTrace& hs, HostSimdIsa isa) {
  const RhoPiMap m = rho_pi_map();
  const bool wide = isa == HostSimdIsa::kAvx512;
  const HostSimdItem& seg = hs.items()[1];  // a direct plan's one segment

  // AVX-512 holds the state in zmm0–24 from entry to exit; AVX2 works on
  // the buffer in memory and, if an odd number of ρπ kernels left the
  // result in the alternate half, copies it back.
  i32 cur = 0, alt = kAvx2BufBytes;
  if (wide) {
    for (unsigned i = 0; i < 25; ++i) a.evex_load(i, static_cast<i32>(i) * 64);
  }
  for (u32 k = 0; k < seg.kernel_count; ++k) {
    const HostSimdKernel& ker = hs.kernels()[seg.kernel_first + k];
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
  }
  if (wide) {
    for (unsigned i = 0; i < 25; ++i) a.evex_store(i, static_cast<i32>(i) * 64);
  } else if (cur != 0) {
    for (unsigned i = 0; i < 25; ++i) {
      a.vex_load(0, cur + static_cast<i32>(i) * 32);
      a.vex_store(0, static_cast<i32>(i) * 32);
    }
  }
  a.vzeroupper();
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
  if (!hs->direct_state_base().has_value()) {
    throw SimError(
        "jit: plan is not [state-load replay][segment][state-store replay]");
  }
  const HostSimdIsa isa = host_simd_dispatch_isa(hs->sn());
  if (!jit_emits(isa, hs->sn())) {
    throw SimError("jit: dispatch form '" +
                   std::string(host_simd_form_name(isa, hs->sn())) +
                   "' has no native emitter");
  }
  JitAssembler a;
  emit_function(a, *hs, isa);
  const std::vector<u8> image = a.finalize();

  auto trace = std::make_shared<JitTrace>();
  trace->hs_ = std::move(hs);
  trace->buf_ = JitCodeBuffer::allocate(image.size());
  std::memcpy(trace->buf_.data(), image.data(), image.size());
  trace->buf_.seal();
  trace->code_size_ = a.code_size();
  trace->literals_ = a.literal_count();
  trace->isa_ = isa;
  trace->pack_ = host_simd_pack_width(isa);
  jit_emitted_bytes_counter().inc(image.size());
  return trace;
}

void JitTrace::permute(std::span<keccak::State> states) const {
  // An ISA pin or environment change since emission invalidates the baked
  // code; throwing (before any state is touched) demotes this dispatch to
  // host-simd, which re-resolves per dispatch.
  if (host_simd_dispatch_isa(hs_->sn()) != isa_) {
    throw SimError("jit: host ISA changed since emission");
  }
  KVX_CHECK_MSG(states.size() <= hs_->sn(), "jit: more states than SN");
  using Fn = void (*)(u64*);
  const auto fn =
      reinterpret_cast<Fn>(reinterpret_cast<std::uintptr_t>(buf_.data()));
  const u32 n = static_cast<u32>(states.size());
  const u32 groups = (n + pack_ - 1) / pack_;
  alignas(64) u64 buf[2 * 25 * 4];  // 25 zmm, or two 25-ymm AVX2 buffers
  for (u32 g = 0; g < groups; ++g) {
    host_simd_pack_states(states.data(), n, g * pack_, pack_, buf);
    fn(buf);
    host_simd_unpack_states(states.data(), n, g * pack_, pack_, buf);
  }
  jit_dispatch_counter(isa_).inc();
  hs_->count_direct_transposes(groups);
}

}  // namespace kvx::sim
