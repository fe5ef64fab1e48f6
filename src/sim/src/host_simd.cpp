#include "kvx/sim/host_simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <tuple>
#include <utility>

#include "kvx/common/error.hpp"
#include "kvx/keccak/permutation.hpp"
#include "kvx/obs/metrics.hpp"

// Which lowered paths this translation unit compiles. The portable path
// needs GCC/Clang vector extensions; the intrinsic paths additionally need
// x86-64 and per-function target support (both compilers provide it). The
// KVX_HOST_SIMD build option gates everything but the scalar path, and
// KVX_HOST_SIMD_AVX512 gates the 512-bit path alone so CI can force the
// AVX2 lowering on AVX-512 hardware.
#if defined(KVX_HOST_SIMD) && KVX_HOST_SIMD && \
    (defined(__GNUC__) || defined(__clang__))
#define KVX_HS_HAVE_PORTABLE 1
#else
#define KVX_HS_HAVE_PORTABLE 0
#endif

#if KVX_HS_HAVE_PORTABLE && defined(__x86_64__)
#define KVX_HS_HAVE_AVX2 1
#include <immintrin.h>
#else
#define KVX_HS_HAVE_AVX2 0
#endif

#if KVX_HS_HAVE_AVX2 && defined(KVX_HOST_SIMD_AVX512) && KVX_HOST_SIMD_AVX512
#define KVX_HS_HAVE_AVX512 1
#else
#define KVX_HS_HAVE_AVX512 0
#endif

namespace kvx::sim {

// ---------------------------------------------------------------------------
// Packed-state transpose (ISA-independent: runs only at segment edges).
// ---------------------------------------------------------------------------

void host_simd_pack(const u8* file, u32 loc, u32 rb, u32 sn, u32 s0, u32 pack,
                    u64* buf) noexcept {
  for (u32 y = 0; y < 5; ++y) {
    const u8* row = file + loc + y * rb;
    for (u32 x = 0; x < 5; ++x) {
      u64* lane = buf + (5 * y + x) * pack;
      for (u32 p = 0; p < pack; ++p) {
        const u32 s = s0 + p;
        if (s < sn) {
          std::memcpy(&lane[p], row + 8 * (5 * s + x), 8);
        } else {
          lane[p] = 0;
        }
      }
    }
  }
}

void host_simd_unpack(u8* file, u32 loc, u32 rb, u32 sn, u32 s0, u32 pack,
                      const u64* buf) noexcept {
  for (u32 y = 0; y < 5; ++y) {
    u8* row = file + loc + y * rb;
    for (u32 x = 0; x < 5; ++x) {
      const u64* lane = buf + (5 * y + x) * pack;
      for (u32 p = 0; p < pack && s0 + p < sn; ++p) {
        std::memcpy(row + 8 * (5 * (s0 + p) + x), &lane[p], 8);
      }
    }
  }
}

void host_simd_pack_split(const u8* file, u32 lo_loc, u32 hi_loc, u32 rb,
                          u32 sn, u32 s0, u32 pack, u64* buf) noexcept {
  for (u32 y = 0; y < 5; ++y) {
    const u8* lo = file + lo_loc + y * rb;
    const u8* hi = file + hi_loc + y * rb;
    for (u32 x = 0; x < 5; ++x) {
      u64* lane = buf + (5 * y + x) * pack;
      for (u32 p = 0; p < pack; ++p) {
        const u32 s = s0 + p;
        if (s < sn) {
          u32 l, h;
          std::memcpy(&l, lo + 4 * (5 * s + x), 4);
          std::memcpy(&h, hi + 4 * (5 * s + x), 4);
          lane[p] = (u64{h} << 32) | l;
        } else {
          lane[p] = 0;
        }
      }
    }
  }
}

void host_simd_unpack_split(u8* file, u32 lo_loc, u32 hi_loc, u32 rb, u32 sn,
                            u32 s0, u32 pack, const u64* buf) noexcept {
  for (u32 y = 0; y < 5; ++y) {
    u8* lo = file + lo_loc + y * rb;
    u8* hi = file + hi_loc + y * rb;
    for (u32 x = 0; x < 5; ++x) {
      const u64* lane = buf + (5 * y + x) * pack;
      for (u32 p = 0; p < pack && s0 + p < sn; ++p) {
        const u32 l = static_cast<u32>(lane[p]);
        const u32 h = static_cast<u32>(lane[p] >> 32);
        std::memcpy(lo + 4 * (5 * (s0 + p) + x), &l, 4);
        std::memcpy(hi + 4 * (5 * (s0 + p) + x), &h, 4);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Per-ISA segment runners, stamped out from host_simd_kernels.inc.
// ---------------------------------------------------------------------------

namespace {

// Scalar: always compiled — the KVX_HOST_SIMD=OFF floor and the last resort
// of the runtime dispatch.
#define KVX_HS_NAME run_group_scalar
#define KVX_HS_ATTR
#define KVX_HS_VEC u64
#define KVX_HS_LANES 1
#define KVX_HS_LOAD(p) (*(p))
#define KVX_HS_STORE(p, v) (*(p) = (v))
#define KVX_HS_XOR(a, b) ((a) ^ (b))
#define KVX_HS_XOR3(a, b, c) ((a) ^ (b) ^ (c))
#define KVX_HS_CHI(a, b, c) ((a) ^ (~(b) & (c)))
#define KVX_HS_ROLC(v, r) \
  (((v) << ((r) & 63)) | ((v) >> ((64 - (r)) & 63)))
#define KVX_HS_SET1(x) (x)
#include "host_simd_kernels.inc"

#if KVX_HS_HAVE_PORTABLE
typedef u64 hs_v4 __attribute__((vector_size(32)));
inline hs_v4 hs_ld4(const u64* p) noexcept {
  hs_v4 v;
  std::memcpy(&v, p, 32);
  return v;
}
inline void hs_st4(u64* p, hs_v4 v) noexcept { std::memcpy(p, &v, 32); }

#define KVX_HS_NAME run_group_portable
#define KVX_HS_ATTR
#define KVX_HS_VEC hs_v4
#define KVX_HS_LANES 4
#define KVX_HS_LOAD(p) hs_ld4(p)
#define KVX_HS_STORE(p, v) hs_st4((p), (v))
#define KVX_HS_XOR(a, b) ((a) ^ (b))
#define KVX_HS_XOR3(a, b, c) ((a) ^ (b) ^ (c))
#define KVX_HS_CHI(a, b, c) ((a) ^ (~(b) & (c)))
#define KVX_HS_ROLC(v, r) \
  (((v) << ((r) & 63)) | ((v) >> ((64 - (r)) & 63)))
#define KVX_HS_SET1(x) (hs_v4{(x), (x), (x), (x)})
#include "host_simd_kernels.inc"
#endif  // KVX_HS_HAVE_PORTABLE

#if KVX_HS_HAVE_AVX2
// 64-bit rotate as shift-shift-or; the r == 0 arm keeps the srli count in
// range (vpsrlq by 64 is well-defined zero, but no need to rely on it).
#define KVX_HS_NAME run_group_avx2
#define KVX_HS_ATTR __attribute__((target("avx2")))
#define KVX_HS_VEC __m256i
#define KVX_HS_LANES 4
#define KVX_HS_LOAD(p) \
  _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))
#define KVX_HS_STORE(p, v) \
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), (v))
#define KVX_HS_XOR(a, b) _mm256_xor_si256((a), (b))
#define KVX_HS_XOR3(a, b, c) \
  _mm256_xor_si256(_mm256_xor_si256((a), (b)), (c))
#define KVX_HS_CHI(a, b, c) \
  _mm256_xor_si256((a), _mm256_andnot_si256((b), (c)))
#define KVX_HS_ROLC(v, r)                                        \
  ((r) == 0 ? (v)                                                \
            : _mm256_or_si256(_mm256_slli_epi64((v), (r)),       \
                              _mm256_srli_epi64((v), 64 - (r))))
#define KVX_HS_SET1(x) _mm256_set1_epi64x(static_cast<long long>(x))
#include "host_simd_kernels.inc"
#endif  // KVX_HS_HAVE_AVX2

#if KVX_HS_HAVE_AVX512
// The XKCP/K12 idiom: ternarylogic 0x96 is XOR3, 0xD2 is Chi (a ^ (~b & c)),
// and vprolq rotates without the shift-or dance.
#define KVX_HS_NAME run_group_avx512
#define KVX_HS_ATTR __attribute__((target("avx512f")))
#define KVX_HS_VEC __m512i
#define KVX_HS_LANES 8
#define KVX_HS_LOAD(p) _mm512_loadu_si512(static_cast<const void*>(p))
#define KVX_HS_STORE(p, v) _mm512_storeu_si512(static_cast<void*>(p), (v))
#define KVX_HS_XOR(a, b) _mm512_xor_si512((a), (b))
#define KVX_HS_XOR3(a, b, c) _mm512_ternarylogic_epi64((a), (b), (c), 0x96)
#define KVX_HS_CHI(a, b, c) _mm512_ternarylogic_epi64((a), (b), (c), 0xD2)
#define KVX_HS_ROLC(v, r) _mm512_rol_epi64((v), (r))
#define KVX_HS_SET1(x) _mm512_set1_epi64(static_cast<long long>(x))
#include "host_simd_kernels.inc"
#endif  // KVX_HS_HAVE_AVX512

using GroupRunner = void (*)(u8*, u32, u32, u32, const HostSimdItem&,
                             const HostSimdKernel*, const ScratchRow*);

GroupRunner runner_for(HostSimdIsa isa) noexcept {
  switch (isa) {
#if KVX_HS_HAVE_AVX512
    case HostSimdIsa::kAvx512: return &run_group_avx512;
#endif
#if KVX_HS_HAVE_AVX2
    case HostSimdIsa::kAvx2: return &run_group_avx2;
#endif
#if KVX_HS_HAVE_PORTABLE
    case HostSimdIsa::kPortable: return &run_group_portable;
#endif
    default: return &run_group_scalar;
  }
}

// ---------------------------------------------------------------------------
// Runtime ISA dispatch.
// ---------------------------------------------------------------------------

/// Forced ISA for tests: -1 = automatic, else the HostSimdIsa value.
std::atomic<int> g_forced_isa{-1};

HostSimdIsa best_available_isa() noexcept {
  if (host_simd_isa_available(HostSimdIsa::kAvx512)) {
    return HostSimdIsa::kAvx512;
  }
  if (host_simd_isa_available(HostSimdIsa::kAvx2)) return HostSimdIsa::kAvx2;
  if (host_simd_isa_available(HostSimdIsa::kPortable)) {
    return HostSimdIsa::kPortable;
  }
  return HostSimdIsa::kScalar;
}

/// KVX_HOST_SIMD_ISA override, parsed once ("auto"/unset/unknown/unavailable
/// all fall back to CPUID selection).
std::optional<HostSimdIsa> env_isa() noexcept {
  static const std::optional<HostSimdIsa> parsed = [] {
    std::optional<HostSimdIsa> result;
    if (const char* env = std::getenv("KVX_HOST_SIMD_ISA")) {
      if (const auto isa = parse_host_simd_isa(env);
          isa && host_simd_isa_available(*isa)) {
        result = *isa;
      }
    }
    return result;
  }();
  return parsed;
}

// Per-dispatch counters, one per ISA so the scrape shows which lowering
// actually ran (docs/observability.md).
obs::Counter& dispatch_counter(HostSimdIsa isa) {
  static obs::Counter& scalar = obs::MetricsRegistry::global().counter(
      "kvx_hostsimd_dispatch_scalar_total",
      "Host-SIMD executions dispatched to the scalar lowering");
  static obs::Counter& portable = obs::MetricsRegistry::global().counter(
      "kvx_hostsimd_dispatch_portable_total",
      "Host-SIMD executions dispatched to the portable vector lowering");
  static obs::Counter& avx2 = obs::MetricsRegistry::global().counter(
      "kvx_hostsimd_dispatch_avx2_total",
      "Host-SIMD executions dispatched to the AVX2 lowering");
  static obs::Counter& avx512 = obs::MetricsRegistry::global().counter(
      "kvx_hostsimd_dispatch_avx512_total",
      "Host-SIMD executions dispatched to the AVX-512 lowering");
  switch (isa) {
    case HostSimdIsa::kAvx512: return avx512;
    case HostSimdIsa::kAvx2: return avx2;
    case HostSimdIsa::kPortable: return portable;
    default: return scalar;
  }
}

obs::Counter& packs_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "kvx_hostsimd_packs_total",
      "State groups transposed into packed host registers");
  return c;
}

obs::Counter& unpacks_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "kvx_hostsimd_unpacks_total",
      "State groups transposed back to the simulator regfile");
  return c;
}

}  // namespace

std::string_view host_simd_isa_name(HostSimdIsa isa) noexcept {
  switch (isa) {
    case HostSimdIsa::kAvx512: return "avx512";
    case HostSimdIsa::kAvx2: return "avx2";
    case HostSimdIsa::kPortable: return "portable";
    default: return "scalar";
  }
}

std::optional<HostSimdIsa> parse_host_simd_isa(
    std::string_view name) noexcept {
  if (name == "scalar") return HostSimdIsa::kScalar;
  if (name == "portable") return HostSimdIsa::kPortable;
  if (name == "avx2") return HostSimdIsa::kAvx2;
  if (name == "avx512" || name == "avx512f") return HostSimdIsa::kAvx512;
  return std::nullopt;
}

bool host_simd_isa_available(HostSimdIsa isa) noexcept {
  switch (isa) {
    case HostSimdIsa::kScalar: return true;
    case HostSimdIsa::kPortable: return KVX_HS_HAVE_PORTABLE != 0;
    case HostSimdIsa::kAvx2:
#if KVX_HS_HAVE_AVX2
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case HostSimdIsa::kAvx512:
#if KVX_HS_HAVE_AVX512
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
  }
  return false;
}

HostSimdIsa host_simd_active_isa() noexcept {
  const int forced = g_forced_isa.load(std::memory_order_relaxed);
  if (forced >= 0) {
    const auto isa = static_cast<HostSimdIsa>(forced);
    if (host_simd_isa_available(isa)) return isa;
  }
  if (const auto env = env_isa()) return *env;
  static const HostSimdIsa best = best_available_isa();
  return best;
}

void host_simd_force_isa(std::optional<HostSimdIsa> isa) noexcept {
  g_forced_isa.store(isa ? static_cast<int>(*isa) : -1,
                     std::memory_order_relaxed);
}

HostSimdIsa host_simd_dispatch_isa(u32 sn) noexcept {
  const int forced = g_forced_isa.load(std::memory_order_relaxed);
  if (forced >= 0) {
    const auto isa = static_cast<HostSimdIsa>(forced);
    if (host_simd_isa_available(isa)) return isa;
  }
  if (const auto env = env_isa()) return *env;
  // Automatic selection: padding lanes are pure overhead (packed, rotated
  // and XORed, then dropped), so narrow to the smallest available pack
  // width that still covers SN in one group.
  const HostSimdIsa best = host_simd_active_isa();
  if (sn <= 1) return HostSimdIsa::kScalar;
  if (sn <= 4 && host_simd_pack_width(best) > 4) {
    if (host_simd_isa_available(HostSimdIsa::kAvx2)) return HostSimdIsa::kAvx2;
    if (host_simd_isa_available(HostSimdIsa::kPortable)) {
      return HostSimdIsa::kPortable;
    }
  }
  return best;
}

u32 host_simd_pack_width(HostSimdIsa isa) noexcept {
  switch (isa) {
    case HostSimdIsa::kAvx512: return 8;
    case HostSimdIsa::kAvx2:
    case HostSimdIsa::kPortable: return 4;
    default: return 1;
  }
}

// ---------------------------------------------------------------------------
// Plan compiler.
// ---------------------------------------------------------------------------

namespace {

/// A lowered segment must amortize its pack/unpack transposes: two full
/// rounds of super-kernels is comfortably past break-even, shorter runs
/// (e.g. a single-round program) replay their records instead.
constexpr usize kMinSegmentKernels = 6;

/// The kernels bake the ρ offsets as immediates; refuse to lower against a
/// rotation table that disagrees with the simulator's.
void check_rho_table() {
  static constexpr unsigned kRho[5][5] = {{0, 1, 62, 28, 27},
                                          {36, 44, 6, 55, 20},
                                          {3, 10, 43, 25, 39},
                                          {41, 45, 15, 21, 8},
                                          {18, 2, 61, 56, 14}};
  const auto& rho = keccak::rho_offsets();
  for (u32 y = 0; y < 5; ++y) {
    for (u32 x = 0; x < 5; ++x) {
      if (rho[y][x] != kRho[y][x]) {
        throw SimError("host-simd lowering: rho offset table mismatch");
      }
    }
  }
}

}  // namespace

std::shared_ptr<const HostSimdTrace> lower_host_simd(
    std::shared_ptr<const FusedTrace> fused) {
  KVX_CHECK_MSG(fused != nullptr, "lower_host_simd: null fused trace");
  check_rho_table();

  auto hs = std::make_shared<HostSimdTrace>();
  hs->fused_ = std::move(fused);
  const FusedTrace& ft = *hs->fused_;
  const u32 rb = static_cast<u32>(ft.base().reg_bytes());
  const auto& fops = ft.fused_ops();

  // Lowerable: the step kernels over full-width rows — 64-bit planes (one
  // register row == 5·sn 64-bit lanes) or the 32-bit split halves (one row
  // == 5·sn 32-bit words per half; pack joins the lo and hi words into
  // 64-bit lanes, so the same kernels run on them); everything else
  // replays its records. One plan runs at one SN, set by the first
  // lowerable op; as rb is fixed, that also fixes the width (split or
  // 64-bit).
  const auto is_split = [](const FusedOp& f) noexcept {
    return f.kind == FusedOpKind::kTheta32 ||
           f.kind == FusedOpKind::kRhoPi32 || f.kind == FusedOpKind::kChi32;
  };
  const auto row_fits = [rb, &is_split](const FusedOp& f) noexcept {
    if (f.sn == 0) return false;
    if (is_split(f)) return 20u * f.sn == rb;
    return f.sew == 64 && 40u * f.sn == rb &&
           (f.kind == FusedOpKind::kTheta64 ||
            f.kind == FusedOpKind::kRhoPi64 || f.kind == FusedOpKind::kChi);
  };
  u32 plan_sn = 0;
  for (const FusedOp& f : fops) {
    if (row_fits(f)) {
      plan_sn = f.sn;
      break;
    }
  }
  const auto lowerable = [&](const FusedOp& f) noexcept {
    return row_fits(f) && f.sn == plan_sn;
  };
  // θ runs in place on its dst planes; ρπ/χ consume their src planes. The
  // second location is the hi-half plane of a split op (0 otherwise).
  const auto input_loc = [&](const FusedOp& f) noexcept {
    const bool theta = f.kind == FusedOpKind::kTheta64 ||
                       f.kind == FusedOpKind::kTheta32;
    const u32 lo = theta ? f.dst : f.src;
    const u32 hi = !is_split(f) ? 0 : theta ? f.dst2 : f.src2;
    return std::pair{lo, hi};
  };
  const auto output_loc = [&](const FusedOp& f) noexcept {
    return std::pair{f.dst, is_split(f) ? f.dst2 : 0u};
  };

  // An op the plan does not lower replays its own records, extending the
  // previous item when that is a replay range ending right before it.
  const auto emit_replay = [&hs](const FusedOp& f) {
    auto& items = hs->items_;
    if (!items.empty() && items.back().kernel_count == 0 &&
        items.back().first + items.back().count == f.first) {
      items.back().count += f.count;
      return;
    }
    HostSimdItem item;
    item.first = f.first;
    item.count = f.count;
    items.push_back(item);
  };

  usize i = 0;
  while (i < fops.size()) {
    if (!lowerable(fops[i])) {
      emit_replay(fops[i]);
      ++i;
      continue;
    }
    // Maximal run of lowerable kernels chained through one state location:
    // each kernel must read the span(s) the previous one wrote.
    const auto pack_loc = input_loc(fops[i]);
    auto cur = pack_loc;
    usize j = i;
    for (; j < fops.size() && lowerable(fops[j]); ++j) {
      if (input_loc(fops[j]) != cur) break;
      cur = output_loc(fops[j]);
    }
    const usize len = j - i;
    if (len < kMinSegmentKernels) {
      for (usize k = i; k < i + len; ++k) emit_replay(fops[k]);
      i += len;
      continue;
    }

    HostSimdItem item;
    item.kernel_first = static_cast<u32>(hs->kernels_.size());
    item.kernel_count = static_cast<u32>(len);
    item.pack_loc = pack_loc.first;
    item.pack_loc2 = pack_loc.second;
    item.split = is_split(fops[i]);
    for (usize k = i; k < i + len; ++k) {
      const FusedOp& f = fops[k];
      HostSimdKernel ker;
      switch (f.kind) {
        case FusedOpKind::kTheta64:
        case FusedOpKind::kTheta32:
          ker.kind = HostSimdKernelKind::kTheta;
          break;
        case FusedOpKind::kRhoPi64:
        case FusedOpKind::kRhoPi32:
          ker.kind = HostSimdKernelKind::kRhoPi;
          break;
        default:  // χ: the split form's RC is already the joined 64-bit one
          ker.kind = HostSimdKernelKind::kChi;
          ker.iota = (f.flags & kFusedHasIota) != 0;
          ker.iota_rc = f.iota_rc;
          break;
      }
      std::tie(ker.unpack_loc, ker.unpack_loc2) = output_loc(f);
      ker.scratch_first = f.scratch_first;
      ker.scratch_count = f.scratch_count;
      hs->kernels_.push_back(ker);
      hs->lowered_records_ += f.count;
    }
    // Last-writer marks: materialize each location's final value back to
    // the regfile so inter-segment replay (and the caller's final regfile
    // comparison) sees exactly what full replay would have written.
    // Everything a non-final kernel writes is overwritten later in the
    // segment and therefore dead — the packed registers carry it instead.
    {
      std::vector<std::pair<u32, u32>> seen;
      for (u32 k = item.kernel_count; k-- > 0;) {
        HostSimdKernel& ker = hs->kernels_[item.kernel_first + k];
        const std::pair loc{ker.unpack_loc, ker.unpack_loc2};
        bool dup = false;
        for (const auto& s : seen) dup |= (s == loc);
        if (!dup) {
          ker.unpack = true;
          ++hs->unpack_marks_;
          seen.push_back(loc);
        }
      }
    }
    hs->items_.push_back(item);
    ++hs->segments_;
    i += len;
  }

  // An all-replay plan (nothing lowered) has no SN of its own.
  hs->sn_ = hs->segments_ != 0 ? plan_sn : 0;
  return hs;
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

void HostSimdTrace::execute(VectorUnit& vu, Memory& mem,
                            const CycleModel& cm) const {
  KVX_CHECK_MSG(vu.reg_bytes() == base().reg_bytes(),
                "trace compiled for a different vector configuration");
  const HostSimdIsa isa = host_simd_dispatch_isa(sn_);
  const GroupRunner run = runner_for(isa);
  const u32 pack = host_simd_pack_width(isa);
  const u32 groups = (sn_ + pack - 1) / pack;
  u8* file = vu.file_data();
  const u32 rb = static_cast<u32>(base().reg_bytes());
  const unsigned entry_sn = vu.config().effective_sn();
  const ScratchRow* rows = fused_->scratch_rows().data();
  for (const HostSimdItem& item : items_) {
    if (item.kernel_count == 0) {
      base().replay(item.first, item.count, vu, mem, cm);
      continue;
    }
    for (u32 g = 0; g < groups; ++g) {
      run(file, rb, sn_, g * pack, item, kernels_.data() + item.kernel_first,
          rows);
    }
  }
  if (vu.config().effective_sn() != entry_sn) vu.set_sn(entry_sn);
  dispatch_counter(isa).inc();
  count_transposes(groups);
}

void HostSimdTrace::count_transposes(u32 groups) const {
  packs_counter().inc(segments_ * groups);
  unpacks_counter().inc(unpack_marks_ * groups);
}

}  // namespace kvx::sim
