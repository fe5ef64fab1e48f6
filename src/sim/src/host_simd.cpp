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

void host_simd_pack_states(const keccak::State* states, u32 n, u32 s0,
                           u32 pack, u64* buf) noexcept {
  for (u32 p = 0; p < pack; ++p) {
    const u32 s = s0 + p;
    if (s < n) {
      const auto lanes = states[s].flat();
      for (u32 i = 0; i < 25; ++i) buf[i * pack + p] = lanes[i];
    } else {
      for (u32 i = 0; i < 25; ++i) buf[i * pack + p] = 0;
    }
  }
}

void host_simd_unpack_states(keccak::State* states, u32 n, u32 s0, u32 pack,
                             const u64* buf) noexcept {
  for (u32 p = 0; p < pack && s0 + p < n; ++p) {
    const auto lanes = states[s0 + p].flat();
    for (u32 i = 0; i < 25; ++i) lanes[i] = buf[i * pack + p];
  }
}

// ---------------------------------------------------------------------------
// Per-ISA segment runners, stamped out from host_simd_kernels.inc.
// ---------------------------------------------------------------------------

namespace {

/// Lane tables of the plane kernels (host_simd_plane_form). Lanes 5..7 of
/// a plane are never read into lanes 0..4, so their entries are don't-care.
namespace plane {
/// vpermq indices: element x of the result is element (x ± k) mod 5.
inline constexpr u64 kXm1[8] = {4, 0, 1, 2, 3, 5, 6, 7};
inline constexpr u64 kXp1[8] = {1, 2, 3, 4, 0, 5, 6, 7};
inline constexpr u64 kXp2[8] = {2, 3, 4, 0, 1, 5, 6, 7};
/// ρ offset of lane (x, y), row y: the kRhoPi64 step's table, checked
/// against keccak::rho_offsets() when a plan is lowered.
inline constexpr u64 kRho[5][8] = {{0, 1, 62, 28, 27}, {36, 44, 6, 55, 20},
                                   {3, 10, 43, 25, 39}, {41, 45, 15, 21, 8},
                                   {18, 2, 61, 56, 14}};
/// π as a lane rotate then a transpose: lane j of rotated plane y is lane
/// (y + 3j) mod 5 of plane y, and output plane j is lane j of rotated
/// planes 0..4 — lane (x, y) lands at (y, 2x + 3y).
inline constexpr u64 kPiLane[5][8] = {{0, 3, 1, 4, 2}, {1, 4, 2, 0, 3},
                                      {2, 0, 3, 1, 4}, {3, 1, 4, 2, 0},
                                      {4, 2, 0, 3, 1}};
/// vpermt2q indices of the transpose: interleave the even / odd lanes of
/// two planes, then gather lanes 2k, 2k + 1 of two interleaves.
inline constexpr u64 kPairLo[8] = {0, 8, 2, 10, 4, 12, 6, 14};
inline constexpr u64 kPairHi[8] = {1, 9, 3, 11, 5, 13, 7, 15};
inline constexpr u64 kGather[3][8] = {{0, 1, 8, 9, 0, 0, 0, 0},
                                      {2, 3, 10, 11, 0, 0, 0, 0},
                                      {4, 5, 12, 13, 0, 0, 0, 0}};
}  // namespace plane

/// Where a full-plan segment group writes its regfile side effects
/// (execute() only; the direct path passes none).
struct RegfileSink {
  u8* file = nullptr;
  u32 rb = 0;  ///< regfile row stride in bytes
  u32 sn = 0;
  u32 s0 = 0;  ///< first state of the pack-width group
  bool split = false;
  const ScratchRow* rows = nullptr;  ///< the fused trace's recipe table
};

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

// The plane kernels (host_simd_plane_form) on one state: plane y is lanes
// 5y..5y+4 of `lanes`, held in lanes 0..4 of one zmm. The five planes are
// named locals, not an array: an indexed P[5] stays in memory at -O2.
#define KVX_HS_AVX512_INLINE \
  __attribute__((target("avx512f"), always_inline)) inline

KVX_HS_AVX512_INLINE __m512i plane_vec(const u64 (&t)[8]) {
  return _mm512_loadu_si512(static_cast<const void*>(t));
}

KVX_HS_AVX512_INLINE __m512i plane_xor3(__m512i a, __m512i b, __m512i c) {
  return _mm512_ternarylogic_epi64(a, b, c, 0x96);
}

/// ρ rotates then the π lane rotate of plane y.
KVX_HS_AVX512_INLINE __m512i plane_rho_pi(__m512i p, u32 y) {
  const __m512i rotated = _mm512_rolv_epi64(p, plane_vec(plane::kRho[y]));
  return _mm512_permutexvar_epi64(plane_vec(plane::kPiLane[y]), rotated);
}

/// Output plane `j` of the transpose: four lanes gathered from two pair
/// interleaves, lane 4 from rotated plane 4.
KVX_HS_AVX512_INLINE __m512i plane_gather(__m512i a, __m512i b,
                                          const u64 (&g)[8], u32 j,
                                          __m512i q4) {
  return _mm512_mask_permutexvar_epi64(
      _mm512_permutex2var_epi64(a, plane_vec(g), b), 0x10,
      _mm512_set1_epi64(j), q4);
}

KVX_HS_AVX512_INLINE __m512i plane_chi(__m512i p) {
  return _mm512_ternarylogic_epi64(
      p, _mm512_permutexvar_epi64(plane_vec(plane::kXp1), p),
      _mm512_permutexvar_epi64(plane_vec(plane::kXp2), p), 0xD2);
}

__attribute__((target("avx512f"))) void run_planes_avx512(
    u64* lanes, const HostSimdKernel* ks, u32 count) {
  constexpr __mmask8 kPlane = 0x1F;
  __m512i p0 = _mm512_maskz_loadu_epi64(kPlane, lanes);
  __m512i p1 = _mm512_maskz_loadu_epi64(kPlane, lanes + 5);
  __m512i p2 = _mm512_maskz_loadu_epi64(kPlane, lanes + 10);
  __m512i p3 = _mm512_maskz_loadu_epi64(kPlane, lanes + 15);
  __m512i p4 = _mm512_maskz_loadu_epi64(kPlane, lanes + 20);
  for (u32 k = 0; k < count; ++k) {
    const HostSimdKernel& ker = ks[k];
    switch (ker.kind) {
      case HostSimdKernelKind::kTheta: {
        const __m512i c = plane_xor3(plane_xor3(p0, p1, p2), p3, p4);
        const __m512i cm1 =
            _mm512_permutexvar_epi64(plane_vec(plane::kXm1), c);
        const __m512i d = _mm512_rol_epi64(
            _mm512_permutexvar_epi64(plane_vec(plane::kXp1), c), 1);
        p0 = plane_xor3(p0, cm1, d);
        p1 = plane_xor3(p1, cm1, d);
        p2 = plane_xor3(p2, cm1, d);
        p3 = plane_xor3(p3, cm1, d);
        p4 = plane_xor3(p4, cm1, d);
        break;
      }
      case HostSimdKernelKind::kRhoPi: {
        const __m512i q0 = plane_rho_pi(p0, 0), q1 = plane_rho_pi(p1, 1);
        const __m512i q2 = plane_rho_pi(p2, 2), q3 = plane_rho_pi(p3, 3);
        const __m512i q4 = plane_rho_pi(p4, 4);
        const __m512i lo = plane_vec(plane::kPairLo);
        const __m512i hi = plane_vec(plane::kPairHi);
        const __m512i t0 = _mm512_permutex2var_epi64(q0, lo, q1);
        const __m512i t1 = _mm512_permutex2var_epi64(q0, hi, q1);
        const __m512i t2 = _mm512_permutex2var_epi64(q2, lo, q3);
        const __m512i t3 = _mm512_permutex2var_epi64(q2, hi, q3);
        p0 = plane_gather(t0, t2, plane::kGather[0], 0, q4);
        p1 = plane_gather(t1, t3, plane::kGather[0], 1, q4);
        p2 = plane_gather(t0, t2, plane::kGather[1], 2, q4);
        p3 = plane_gather(t1, t3, plane::kGather[1], 3, q4);
        p4 = plane_gather(t0, t2, plane::kGather[2], 4, q4);
        break;
      }
      case HostSimdKernelKind::kChi:
        p0 = plane_chi(p0);
        p1 = plane_chi(p1);
        p2 = plane_chi(p2);
        p3 = plane_chi(p3);
        p4 = plane_chi(p4);
        if (ker.iota) {
          const auto rc = static_cast<long long>(ker.iota_rc);
          p0 = _mm512_mask_xor_epi64(p0, 0x01, p0, _mm512_set1_epi64(rc));
        }
        break;
    }
  }
  _mm512_mask_storeu_epi64(lanes, kPlane, p0);
  _mm512_mask_storeu_epi64(lanes + 5, kPlane, p1);
  _mm512_mask_storeu_epi64(lanes + 10, kPlane, p2);
  _mm512_mask_storeu_epi64(lanes + 15, kPlane, p3);
  _mm512_mask_storeu_epi64(lanes + 20, kPlane, p4);
}
#undef KVX_HS_AVX512_INLINE
#endif  // KVX_HS_HAVE_AVX512

using GroupRunner = void (*)(u64*, const HostSimdKernel*, u32,
                             const RegfileSink*);

template <bool kRegfile>
GroupRunner runner_for(HostSimdIsa isa) noexcept {
  switch (isa) {
#if KVX_HS_HAVE_AVX512
    case HostSimdIsa::kAvx512: return &run_group_avx512<kRegfile>;
#endif
#if KVX_HS_HAVE_AVX2
    case HostSimdIsa::kAvx2: return &run_group_avx2<kRegfile>;
#endif
#if KVX_HS_HAVE_PORTABLE
    case HostSimdIsa::kPortable: return &run_group_portable<kRegfile>;
#endif
    default: return &run_group_scalar<kRegfile>;
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
      "Host-SIMD executions dispatched to the packed AVX-512 lowering");
  switch (isa) {
    case HostSimdIsa::kAvx512: return avx512;
    case HostSimdIsa::kAvx2: return avx2;
    case HostSimdIsa::kPortable: return portable;
    default: return scalar;
  }
}

#if KVX_HS_HAVE_AVX512
obs::Counter& plane_dispatch_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "kvx_hostsimd_dispatch_avx512_plane_total",
      "Host-SIMD direct dispatches run by the AVX-512 plane kernels");
  return c;
}
#endif

obs::Counter& packs_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "kvx_hostsimd_packs_total",
      "Pack-width state groups transposed into the packed form");
  return c;
}

obs::Counter& unpacks_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "kvx_hostsimd_unpacks_total",
      "Pack-width state groups transposed out of the packed form");
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
  // Automatic selection: the best ISA at every SN. A lone state runs the
  // plane kernels under AVX-512; without it, padding three of four lanes
  // costs more than the scalar walk.
  const HostSimdIsa best = host_simd_active_isa();
  if (sn <= 1 && best != HostSimdIsa::kAvx512) return HostSimdIsa::kScalar;
  return best;
}

std::string_view host_simd_form_name(HostSimdIsa isa, u32 sn) noexcept {
  return host_simd_plane_form(isa, sn) ? "avx512-plane"
                                       : host_simd_isa_name(isa);
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
  const auto& rho = keccak::rho_offsets();
  for (u32 y = 0; y < 5; ++y) {
    for (u32 x = 0; x < 5; ++x) {
      if (rho[y][x] != plane::kRho[y][x]) {
        throw SimError("host-simd lowering: rho offset table mismatch");
      }
    }
  }
}

/// The staged-state region of a direct plan, confirmed byte by byte (see
/// HostSimdTrace::direct_state_base): which data-memory byte each head
/// load leaves in every byte of the segment's input planes, and which
/// regfile byte each tail store leaves in every byte of the region.
std::optional<u32> find_direct_state_base(
    const CompiledTrace& base, const std::vector<HostSimdItem>& items,
    const std::vector<HostSimdKernel>& kernels, u32 sn) {
  if (items.size() != 3 || items[0].kernel_count != 0 ||
      items[1].kernel_count == 0 || items[2].kernel_count != 0) {
    return std::nullopt;
  }
  const HostSimdItem& seg = items[1];
  const HostSimdKernel& last = kernels[seg.kernel_first + seg.kernel_count - 1];
  const i64 rb = static_cast<i64>(base.reg_bytes());
  const auto& ops = base.ops();
  // Byte b of lane i = 5y + x of state s: its regfile byte in the planes at
  // (lo, hi), and its offset in the region (64-bit lanes, plane-major).
  const auto reg_byte = [&](u32 lo, u32 hi, i64 s, i64 i, i64 b) {
    const i64 x = i % 5, y = i / 5;
    if (!seg.split) return lo + y * rb + 8 * (5 * s + x) + b;
    return (b < 4 ? lo : hi) + y * rb + 4 * (5 * s + x) + b % 4;
  };
  const auto region_byte = [sn](i64 s, i64 i, i64 b) {
    return (i / 5) * 40 * i64{sn} + 8 * (5 * s + i % 5) + b;
  };
  // Calls f(regfile byte, dmem address) for every byte a unit or strided
  // memory record moves; false for any other record kind.
  const auto each_byte = [](const TraceOp& op, auto&& f) {
    if (op.kind == TraceOpKind::kLoadUnit ||
        op.kind == TraceOpKind::kStoreUnit) {
      for (i64 j = 0; j < op.n; ++j) f(op.d + j, op.aux + j);
      return true;
    }
    if (op.kind == TraceOpKind::kLoadStrided ||
        op.kind == TraceOpKind::kStoreStrided) {
      const i64 es = op.sew / 8;
      for (i64 e = 0; e < op.n; ++e) {
        for (i64 b = 0; b < es; ++b) {
          f(op.d + e * es + b, op.aux + e * op.imm + b);
        }
      }
      return true;
    }
    return false;
  };
  const auto is_load = [](const TraceOp& op) {
    return op.kind == TraceOpKind::kLoadUnit ||
           op.kind == TraceOpKind::kLoadStrided;
  };

  // Head: loads only. src[regfile byte] = the dmem address it came from.
  std::vector<i64> src(static_cast<usize>(32 * rb), -1);
  bool bad = false;
  const auto load = [&](i64 reg, i64 addr) {
    if (reg >= static_cast<i64>(src.size())) {
      bad = true;
    } else {
      src[static_cast<usize>(reg)] = addr;
    }
  };
  for (u32 r = items[0].first; r < items[0].first + items[0].count; ++r) {
    if (!is_load(ops[r]) || !each_byte(ops[r], load) || bad) {
      return std::nullopt;
    }
  }
  const i64 region =
      src[static_cast<usize>(reg_byte(seg.pack_loc, seg.pack_loc2, 0, 0, 0))];
  if (region < 0) return std::nullopt;
  // Tail: stores into the region only. out[region byte] = its regfile byte.
  std::vector<i64> out(usize{200} * sn, -1);
  const auto store = [&](i64 reg, i64 addr) {
    if (addr < region || addr >= region + static_cast<i64>(out.size())) {
      bad = true;
    } else {
      out[static_cast<usize>(addr - region)] = reg;
    }
  };
  for (u32 r = items[2].first; r < items[2].first + items[2].count; ++r) {
    if (is_load(ops[r]) || !each_byte(ops[r], store) || bad) {
      return std::nullopt;
    }
  }
  for (i64 st = 0; st < sn; ++st) {
    for (i64 i = 0; i < 25; ++i) {
      for (i64 b = 0; b < 8; ++b) {
        const i64 rel = region_byte(st, i, b);
        const i64 in = reg_byte(seg.pack_loc, seg.pack_loc2, st, i, b);
        if (src[static_cast<usize>(in)] != region + rel ||
            out[static_cast<usize>(rel)] !=
                reg_byte(last.unpack_loc, last.unpack_loc2, st, i, b)) {
          return std::nullopt;
        }
      }
    }
  }
  return static_cast<u32>(region);
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
  hs->direct_base_ =
      find_direct_state_base(ft.base(), hs->items_, hs->kernels_, hs->sn_);
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
  const GroupRunner run = runner_for<true>(isa);
  const u32 pack = host_simd_pack_width(isa);
  const u32 groups = (sn_ + pack - 1) / pack;
  u8* file = vu.file_data();
  const u32 rb = static_cast<u32>(base().reg_bytes());
  const unsigned entry_sn = vu.config().effective_sn();
  alignas(64) u64 buf[25 * 8];
  for (const HostSimdItem& item : items_) {
    if (item.kernel_count == 0) {
      base().replay(item.first, item.count, vu, mem, cm);
      continue;
    }
    for (u32 g = 0; g < groups; ++g) {
      const RegfileSink rf{file, rb, sn_, g * pack, item.split,
                           fused_->scratch_rows().data()};
      if (item.split) {
        host_simd_pack_split(file, item.pack_loc, item.pack_loc2, rb, sn_,
                             rf.s0, pack, buf);
      } else {
        host_simd_pack(file, item.pack_loc, rb, sn_, rf.s0, pack, buf);
      }
      run(buf, kernels_.data() + item.kernel_first, item.kernel_count, &rf);
    }
  }
  if (vu.config().effective_sn() != entry_sn) vu.set_sn(entry_sn);
  dispatch_counter(isa).inc();
  packs_counter().inc(segments_ * groups);
  unpacks_counter().inc(unpack_marks_ * groups);
}

void HostSimdTrace::permute(std::span<keccak::State> states) const {
  KVX_CHECK_MSG(direct_base_.has_value() && states.size() <= sn_,
                "host-simd direct path needs a direct plan and <= SN states");
  const HostSimdIsa isa = host_simd_dispatch_isa(sn_);
  const HostSimdItem& seg = items_[1];
#if KVX_HS_HAVE_AVX512
  if (host_simd_plane_form(isa, sn_)) {
    for (keccak::State& s : states) {
      run_planes_avx512(s.flat().data(), kernels_.data() + seg.kernel_first,
                        seg.kernel_count);
    }
    plane_dispatch_counter().inc();
    return;
  }
#endif
  const GroupRunner run = runner_for<false>(isa);
  const u32 pack = host_simd_pack_width(isa);
  const u32 n = static_cast<u32>(states.size());
  // Groups holding only zero padding are skipped: their lanes reach no
  // caller state.
  const u32 groups = (n + pack - 1) / pack;
  alignas(64) u64 buf[25 * 8];
  for (u32 g = 0; g < groups; ++g) {
    host_simd_pack_states(states.data(), n, g * pack, pack, buf);
    run(buf, kernels_.data() + seg.kernel_first, seg.kernel_count, nullptr);
    host_simd_unpack_states(states.data(), n, g * pack, pack, buf);
  }
  dispatch_counter(isa).inc();
  count_direct_transposes(groups);
}

void HostSimdTrace::count_direct_transposes(u32 groups) const {
  packs_counter().inc(groups);
  unpacks_counter().inc(groups);
}

}  // namespace kvx::sim
