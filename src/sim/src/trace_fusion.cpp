#include "kvx/sim/trace_fusion.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <span>
#include <utility>

#include "kvx/common/bits.hpp"

namespace kvx::sim {

namespace {

/// Largest SN the matcher fuses; write_scratch_rows sizes its stack buffers
/// for it. Wider traces stay on per-record replay (still correct).
constexpr u32 kMaxSn = 16;

// ---------------------------------------------------------------------------
// Pattern matcher. Works purely on record shapes and byte offsets, so it is
// independent of which program builder (or hand-written program) produced
// the trace; anything that doesn't match replays per record.
// ---------------------------------------------------------------------------

/// [a, a+alen) and [b, b+blen) do not overlap.
constexpr bool disjoint(u32 a, u32 alen, u32 b, u32 blen) noexcept {
  return a + alen <= b || b + blen <= a;
}

/// Effective left-shift of a kSlideMod5 record (mirrors run_slide_mod5).
inline u32 slide_shift(const TraceOp& o) noexcept {
  return static_cast<u32>(o.imm % 5 + 10) % 5u;
}

struct Group {
  FusedOp op;
  /// Elided-write register rows with their recipes. After the liveness
  /// pass only the live-out rows remain; one without a recipe demotes.
  std::vector<ScratchRow> scratch;
  bool demoted = false;
};

/// Record that the group's records write row `off` with `value`. Called in
/// record order: a row written twice keeps the later (final) recipe.
void add_scratch(Group& g, u32 off, ScratchValue value, u8 half = 0,
                 u8 y = 0) {
  const ScratchRow row{off, value, y, half};
  for (ScratchRow& r : g.scratch) {
    if (r.off == off) {
      r = row;
      return;
    }
  }
  g.scratch.push_back(row);
}

class Matcher {
 public:
  explicit Matcher(const CompiledTrace& t)
      : t_(t), ops_(t.ops()), rb_(static_cast<u32>(t.reg_bytes())) {}

  std::vector<Group> run() {
    std::vector<Group> groups;
    usize i = 0;
    while (i < ops_.size()) {
      std::optional<Group> g;
      if (!g) g = try_theta64(i);
      if (!g) g = try_theta32(i);
      if (!g) g = try_rhopi64(i);
      if (!g) g = try_rhopi32(i);
      if (!g) g = try_chi32(i);
      if (!g) g = try_chi(i);
      if (g) {
        i = g->op.first + g->op.count;
        groups.push_back(std::move(*g));
      } else {
        ++i;
      }
    }
    return groups;
  }

 private:
  [[nodiscard]] bool have(usize i, usize n) const noexcept {
    return i + n <= ops_.size();
  }
  [[nodiscard]] const TraceOp& at(usize i) const noexcept { return ops_[i]; }

  [[nodiscard]] bool is_vv(const TraceOp& o, TraceBinOp bin, u8 sew,
                           u32 n) const noexcept {
    return o.kind == TraceOpKind::kBinVV && o.bin == bin && o.sew == sew &&
           o.n == n;
  }
  [[nodiscard]] bool is_slide(const TraceOp& o, u8 sew, u32 sn,
                              u32 shift) const noexcept {
    return o.kind == TraceOpKind::kSlideMod5 && o.sew == sew && o.sn == sn &&
           slide_shift(o) == shift;
  }

  /// The 4-record column-parity chain both θ forms open with:
  ///   t0 = P3 ^ P4;  t1 = P1 ^ P2;  t2 = P0 ^ t1;  B(=t0) = t0 ^ t2
  /// with P0..P4 five ascending rb-strided planes. Returns (base, B, t1, t2).
  struct Parity {
    u32 base, B, t1, t2;
  };
  [[nodiscard]] std::optional<Parity> match_parity(usize i, u8 sew,
                                                   u32 ne) const {
    const TraceOp &o0 = at(i), &o1 = at(i + 1), &o2 = at(i + 2),
                  &o3 = at(i + 3);
    if (!is_vv(o0, TraceBinOp::kXor, sew, ne) ||
        !is_vv(o1, TraceBinOp::kXor, sew, ne) ||
        !is_vv(o2, TraceBinOp::kXor, sew, ne) ||
        !is_vv(o3, TraceBinOp::kXor, sew, ne)) {
      return std::nullopt;
    }
    if (o2.b != o1.d || o3.d != o0.d || o3.a != o0.d || o3.b != o2.d) {
      return std::nullopt;
    }
    const u32 base = o2.a;
    if (o1.a != base + rb_ || o1.b != base + 2 * rb_ ||
        o0.a != base + 3 * rb_ || o0.b != base + 4 * rb_) {
      return std::nullopt;
    }
    return Parity{base, o0.d, o1.d, o2.d};
  }

  /// The parity chain's final scratch: t0 is overwritten by B = C.
  static void add_parity_scratch(Group& g, const Parity& p, u8 half) {
    add_scratch(g, p.B, ScratchValue::kParity, half);
    add_scratch(g, p.t1, ScratchValue::kParity12, half);
    add_scratch(g, p.t2, ScratchValue::kParity012, half);
  }

  /// A 5-row span of elided writes: `value` of input plane r in row r.
  void add_span_scratch(Group& g, u32 off, ScratchValue value,
                        u8 half) const {
    for (u32 r = 0; r < 5; ++r) {
      add_scratch(g, off + r * rb_, value, half, static_cast<u8>(r));
    }
  }

  /// The five `plane ^= D` records that close every θ form.
  [[nodiscard]] bool match_applies(usize i, u8 sew, u32 ne, u32 base,
                                   u32 D) const {
    for (u32 k = 0; k < 5; ++k) {
      const TraceOp& o = at(i + k);
      if (!is_vv(o, TraceBinOp::kXor, sew, ne) || o.d != base + k * rb_ ||
          o.a != o.d || o.b != D) {
        return false;
      }
    }
    return true;
  }

  std::optional<Group> try_theta64(usize i) {
    if (!have(i, 10)) return std::nullopt;
    const TraceOp& o0 = at(i);
    if (o0.kind != TraceOpKind::kBinVV || o0.sew != 64) return std::nullopt;
    const u32 ne = o0.n;
    if (ne % 5 != 0 || ne == 0) return std::nullopt;
    const u32 sn = ne / 5;
    if (sn > kMaxSn || ne * 8 != rb_) return std::nullopt;
    const auto par = match_parity(i, 64, ne);
    if (!par) return std::nullopt;
    const u32 span = 5 * rb_;

    Group g;
    g.op.kind = FusedOpKind::kTheta64;
    g.op.sn = static_cast<u8>(sn);
    g.op.sew = 64;
    g.op.first = static_cast<u32>(i);
    g.op.dst = par->base;
    for (u32 s : {par->B, par->t1, par->t2}) {
      if (!disjoint(s, rb_, par->base, span)) return std::nullopt;
    }
    add_parity_scratch(g, *par, 0);

    // Fused-ISE form: vthetac collapses the slide/rotate/xor combine.
    const TraceOp& o4 = at(i + 4);
    if (o4.kind == TraceOpKind::kThetaCRow && o4.sew == 64 && o4.sn == sn &&
        o4.a == par->B) {
      if (!disjoint(o4.d, rb_, par->base, span)) return std::nullopt;
      if (!match_applies(i + 5, 64, ne, par->base, o4.d)) return std::nullopt;
      add_scratch(g, o4.d, ScratchValue::kThetaD);
      g.op.count = 10;
      return g;
    }

    // Standard form: slide-up, slide-down, rotate, combine, apply.
    if (!have(i, 13)) return std::nullopt;
    const TraceOp& su = at(i + 4);
    const TraceOp& sd = at(i + 5);
    const TraceOp& ro = at(i + 6);
    const TraceOp& cx = at(i + 7);
    if (!is_slide(su, 64, sn, 4) || su.a != par->B) return std::nullopt;
    if (!is_slide(sd, 64, sn, 1) || sd.a != par->B) return std::nullopt;
    if (ro.kind != TraceOpKind::kRotup64 || ro.sn != sn || ro.d != sd.d ||
        ro.a != sd.d || ro.imm != 1) {
      return std::nullopt;
    }
    if (!is_vv(cx, TraceBinOp::kXor, 64, ne) || cx.a != su.d || cx.b != sd.d) {
      return std::nullopt;
    }
    if (su.d == sd.d) return std::nullopt;
    for (u32 s : {su.d, sd.d, cx.d}) {
      if (!disjoint(s, rb_, par->base, span)) return std::nullopt;
    }
    add_scratch(g, su.d, ScratchValue::kParityPrev);
    add_scratch(g, sd.d, ScratchValue::kParityNextRot);
    add_scratch(g, cx.d, ScratchValue::kThetaD);
    if (!match_applies(i + 8, 64, ne, par->base, cx.d)) return std::nullopt;
    g.op.count = 13;
    return g;
  }

  std::optional<Group> try_theta32(usize i) {
    if (!have(i, 26)) return std::nullopt;
    const TraceOp& o0 = at(i);
    if (o0.kind != TraceOpKind::kBinVV || o0.sew != 32) return std::nullopt;
    const u32 ne = o0.n;
    if (ne % 5 != 0 || ne == 0) return std::nullopt;
    const u32 sn = ne / 5;
    if (sn > kMaxSn || ne * 4 != rb_) return std::nullopt;
    const auto lo = match_parity(i, 32, ne);
    const auto hi = lo ? match_parity(i + 4, 32, ne) : std::nullopt;
    if (!lo || !hi) return std::nullopt;
    const u32 span = 5 * rb_;
    if (!disjoint(lo->base, span, hi->base, span)) return std::nullopt;

    const TraceOp& sul = at(i + 8);
    const TraceOp& suh = at(i + 9);
    const TraceOp& sdl = at(i + 10);
    const TraceOp& sdh = at(i + 11);
    if (!is_slide(sul, 32, sn, 4) || sul.a != lo->B) return std::nullopt;
    if (!is_slide(suh, 32, sn, 4) || suh.a != hi->B) return std::nullopt;
    if (!is_slide(sdl, 32, sn, 1) || sdl.a != lo->B) return std::nullopt;
    if (!is_slide(sdh, 32, sn, 1) || sdh.a != hi->B) return std::nullopt;
    const TraceOp& rl = at(i + 12);
    const TraceOp& rh = at(i + 13);
    if (rl.kind != TraceOpKind::kRot32Pair || rl.flag != 0 || rl.sn != sn ||
        rl.a != sdh.d || rl.b != sdl.d) {
      return std::nullopt;
    }
    if (rh.kind != TraceOpKind::kRot32Pair || rh.flag != 1 || rh.sn != sn ||
        rh.a != sdh.d || rh.b != sdl.d) {
      return std::nullopt;
    }
    const TraceOp& cl = at(i + 14);
    const TraceOp& ch = at(i + 15);
    if (!is_vv(cl, TraceBinOp::kXor, 32, ne) || cl.a != sul.d ||
        cl.b != rl.d) {
      return std::nullopt;
    }
    if (!is_vv(ch, TraceBinOp::kXor, 32, ne) || ch.a != suh.d ||
        ch.b != rh.d) {
      return std::nullopt;
    }
    if (!match_applies(i + 16, 32, ne, lo->base, cl.d) ||
        !match_applies(i + 21, 32, ne, hi->base, ch.d)) {
      return std::nullopt;
    }

    Group g;
    g.op.kind = FusedOpKind::kTheta32;
    g.op.sn = static_cast<u8>(sn);
    g.op.sew = 32;
    g.op.first = static_cast<u32>(i);
    g.op.count = 26;
    g.op.dst = lo->base;
    g.op.dst2 = hi->base;
    for (u32 s : {lo->B, lo->t1, lo->t2, hi->B, hi->t1, hi->t2, sul.d, suh.d,
                  sdl.d, sdh.d, rl.d, rh.d, cl.d, ch.d}) {
      if (!disjoint(s, rb_, lo->base, span) ||
          !disjoint(s, rb_, hi->base, span)) {
        return std::nullopt;
      }
    }
    add_parity_scratch(g, *lo, 1);
    add_parity_scratch(g, *hi, 2);
    add_scratch(g, sul.d, ScratchValue::kParityPrev, 1);
    add_scratch(g, suh.d, ScratchValue::kParityPrev, 2);
    add_scratch(g, sdl.d, ScratchValue::kParityNext, 1);
    add_scratch(g, sdh.d, ScratchValue::kParityNext, 2);
    add_scratch(g, rl.d, ScratchValue::kParityNextRot, 1);
    add_scratch(g, rh.d, ScratchValue::kParityNextRot, 2);
    add_scratch(g, cl.d, ScratchValue::kThetaD, 1);
    add_scratch(g, ch.d, ScratchValue::kThetaD, 2);
    return g;
  }

  std::optional<Group> try_rhopi64(usize i) {
    if (!have(i, 5)) return std::nullopt;
    const u32 span = 5 * rb_;

    // Form B: five fused vrhopi row records (no scratch at all).
    if (at(i).kind == TraceOpKind::kRhoPiRow) {
      const u32 sn = at(i).sn;
      const u32 src = at(i).a;
      const u32 dst = at(i).d;
      if (sn == 0 || sn > kMaxSn || 5 * sn * 8 != rb_) return std::nullopt;
      for (u32 r = 0; r < 5; ++r) {
        const TraceOp& o = at(i + r);
        if (o.kind != TraceOpKind::kRhoPiRow || o.sew != 64 || o.sn != sn ||
            o.table_row != r || o.a != src + r * rb_ || o.d != dst) {
          return std::nullopt;
        }
      }
      if (!disjoint(src, span, dst, span)) return std::nullopt;
      Group g;
      g.op.kind = FusedOpKind::kRhoPi64;
      g.op.sn = static_cast<u8>(sn);
      g.op.sew = 64;
      g.op.first = static_cast<u32>(i);
      g.op.count = 5;
      g.op.src = src;
      g.op.dst = dst;
      return g;
    }

    // Form A: five in-place ρ rows followed by five π scatter rows. The
    // rho'd values in the source planes are the scratch here.
    if (!have(i, 10) || at(i).kind != TraceOpKind::kRho64Row) {
      return std::nullopt;
    }
    const u32 sn = at(i).sn;
    const u32 src = at(i).a;
    if (sn == 0 || sn > kMaxSn || 5 * sn * 8 != rb_) return std::nullopt;
    for (u32 r = 0; r < 5; ++r) {
      const TraceOp& o = at(i + r);
      if (o.kind != TraceOpKind::kRho64Row || o.sew != 64 || o.sn != sn ||
          o.table_row != r || o.a != src + r * rb_ || o.d != o.a) {
        return std::nullopt;
      }
    }
    const u32 dst = at(i + 5).d;
    for (u32 r = 0; r < 5; ++r) {
      const TraceOp& o = at(i + 5 + r);
      if (o.kind != TraceOpKind::kPiRow || o.sew != 64 || o.sn != sn ||
          o.table_row != r || o.a != src + r * rb_ || o.d != dst) {
        return std::nullopt;
      }
    }
    if (!disjoint(src, span, dst, span)) return std::nullopt;
    Group g;
    g.op.kind = FusedOpKind::kRhoPi64;
    g.op.sn = static_cast<u8>(sn);
    g.op.sew = 64;
    g.op.first = static_cast<u32>(i);
    g.op.count = 10;
    g.op.src = src;
    g.op.dst = dst;
    add_span_scratch(g, src, ScratchValue::kNone, 0);
    return g;
  }

  std::optional<Group> try_rhopi32(usize i) {
    if (!have(i, 20) || at(i).kind != TraceOpKind::kRho32Row) {
      return std::nullopt;
    }
    const u32 sn = at(i).sn;
    const u32 hi_src = at(i).a;
    const u32 lo_src = at(i).b;
    const u32 dl = at(i).d;
    const u32 dh = at(i + 5).d;
    if (sn == 0 || sn > kMaxSn || 5 * sn * 4 != rb_) return std::nullopt;
    for (u32 r = 0; r < 5; ++r) {
      const TraceOp& olo = at(i + r);
      const TraceOp& ohi = at(i + 5 + r);
      if (olo.kind != TraceOpKind::kRho32Row || olo.flag != 0 ||
          olo.sn != sn || olo.table_row != r || olo.a != hi_src + r * rb_ ||
          olo.b != lo_src + r * rb_ || olo.d != dl + r * rb_) {
        return std::nullopt;
      }
      if (ohi.kind != TraceOpKind::kRho32Row || ohi.flag != 1 ||
          ohi.sn != sn || ohi.table_row != r || ohi.a != hi_src + r * rb_ ||
          ohi.b != lo_src + r * rb_ || ohi.d != dh + r * rb_) {
        return std::nullopt;
      }
    }
    const u32 lo_dst = at(i + 10).d;
    const u32 hi_dst = at(i + 15).d;
    for (u32 r = 0; r < 5; ++r) {
      const TraceOp& plo = at(i + 10 + r);
      const TraceOp& phi = at(i + 15 + r);
      if (plo.kind != TraceOpKind::kPiRow || plo.sew != 32 || plo.sn != sn ||
          plo.table_row != r || plo.a != dl + r * rb_ || plo.d != lo_dst) {
        return std::nullopt;
      }
      if (phi.kind != TraceOpKind::kPiRow || phi.sew != 32 || phi.sn != sn ||
          phi.table_row != r || phi.a != dh + r * rb_ || phi.d != hi_dst) {
        return std::nullopt;
      }
    }
    const u32 span = 5 * rb_;
    // The ρ scratch spans must alias nothing the kernel reads or writes;
    // the π destinations may alias the sources (they are buffered).
    if (!disjoint(dl, span, dh, span) ||
        !disjoint(lo_src, span, hi_src, span) ||
        !disjoint(lo_dst, span, hi_dst, span)) {
      return std::nullopt;
    }
    for (u32 s : {dl, dh}) {
      if (!disjoint(s, span, lo_src, span) ||
          !disjoint(s, span, hi_src, span) ||
          !disjoint(s, span, lo_dst, span) ||
          !disjoint(s, span, hi_dst, span)) {
        return std::nullopt;
      }
    }
    Group g;
    g.op.kind = FusedOpKind::kRhoPi32;
    g.op.sn = static_cast<u8>(sn);
    g.op.sew = 32;
    g.op.first = static_cast<u32>(i);
    g.op.count = 20;
    g.op.src = lo_src;
    g.op.src2 = hi_src;
    g.op.dst = lo_dst;
    g.op.dst2 = hi_dst;
    add_span_scratch(g, dl, ScratchValue::kNone, 1);
    add_span_scratch(g, dh, ScratchValue::kNone, 2);
    return g;
  }

  /// Merge a directly following ι record into a χ group: it must target
  /// exactly output row 0 in place (d == a == out, one row of elements).
  void merge_iota(Group& g, u8 sew, u32 sn, u32 out) {
    const usize j = g.op.first + g.op.count;
    if (!have(j, 1)) return;
    const TraceOp& o = at(j);
    if (o.kind != TraceOpKind::kIota || o.sew != sew || o.d != out ||
        o.a != out || o.n != 5 * sn) {
      return;
    }
    g.op.count += 1;
    g.op.flags |= kFusedHasIota;
    g.op.iota_rc = t_.wide_imm(o);
  }

  std::optional<Group> try_chi(usize i) {
    auto g = match_chi(i);
    if (g) merge_iota(*g, g->op.sew, g->op.sn, g->op.dst);
    return g;
  }

  /// The 32-bit program's χι: χ(lo) and χ(hi) back to back, then the ι
  /// pair XORing the round constant's lo and hi words into the two output
  /// row-0 planes (either order). One split op with a 64-bit RC; the ι
  /// pair is optional (without it the op carries no ι).
  std::optional<Group> try_chi32(usize i) {
    if (!have(i, 1) || at(i).sew != 32) return std::nullopt;
    const auto lo = match_chi(i);
    if (!lo || lo->op.sew != 32) return std::nullopt;
    const auto hi = match_chi(i + lo->op.count);
    if (!hi || hi->op.sew != 32 || hi->op.sn != lo->op.sn) return std::nullopt;
    // The halves run as one step (the host-SIMD tier joins them into 64-bit
    // lanes), so neither half may touch the other's planes — not through
    // its own planes, not through its scratch.
    const u32 span = 5 * rb_;
    for (const u32 a : {lo->op.src, lo->op.dst}) {
      for (const u32 b : {hi->op.src, hi->op.dst}) {
        if (!disjoint(a, span, b, span)) return std::nullopt;
      }
    }
    for (const Group* g : {&*lo, &*hi}) {
      for (const ScratchRow& r : g->scratch) {
        for (const u32 p : {lo->op.src, lo->op.dst, hi->op.src, hi->op.dst}) {
          if (!disjoint(r.off, rb_, p, span)) return std::nullopt;
        }
      }
    }

    Group g;
    g.op.kind = FusedOpKind::kChi32;
    g.op.sn = lo->op.sn;
    g.op.sew = 32;
    g.op.first = static_cast<u32>(i);
    g.op.count = lo->op.count + hi->op.count;
    g.op.src = lo->op.src;
    g.op.src2 = hi->op.src;
    g.op.dst = lo->op.dst;
    g.op.dst2 = hi->op.dst;
    // χ(hi) runs second: where the halves share scratch, its rows win.
    for (const ScratchRow& r : lo->scratch) {
      add_scratch(g, r.off, r.value, 1, r.y);
    }
    for (const ScratchRow& r : hi->scratch) {
      add_scratch(g, r.off, r.value, 2, r.y);
    }

    const usize j = g.op.first + g.op.count;
    const u32 ne = 5u * g.op.sn;
    const auto iota_on = [&](const TraceOp& o, u32 plane) {
      return o.kind == TraceOpKind::kIota && o.sew == 32 && o.d == plane &&
             o.a == plane && o.n == ne;
    };
    if (have(j, 2)) {
      const TraceOp& a = at(j);
      const TraceOp& b = at(j + 1);
      const bool lo_first = iota_on(a, g.op.dst) && iota_on(b, g.op.dst2);
      const bool hi_first = iota_on(a, g.op.dst2) && iota_on(b, g.op.dst);
      if (lo_first || hi_first) {
        const u64 rc_lo = t_.wide_imm(lo_first ? a : b) & 0xFFFFFFFFu;
        const u64 rc_hi = t_.wide_imm(lo_first ? b : a) & 0xFFFFFFFFu;
        g.op.count += 2;
        g.op.flags |= kFusedHasIota;
        g.op.iota_rc = (rc_hi << 32) | rc_lo;
      }
    }
    return g;
  }

  /// The slide forms' final scratch: u = ~B[x+1] & B[x+2], w = B[x+2] per
  /// plane (a 32-bit χ's rows hold lo words until try_chi32 retags them).
  void add_chi_scratch(Group& g, u32 u, u32 w) const {
    const u8 half = g.op.sew == 64 ? 0 : 1;
    add_span_scratch(g, u, ScratchValue::kChiAndNot, half);
    add_span_scratch(g, w, ScratchValue::kChiNext2, half);
  }

  /// The χ forms (without ι): five vchi rows, the grouped slide/ALU form
  /// and the row-wise LMUL=1 form.
  std::optional<Group> match_chi(usize i) {
    if (!have(i, 5)) return std::nullopt;
    const u32 span = 5 * rb_;

    // Form C: five fused vchi row records.
    if (at(i).kind == TraceOpKind::kChiRow) {
      const u8 sew = at(i).sew;
      const u32 sn = at(i).sn;
      const u32 src = at(i).a;
      const u32 dst = at(i).d;
      if (sn == 0 || sn > kMaxSn || 5 * sn * (sew / 8u) != rb_) {
        return std::nullopt;
      }
      for (u32 r = 0; r < 5; ++r) {
        const TraceOp& o = at(i + r);
        if (o.kind != TraceOpKind::kChiRow || o.sew != sew || o.sn != sn ||
            o.a != src + r * rb_ || o.d != dst + r * rb_) {
          return std::nullopt;
        }
      }
      if (dst != src && !disjoint(src, span, dst, span)) return std::nullopt;
      Group g;
      g.op.kind = FusedOpKind::kChi;
      g.op.sn = static_cast<u8>(sn);
      g.op.sew = sew;
      g.op.first = static_cast<u32>(i);
      g.op.count = 5;
      g.op.src = src;
      g.op.dst = dst;
      return g;
    }

    if (at(i).kind != TraceOpKind::kSlideMod5) return std::nullopt;
    const u8 sew = at(i).sew;
    const u32 sn = at(i).sn;
    const u32 esz = sew / 8u;
    if (sn == 0 || sn > kMaxSn || 5 * sn * esz != rb_) return std::nullopt;
    const u32 ne = 5 * sn;
    const u64 ones = sew == 64 ? ~u64{0} : u64{0xFFFFFFFF};
    const u32 f = at(i).a;
    const u32 u = at(i).d;

    // Form A (grouped): slides and ALU ops each cover the whole 5-row span.
    const auto grouped = [&]() -> std::optional<Group> {
      if (!have(i, 13)) return std::nullopt;
      for (u32 r = 0; r < 5; ++r) {
        const TraceOp& o = at(i + r);
        if (!is_slide(o, sew, sn, 1) || o.a != f + r * rb_ ||
            o.d != u + r * rb_) {
          return std::nullopt;
        }
      }
      const TraceOp& ng = at(i + 5);
      if (ng.kind != TraceOpKind::kBinVS || ng.bin != TraceBinOp::kXor ||
          ng.sew != sew || ng.n != 5 * ne || ng.d != u || ng.a != u ||
          t_.wide_imm(ng) != ones) {
        return std::nullopt;
      }
      const u32 w = at(i + 6).d;
      for (u32 r = 0; r < 5; ++r) {
        const TraceOp& o = at(i + 6 + r);
        if (!is_slide(o, sew, sn, 2) || o.a != f + r * rb_ ||
            o.d != w + r * rb_) {
          return std::nullopt;
        }
      }
      const TraceOp& an = at(i + 11);
      if (!is_vv(an, TraceBinOp::kAnd, sew, 5 * ne) || an.d != u ||
          an.a != u || an.b != w) {
        return std::nullopt;
      }
      const TraceOp& ox = at(i + 12);
      if (!is_vv(ox, TraceBinOp::kXor, sew, 5 * ne) || ox.a != f ||
          ox.b != u) {
        return std::nullopt;
      }
      const u32 out = ox.d;
      if (!disjoint(u, span, f, span) || !disjoint(w, span, f, span) ||
          !disjoint(u, span, w, span) || !disjoint(u, span, out, span) ||
          !disjoint(w, span, out, span)) {
        return std::nullopt;
      }
      if (out != f && !disjoint(out, span, f, span)) return std::nullopt;
      Group g;
      g.op.kind = FusedOpKind::kChi;
      g.op.sn = static_cast<u8>(sn);
      g.op.sew = sew;
      g.op.first = static_cast<u32>(i);
      g.op.count = 13;
      g.op.src = f;
      g.op.dst = out;
      add_chi_scratch(g, u, w);
      return g;
    };

    // Form B (row-wise): the same dataflow emitted as five per-plane record
    // columns (the LMUL=1 program).
    const auto rowwise = [&]() -> std::optional<Group> {
      if (!have(i, 25)) return std::nullopt;
      for (u32 k = 0; k < 5; ++k) {
        const TraceOp& o = at(i + k);
        if (!is_slide(o, sew, sn, 1) || o.a != f + k * rb_ ||
            o.d != u + k * rb_) {
          return std::nullopt;
        }
      }
      for (u32 k = 0; k < 5; ++k) {
        const TraceOp& o = at(i + 5 + k);
        if (o.kind != TraceOpKind::kBinVS || o.bin != TraceBinOp::kXor ||
            o.sew != sew || o.n != ne || o.d != u + k * rb_ || o.a != o.d ||
            t_.wide_imm(o) != ones) {
          return std::nullopt;
        }
      }
      const u32 w = at(i + 10).d;
      for (u32 k = 0; k < 5; ++k) {
        const TraceOp& o = at(i + 10 + k);
        if (!is_slide(o, sew, sn, 2) || o.a != f + k * rb_ ||
            o.d != w + k * rb_) {
          return std::nullopt;
        }
      }
      for (u32 k = 0; k < 5; ++k) {
        const TraceOp& o = at(i + 15 + k);
        if (!is_vv(o, TraceBinOp::kAnd, sew, ne) || o.d != u + k * rb_ ||
            o.a != o.d || o.b != w + k * rb_) {
          return std::nullopt;
        }
      }
      const u32 out = at(i + 20).d;
      for (u32 k = 0; k < 5; ++k) {
        const TraceOp& o = at(i + 20 + k);
        if (!is_vv(o, TraceBinOp::kXor, sew, ne) || o.d != out + k * rb_ ||
            o.a != f + k * rb_ || o.b != u + k * rb_) {
          return std::nullopt;
        }
      }
      if (!disjoint(u, span, f, span) || !disjoint(w, span, f, span) ||
          !disjoint(u, span, w, span) || !disjoint(u, span, out, span) ||
          !disjoint(w, span, out, span)) {
        return std::nullopt;
      }
      if (out != f && !disjoint(out, span, f, span)) return std::nullopt;
      Group g;
      g.op.kind = FusedOpKind::kChi;
      g.op.sn = static_cast<u8>(sn);
      g.op.sew = sew;
      g.op.first = static_cast<u32>(i);
      g.op.count = 25;
      g.op.src = f;
      g.op.dst = out;
      add_chi_scratch(g, u, w);
      return g;
    };

    if (auto g = grouped()) return g;
    return rowwise();
  }

  const CompiledTrace& t_;
  const std::vector<TraceOp>& ops_;
  u32 rb_;
};

// ---------------------------------------------------------------------------
// Liveness. One backward pass over the RECORDED reads/writes (replay
// semantics) with a byte-granular map; every byte is live at end-of-trace
// because callers compare the final register file. Replay liveness is sound
// for the demotion decision: fused groups read a subset of (and demoted
// groups write exactly) what their records do.
// ---------------------------------------------------------------------------

class LiveMap {
 public:
  explicit LiveMap(usize bytes) : live_(bytes, u8{1}) {}

  void set(u32 off, u32 len) noexcept {
    for (u32 b = off; b < off + len && b < live_.size(); ++b) live_[b] = 1;
  }
  void clear(u32 off, u32 len) noexcept {
    for (u32 b = off; b < off + len && b < live_.size(); ++b) live_[b] = 0;
  }
  void set_all() noexcept { std::memset(live_.data(), 1, live_.size()); }
  [[nodiscard]] bool any(u32 off, u32 len) const noexcept {
    for (u32 b = off; b < off + len && b < live_.size(); ++b) {
      if (live_[b]) return true;
    }
    return false;
  }

 private:
  std::vector<u8> live_;
};

/// Backward transfer: live = (live − writes) ∪ reads.
void transfer(const TraceOp& op, LiveMap& lv, u32 rb) {
  const u32 esz = op.sew / 8u;
  const u32 row = 5u * op.sn * esz;
  switch (op.kind) {
    case TraceOpKind::kBinVV:
      lv.clear(op.d, op.n * esz);
      lv.set(op.a, op.n * esz);
      lv.set(op.b, op.n * esz);
      break;
    case TraceOpKind::kBinVS:
      lv.clear(op.d, op.n * esz);
      lv.set(op.a, op.n * esz);
      break;
    case TraceOpKind::kSplat:
      lv.clear(op.d, op.n * esz);
      break;
    case TraceOpKind::kCopyReg:
      lv.clear(op.d, op.n);
      lv.set(op.a, op.n);
      break;
    case TraceOpKind::kLoadUnit:
      lv.clear(op.d, op.n);
      break;
    case TraceOpKind::kStoreUnit:
      lv.set(op.d, op.n);
      break;
    case TraceOpKind::kLoadStrided:
      lv.clear(op.d, op.n * esz);
      break;
    case TraceOpKind::kStoreStrided:
      lv.set(op.d, op.n * esz);
      break;
    case TraceOpKind::kLoadGather:
      // Element targets aren't enumerated here; not killing is conservative.
      break;
    case TraceOpKind::kStoreScatter:
      lv.set_all();  // reads scattered regfile bytes — keep everything live
      break;
    case TraceOpKind::kScalarStore:
      break;
    case TraceOpKind::kSlideMod5:
    case TraceOpKind::kRotup64:
    case TraceOpKind::kRho64Row:
    case TraceOpKind::kThetaCRow:
    case TraceOpKind::kChiRow:
      lv.clear(op.d, row);
      lv.set(op.a, row);
      break;
    case TraceOpKind::kRho32Row:
    case TraceOpKind::kRot32Pair:
      lv.clear(op.d, row);
      lv.set(op.a, row);
      lv.set(op.b, row);
      break;
    case TraceOpKind::kIota:
      lv.clear(op.d, op.n * esz);
      lv.set(op.a, op.n * esz);
      break;
    case TraceOpKind::kPiRow:
    case TraceOpKind::kRhoPiRow:
      for (u32 i = 0; i < op.sn; ++i) {
        for (u32 xp = 0; xp < 5; ++xp) {
          const u32 y = (2 * (xp + 5 - op.table_row)) % 5;
          lv.clear(op.d + y * rb + (5 * i + op.table_row) * esz, esz);
        }
      }
      lv.set(op.a, row);
      break;
    case TraceOpKind::kGeneric:
      lv.set_all();  // conservative: reads everything, kills nothing
      break;
  }
}

/// Keep each group's live-out scratch rows (written back from their
/// recipes) and drop the dead ones; a live-out row without a recipe
/// demotes the group to per-record replay.
void keep_live_scratch(const CompiledTrace& t, std::vector<Group>& groups) {
  const auto& ops = t.ops();
  const u32 rb = static_cast<u32>(t.reg_bytes());
  std::vector<std::vector<Group*>> ending_at(ops.size());
  for (Group& g : groups) ending_at[g.op.first + g.op.count - 1].push_back(&g);
  LiveMap lv(32 * static_cast<usize>(rb));
  for (usize i = ops.size(); i-- > 0;) {
    // The map right before applying record i's transfer is the live-out set
    // of every group whose last record is i.
    for (Group* g : ending_at[i]) {
      std::erase_if(g->scratch, [&](const ScratchRow& r) {
        return !lv.any(r.off, rb);
      });
      g->demoted = std::any_of(
          g->scratch.begin(), g->scratch.end(),
          [](const ScratchRow& r) { return r.value == ScratchValue::kNone; });
    }
    transfer(ops[i], lv, rb);
  }
}

}  // namespace

std::shared_ptr<const FusedTrace> fuse_trace(
    std::shared_ptr<const CompiledTrace> base) {
  auto fused = std::make_shared<FusedTrace>();
  fused->base_ = std::move(base);
  const CompiledTrace& t = *fused->base_;

  std::vector<Group> groups = Matcher(t).run();
  keep_live_scratch(t, groups);

  const u32 nops = static_cast<u32>(t.op_count());
  u32 pos = 0;
  const auto add_replay = [&fused](u32 from, u32 to) {
    if (to > from) {
      FusedOp r;
      r.kind = FusedOpKind::kReplayRange;
      r.first = from;
      r.count = to - from;
      fused->fused_.push_back(r);
    }
  };
  // A demoted group's records join the surrounding replay run.
  for (const Group& g : groups) {
    if (g.demoted) continue;
    add_replay(pos, g.op.first);
    FusedOp op = g.op;
    op.scratch_first = static_cast<u32>(fused->scratch_.size());
    op.scratch_count = static_cast<u32>(g.scratch.size());
    fused->scratch_.insert(fused->scratch_.end(), g.scratch.begin(),
                           g.scratch.end());
    fused->fused_.push_back(op);
    fused->fused_records_ += g.op.count;
    ++fused->super_kernels_;
    pos = g.op.first + g.op.count;
  }
  add_replay(pos, nops);
  return fused;
}

void write_scratch_rows(u8* file, u32 sn, u32 s0, u32 pack, const u64* buf,
                        const ScratchRow* rows, u32 count) noexcept {
  if (s0 >= sn) return;
  const u32 n = std::min(pack, sn - s0);
  // θ rows read the column parities and their partial sums, one plane of
  // kMaxSn states per x.
  u64 p12[5][kMaxSn], p012[5][kMaxSn], c[5][kMaxSn];
  if (std::any_of(rows, rows + count, [](const ScratchRow& r) {
        return r.value != ScratchValue::kChiNext2 &&
               r.value != ScratchValue::kChiAndNot;
      })) {
    for (u32 x = 0; x < 5; ++x) {
      for (u32 p = 0; p < n; ++p) {
        p12[x][p] = buf[(5 + x) * pack + p] ^ buf[(10 + x) * pack + p];
        p012[x][p] = buf[x * pack + p] ^ p12[x][p];
        c[x][p] = p012[x][p] ^ buf[(15 + x) * pack + p] ^
                  buf[(20 + x) * pack + p];
      }
    }
  }
  enum class Op { kCopy, kRot, kXorRot, kAndNot };
  for (const ScratchRow& r : std::span(rows, count)) {
    // Element 5p + x = op(a[(x + da) % 5][p], b[(x + db) % 5][p]), over
    // planes `stride` u64 apart: the parities, or χ's input plane y.
    const u64* a = c[0];
    const u64* b = c[0];
    u32 stride = kMaxSn, da = 0, db = 0;
    Op op = Op::kCopy;
    switch (r.value) {
      case ScratchValue::kNone: continue;
      case ScratchValue::kParity12: a = p12[0]; break;
      case ScratchValue::kParity012: a = p012[0]; break;
      case ScratchValue::kParity: break;
      case ScratchValue::kParityPrev: da = 4; break;
      case ScratchValue::kParityNext: da = 1; break;
      case ScratchValue::kParityNextRot: da = 1, op = Op::kRot; break;
      case ScratchValue::kThetaD: da = 4, db = 1, op = Op::kXorRot; break;
      case ScratchValue::kChiNext2:
        a = buf + 5 * r.y * pack, stride = pack, da = 2;
        break;
      case ScratchValue::kChiAndNot:
        a = b = buf + 5 * r.y * pack, stride = pack, da = 1, db = 2;
        op = Op::kAndNot;
        break;
    }
    // The group's elements of the row are contiguous: build them in address
    // order, then store them with one copy.
    u64 v[5 * kMaxSn];
    for (u32 x = 0; x < 5; ++x) {
      const u64* ax = a + (x + da) % 5 * stride;
      const u64* bx = b + (x + db) % 5 * stride;
      u64* out = v + x;
      switch (op) {
        case Op::kCopy:
          for (u32 p = 0; p < n; ++p) out[5 * p] = ax[p];
          break;
        case Op::kRot:
          for (u32 p = 0; p < n; ++p) out[5 * p] = rotl64(ax[p], 1);
          break;
        case Op::kXorRot:
          for (u32 p = 0; p < n; ++p) out[5 * p] = ax[p] ^ rotl64(bx[p], 1);
          break;
        case Op::kAndNot:
          for (u32 p = 0; p < n; ++p) out[5 * p] = ~ax[p] & bx[p];
          break;
      }
    }
    if (r.half == 0) {
      std::memcpy(file + r.off + 8 * 5 * s0, v, 8 * 5 * n);
    } else {
      u32 w[5 * kMaxSn];
      for (u32 e = 0; e < 5 * n; ++e) {
        w[e] = r.half == 1 ? lo32(v[e]) : hi32(v[e]);
      }
      std::memcpy(file + r.off + 4 * 5 * s0, w, 4 * 5 * n);
    }
  }
}

}  // namespace kvx::sim
