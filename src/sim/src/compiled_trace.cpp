#include "kvx/sim/compiled_trace.hpp"

#include <chrono>
#include <cstring>

#include "kvx/common/bits.hpp"
#include "kvx/common/error.hpp"
#include "kvx/common/rng.hpp"
#include "kvx/isa/encoding.hpp"
#include "kvx/keccak/permutation.hpp"
#include "kvx/obs/flight_recorder.hpp"
#include "kvx/obs/metrics.hpp"
#include "kvx/sim/host_simd.hpp"
#include "kvx/sim/jit/jit_trace.hpp"
#include "kvx/sim/trace_fusion.hpp"

namespace kvx::sim {

using isa::Format;
using isa::Instruction;
using isa::Opcode;
using isa::VMop;
using isa::VOperands;

namespace {

// Register-file accessors. Offsets are byte offsets produced by the trace
// compiler; memcpy keeps the accesses well-defined at any alignment and
// compiles to single moves (the loops below autovectorize).
inline u64 ld64(const u8* p) noexcept {
  u64 v;
  std::memcpy(&v, p, 8);
  return v;
}
inline void st64(u8* p, u64 v) noexcept { std::memcpy(p, &v, 8); }
inline u32 ld32(const u8* p) noexcept {
  u32 v;
  std::memcpy(&v, p, 4);
  return v;
}
inline void st32(u8* p, u32 v) noexcept { std::memcpy(p, &v, 4); }

template <typename T>
inline T ld(const u8* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}
template <typename T>
inline void st(u8* p, T v) noexcept {
  std::memcpy(p, &v, sizeof(T));
}

/// d[i] = f(a[i], b[i]) — ascending element order with read-before-write of
/// each index, matching the interpreter's overlap behaviour.
template <typename T, typename F>
inline void bin_vv(u8* file, const TraceOp& op, F f) {
  u8* d = file + op.d;
  const u8* a = file + op.a;
  const u8* b = file + op.b;
  for (u32 i = 0; i < op.n; ++i) {
    st<T>(d + i * sizeof(T),
          f(ld<T>(a + i * sizeof(T)), ld<T>(b + i * sizeof(T))));
  }
}

template <typename T, typename F>
inline void bin_vs(u8* file, const TraceOp& op, u64 imm, F f) {
  u8* d = file + op.d;
  const u8* a = file + op.a;
  const T s = static_cast<T>(imm);
  for (u32 i = 0; i < op.n; ++i) {
    st<T>(d + i * sizeof(T), f(ld<T>(a + i * sizeof(T)), s));
  }
}

template <typename T>
void run_bin_vv(u8* file, const TraceOp& op) {
  switch (op.bin) {
    case TraceBinOp::kXor: bin_vv<T>(file, op, [](T x, T y) { return T(x ^ y); }); break;
    case TraceBinOp::kAnd: bin_vv<T>(file, op, [](T x, T y) { return T(x & y); }); break;
    case TraceBinOp::kOr:  bin_vv<T>(file, op, [](T x, T y) { return T(x | y); }); break;
    case TraceBinOp::kAdd: bin_vv<T>(file, op, [](T x, T y) { return T(x + y); }); break;
    case TraceBinOp::kSub: bin_vv<T>(file, op, [](T x, T y) { return T(x - y); }); break;
    default:
      throw SimError("compiled trace: bad vv binop");
  }
}

template <typename T>
void run_bin_vs(u8* file, const TraceOp& op, u64 imm) {
  switch (op.bin) {
    case TraceBinOp::kXor: bin_vs<T>(file, op, imm, [](T x, T y) { return T(x ^ y); }); break;
    case TraceBinOp::kAnd: bin_vs<T>(file, op, imm, [](T x, T y) { return T(x & y); }); break;
    case TraceBinOp::kOr:  bin_vs<T>(file, op, imm, [](T x, T y) { return T(x | y); }); break;
    case TraceBinOp::kAdd: bin_vs<T>(file, op, imm, [](T x, T y) { return T(x + y); }); break;
    case TraceBinOp::kSub: bin_vs<T>(file, op, imm, [](T x, T y) { return T(x - y); }); break;
    // Shift amounts were masked to sew-1 bits at compile time.
    case TraceBinOp::kSll: bin_vs<T>(file, op, imm, [](T x, T y) { return T(x << y); }); break;
    case TraceBinOp::kSrl: bin_vs<T>(file, op, imm, [](T x, T y) { return T(x >> y); }); break;
  }
}

template <typename T>
void run_slide_mod5(u8* file, const TraceOp& op) {
  u8* d = file + op.d;
  const u8* a = file + op.a;
  const unsigned shift = static_cast<unsigned>(op.imm % 5 + 10) % 5u;
  for (u32 i = 0; i < op.sn; ++i) {
    std::array<T, 5> tmp;
    for (unsigned j = 0; j < 5; ++j) {
      tmp[j] = ld<T>(a + (5 * i + (j + shift) % 5) * sizeof(T));
    }
    for (unsigned j = 0; j < 5; ++j) {
      st<T>(d + (5 * i + j) * sizeof(T), tmp[j]);
    }
  }
}

template <typename T>
void run_pi_row(u8* file, const TraceOp& op, usize reg_bytes) {
  const u8* a = file + op.a;
  const unsigned row = op.table_row;
  for (u32 i = 0; i < op.sn; ++i) {
    std::array<T, 5> src;
    for (unsigned xp = 0; xp < 5; ++xp) {
      src[xp] = ld<T>(a + (5 * i + xp) * sizeof(T));
    }
    for (unsigned xp = 0; xp < 5; ++xp) {
      const unsigned y = (2 * (xp + 5 - row)) % 5;
      st<T>(file + op.d + y * reg_bytes + (5 * i + row) * sizeof(T), src[xp]);
    }
  }
}

template <typename T>
void run_iota(u8* file, const TraceOp& op, u64 imm) {
  u8* d = file + op.d;
  const u8* a = file + op.a;
  const T rc = static_cast<T>(imm);
  for (u32 e = 0; e < op.n; ++e) {
    T v = ld<T>(a + e * sizeof(T));
    if (e % 5 == 0) v = static_cast<T>(v ^ rc);
    st<T>(d + e * sizeof(T), v);
  }
}

template <typename T>
void run_chi_row(u8* file, const TraceOp& op) {
  u8* d = file + op.d;
  const u8* a = file + op.a;
  for (u32 i = 0; i < op.sn; ++i) {
    std::array<T, 5> f;
    for (unsigned j = 0; j < 5; ++j) f[j] = ld<T>(a + (5 * i + j) * sizeof(T));
    for (unsigned j = 0; j < 5; ++j) {
      st<T>(d + (5 * i + j) * sizeof(T),
            static_cast<T>(f[j] ^ (~f[(j + 1) % 5] & f[(j + 2) % 5])));
    }
  }
}

u64 truncate(u64 v, unsigned sew) {
  return sew >= 64 ? v : (v & ((u64{1} << sew) - 1));
}

u64 scalar_operand(u32 x, unsigned sew) {
  return truncate(static_cast<u64>(static_cast<i64>(static_cast<i32>(x))), sew);
}

/// viota round-constant resolution (mirrors the interpreter's table split).
u64 resolve_iota_rc(unsigned sew, u32 index) {
  const auto& rc = keccak::round_constants();
  if (sew == 64) {
    if (index >= rc.size()) throw SimError("viota RC index out of range");
    return rc[index];
  }
  if (index >= 2 * rc.size()) throw SimError("viota RC index out of range");
  return index % 2 == 0 ? lo32(rc[index / 2]) : hi32(rc[index / 2]);
}

bool specializable_bin(Opcode op, TraceBinOp& bin, VOperands& flavour) {
  flavour = isa::info(op).voperands;
  switch (op) {
    case Opcode::kVxorVV: case Opcode::kVxorVX: case Opcode::kVxorVI:
      bin = TraceBinOp::kXor; return true;
    case Opcode::kVandVV: case Opcode::kVandVX: case Opcode::kVandVI:
      bin = TraceBinOp::kAnd; return true;
    case Opcode::kVorVV: case Opcode::kVorVX: case Opcode::kVorVI:
      bin = TraceBinOp::kOr; return true;
    case Opcode::kVaddVV: case Opcode::kVaddVX: case Opcode::kVaddVI:
      bin = TraceBinOp::kAdd; return true;
    case Opcode::kVsubVV: case Opcode::kVsubVX:
      bin = TraceBinOp::kSub; return true;
    case Opcode::kVsllVX: case Opcode::kVsllVI:
      bin = TraceBinOp::kSll; return true;
    case Opcode::kVsrlVX: case Opcode::kVsrlVI:
      bin = TraceBinOp::kSrl; return true;
    default:
      return false;
  }
}

}  // namespace

void CompiledTrace::execute_op(const TraceOp& op, VectorUnit& vu, Memory& mem,
                               const CycleModel& cm, u8* file) const {
  const usize rb = reg_bytes_;
  switch (op.kind) {
    case TraceOpKind::kBinVV:
      if (op.sew == 64) run_bin_vv<u64>(file, op);
      else run_bin_vv<u32>(file, op);
      break;
    case TraceOpKind::kBinVS:
      if (op.sew == 64) run_bin_vs<u64>(file, op, wide_imms_[op.aux]);
      else run_bin_vs<u32>(file, op, wide_imms_[op.aux]);
      break;
    case TraceOpKind::kSplat: {
      u8* d = file + op.d;
      if (op.sew == 64) {
        const u64 v = wide_imms_[op.aux];
        for (u32 i = 0; i < op.n; ++i) st64(d + 8 * i, v);
      } else {
        const u32 v = static_cast<u32>(wide_imms_[op.aux]);
        for (u32 i = 0; i < op.n; ++i) st32(d + 4 * i, v);
      }
      break;
    }
    case TraceOpKind::kCopyReg: {
      u8* d = file + op.d;
      const u8* a = file + op.a;
      if (d <= a || a + op.n <= d) {
        std::memmove(d, a, op.n);
      } else {
        // Forward-overlapping: copy element-wise ascending like vmv.v.v.
        const u32 esz = op.sew / 8u;
        for (u32 off = 0; off < op.n; off += esz) {
          std::memmove(d + off, a + off, esz);
        }
      }
      break;
    }
    case TraceOpKind::kLoadUnit:
      mem.read_block(op.aux, std::span<u8>(file + op.d, op.n));
      break;
    case TraceOpKind::kStoreUnit:
      mem.write_block(op.aux, std::span<const u8>(file + op.d, op.n));
      break;
    case TraceOpKind::kLoadGather:
      for (u32 i = 0; i < op.n; ++i) {
        const TraceMemElem& e = gather_elems_[op.aux + i];
        const u64 v = mem.read_element(e.addr, op.sew);
        std::memcpy(file + e.reg_off, &v, op.sew / 8u);
      }
      break;
    case TraceOpKind::kStoreScatter:
      for (u32 i = 0; i < op.n; ++i) {
        const TraceMemElem& e = gather_elems_[op.aux + i];
        u64 v = 0;
        std::memcpy(&v, file + e.reg_off, op.sew / 8u);
        mem.write_element(e.addr, op.sew, v);
      }
      break;
    case TraceOpKind::kLoadStrided:
      mem.read_strided(op.aux, static_cast<u32>(op.imm), op.sew / 8u,
                       std::span<u8>(file + op.d, op.n * (op.sew / 8u)));
      break;
    case TraceOpKind::kStoreStrided:
      mem.write_strided(op.aux, static_cast<u32>(op.imm), op.sew / 8u,
                        std::span<const u8>(file + op.d, op.n * (op.sew / 8u)));
      break;
    case TraceOpKind::kScalarStore:
      mem.write_element(op.aux, op.sew,
                        static_cast<u64>(static_cast<u32>(op.imm)));
      break;
    case TraceOpKind::kSlideMod5:
      if (op.sew == 64) run_slide_mod5<u64>(file, op);
      else run_slide_mod5<u32>(file, op);
      break;
    case TraceOpKind::kRotup64: {
      u8* d = file + op.d;
      const u8* a = file + op.a;
      const unsigned amt = static_cast<unsigned>(op.imm);
      for (u32 e = 0; e < 5u * op.sn; ++e) {
        st64(d + 8 * e, rotl64(ld64(a + 8 * e), amt));
      }
      break;
    }
    case TraceOpKind::kRho64Row: {
      u8* d = file + op.d;
      const u8* a = file + op.a;
      const auto& offs = keccak::rho_offsets()[op.table_row];
      for (u32 i = 0; i < op.sn; ++i) {
        for (unsigned j = 0; j < 5; ++j) {
          const u32 e = 5 * i + j;
          st64(d + 8 * e, rotl64(ld64(a + 8 * e), offs[j]));
        }
      }
      break;
    }
    case TraceOpKind::kRho32Row: {
      u8* d = file + op.d;
      const u8* hi = file + op.a;
      const u8* lo = file + op.b;
      const auto& offs = keccak::rho_offsets()[op.table_row];
      for (u32 i = 0; i < op.sn; ++i) {
        for (unsigned j = 0; j < 5; ++j) {
          const u32 e = 5 * i + j;
          const u64 rot =
              rotl64(concat32(ld32(hi + 4 * e), ld32(lo + 4 * e)), offs[j]);
          st32(d + 4 * e, op.flag ? hi32(rot) : lo32(rot));
        }
      }
      break;
    }
    case TraceOpKind::kRot32Pair: {
      u8* d = file + op.d;
      const u8* hi = file + op.a;
      const u8* lo = file + op.b;
      for (u32 e = 0; e < 5u * op.sn; ++e) {
        const u64 rot =
            rotl64(concat32(ld32(hi + 4 * e), ld32(lo + 4 * e)), 1);
        st32(d + 4 * e, op.flag ? hi32(rot) : lo32(rot));
      }
      break;
    }
    case TraceOpKind::kPiRow:
      if (op.sew == 64) run_pi_row<u64>(file, op, rb);
      else run_pi_row<u32>(file, op, rb);
      break;
    case TraceOpKind::kRhoPiRow: {
      const u8* a = file + op.a;
      const unsigned row = op.table_row;
      const auto& offs = keccak::rho_offsets()[row];
      for (u32 i = 0; i < op.sn; ++i) {
        std::array<u64, 5> src;
        for (unsigned xp = 0; xp < 5; ++xp) {
          src[xp] = rotl64(ld64(a + 8 * (5 * i + xp)), offs[xp]);
        }
        for (unsigned xp = 0; xp < 5; ++xp) {
          const unsigned y = (2 * (xp + 5 - row)) % 5;
          st64(file + op.d + y * rb + 8 * (5 * i + row), src[xp]);
        }
      }
      break;
    }
    case TraceOpKind::kIota:
      if (op.sew == 64) run_iota<u64>(file, op, wide_imms_[op.aux]);
      else run_iota<u32>(file, op, wide_imms_[op.aux]);
      break;
    case TraceOpKind::kThetaCRow: {
      u8* d = file + op.d;
      const u8* a = file + op.a;
      for (u32 i = 0; i < op.sn; ++i) {
        std::array<u64, 5> b;
        for (unsigned j = 0; j < 5; ++j) b[j] = ld64(a + 8 * (5 * i + j));
        for (unsigned j = 0; j < 5; ++j) {
          st64(d + 8 * (5 * i + j),
               b[(j + 4) % 5] ^ rotl64(b[(j + 1) % 5], 1));
        }
      }
      break;
    }
    case TraceOpKind::kChiRow:
      if (op.sew == 64) run_chi_row<u64>(file, op);
      else run_chi_row<u32>(file, op);
      break;
    case TraceOpKind::kGeneric: {
      const TraceGenericOp& g = generic_ops_[op.aux];
      if (g.sn != vu.config().effective_sn()) vu.set_sn(g.sn);
      vu.set_exec_state(g.vtype, g.vl);
      ScalarRegs x;
      x.write(g.inst.rs1, g.rs1_value);
      x.write(g.inst.rs2, g.rs2_value);
      vu.execute(g.inst, x, mem, cm);  // recorded cycles stay authoritative
      break;
    }
  }
}

void CompiledTrace::execute(VectorUnit& vu, Memory& mem,
                            const CycleModel& cm) const {
  KVX_CHECK_MSG(vu.reg_bytes() == reg_bytes_,
                "trace compiled for a different vector configuration");
  u8* file = vu.file_data();
  const unsigned entry_sn = vu.config().effective_sn();
  for (const TraceOp& op : ops_) execute_op(op, vu, mem, cm, file);
  if (vu.config().effective_sn() != entry_sn) vu.set_sn(entry_sn);
}

u64 CompiledTrace::cycles_between(u32 from, u32 to) const {
  bool have_a = false, have_b = false;
  u64 a = 0, b = 0;
  for (const Marker& m : markers_) {
    if (!have_a && m.id == from) {
      a = m.cycle;
      have_a = true;
    } else if (have_a && !have_b && m.id == to) {
      b = m.cycle;
      have_b = true;
    }
  }
  if (!have_a || !have_b) throw SimError("marker pair not found");
  return b - a;
}

// ---------------------------------------------------------------------------
// Trace compiler: record one interpreter run, pre-decoding as it goes.
// ---------------------------------------------------------------------------

class TraceCompiler {
 public:
  static CompiledTrace record(const assembler::Program& program,
                              const ProcessorConfig& cfg,
                              const TraceCompileOptions& opts, u64 fill_seed,
                              usize reserve_hint);

  /// Full structural equality of two recordings, private fields included.
  static bool equal(const CompiledTrace& a, const CompiledTrace& b);

 private:
  explicit TraceCompiler(SimdProcessor& proc)
      : proc_(proc),
        reg_bytes_(static_cast<usize>(proc.config().vector.vlen_bits()) / 8) {}

  void emit(const Instruction& inst);
  void emit_arith(const Instruction& inst, unsigned sew, usize vl);
  void emit_memory(const Instruction& inst);
  void emit_custom(const Instruction& inst, unsigned sew);
  void emit_generic(const Instruction& inst);

  [[nodiscard]] u32 reg_off(unsigned vreg) const noexcept {
    return static_cast<u32>(vreg * reg_bytes_);
  }
  [[nodiscard]] usize rows_for(unsigned sew) const noexcept {
    const usize epr = proc_.config().vector.vlen_bits() / sew;
    const usize rows = (proc_.vector().vl() + epr - 1) / epr;
    return rows == 0 ? 1 : rows;
  }
  /// Element `idx` of a register *group* (replicates VectorUnit::group_get).
  [[nodiscard]] u64 group_elem(unsigned base, usize idx, unsigned sew) const {
    const usize epr = proc_.config().vector.vlen_bits() / sew;
    return proc_.vector().get_element(
        base + static_cast<unsigned>(idx / epr), idx % epr, sew);
  }
  /// Intern a 64-bit operand into the wide-imm pool, returning its index.
  [[nodiscard]] u32 add_wide(u64 value) {
    trace_.wide_imms_.push_back(value);
    return static_cast<u32>(trace_.wide_imms_.size() - 1);
  }
  [[nodiscard]] u8 record_sn() const {
    const unsigned sn = proc_.vector().config().effective_sn();
    if (sn > 255) throw SimError("compiled trace: SN exceeds record range");
    return static_cast<u8>(sn);
  }

  SimdProcessor& proc_;
  usize reg_bytes_;
  CompiledTrace trace_;
};

void TraceCompiler::emit_generic(const Instruction& inst) {
  TraceGenericOp g;
  g.inst = inst;
  g.vtype = proc_.vector().vtype();
  g.vl = proc_.vector().vl();
  g.rs1_value = proc_.scalar().regs().read(inst.rs1);
  g.rs2_value = proc_.scalar().regs().read(inst.rs2);
  g.sn = proc_.vector().config().effective_sn();
  TraceOp op;
  op.kind = TraceOpKind::kGeneric;
  op.aux = static_cast<u32>(trace_.generic_ops_.size());
  trace_.generic_ops_.push_back(g);
  trace_.ops_.push_back(op);
}

void TraceCompiler::emit_arith(const Instruction& inst, unsigned sew,
                               usize vl) {
  TraceBinOp bin{};
  VOperands flavour{};

  if (inst.vm && specializable_bin(inst.op, bin, flavour)) {
    TraceOp op;
    op.bin = bin;
    op.sew = static_cast<u8>(sew);
    op.d = reg_off(inst.rd);
    op.a = reg_off(inst.rs2);
    op.n = static_cast<u32>(vl);
    if (flavour == VOperands::kVV) {
      op.kind = TraceOpKind::kBinVV;
      op.b = reg_off(inst.rs1);
    } else {
      op.kind = TraceOpKind::kBinVS;
      u64 operand =
          flavour == VOperands::kVX
              ? scalar_operand(proc_.scalar().regs().read(inst.rs1), sew)
              : truncate(static_cast<u64>(static_cast<i64>(inst.imm)), sew);
      if (bin == TraceBinOp::kSll || bin == TraceBinOp::kSrl) {
        operand &= sew - 1;  // the interpreter masks shift amounts to sew bits
      }
      op.aux = add_wide(operand);
    }
    trace_.ops_.push_back(op);
    return;
  }

  if (inst.vm && (inst.op == Opcode::kVmvVV || inst.op == Opcode::kVmvVX ||
                  inst.op == Opcode::kVmvVI)) {
    TraceOp op;
    op.sew = static_cast<u8>(sew);
    op.d = reg_off(inst.rd);
    if (inst.op == Opcode::kVmvVV) {
      op.kind = TraceOpKind::kCopyReg;
      op.a = reg_off(inst.rs1);
      op.n = static_cast<u32>(vl * sew / 8);
    } else {
      op.kind = TraceOpKind::kSplat;
      op.n = static_cast<u32>(vl);
      op.aux = add_wide(
          inst.op == Opcode::kVmvVX
              ? scalar_operand(proc_.scalar().regs().read(inst.rs1), sew)
              : truncate(static_cast<u64>(static_cast<i64>(inst.imm)), sew));
    }
    trace_.ops_.push_back(op);
    return;
  }

  emit_generic(inst);  // masks, slides, gathers, compares, reductions, ...
}

void TraceCompiler::emit_memory(const Instruction& inst) {
  if (!inst.vm) {
    emit_generic(inst);
    return;
  }
  const auto& oi = isa::info(inst.op);
  const bool is_load = oi.format == Format::kVLoad;
  const auto mop = static_cast<VMop>(oi.aux);
  const unsigned eew = isa::vmem_width_bits(inst.op);
  const unsigned data_width =
      mop == VMop::kIndexed ? proc_.vector().vtype().sew : eew;
  const u32 base = proc_.scalar().regs().read(inst.rs1);
  const usize vl = proc_.vector().vl();

  TraceOp op;
  op.sew = static_cast<u8>(data_width);
  op.d = reg_off(inst.rd);
  if (mop == VMop::kUnit) {
    op.kind = is_load ? TraceOpKind::kLoadUnit : TraceOpKind::kStoreUnit;
    op.aux = base;
    op.n = static_cast<u32>(vl * (eew / 8));
    trace_.ops_.push_back(op);
    return;
  }

  std::vector<u32> addrs(vl);
  for (usize i = 0; i < vl; ++i) {
    if (mop == VMop::kStrided) {
      addrs[i] =
          base + static_cast<u32>(i) * proc_.scalar().regs().read(inst.rs2);
    } else {  // indexed: 32-bit byte offsets from the index vector register
      addrs[i] = base + static_cast<u32>(group_elem(inst.rs2, i, 32));
    }
  }
  op.n = static_cast<u32>(vl);

  // Constant stride (the 32-bit program's lo/hi de-interleave is 8i and
  // 8i + 4): one record with the span resolved and bounds-checked here, so
  // replay moves the whole row with one check instead of per element.
  const u32 stride = vl > 1 ? addrs[1] - addrs[0] : 0;
  bool strided = stride <= 0x7FFFFFFFu &&
                 u64{addrs[0]} + u64{stride} * (vl - 1) + data_width / 8 <=
                     proc_.dmem().size();
  for (usize i = 1; strided && i < vl; ++i) {
    strided = addrs[i] == addrs[0] + static_cast<u32>(i) * stride;
  }
  if (strided) {
    op.kind = is_load ? TraceOpKind::kLoadStrided : TraceOpKind::kStoreStrided;
    op.aux = addrs[0];
    op.imm = static_cast<i32>(stride);
    trace_.ops_.push_back(op);
    return;
  }

  op.kind = is_load ? TraceOpKind::kLoadGather : TraceOpKind::kStoreScatter;
  op.aux = static_cast<u32>(trace_.gather_elems_.size());
  for (usize i = 0; i < vl; ++i) {
    TraceMemElem e;
    e.addr = addrs[i];
    e.reg_off = op.d + static_cast<u32>(i * (data_width / 8));
    trace_.gather_elems_.push_back(e);
  }
  trace_.ops_.push_back(op);
}

void TraceCompiler::emit_custom(const Instruction& inst, unsigned sew) {
  const u8 sn = record_sn();
  const usize rows = rows_for(sew);

  const auto push = [&](TraceOpKind kind, unsigned vd, unsigned vs2, u8 row,
                        i32 imm, unsigned vs1 = 0, u8 flag = 0) {
    TraceOp op;
    op.kind = kind;
    op.sew = static_cast<u8>(sew);
    op.flag = flag;
    op.table_row = row;
    op.d = reg_off(vd);
    op.a = reg_off(vs2);
    op.b = reg_off(vs1);
    op.sn = sn;
    op.imm = imm;
    trace_.ops_.push_back(op);
  };

  switch (inst.op) {
    case Opcode::kVslidedownmVI:
      for (usize r = 0; r < rows; ++r) {
        push(TraceOpKind::kSlideMod5, inst.rd + static_cast<unsigned>(r),
             inst.rs2 + static_cast<unsigned>(r), 0, inst.imm);
      }
      return;
    case Opcode::kVslideupmVI:
      for (usize r = 0; r < rows; ++r) {
        push(TraceOpKind::kSlideMod5, inst.rd + static_cast<unsigned>(r),
             inst.rs2 + static_cast<unsigned>(r), 0, -inst.imm);
      }
      return;
    case Opcode::kVrotupVI:
      for (usize r = 0; r < rows; ++r) {
        push(TraceOpKind::kRotup64, inst.rd + static_cast<unsigned>(r),
             inst.rs2 + static_cast<unsigned>(r), 0, inst.imm);
      }
      return;
    case Opcode::kV32lrotupVV:
    case Opcode::kV32hrotupVV:
      push(TraceOpKind::kRot32Pair, inst.rd, inst.rs2, 0, 0, inst.rs1,
           inst.op == Opcode::kV32hrotupVV ? u8{1} : u8{0});
      return;
    case Opcode::kV64rhoVI:
      if (inst.imm >= 0) {
        push(TraceOpKind::kRho64Row, inst.rd, inst.rs2,
             static_cast<u8>(inst.imm), 0);
      } else {
        for (usize r = 0; r < rows; ++r) {
          push(TraceOpKind::kRho64Row, inst.rd + static_cast<unsigned>(r),
               inst.rs2 + static_cast<unsigned>(r), static_cast<u8>(r), 0);
        }
      }
      return;
    case Opcode::kV32lrhoVV:
    case Opcode::kV32hrhoVV:
      for (usize r = 0; r < rows; ++r) {
        push(TraceOpKind::kRho32Row, inst.rd + static_cast<unsigned>(r),
             inst.rs2 + static_cast<unsigned>(r), static_cast<u8>(r), 0,
             inst.rs1 + static_cast<unsigned>(r),
             inst.op == Opcode::kV32hrhoVV ? u8{1} : u8{0});
      }
      return;
    case Opcode::kVpiVI:
      if (inst.imm >= 0) {
        push(TraceOpKind::kPiRow, inst.rd, inst.rs2, static_cast<u8>(inst.imm),
             0);
      } else {
        for (usize r = 0; r < rows; ++r) {
          push(TraceOpKind::kPiRow, inst.rd,
               inst.rs2 + static_cast<unsigned>(r), static_cast<u8>(r), 0);
        }
      }
      return;
    case Opcode::kViotaVX: {
      const u32 index = proc_.scalar().regs().read(inst.rs1);
      TraceOp op;
      op.kind = TraceOpKind::kIota;
      op.sew = static_cast<u8>(sew);
      op.d = reg_off(inst.rd);
      op.a = reg_off(inst.rs2);
      op.n = 5u * sn;
      op.aux = add_wide(resolve_iota_rc(sew, index));
      trace_.ops_.push_back(op);
      return;
    }
    case Opcode::kVthetacVV:
      for (usize r = 0; r < rows; ++r) {
        push(TraceOpKind::kThetaCRow, inst.rd + static_cast<unsigned>(r),
             inst.rs2 + static_cast<unsigned>(r), 0, 0);
      }
      return;
    case Opcode::kVrhopiVI:
      if (inst.imm >= 0) {
        push(TraceOpKind::kRhoPiRow, inst.rd, inst.rs2,
             static_cast<u8>(inst.imm), 0);
      } else {
        for (usize r = 0; r < rows; ++r) {
          push(TraceOpKind::kRhoPiRow, inst.rd,
               inst.rs2 + static_cast<unsigned>(r), static_cast<u8>(r), 0);
        }
      }
      return;
    case Opcode::kVchiVV:
      for (usize r = 0; r < rows; ++r) {
        push(TraceOpKind::kChiRow, inst.rd + static_cast<unsigned>(r),
             inst.rs2 + static_cast<unsigned>(r), 0, 0);
      }
      return;
    default:
      emit_generic(inst);
      return;
  }
}

void TraceCompiler::emit(const Instruction& inst) {
  const auto& oi = isa::info(inst.op);
  switch (oi.format) {
    case Format::kVArith:
      emit_arith(inst, proc_.vector().vtype().sew, proc_.vector().vl());
      return;
    case Format::kVLoad:
    case Format::kVStore:
      if (proc_.vector().vl() != 0) emit_memory(inst);
      return;
    case Format::kVCustom:
      emit_custom(inst, proc_.vector().vtype().sew);
      return;
    case Format::kS: {  // scalar stores are the only scalar memory effect
      TraceOp op;
      op.kind = TraceOpKind::kScalarStore;
      op.sew = inst.op == Opcode::kSb   ? u8{8}
               : inst.op == Opcode::kSh ? u8{16}
                                        : u8{32};
      op.aux =
          proc_.scalar().regs().read(inst.rs1) + static_cast<u32>(inst.imm);
      op.imm = static_cast<i32>(static_cast<u32>(
          truncate(proc_.scalar().regs().read(inst.rs2), op.sew)));
      trace_.ops_.push_back(op);
      return;
    }
    default:
      // Scalar control/ALU/CSR instructions have no architectural effect the
      // replay needs: their results are baked into later records, markers
      // are captured from the recording run, and cycles are pre-accounted.
      return;
  }
}

CompiledTrace TraceCompiler::record(const assembler::Program& program,
                                    const ProcessorConfig& cfg,
                                    const TraceCompileOptions& opts,
                                    u64 fill_seed, usize reserve_hint) {
  SimdProcessor proc(cfg);
  proc.load_program(program);
  if (opts.verify_len != 0) {
    SplitMix64 rng(fill_seed);
    std::vector<u8> junk(opts.verify_len);
    for (u8& b : junk) b = static_cast<u8>(rng.next());
    proc.dmem().write_block(opts.verify_base, junk);
  }

  TraceCompiler tc(proc);
  tc.trace_.ops_.reserve(reserve_hint);
  while (!proc.halted()) {
    const u32 pc = proc.scalar().pc();
    if (pc >= program.text_base && pc % 4 == 0) {
      const usize idx = (pc - program.text_base) / 4;
      if (idx < program.text.size()) {
        // Pre-decode and record against the *pre-execution* machine state;
        // step() then validates the instruction (throwing on any fault).
        tc.emit(isa::decode(program.text[idx]));
      }
    }
    proc.step();  // faults (bad fetch, watchdog, ...) propagate to compile
  }

  tc.trace_.stats_ = proc.stats();
  tc.trace_.markers_ = proc.markers();
  for (unsigned r = 0; r < 32; ++r) {
    tc.trace_.final_xregs_[r] = proc.scalar().regs().read(r);
  }
  tc.trace_.reg_bytes_ = tc.reg_bytes_;
  return std::move(tc.trace_);
}

bool TraceCompiler::equal(const CompiledTrace& a, const CompiledTrace& b) {
  if (a.ops_ != b.ops_ || a.gather_elems_ != b.gather_elems_ ||
      a.generic_ops_ != b.generic_ops_ || a.wide_imms_ != b.wide_imms_) {
    return false;
  }
  if (a.stats_.cycles != b.stats_.cycles ||
      a.stats_.instructions != b.stats_.instructions) {
    return false;
  }
  if (a.markers_.size() != b.markers_.size()) return false;
  for (usize i = 0; i < a.markers_.size(); ++i) {
    if (a.markers_[i].id != b.markers_[i].id ||
        a.markers_[i].cycle != b.markers_[i].cycle) {
      return false;
    }
  }
  return a.final_xregs_ == b.final_xregs_;
}

std::shared_ptr<const CompiledTrace> compile_trace(
    const assembler::Program& program, const ProcessorConfig& cfg,
    const TraceCompileOptions& opts) {
  // The first recording run can only estimate the executed-record count
  // from the static code size (the round loop re-executes the body); the
  // verification run then reserves the exact count.
  auto trace = std::make_shared<CompiledTrace>(
      TraceCompiler::record(program, cfg, opts, /*fill_seed=*/0x5EED5EEDull,
                            /*reserve_hint=*/program.text.size() * 8));
  if (opts.verify_len != 0) {
    const CompiledTrace second =
        TraceCompiler::record(program, cfg, opts, /*fill_seed=*/0xBADC0FFEull,
                              /*reserve_hint=*/trace->op_count());
    if (!TraceCompiler::equal(*trace, second)) {
      throw SimError(
          "compiled trace: program control flow or operands depend on the "
          "staged state data; use the interpreter backend");
    }
  }
  return trace;
}

// ---------------------------------------------------------------------------
// TraceCache
// ---------------------------------------------------------------------------

namespace {

u64 fnv1a(u64 h, const void* data, usize len) {
  const auto* p = static_cast<const u8*>(data);
  for (usize i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

template <typename T>
u64 fnv1a_value(u64 h, const T& v) {
  return fnv1a(h, &v, sizeof v);
}

u64 trace_key(const assembler::Program& program, const ProcessorConfig& cfg,
              const TraceCompileOptions& opts) {
  u64 h = 0xCBF29CE484222325ull;
  h = fnv1a(h, program.text.data(), program.text.size() * sizeof(u32));
  h = fnv1a(h, program.data.data(), program.data.size());
  h = fnv1a_value(h, program.text_base);
  h = fnv1a_value(h, program.data_base);
  h = fnv1a_value(h, cfg.vector.elen_bits);
  h = fnv1a_value(h, cfg.vector.ele_num);
  h = fnv1a_value(h, cfg.vector.sn);
  h = fnv1a_value(h, cfg.dmem_bytes);
  h = fnv1a_value(h, cfg.max_cycles);
  const CycleModel& cm = cfg.cycle_model;
  for (u32 field :
       {cm.alu, cm.mul, cm.div, cm.load, cm.store, cm.branch_taken,
        cm.branch_not_taken, cm.jump, cm.csr, cm.system, cm.vsetvli,
        cm.v_issue, cm.v_per_row, cm.vpi_extra, cm.vmem_issue, cm.vmem_per_row,
        cm.vchi_extra}) {
    h = fnv1a_value(h, field);
  }
  h = fnv1a_value(h, cm.decoupled_vpu);
  h = fnv1a_value(h, opts.verify_base);
  h = fnv1a_value(h, opts.verify_len);
  return h;
}

/// Key separation between the plain, fused and host-SIMD compilations of
/// one program. Each backend's map is also a distinct container, so a
/// "trace" shard can never observe a fused artifact even on a hash
/// collision (and likewise up the chain).
constexpr u64 kFusedKeySalt = 0x46555345445F5452ull;     // "FUSED_TR"
constexpr u64 kHostSimdKeySalt = 0x484F53545F53494Dull;  // "HOST_SIM"
constexpr u64 kJitKeySalt = 0x4A49545F54524143ull;       // "JIT_TRAC"

}  // namespace

namespace cache_obs {

/// Registry mirrors of the TraceCacheStats counters (and trace events for
/// compile/fuse phases and hit/miss), so cache behaviour is visible in the
/// same scrape as the engine metrics.
obs::Counter& hits() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "kvx_trace_cache_hits_total",
      "Trace-cache lookups served without compiling");
  return c;
}
obs::Counter& compiles() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "kvx_trace_cache_compiles_total", "Traces compiled (cache misses)");
  return c;
}
obs::Counter& failures() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "kvx_trace_cache_failures_total",
      "Trace compilations rejected (data-dependent program)");
  return c;
}
obs::Counter& fusions() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "kvx_trace_cache_fusions_total", "Fused traces built");
  return c;
}
obs::Counter& compile_ns() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "kvx_trace_compile_ns_total",
      "Host time spent compiling traces (incl. failures)");
  return c;
}
obs::Counter& fuse_ns() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "kvx_trace_fuse_ns_total", "Host time spent in the fusion pass");
  return c;
}
obs::Counter& lowerings() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "kvx_hostsimd_lowerings_total", "Host-SIMD lowering plans built");
  return c;
}
obs::Counter& lower_ns() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "kvx_hostsimd_lower_ns_total",
      "Host time spent building host-SIMD lowering plans");
  return c;
}
obs::Counter& jit_compiles() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "kvx_jit_compiles_total", "Native JIT code emissions");
  return c;
}
obs::Counter& jit_ns() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "kvx_jit_compile_ns_total", "Host time spent emitting native code");
  return c;
}
obs::Gauge& entries_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "kvx_trace_cache_entries",
      "Live cached artifacts across all backend tiers");
  return g;
}
obs::Gauge& bytes_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "kvx_trace_cache_bytes",
      "Approximate resident bytes of cached artifacts (incl. JIT code "
      "buffers)");
  return g;
}

void hit_event() {
  hits().inc();
  obs::FlightRecorder::global().record(obs::FlightEventType::kTraceCacheHit);
}

/// Flight-recorder artifact tiers (dump format: kTraceCompile/kTraceReject
/// code field): 0 trace, 1 fused, 2 host-simd, 3 jit.
void compile_event(u16 tier, u64 ns) {
  obs::FlightRecorder::global().record(obs::FlightEventType::kTraceCompile,
                                       tier, ns);
}

void reject_event(u16 tier, const char* error) {
  obs::FlightRecorder::global().record(obs::FlightEventType::kTraceReject,
                                       tier, 0, obs::flight_hash(error));
}

}  // namespace cache_obs

TraceCache& TraceCache::global() {
  static TraceCache cache;
  return cache;
}

std::shared_ptr<const CompiledTrace> TraceCache::lookup_or_compile_locked(
    u64 key, const assembler::Program& program, const ProcessorConfig& cfg,
    const TraceCompileOptions& opts) {
  if (const auto it = entries_.find(key); it != entries_.end()) {
    ++stats_.hits;
    cache_obs::hit_event();
    return it->second;
  }
  if (const auto it = failed_.find(key); it != failed_.end()) {
    ++stats_.hits;  // negative-cache hit: rejected without recompiling
    cache_obs::hit_event();
    throw SimError(it->second);
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_ns = [&t0] {
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };
  try {
    auto trace = compile_trace(program, cfg, opts);
    const u64 ns = elapsed_ns();
    stats_.compile_ns += ns;
    ++stats_.compiles;
    cache_obs::compile_ns().inc(ns);
    cache_obs::compiles().inc();
    cache_obs::compile_event(0, ns);
    entries_.emplace(key, trace);
    resident_bytes_ += trace->memory_bytes();
    refresh_occupancy_locked();
    return trace;
  } catch (const Error& e) {
    const u64 ns = elapsed_ns();
    stats_.compile_ns += ns;
    ++stats_.failures;
    cache_obs::compile_ns().inc(ns);
    cache_obs::failures().inc();
    cache_obs::reject_event(0, e.what());
    failed_.emplace(key, e.what());
    throw;
  }
}

std::shared_ptr<const CompiledTrace> TraceCache::get_or_compile(
    const assembler::Program& program, const ProcessorConfig& cfg,
    const TraceCompileOptions& opts) {
  const u64 key = trace_key(program, cfg, opts);
  std::lock_guard lock(mutex_);
  return lookup_or_compile_locked(key, program, cfg, opts);
}

std::shared_ptr<const FusedTrace> TraceCache::lookup_or_fuse_locked(
    u64 base_key, const assembler::Program& program,
    const ProcessorConfig& cfg, const TraceCompileOptions& opts) {
  const u64 fused_key = base_key ^ kFusedKeySalt;
  if (const auto it = fused_entries_.find(fused_key);
      it != fused_entries_.end()) {
    ++stats_.hits;
    cache_obs::hit_event();
    return it->second;
  }
  // Share the recording with the plain-trace entry: one compile serves both
  // backends, but the fused artifact is cached under its own key.
  auto base = lookup_or_compile_locked(base_key, program, cfg, opts);
  const auto t0 = std::chrono::steady_clock::now();
  auto fused = fuse_trace(std::move(base));
  const u64 ns = static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  stats_.fuse_ns += ns;
  ++stats_.fusions;
  cache_obs::fuse_ns().inc(ns);
  cache_obs::fusions().inc();
  cache_obs::compile_event(1, ns);
  fused_entries_.emplace(fused_key, fused);
  resident_bytes_ += fused->memory_bytes();
  refresh_occupancy_locked();
  return fused;
}

std::shared_ptr<const FusedTrace> TraceCache::get_or_compile_fused(
    const assembler::Program& program, const ProcessorConfig& cfg,
    const TraceCompileOptions& opts) {
  const u64 base_key = trace_key(program, cfg, opts);
  std::lock_guard lock(mutex_);
  return lookup_or_fuse_locked(base_key, program, cfg, opts);
}

std::shared_ptr<const HostSimdTrace> TraceCache::lookup_or_lower_locked(
    u64 base_key, const assembler::Program& program,
    const ProcessorConfig& cfg, const TraceCompileOptions& opts) {
  const u64 hs_key = base_key ^ kHostSimdKeySalt;
  if (const auto it = host_simd_entries_.find(hs_key);
      it != host_simd_entries_.end()) {
    ++stats_.hits;
    cache_obs::hit_event();
    return it->second;
  }
  if (const auto it = failed_.find(hs_key); it != failed_.end()) {
    ++stats_.hits;  // negative-cache hit: rejected without re-lowering
    cache_obs::hit_event();
    throw SimError(it->second);
  }
  // Share the fused artifact (and through it the recording) with the lower
  // tiers; only the lowering plan is built (and cached) per this backend.
  auto fused = lookup_or_fuse_locked(base_key, program, cfg, opts);
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_ns = [&t0] {
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };
  try {
    auto hs = lower_host_simd(std::move(fused));
    const u64 ns = elapsed_ns();
    stats_.lower_ns += ns;
    ++stats_.lowerings;
    cache_obs::lower_ns().inc(ns);
    cache_obs::lowerings().inc();
    cache_obs::compile_event(2, ns);
    host_simd_entries_.emplace(hs_key, hs);
    resident_bytes_ += hs->memory_bytes();
    refresh_occupancy_locked();
    return hs;
  } catch (const Error& e) {
    const u64 ns = elapsed_ns();
    stats_.lower_ns += ns;
    cache_obs::lower_ns().inc(ns);
    cache_obs::reject_event(2, e.what());
    failed_.emplace(hs_key, e.what());
    throw;
  }
}

std::shared_ptr<const HostSimdTrace> TraceCache::get_or_compile_host_simd(
    const assembler::Program& program, const ProcessorConfig& cfg,
    const TraceCompileOptions& opts) {
  const u64 base_key = trace_key(program, cfg, opts);
  std::lock_guard lock(mutex_);
  return lookup_or_lower_locked(base_key, program, cfg, opts);
}

std::shared_ptr<const JitTrace> TraceCache::get_or_compile_jit(
    const assembler::Program& program, const ProcessorConfig& cfg,
    const TraceCompileOptions& opts) {
  const u64 base_key = trace_key(program, cfg, opts);
  // The resolved emission ISA is part of the key: a test pin (or
  // KVX_HOST_SIMD_ISA) flipping between AVX-512 and AVX2 must produce two
  // distinct native compilations, not serve one for the other.
  const HostSimdIsa isa = host_simd_dispatch_isa(cfg.vector.sn);
  const u64 jit_key =
      base_key ^ kJitKeySalt ^ fnv1a_value(0xCBF29CE484222325ull, isa);
  std::lock_guard lock(mutex_);
  if (const auto it = jit_entries_.find(jit_key); it != jit_entries_.end()) {
    ++stats_.hits;
    cache_obs::hit_event();
    return it->second;
  }
  // No negative caching here: an mmap/mprotect refusal is transient host
  // state, and an unsupported-ISA resolution is already cheap to rediscover
  // (lower_jit throws before emitting a byte).
  auto hs = lookup_or_lower_locked(base_key, program, cfg, opts);
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_ns = [&t0] {
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };
  try {
    auto jit = lower_jit(std::move(hs));
    const u64 ns = elapsed_ns();
    stats_.jit_ns += ns;
    ++stats_.jit_compiles;
    cache_obs::jit_ns().inc(ns);
    cache_obs::jit_compiles().inc();
    cache_obs::compile_event(3, ns);
    jit_entries_.emplace(jit_key, jit);
    resident_bytes_ += jit->memory_bytes();
    refresh_occupancy_locked();
    return jit;
  } catch (const Error& e) {
    const u64 ns = elapsed_ns();
    stats_.jit_ns += ns;
    cache_obs::jit_ns().inc(ns);
    cache_obs::reject_event(3, e.what());
    throw;
  }
}

void TraceCache::refresh_occupancy_locked() {
  stats_.entries = entries_.size() + fused_entries_.size() +
                   host_simd_entries_.size() + jit_entries_.size();
  stats_.resident_bytes = resident_bytes_;
  cache_obs::entries_gauge().set(static_cast<double>(stats_.entries));
  cache_obs::bytes_gauge().set(static_cast<double>(stats_.resident_bytes));
}

TraceCacheStats TraceCache::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void TraceCache::clear() {
  std::lock_guard lock(mutex_);
  entries_.clear();
  fused_entries_.clear();
  host_simd_entries_.clear();
  jit_entries_.clear();
  failed_.clear();
  stats_ = {};
  resident_bytes_ = 0;
  refresh_occupancy_locked();
}

}  // namespace kvx::sim
