// Compiled trace: the recording and replay substrate of the host-SIMD and
// jit backends.
//
// The generated Keccak programs have data-independent control flow: the
// round loop runs a fixed trip count and every operand that is not Keccak
// state data (addresses, vtype/vl, ι round-constant indices, SN) is a
// compile-time constant of the program. The trace compiler exploits this:
// it records ONE interpreter run, pre-decoding every executed instruction
// into a type-specialized kernel record — opcode-specialized kind, resolved
// SEW and `lmul_cnt` row expansion (one record per hardware row), resolved
// ρ/π rotation-table rows, raw byte offsets into the contiguous vector
// register file, and resolved data-memory addresses. Replaying a range of
// the flat kernel array reproduces that part of the run's architectural
// effects (register file, data memory) exactly, with no instruction fetch,
// no per-element SEW re-dispatch and no scalar bookkeeping on the host. The
// host-SIMD plan (host_simd.hpp) replays every record range it does not
// lower to host vector code.
//
// Cycle accounting is NOT re-derived at replay time: the recording run is
// charged by the interpreter under the processor's CycleModel, and the
// resulting totals, per-opcode statistics and marker stream are stored in
// the trace. Reported cycles are therefore bit-identical to the
// interpreter's by construction; the cycle model stays the sole timing
// oracle.
//
// Safety: compile_trace() runs the recorder twice with the caller-named
// verify region (the staged Keccak states) filled with different
// pseudo-random data. If the two recordings disagree anywhere — branch
// path, baked operand, resolved address, cycle count — the program is not
// trace-compilable (it computes on state data outside the vector unit) and
// compilation throws SimError. Callers fall back to the interpreter.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "kvx/sim/exec_backend.hpp"
#include "kvx/sim/processor.hpp"

namespace kvx::sim {

class HostSimdTrace;  // host_simd.hpp
class JitTrace;       // jit/jit_trace.hpp

/// Kernel kinds a recorded instruction is specialized into. Custom
/// instructions with an `lmul_cnt` row sequence are flattened to one record
/// per row at compile time.
enum class TraceOpKind : u8 {
  kBinVV,         ///< d[i] = a[i] op b[i]           (op in `bin`)
  kBinVS,         ///< d[i] = a[i] op wide_imm       (scalar/imm pre-resolved)
  kSplat,         ///< d[i] = wide_imm               (vmv.v.x / vmv.v.i)
  kCopyReg,       ///< memmove of n bytes            (vmv.v.v)
  kLoadUnit,      ///< contiguous dmem -> regfile copy
  kStoreUnit,     ///< contiguous regfile -> dmem copy
  kLoadGather,    ///< per-element resolved addresses (strided/indexed)
  kStoreScatter,  ///< per-element resolved addresses
  kLoadStrided,   ///< gather whose resolved addresses have a constant stride
  kStoreStrided,  ///< scatter whose resolved addresses have a constant stride
  kScalarStore,   ///< sb/sh/sw with resolved address and value
  kSlideMod5,     ///< vslideupm/vslidedownm, one row
  kRotup64,       ///< vrotup.vi, one row
  kRho64Row,      ///< v64rho.vi, one row with its rotation-table row
  kRho32Row,      ///< v32l/hrho.vv, one row (hi/lo pair sources)
  kRot32Pair,     ///< v32l/hrotup.vv
  kPiRow,         ///< vpi.vi column-mode scatter, one source row
  kRhoPiRow,      ///< fused vrhopi.vi, one source row
  kIota,          ///< viota.vx with the round constant pre-resolved
  kThetaCRow,     ///< fused vthetac.vv, one row
  kChiRow,        ///< fused vchi.vv, one row
  kGeneric,       ///< interpreter fallback (masked/rare ops), pre-resolved
};

/// Binary ALU operator of kBinVV/kBinVS.
enum class TraceBinOp : u8 { kXor, kAnd, kOr, kAdd, kSub, kSll, kSrl };

/// One pre-decoded kernel record, packed to half a cache line so the replay
/// loop streams two records per 64-byte line. `d`/`a`/`b` are byte offsets
/// into the vector register file (register groups are contiguous there, so
/// an LMUL-expanded operand is a single flat span).
///
/// `aux` is overloaded by kind:
///  * kLoadUnit/kStoreUnit/kScalarStore — resolved data-memory address;
///  * kLoadStrided/kStoreStrided        — address of element 0 (`imm` holds
///    the byte stride, `n` the element count; register elements are
///    contiguous from `d`);
///  * kLoadGather/kStoreScatter         — first index into gather_elems_;
///  * kGeneric                          — index into generic_ops_;
///  * kBinVS/kSplat/kIota               — index into the wide_imms_ pool
///    (these operands can be full 64-bit values; everything else fits the
///    32-bit `imm`).
struct TraceOp {
  TraceOpKind kind{};
  TraceBinOp bin{};
  u8 sew = 64;        ///< element width in bits (32 or 64)
  u8 flag = 0;        ///< kRho32Row/kRot32Pair: 1 = high half
  u8 table_row = 0;   ///< ρ/π rotation-table row
  u8 sn = 0;          ///< Keccak states covered by a custom-op record
  u16 reserved = 0;
  u32 d = 0;          ///< destination byte offset (regfile; kScalarStore: unused)
  u32 a = 0;          ///< first source byte offset
  u32 b = 0;          ///< second source byte offset
  u32 n = 0;          ///< element count (copies/unit mem: byte count)
  u32 aux = 0;        ///< overloaded per kind, see above
  i32 imm = 0;        ///< slide offset / rotation amount / scalar-store value /
                      ///< memory stride

  friend bool operator==(const TraceOp&, const TraceOp&) noexcept = default;
};
static_assert(sizeof(TraceOp) == 32, "TraceOp must stay half a cache line");

/// Resolved element of a gather/scatter memory record.
struct TraceMemElem {
  u32 addr = 0;     ///< data-memory address
  u32 reg_off = 0;  ///< register-file byte offset

  friend bool operator==(const TraceMemElem&, const TraceMemElem&) noexcept =
      default;
};

/// Interpreter-fallback record: the decoded instruction plus every piece of
/// processor state its execution depends on, resolved at record time.
struct TraceGenericOp {
  isa::Instruction inst{};
  isa::VType vtype{};
  usize vl = 0;
  u32 rs1_value = 0;  ///< scalar x[rs1] at execution time
  u32 rs2_value = 0;  ///< scalar x[rs2] at execution time
  u32 sn = 0;         ///< SN in effect at execution time

  friend bool operator==(const TraceGenericOp&, const TraceGenericOp&) noexcept =
      default;
};

/// Aggregate compile/cache counters (see TraceCache).
struct TraceCacheStats {
  u64 hits = 0;         ///< cache lookups served without compiling
  u64 compiles = 0;     ///< traces compiled (cache misses)
  u64 failures = 0;     ///< compilations rejected (data-dependent program)
  u64 compile_ns = 0;   ///< host time spent compiling (incl. failures)
  u64 fusions = 0;      ///< fusion-matcher passes (one per plan built)
  u64 fuse_ns = 0;      ///< host time spent in the fusion pass
  u64 lowerings = 0;    ///< host-SIMD plans built (cache misses)
  u64 lower_ns = 0;     ///< host time spent lowering to host SIMD
  u64 jit_compiles = 0; ///< native JIT emissions (jit-cache misses)
  u64 jit_ns = 0;       ///< host time spent emitting native code
  // Occupancy snapshot (also exported as the kvx_trace_cache_entries /
  // kvx_trace_cache_bytes gauges): live plans and jit compilations and the
  // approximate bytes they hold — recordings, fused traces and the
  // page-rounded W^X code buffers of cached JIT traces included.
  u64 entries = 0;
  u64 resident_bytes = 0;
};

/// An immutable compiled trace. Thread-safe to share: replay() only
/// mutates the VectorUnit/Memory it is handed.
class CompiledTrace {
 public:
  /// Replay records [first, first + count) against `vu`'s register file and
  /// `mem`. Replaying every record from a clean register file, with the
  /// input data staged exactly as for an interpreter run, reproduces that
  /// run (the trace reads the same addresses the program would). The caller
  /// restores SN if a replayed record changed it.
  void replay(usize first, usize count, VectorUnit& vu, Memory& mem,
              const CycleModel& cm) const;

  // --- recorded timing (bit-identical to the interpreter run) ---
  [[nodiscard]] u64 total_cycles() const noexcept { return stats_.cycles; }
  [[nodiscard]] u64 instructions() const noexcept {
    return stats_.instructions;
  }
  [[nodiscard]] const RunStats& run_stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<Marker>& markers() const noexcept {
    return markers_;
  }
  /// Same semantics as SimdProcessor::cycles_between on the recorded markers.
  [[nodiscard]] u64 cycles_between(u32 from, u32 to) const;
  /// Final scalar register file of the recorded run (kvx-run reporting).
  [[nodiscard]] const std::array<u32, 32>& final_scalar_regs() const noexcept {
    return final_xregs_;
  }

  [[nodiscard]] usize op_count() const noexcept { return ops_.size(); }
  [[nodiscard]] usize generic_op_count() const noexcept {
    return generic_ops_.size();
  }
  /// Approximate heap bytes held by this artifact (TraceCache occupancy).
  [[nodiscard]] usize memory_bytes() const noexcept {
    return ops_.size() * sizeof(TraceOp) +
           gather_elems_.size() * sizeof(TraceMemElem) +
           generic_ops_.size() * sizeof(TraceGenericOp) +
           wide_imms_.size() * sizeof(u64) + markers_.size() * sizeof(Marker);
  }

  // --- raw record access (the fusion matcher) ---
  [[nodiscard]] const std::vector<TraceOp>& ops() const noexcept {
    return ops_;
  }
  [[nodiscard]] usize reg_bytes() const noexcept { return reg_bytes_; }
  /// Resolved 64-bit operand of a kBinVS/kSplat/kIota record.
  [[nodiscard]] u64 wide_imm(const TraceOp& op) const noexcept {
    return wide_imms_[op.aux];
  }

 private:
  friend class TraceCompiler;

  std::vector<TraceOp> ops_;
  std::vector<TraceMemElem> gather_elems_;
  std::vector<TraceGenericOp> generic_ops_;
  std::vector<u64> wide_imms_;  ///< 64-bit operand pool (aux-indexed)
  RunStats stats_;
  std::vector<Marker> markers_;
  std::array<u32, 32> final_xregs_{};
  usize reg_bytes_ = 0;  ///< register stride the offsets were compiled for
};

struct TraceCompileOptions {
  /// Data-memory region whose contents vary between runs (the staged Keccak
  /// states). It is filled with different pseudo-random bytes for the two
  /// recording runs of the data-independence check. verify_len == 0 skips
  /// the second run (callers that cannot name such a region).
  u32 verify_base = 0;
  usize verify_len = 0;
};

/// Record `program` under `cfg` and compile it into a trace. Throws
/// kvx::SimError if the recording runs disagree (data-dependent program) or
/// the program itself faults.
[[nodiscard]] std::shared_ptr<const CompiledTrace> compile_trace(
    const assembler::Program& program, const ProcessorConfig& cfg,
    const TraceCompileOptions& opts = {});

/// Process-wide cache of host-SIMD plans and their jit compilations, keyed
/// by (program digest, vector configuration, cycle model) — plus the
/// resolved ISA for jit code. BatchHashEngine shards share one
/// KeccakProgram, so the first shard to construct records, fuses and lowers
/// the program and the rest hit the cache. A plan owns its fused trace and
/// recording; the build stages are timed separately in TraceCacheStats.
class TraceCache {
 public:
  static TraceCache& global();

  /// Cached lower_host_simd(fuse_trace(compile_trace())). Throws like
  /// compile_trace when the recording is rejected (data-dependent program);
  /// rejections are cached negatively so each program is rejected only
  /// once. Callers demote to the interpreter.
  [[nodiscard]] std::shared_ptr<const HostSimdTrace> get_or_compile_host_simd(
      const assembler::Program& program, const ProcessorConfig& cfg,
      const TraceCompileOptions& opts = {});

  /// Cached lower_jit(get_or_compile_host_simd(...)): native code emitted
  /// for the ISA the host-SIMD dispatcher resolves for this SN right now
  /// (the resolved ISA is part of the cache key, so an AVX-512 emission and
  /// an AVX2 emission of one program coexist). Emission failures are NOT
  /// cached negatively — mmap/mprotect refusals are transient, unlike
  /// compile rejections. Throws kvx::SimError on failure — callers demote
  /// to the host-SIMD tier.
  [[nodiscard]] std::shared_ptr<const JitTrace> get_or_compile_jit(
      const assembler::Program& program, const ProcessorConfig& cfg,
      const TraceCompileOptions& opts = {});

  [[nodiscard]] TraceCacheStats stats() const;
  /// Drop all entries and zero the counters (tests).
  void clear();

 private:
  /// Host-SIMD plan lookup, building the whole chain on a miss; mutex_ must
  /// be held.
  [[nodiscard]] std::shared_ptr<const HostSimdTrace> lookup_or_lower_locked(
      u64 key, const assembler::Program& program, const ProcessorConfig& cfg,
      const TraceCompileOptions& opts);
  /// Recompute the occupancy snapshot + gauges; mutex_ must be held.
  void refresh_occupancy_locked();

  mutable std::mutex mutex_;
  std::unordered_map<u64, std::shared_ptr<const HostSimdTrace>>
      host_simd_entries_;
  std::unordered_map<u64, std::shared_ptr<const JitTrace>> jit_entries_;
  std::unordered_map<u64, std::string> failed_;  ///< key -> error message
  TraceCacheStats stats_;
  u64 resident_bytes_ = 0;  ///< sum of memory_bytes() over all live entries
};

}  // namespace kvx::sim
