// The vector processing unit of the SIMD processor (paper Figure 3).
//
// Models the VecRegfile (32 registers of EleNum × ELEN bits), the
// configuration state set by vsetvli (vtype + vl), the VecLSU addressing
// modes (unit-stride, strided, indexed), the vector integer arithmetic of
// the RVV 1.0 subset, and the ten custom Keccak instructions with their
// `lmul_cnt` row-sequencing and SN-state semantics.
//
// Note on VLEN: the paper instantiates EleNum ∈ {5, 15, 30}, i.e. VLEN
// values that are not powers of two; like the paper's SystemVerilog
// implementation we treat EleNum as a free hardware parameter.
#pragma once

#include <functional>
#include <vector>

#include "kvx/common/types.hpp"
#include "kvx/isa/instruction.hpp"
#include "kvx/sim/cycle_model.hpp"
#include "kvx/sim/memory.hpp"
#include "kvx/sim/regs.hpp"

namespace kvx::sim {

/// Hardware parameters of the vector unit.
struct VectorConfig {
  unsigned elen_bits = 64;  ///< element width the datapath is built for (32/64)
  unsigned ele_num = 5;     ///< elements per vector register (at SEW = ELEN)
  unsigned sn = 0;          ///< Keccak states processed by the custom
                            ///< instructions; 0 = floor(ele_num / 5)

  [[nodiscard]] unsigned vlen_bits() const noexcept { return elen_bits * ele_num; }
  [[nodiscard]] unsigned effective_sn() const noexcept {
    return sn != 0 ? sn : ele_num / 5;
  }
};

/// Vector processing unit: register file + configuration + execution.
class VectorUnit {
 public:
  explicit VectorUnit(const VectorConfig& cfg);

  [[nodiscard]] const VectorConfig& config() const noexcept { return cfg_; }

  // --- architectural state ---
  [[nodiscard]] usize vl() const noexcept { return vl_; }
  [[nodiscard]] const isa::VType& vtype() const noexcept { return vtype_; }
  /// Max vl for a given vtype: LMUL · VLEN / SEW.
  [[nodiscard]] usize vlmax(const isa::VType& vt) const noexcept;

  /// Override SN at runtime (the csrw path); must satisfy 5·sn ≤ ele_num.
  void set_sn(unsigned sn);

  /// Force vtype/vl directly (compiled-trace replay of recorded generic
  /// ops; bypasses the vsetvli AVL rules on purpose).
  void set_exec_state(const isa::VType& vtype, usize vl) noexcept {
    vtype_ = vtype;
    vl_ = vl;
  }

  // --- host access to the register file (tests / state staging) ---
  /// Element `idx` of register `vreg` at width `sew_bits` (no grouping).
  [[nodiscard]] u64 get_element(unsigned vreg, usize idx, unsigned sew_bits) const;
  void set_element(unsigned vreg, usize idx, unsigned sew_bits, u64 value);
  /// Raw bytes of one register.
  [[nodiscard]] std::vector<u8> get_register(unsigned vreg) const;
  void set_register(unsigned vreg, std::span<const u8> bytes);
  void clear_registers() noexcept;

  // Raw register-file access for trace replay and the host-SIMD/jit tiers:
  // registers are stored contiguously (32 × reg_bytes()), so a register
  // group is one flat byte span at `vreg * reg_bytes()`.
  [[nodiscard]] u8* file_data() noexcept { return file_.data(); }
  [[nodiscard]] const u8* file_data() const noexcept { return file_.data(); }
  [[nodiscard]] usize reg_bytes() const noexcept { return reg_bytes_; }

  /// Execute one vector instruction; returns its cycle cost under `cm`.
  /// Scalar operands/results go through `x`; memory ops through `mem`.
  u32 execute(const isa::Instruction& inst, ScalarRegs& x, Memory& mem,
              const CycleModel& cm);

 private:
  // Element accessors across a register *group* (element index may exceed
  // one register's capacity when LMUL > 1).
  [[nodiscard]] usize elems_per_row(unsigned sew_bits) const noexcept;
  [[nodiscard]] u64 group_get(unsigned base, usize idx, unsigned sew) const;
  void group_set(unsigned base, usize idx, unsigned sew, u64 value);
  [[nodiscard]] bool mask_bit(usize idx) const;

  [[nodiscard]] usize active_rows(unsigned sew_bits) const noexcept;

  /// Base pointer of `reg`'s row after checking once that 5*SN lanes of
  /// `bytes` each fit in one register — the hoisted bounds check the
  /// custom-op row handlers use instead of per-element get/set_element.
  [[nodiscard]] u8* lane_row(unsigned reg, unsigned bytes);

  u32 exec_vsetvli(const isa::Instruction& inst, ScalarRegs& x,
                   const CycleModel& cm);
  u32 exec_arith(const isa::Instruction& inst, const ScalarRegs& x,
                 const CycleModel& cm);
  u32 exec_memory(const isa::Instruction& inst, const ScalarRegs& x,
                  Memory& mem, const CycleModel& cm);
  u32 exec_custom(const isa::Instruction& inst, const ScalarRegs& x,
                  const CycleModel& cm);

  // Custom-instruction helpers (per row).
  void row_slide_mod5(unsigned vd, unsigned vs2, unsigned row, int offset);
  void row_rotup(unsigned vd, unsigned vs2, unsigned row, unsigned amount);
  void row_rho64(unsigned vd, unsigned vs2, unsigned row, unsigned table_row);
  void row_rho32(unsigned vd, unsigned vs2_hi, unsigned vs1_lo, unsigned row,
                 unsigned table_row, bool high_half);
  void row_rot32pair(unsigned vd, unsigned vs2_hi, unsigned vs1_lo,
                     bool high_half);
  void row_pi(unsigned vd, unsigned vs2_row_reg, unsigned table_row);
  void row_iota(unsigned vd, unsigned vs2, u32 index);
  // Fused-extension helpers (paper §5 future work).
  void row_thetac(unsigned vd, unsigned vs2, unsigned row);
  void row_rhopi(unsigned vd, unsigned vs2_row_reg, unsigned table_row);
  void row_chi(unsigned vd, unsigned vs2, unsigned row);

  VectorConfig cfg_;
  isa::VType vtype_{};
  usize vl_ = 0;
  usize reg_bytes_ = 0;
  std::vector<u8> file_;  ///< 32 × reg_bytes_
};

}  // namespace kvx::sim
