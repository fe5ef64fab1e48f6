// Per-step cycle attribution of the Keccak permutation programs.
//
// The paper's whole argument is cycle-level: its tables break one
// Keccak-f[1600] round into the step mappings θ, ρπ and χι per architecture
// variant. StepCycleStats is the observability-layer carrier for exactly
// that breakdown, rolled up from the 0-cycle markers the generated programs
// emit (kvx/core/program_builder.hpp) and accumulated across permutations,
// batches and engine shards.
//
// Invariant (enforced by tests/test_observability.cpp): every cycle between
// the permutation-start and permutation-end markers lands in exactly one
// bucket, so theta + rho_pi + chi_iota + absorb + other == total, exactly,
// on every backend (interpreter, host-simd, jit).
#pragma once

#include "kvx/common/types.hpp"

namespace kvx::obs {

/// Cycles attributed to each Keccak step mapping (the paper's grouping:
/// ρ and π as one mapping, χ and ι as one mapping).
struct StepCycleStats {
  u64 theta = 0;     ///< θ: column parity + combine + apply
  u64 rho_pi = 0;    ///< ρπ: lane rotations + the column-mode permutation
  u64 chi_iota = 0;  ///< χι: row nonlinearity + round constant
  u64 absorb = 0;    ///< on-device absorb staging (block load + XOR)
  u64 other = 0;     ///< loop control and anything between rounds
  u64 total = 0;     ///< permutation-start to permutation-end, inclusive
  u64 rounds = 0;    ///< Keccak rounds covered

  constexpr StepCycleStats& operator+=(const StepCycleStats& o) noexcept {
    theta += o.theta;
    rho_pi += o.rho_pi;
    chi_iota += o.chi_iota;
    absorb += o.absorb;
    other += o.other;
    total += o.total;
    rounds += o.rounds;
    return *this;
  }

  /// Counter-style difference (all fields are monotone accumulators).
  [[nodiscard]] constexpr StepCycleStats minus(
      const StepCycleStats& o) const noexcept {
    return {theta - o.theta,       rho_pi - o.rho_pi, chi_iota - o.chi_iota,
            absorb - o.absorb,     other - o.other,   total - o.total,
            rounds - o.rounds};
  }

  /// Sum of every attribution bucket; equals `total` by construction.
  [[nodiscard]] constexpr u64 attributed() const noexcept {
    return theta + rho_pi + chi_iota + absorb + other;
  }

  friend constexpr bool operator==(const StepCycleStats&,
                                   const StepCycleStats&) noexcept = default;
};

}  // namespace kvx::obs
