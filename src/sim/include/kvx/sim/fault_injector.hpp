// Deterministic fault injection for the simulated accelerator.
//
// Real RVV silicon exhibits transient faults and per-configuration quirks
// ("Test-driving RISC-V Vector hardware for HPC"); a simulator-backed stack
// should be able to inject exactly such faults and prove the layers above
// degrade gracefully instead of poisoning whole batches. A FaultInjector is
// a seeded decision stream shared by every execution site of one
// VectorKeccakConfig: each trace compilation and each accelerator dispatch
// asks it once whether (and how) to fault.
//
// Faults are *detected* corruption: a bit flip lands in the vector register
// file or the staged-state memory region AND raises SimError, the way a
// parity/ECC check would report it. The recovery contract is that every
// dispatch restages its inputs, so a demoted retry (jit → host-simd →
// interpreter, see VectorKeccak::permute) computes the correct digest and
// an exhausted chain surfaces as a per-job error in the engine — never as a
// silently wrong digest.
//
// Determinism: all decisions derive from SplitMix64 over (seed, draw index)
// — the same plan replays the same decision sequence. Under a multithreaded
// engine the *assignment* of draws to dispatches depends on scheduling, but
// the decision stream itself (and therefore the injected-fault fraction)
// does not. With no injector configured, nothing in the execution paths
// changes: the pinned paper cycle counts reproduce bit-identically.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "kvx/common/rng.hpp"
#include "kvx/sim/memory.hpp"
#include "kvx/sim/vector_unit.hpp"

namespace kvx::sim {

/// What an injected fault does. Values are bitmask bits for FaultPlan::kinds.
enum class FaultKind : u32 {
  kRegfileBitFlip = 1u << 0,  ///< flip one vector-regfile bit, raise SimError
  kMemoryBitFlip = 1u << 1,   ///< flip one staged-state dmem bit, raise SimError
  kSimFault = 1u << 2,        ///< synthetic SimError before the dispatch runs
  kCompileFail = 1u << 3,     ///< reject a trace/fusion compilation
};

inline constexpr u32 kAllFaultKinds =
    static_cast<u32>(FaultKind::kRegfileBitFlip) |
    static_cast<u32>(FaultKind::kMemoryBitFlip) |
    static_cast<u32>(FaultKind::kSimFault) |
    static_cast<u32>(FaultKind::kCompileFail);

/// Where a fault decision is being drawn.
enum class FaultSite : u8 {
  kTraceCompile,  ///< trace/fusion compilation (kCompileFail only)
  kExecute,       ///< one accelerator dispatch (flip/synthetic kinds)
};

/// Injection plan. `rate` arms probabilistic injection; `at_draw` and
/// `at_instruction` arm one-shot site-addressed faults (both may combine
/// with `rate`).
struct FaultPlan {
  u64 seed = 1;
  /// Per-decision fault probability in [0, 1].
  double rate = 0.0;
  /// One-shot: fault exactly the Nth decision draw (1-based; compile and
  /// execute draws share one counter). 0 = disabled.
  u64 at_draw = 0;
  /// One-shot: throw a synthetic SimError after the Nth executed
  /// instruction of an interpreter-backend run (1-based). 0 = disabled.
  u64 at_instruction = 0;
  /// Bitmask of FaultKind values eligible for injection.
  u32 kinds = kAllFaultKinds;
};

/// Counters of what was actually injected (exact; guarded internally).
struct FaultInjectorStats {
  u64 draws = 0;          ///< decisions requested
  u64 injected = 0;       ///< decisions that faulted (excl. at_instruction)
  u64 bit_flips = 0;      ///< regfile/memory flips applied
  u64 sim_faults = 0;     ///< synthetic SimErrors thrown (incl. at_instruction)
  u64 compile_fails = 0;  ///< compilations rejected
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Draw the next decision for `site`. Returns the fault kind to inject,
  /// or nullopt for a clean pass (also when the plan's `kinds` mask has no
  /// kind applicable to the site). Thread-safe.
  [[nodiscard]] std::optional<FaultKind> draw(FaultSite site);

  /// Throw the SimError for a compile-site fault (after draw() returned
  /// kCompileFail). `what` names the rejected tier ("host-simd"/"jit").
  [[noreturn]] void fail_compile(const std::string& what);

  /// Throw the synthetic-fault SimError for an execute-site kSimFault.
  [[noreturn]] void throw_sim_fault(const std::string& backend);

  /// Apply a detected-corruption fault: flip one pseudo-random bit in the
  /// vector register file (kRegfileBitFlip) or in dmem's staged-state
  /// region [state_base, state_base + state_len) (kMemoryBitFlip), then
  /// throw SimError describing the flip.
  [[noreturn]] void corrupt(FaultKind kind, VectorUnit& vu, Memory& mem,
                            u32 state_base, usize state_len,
                            const std::string& backend);

  /// One-shot instruction-index fault: true exactly once, when the
  /// interpreter's executed-instruction count reaches plan().at_instruction.
  [[nodiscard]] bool fire_instruction_fault(u64 executed);

  [[nodiscard]] FaultInjectorStats stats() const;

 private:
  [[nodiscard]] u64 mix(u64 stream) const noexcept;

  FaultPlan plan_;
  mutable std::mutex mutex_;
  u64 draws_ = 0;
  bool instruction_fault_armed_ = false;
  FaultInjectorStats stats_;
};

/// Parse a CLI fault spec: comma-separated `key=value` pairs with keys
/// `seed`, `rate`, `at` (at_draw), `at-instruction`, and `kinds` — the
/// latter a `+`-separated subset of {regflip, memflip, sim, compile, all}.
/// Example: "seed=7,rate=1e-3,kinds=regflip+sim". Throws kvx::Error on a
/// malformed spec.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& spec);

}  // namespace kvx::sim
