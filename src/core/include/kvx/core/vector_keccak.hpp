// VectorKeccak — the paper's HW/SW co-design, wrapped as a library.
//
// Owns a simulated SIMD processor configured for one of the architecture
// variants, the generated Keccak assembly program, and the data-staging
// logic. `permute()` runs up to SN Keccak-f[1600] permutations in parallel
// on the simulated accelerator; the measurement helpers reproduce the
// paper's cycles/round and cycles/permutation numbers.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "kvx/core/program_builder.hpp"
#include "kvx/core/step_attribution.hpp"
#include "kvx/keccak/state.hpp"
#include "kvx/sim/exec_backend.hpp"
#include "kvx/sim/fault_injector.hpp"
#include "kvx/sim/host_simd.hpp"
#include "kvx/sim/jit/jit_trace.hpp"
#include "kvx/sim/processor.hpp"

namespace kvx::core {

struct VectorKeccakConfig {
  Arch arch = Arch::k64Lmul1;
  unsigned ele_num = 5;  ///< elements per vector register (5·SN, or more)
  unsigned rounds = 24;
  unsigned first_round = 0;  ///< ι round-constant start (12 for Keccak-p[1600,12])

  /// Functional execution backend. The jit and host-simd backends produce
  /// digests, register state and cycle counts bit-identical to the
  /// interpreter's; a compile rejection or a runtime SimError demotes tier
  /// by tier (jit → host-simd → interpreter) rather than failing the run.
  sim::ExecBackend backend = sim::ExecBackend::kInterpreter;

  /// Optional deterministic fault injector (null = disabled). Shared by
  /// every instance constructed from this config — engine shards draw from
  /// one decision stream. See kvx/sim/fault_injector.hpp.
  std::shared_ptr<sim::FaultInjector> fault_injector = nullptr;

  [[nodiscard]] unsigned sn() const noexcept { return ele_num / 5; }
};

/// Cycle measurements of the last permute() run.
struct PermutationTiming {
  u64 total_cycles = 0;        ///< whole run incl. state load/store + halt
  u64 permutation_cycles = 0;  ///< marker-to-marker, 24-round loop only
  u64 instructions = 0;
};

/// One tier tried during construction or a dispatch — the unit of the
/// per-job failure forensics the engine attaches to JobResult.
struct BackendAttempt {
  sim::ExecBackend tier = sim::ExecBackend::kInterpreter;
  std::string error;     ///< "" when the tier succeeded
  bool injected = false; ///< error came from the fault injector
};

class VectorKeccak {
 public:
  explicit VectorKeccak(const VectorKeccakConfig& config);

  /// Construct around a prebuilt (shared, immutable) program. Program
  /// generation + assembly dominates construction cost; host-side batching
  /// layers (kvx_engine) that stand up one accelerator instance per worker
  /// shard build the program once and share it across all shards.
  VectorKeccak(const VectorKeccakConfig& config,
               std::shared_ptr<const KeccakProgram> program);

  /// Build the permutation program for `config`, shareable across instances.
  [[nodiscard]] static std::shared_ptr<const KeccakProgram> build_program(
      const VectorKeccakConfig& config);

  [[nodiscard]] const VectorKeccakConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const KeccakProgram& program() const noexcept {
    return *program_;
  }
  [[nodiscard]] const std::shared_ptr<const KeccakProgram>& shared_program()
      const noexcept {
    return program_;
  }
  [[nodiscard]] const sim::SimdProcessor& processor() const noexcept {
    return *proc_;
  }

  /// Permute up to SN states in place on the simulated accelerator.
  /// Throws kvx::Error when states.size() > SN.
  ///
  /// Fail-soft: a SimError on any compiled tier (injected fault, replay
  /// fault, host-ISA drift under the jit) demotes THIS dispatch one tier
  /// at a time — jit → host-simd → interpreter —
  /// restaging the input states before each retry, so transient faults
  /// cost a fallback, not a wrong digest. Only an interpreter-tier
  /// SimError propagates to the caller.
  void permute(std::span<keccak::State> states);

  /// Backend that permute() starts a dispatch on: the configured one,
  /// downgraded if trace compilation was rejected (or injected-failed).
  [[nodiscard]] sim::ExecBackend active_backend() const noexcept {
    if (jit_ != nullptr) return sim::ExecBackend::kJit;
    return hs_ != nullptr ? sim::ExecBackend::kHostSimd
                          : sim::ExecBackend::kInterpreter;
  }

  /// Backend that actually completed the last successful permute() — equal
  /// to active_backend() unless that dispatch demoted mid-chain.
  [[nodiscard]] sim::ExecBackend last_backend() const noexcept {
    return last_backend_;
  }

  /// Cumulative backend demotions: compile-time downgrades at construction
  /// plus per-dispatch demotions inside permute().
  [[nodiscard]] u64 backend_fallbacks() const noexcept { return fallbacks_; }

  /// Human-readable reason of the most recent demotion ("" if none).
  [[nodiscard]] const std::string& last_fallback_error() const noexcept {
    return last_fallback_error_;
  }

  /// Tiers rejected at construction, in demotion-chain order (empty when
  /// the configured backend compiled first try). Fixed for this instance's
  /// lifetime; the engine prepends it to every job's demotion path.
  [[nodiscard]] const std::vector<BackendAttempt>& construction_attempts()
      const noexcept {
    return construction_attempts_;
  }

  /// Every tier the LAST permute() tried, in order: zero or more failures
  /// followed by one success — or all failures if the interpreter itself
  /// threw. Overwritten by each dispatch.
  [[nodiscard]] const std::vector<BackendAttempt>& last_dispatch_attempts()
      const noexcept {
    return dispatch_attempts_;
  }

  /// Fraction of trace records the fusion matcher covers with
  /// super-kernels ([0, 1]), read from the host-SIMD plan's fused trace; 0
  /// on the interpreter.
  [[nodiscard]] double fusion_coverage() const noexcept {
    return hs_ != nullptr ? hs_->fused().coverage() : 0.0;
  }

  /// Fraction of trace records the host-SIMD plan lowers to host
  /// intrinsics ([0, 1]); 0 when the active backend is neither host-simd
  /// nor jit (which compiles the same plan to native code).
  [[nodiscard]] double host_simd_coverage() const noexcept {
    return hs_ != nullptr ? hs_->lowered_coverage() : 0.0;
  }

  /// Native code bytes of the jit compilation (page-rounded W^X buffer);
  /// 0 when the active backend is not jit.
  [[nodiscard]] usize jit_code_bytes() const noexcept {
    return jit_ != nullptr ? jit_->buffer_bytes() : 0;
  }

  /// Host ISA the jit code was emitted for (nullopt when not jit).
  [[nodiscard]] std::optional<sim::HostSimdIsa> jit_isa() const noexcept {
    if (jit_ == nullptr) return std::nullopt;
    return jit_->isa();
  }

  [[nodiscard]] const PermutationTiming& last_timing() const noexcept {
    return timing_;
  }

  /// Per-step cycle attribution of the last permute() run (θ/ρπ/χι plus
  /// loop overhead; see step_attribution.hpp). Bit-identical across the
  /// three backends: host-simd and jit pass through the marker stream
  /// recorded from the interpreter, so their attribution is computed once
  /// at compile time and reused.
  [[nodiscard]] const obs::StepCycleStats& last_step_cycles() const noexcept {
    return step_cycles_;
  }

  /// Latency of one Keccak round in cycles (dedicated single-round program,
  /// measured marker-to-marker: the paper's cycles/round column).
  [[nodiscard]] u64 measure_round_cycles() const;

  /// Latency of the full 24-round permutation loop in cycles
  /// (marker-to-marker around the loop, excluding state load/store).
  [[nodiscard]] u64 measure_permutation_cycles();

 private:
  void stage_states(std::span<const keccak::State> states);
  void unstage_states(std::span<keccak::State> states) const;
  /// Stage + execute one dispatch on `tier` (throws SimError on fault).
  void run_backend(sim::ExecBackend tier,
                   std::span<const keccak::State> states);
  void note_fallback(sim::ExecBackend from, sim::ExecBackend to,
                     const char* error);

  VectorKeccakConfig config_;
  std::shared_ptr<const KeccakProgram> program_;
  std::unique_ptr<sim::SimdProcessor> proc_;
  u32 state_base_ = 0;
  PermutationTiming timing_;
  obs::StepCycleStats step_cycles_;
  /// Attribution of the immutable recorded marker stream, computed once at
  /// construction and reused by every host-simd and jit dispatch.
  obs::StepCycleStats trace_step_cycles_;
  /// Reused staging scratch (one plane-major block); mutable because
  /// unstage_states() is logically const.
  mutable std::vector<u8> stage_block_;
  std::shared_ptr<const sim::HostSimdTrace> hs_;  ///< null = interpreter
  std::shared_ptr<const sim::JitTrace> jit_;      ///< kJit only
  sim::ExecBackend last_backend_ = sim::ExecBackend::kInterpreter;
  u64 fallbacks_ = 0;               ///< cumulative backend demotions
  std::string last_fallback_error_; ///< reason of the latest demotion
  std::vector<BackendAttempt> construction_attempts_;
  std::vector<BackendAttempt> dispatch_attempts_;
};

}  // namespace kvx::core
