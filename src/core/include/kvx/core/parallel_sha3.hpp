// Batched SHA-3 / SHAKE / cSHAKE / KMAC on the simulated vector accelerator.
//
// This is the HW/SW co-design split of the paper's motivating workload
// (§1, CRYSTALS-Kyber matrix generation): software performs the sponge
// bookkeeping (padding, absorb XOR, squeeze copy) while the accelerator
// runs up to SN Keccak-f[1600] permutations in lockstep. With
// `on_device_absorb` the absorb phase itself also runs on the accelerator
// (OnDeviceSponge): states stay in the vector register file across all
// message blocks.
//
// Lockstep batching requires all messages in a batch to have the same
// length (exactly the Kyber situation: seed ‖ row ‖ column indices of equal
// size). hash_batch() groups arbitrary inputs by length automatically.
#pragma once

#include <memory>
#include <vector>

#include "kvx/core/on_device_sponge.hpp"
#include "kvx/core/vector_keccak.hpp"
#include "kvx/keccak/sha3.hpp"
#include "kvx/obs/step_cycles.hpp"

namespace kvx::core {

/// Accumulated accelerator statistics.
struct BatchStats {
  u64 accelerator_cycles = 0;   ///< simulated cycles spent in permutations
  u64 permutation_batches = 0;  ///< accelerator invocations
  u64 permutations = 0;         ///< state-permutations performed (≤ SN each)
  /// Per-step attribution of accelerator_cycles (θ/ρπ/χι/absorb/other);
  /// step_cycles.total == accelerator_cycles, exactly.
  obs::StepCycleStats step_cycles;
};

struct ParallelSha3Options {
  /// Run the absorb phase on the accelerator too (64-bit custom-ISE archs
  /// only): message blocks are staged and XORed into register-resident
  /// states by the generated on-device absorb program.
  bool on_device_absorb = false;
};

class ParallelSha3 {
 public:
  explicit ParallelSha3(const VectorKeccakConfig& config,
                        const ParallelSha3Options& options = {});

  /// Construct around a prebuilt permutation program (see
  /// VectorKeccak::build_program). All instances sharing the program still
  /// own independent simulator state, so each is safe to drive from its own
  /// thread.
  ParallelSha3(const VectorKeccakConfig& config,
               std::shared_ptr<const KeccakProgram> program,
               const ParallelSha3Options& options = {});

  /// Cheap per-shard clone: a fresh instance (own simulator, zeroed stats)
  /// that shares this instance's immutable program.
  [[nodiscard]] std::unique_ptr<ParallelSha3> clone() const;

  [[nodiscard]] unsigned lanes() const noexcept { return vk_.config().sn(); }
  [[nodiscard]] const VectorKeccakConfig& config() const noexcept {
    return vk_.config();
  }
  [[nodiscard]] const ParallelSha3Options& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const std::shared_ptr<const KeccakProgram>& shared_program()
      const noexcept {
    return vk_.shared_program();
  }

  /// Backend the permutation accelerator actually uses (the configured one,
  /// downgraded to the interpreter if trace compilation was rejected).
  [[nodiscard]] sim::ExecBackend active_backend() const noexcept {
    return vk_.active_backend();
  }

  /// Backend that completed the most recent permutation dispatch — equal to
  /// active_backend() unless that dispatch demoted mid-chain (fail-soft
  /// fallback; see VectorKeccak::permute).
  [[nodiscard]] sim::ExecBackend last_backend() const noexcept {
    return vk_.last_backend();
  }

  /// Cumulative backend demotions of this accelerator (compile-time
  /// downgrades plus per-dispatch fallbacks).
  [[nodiscard]] u64 backend_fallbacks() const noexcept {
    return vk_.backend_fallbacks();
  }

  /// Tiers rejected when the accelerator was constructed (forensics; see
  /// VectorKeccak::construction_attempts).
  [[nodiscard]] const std::vector<BackendAttempt>& construction_attempts()
      const noexcept {
    return vk_.construction_attempts();
  }

  /// Tier-by-tier record of the most recent permutation dispatch (see
  /// VectorKeccak::last_dispatch_attempts).
  [[nodiscard]] const std::vector<BackendAttempt>& last_dispatch_attempts()
      const noexcept {
    return vk_.last_dispatch_attempts();
  }

  /// Fraction of trace records the fusion matcher covers with
  /// super-kernels ([0, 1]); 0 on the interpreter.
  [[nodiscard]] double fusion_coverage() const noexcept {
    return vk_.fusion_coverage();
  }

  /// Fraction of trace records the host-SIMD plan lowers to host
  /// intrinsics ([0, 1]); 0 unless the active backend is host-simd or jit.
  [[nodiscard]] double host_simd_coverage() const noexcept {
    return vk_.host_simd_coverage();
  }

  /// Native code bytes of the jit compilation (page-rounded W^X buffer);
  /// 0 unless the active backend is jit.
  [[nodiscard]] usize jit_code_bytes() const noexcept {
    return vk_.jit_code_bytes();
  }

  /// Host ISA the jit code was emitted for (nullopt unless jit).
  [[nodiscard]] std::optional<sim::HostSimdIsa> jit_isa() const noexcept {
    return vk_.jit_isa();
  }

  /// Hash a batch of messages with a fixed-output function; every message
  /// may have a different length (grouped internally).
  [[nodiscard]] std::vector<std::vector<u8>> hash_batch(
      keccak::Sha3Function f, std::span<const std::vector<u8>> messages);

  /// SHAKE a batch of messages to `out_len` bytes each.
  [[nodiscard]] std::vector<std::vector<u8>> xof_batch(
      keccak::Sha3Function f, std::span<const std::vector<u8>> messages,
      usize out_len);

  /// Batched cSHAKE (SP 800-185): security_bits ∈ {128, 256}.
  [[nodiscard]] std::vector<std::vector<u8>> cshake_batch(
      unsigned security_bits, std::span<const std::vector<u8>> messages,
      usize out_len, std::span<const u8> function_name,
      std::span<const u8> customization);

  /// Batched KMAC: one key, many messages (e.g. firmware chunks).
  [[nodiscard]] std::vector<std::vector<u8>> kmac_batch(
      unsigned security_bits, std::span<const u8> key,
      std::span<const std::vector<u8>> messages, usize out_len,
      std::span<const u8> customization = {});

  /// Raw sponge batch with an explicit rate and domain-separation byte —
  /// the extension point for custom sponge modes (TurboSHAKE tree nodes,
  /// Keccak-based PRFs). The permutation is whatever this instance's
  /// VectorKeccakConfig selects (24 rounds for FIPS functions; construct
  /// with rounds = 12 / first_round = 12 for TurboSHAKE).
  [[nodiscard]] std::vector<std::vector<u8>> raw_batch(
      usize rate, u8 domain, std::span<const std::vector<u8>> messages,
      usize out_len);

  /// Partial-batch dispatch: run ONE lockstep group of ≤ SN equal-length
  /// messages through the raw sponge, writing `out_len` bytes per message
  /// into `outs`. This skips raw_batch()'s by-length grouping pass — the
  /// entry point for host-side batching layers (kvx_engine shards) that
  /// fill the SN lanes themselves.
  void dispatch_group(usize rate, u8 domain,
                      std::span<const std::vector<u8>> messages,
                      std::span<std::vector<u8>> outs, usize out_len);

  [[nodiscard]] const BatchStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  /// Run one lockstep group (equal-length messages, ≤ SN of them) with an
  /// explicit rate and domain byte.
  void run_group(usize rate, u8 domain,
                 std::span<const std::vector<u8>*> msgs,
                 std::span<std::vector<u8>*> outs, usize out_len);

  void permute_states(std::span<keccak::State> states);

  VectorKeccak vk_;
  ParallelSha3Options options_;
  std::unique_ptr<OnDeviceSponge> device_sponge_;  ///< per-rate lazily built
  usize device_sponge_rate_ = 0;
  BatchStats stats_;
};

}  // namespace kvx::core
