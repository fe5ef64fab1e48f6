// Job model for the host-parallel batch hashing engine.
//
// A HashJob describes one message to hash with one algorithm of the
// accelerated family (FIPS 202 SHA-3/SHAKE or SP 800-185 KMAC). Jobs are
// submitted to a BatchHashEngine, which assigns each a dense sequence id;
// results are always reassembled in submission order, so callers never see
// the scheduling nondeterminism of the worker pool.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "kvx/common/types.hpp"
#include "kvx/keccak/sha3.hpp"

namespace kvx::engine {

/// Hash algorithms the engine dispatches to the accelerator.
enum class Algo {
  kSha3_224,
  kSha3_256,
  kSha3_384,
  kSha3_512,
  kShake128,
  kShake256,
  kKmac128,
  kKmac256,
};

/// Human-readable name ("SHA3-256", "KMAC128", ...).
[[nodiscard]] std::string_view algo_name(Algo algo) noexcept;

/// The FIPS 202 function underlying an engine algorithm (KMAC128/256 run on
/// the SHAKE128/256 sponge parameters).
[[nodiscard]] constexpr keccak::Sha3Function base_function(Algo algo) noexcept {
  switch (algo) {
    case Algo::kSha3_224: return keccak::Sha3Function::kSha3_224;
    case Algo::kSha3_256: return keccak::Sha3Function::kSha3_256;
    case Algo::kSha3_384: return keccak::Sha3Function::kSha3_384;
    case Algo::kSha3_512: return keccak::Sha3Function::kSha3_512;
    case Algo::kShake128:
    case Algo::kKmac128: return keccak::Sha3Function::kShake128;
    case Algo::kShake256:
    case Algo::kKmac256: return keccak::Sha3Function::kShake256;
  }
  return keccak::Sha3Function::kSha3_256;
}

/// Fixed digest size of an algorithm in bytes; 0 for the variable-output
/// families (SHAKE, KMAC), whose jobs must set HashJob::out_len.
[[nodiscard]] constexpr usize fixed_digest_bytes(Algo algo) noexcept {
  switch (algo) {
    case Algo::kSha3_224: return 28;
    case Algo::kSha3_256: return 32;
    case Algo::kSha3_384: return 48;
    case Algo::kSha3_512: return 64;
    default: return 0;
  }
}

/// One hash request.
struct HashJob {
  Algo algo = Algo::kSha3_256;
  std::vector<u8> message;
  /// Output bytes. 0 means "the algorithm's fixed digest size" and is only
  /// valid for the SHA-3 fixed-output algorithms.
  usize out_len = 0;
  /// KMAC only: key and optional customization string.
  std::vector<u8> key;
  std::vector<u8> customization;

  [[nodiscard]] usize resolved_out_len() const noexcept {
    return out_len != 0 ? out_len : fixed_digest_bytes(algo);
  }
};

/// One entry of a job's demotion path: a backend tier the accelerator tried
/// while producing (or failing) the job, in chain order.
struct TierAttempt {
  /// Backend tier name ("jit", "host-simd", "interpreter").
  std::string backend;
  /// Why the tier was rejected or faulted; "" when it succeeded.
  std::string error;
  /// The error came from the deterministic fault injector.
  bool injected = false;
};

/// Outcome of one engine job. Jobs fail individually — a malformed job or a
/// faulted dispatch never discards its batch-mates — so every submitted job
/// always produces exactly one JobResult.
struct JobResult {
  /// The digest; empty when the job failed.
  std::vector<u8> digest;
  /// Failure reason; empty means the job succeeded.
  std::string error;
  /// Execution backend that produced the digest ("interpreter" /
  /// "host-simd" / "jit"); empty when the job failed before reaching a
  /// shard.
  std::string backend;
  /// Failure forensics: every tier the accelerator tried for this job —
  /// construction-time rejections first, then the dispatch chain. Empty for
  /// the common no-demotion success; on a dispatch failure it names each
  /// attempted tier, its error, and whether the fault was injected.
  std::vector<TierAttempt> demotion_path;
  /// Flight-recorder sequence number of this job's retire (or failure)
  /// event; 0 when the recorder was disabled or the job failed pre-shard.
  /// kvx-doctor uses it to window the merged timeline around a job.
  u64 flight_seq = 0;

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// Compute a job's digest on the host golden model (no accelerator) — the
/// reference the engine's differential tests compare against.
[[nodiscard]] std::vector<u8> host_reference_digest(const HashJob& job);

}  // namespace kvx::engine
