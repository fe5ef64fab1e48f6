// Statistics reported by the batch hashing engine.
#pragma once

#include <string>
#include <vector>

#include "kvx/common/types.hpp"
#include "kvx/obs/step_cycles.hpp"

namespace kvx::engine {

/// Per-worker-shard counters. A shard owns one simulated accelerator
/// (ParallelSha3) and processes whole job batches at a time.
struct ShardStats {
  u64 jobs = 0;               ///< jobs completed (successfully) by this shard
  u64 failures = 0;           ///< jobs retired with a per-job error
  u64 fallbacks = 0;          ///< backend demotions (jit→…→interpreter)
  u64 bytes = 0;              ///< message bytes hashed
  u64 dispatches = 0;         ///< batches popped from the queue
  u64 sim_cycles = 0;         ///< simulated accelerator cycles consumed
  u64 permutations = 0;       ///< Keccak state-permutations performed
  u64 host_ns = 0;            ///< host wall time spent inside dispatches
  /// Per-step attribution of sim_cycles (θ/ρπ/χι/absorb/other);
  /// step_cycles.total == sim_cycles, exactly, on every backend.
  obs::StepCycleStats step_cycles;
};

/// Submit-to-retire job latency percentiles (host wall time).
///
/// Every retired job — failed or not — is counted once in the engine's
/// latency histogram (obs::fine_latency_bounds_ns: eight log-spaced buckets
/// per octave). Each percentile is interpolated inside the bucket holding
/// its rank, so it lies within one bucket width — about 2^(1/8) − 1 ≈ 9%
/// of the value — of the exact order statistic, and never above max_ns.
/// `count` and `max_ns` are exact.
struct LatencyStats {
  u64 count = 0;    ///< retired jobs observed
  u64 p50_ns = 0;   ///< median latency
  u64 p99_ns = 0;   ///< 99th-percentile latency
  u64 p999_ns = 0;  ///< 99.9th-percentile latency
  u64 max_ns = 0;   ///< worst-case latency (exact)
};

/// Rates derived from the engine counters over a wall-time window. The ONE
/// place throughput arithmetic lives — tools and benches must not re-derive
/// bytes/s or perms/s from raw counters themselves.
struct ThroughputStats {
  double jobs_per_sec = 0.0;
  double bytes_per_sec = 0.0;
  double mb_per_sec = 0.0;        ///< bytes_per_sec / 1e6
  double perms_per_sec = 0.0;     ///< Keccak state-permutations per second
  double sim_cycles_per_sec = 0.0;
};

/// Whole-engine counters.
struct EngineStats {
  u64 submitted = 0;          ///< jobs accepted by submit()
  u64 completed = 0;          ///< jobs retired successfully (digest available)
  /// Jobs retired with a per-job error. Invariant, held exactly at every
  /// quiescent point (after drain()/drain_results()):
  ///   submitted == completed + failed
  u64 failed = 0;
  usize queue_high_water = 0; ///< max queue depth observed since start
  /// Jobs in flight per queue shard at snapshot time (one ring per worker;
  /// all zero at quiescent points).
  std::vector<usize> queue_shard_depths;
  /// Execution backend the shard accelerators run
  /// ("interpreter"/"host-simd"/"jit"); the active one, i.e. already
  /// downgraded if trace compilation or jit emission failed.
  std::string backend;
  /// Backend that actually completed the most recent dispatch — equal to
  /// `backend` unless that dispatch demoted mid-chain (fail-soft retry).
  std::string effective_backend;
  /// What the effective backend runs on the host: the ISA the host-simd
  /// tier dispatches to ("scalar"/"portable"/"avx2"/"avx512") or the jit's
  /// code was emitted for, or "avx512-plane" for the SN=1 plane kernels;
  /// "" unless the effective backend is host-simd or jit.
  std::string host_simd_isa;
  /// Trace-record fraction the fusion matcher covers with super-kernels,
  /// read from the host-SIMD plan; 0 on the interpreter.
  double fusion_coverage = 0.0;
  /// Trace-record fraction lowered to host intrinsics; 0 on the
  /// interpreter.
  double host_simd_coverage = 0.0;
  /// Per-shard native code bytes of the jit compilation (page-rounded W^X
  /// buffer, shared across shards via the trace cache); 0 unless jit.
  u64 jit_code_bytes = 0;
  /// Host time compiling (and fusing) the execution trace, if any.
  u64 backend_compile_ns = 0;
  /// Wall time since engine construction (the default throughput() window).
  u64 elapsed_ns = 0;
  LatencyStats latency;
  std::vector<ShardStats> shards;

  [[nodiscard]] ShardStats totals() const noexcept {
    ShardStats t;
    for (const ShardStats& s : shards) {
      t.jobs += s.jobs;
      t.failures += s.failures;
      t.fallbacks += s.fallbacks;
      t.bytes += s.bytes;
      t.dispatches += s.dispatches;
      t.sim_cycles += s.sim_cycles;
      t.permutations += s.permutations;
      t.host_ns += s.host_ns;
      t.step_cycles += s.step_cycles;
    }
    return t;
  }

  /// Derived rates over an explicit window (benches timing a specific
  /// phase), or over elapsed_ns by default (long-running servers).
  [[nodiscard]] ThroughputStats throughput(u64 over_ns) const noexcept;
  [[nodiscard]] ThroughputStats throughput() const noexcept {
    return throughput(elapsed_ns);
  }
};

/// Render per-step cycle attribution as an aligned table (one line per
/// step, cycles + share of total), for --stats output and reports.
[[nodiscard]] std::string format_step_cycles(const obs::StepCycleStats& s);

}  // namespace kvx::engine
