// The four kvx_bench workloads and the engine and server loops they share.
//
// Every workload drives the layers only through their public APIs:
// core::VectorKeccak (perm-paper), engine::BatchHashEngine (kyber-xof,
// bulk-16k) and net::HashServer plus the net codecs over loopback TCP
// (serve-open). Every output is checked against the host golden model.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"
#include "kvx/core/program_builder.hpp"
#include "kvx/engine/batch_engine.hpp"
#include "kvx/net/server.hpp"

namespace kvxb {

/// Pinned simulated cycles per Keccak-f[1600] permutation (the model's
/// values) and the paper's published ones, for 64lmul1 / 64lmul8 / 32lmul8.
struct PaperConfig {
  const char* name;
  kvx::core::Arch arch;
  u64 model_cycles;
  u64 paper_cycles;
};
inline constexpr PaperConfig kPaperConfigs[] = {
    {"64lmul1", kvx::core::Arch::k64Lmul1, 2566, 2564},
    {"64lmul8", kvx::core::Arch::k64Lmul8, 1894, 1892},
    {"32lmul8", kvx::core::Arch::k32Lmul8, 3646, 3620},
};

/// Measurement window: short, so that a run has hundreds of windows and
/// its best twentieth comes from stretches no co-tenant disturbed.
/// perm-paper's throughput windows are shorter still (64 dispatches).
inline constexpr double kWindowS = 0.05;

/// What a workload measures in one pass: its headline end-to-end numbers in
/// raw host time, and the yardstick probes that scale them to the nominal
/// host speed.
struct Headline {
  double throughput = 0.0;  ///< verified operations per second
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  u64 samples = 0;          ///< latency samples behind the percentiles
  HostSpeed speed;
};

/// A workload: its seeded job set, its accelerator shape and the closed-loop
/// engine shape the layer replays use.
struct Workload {
  std::string name;
  u64 seed = 0;
  bool smoke = false;
  unsigned sn = 6;          ///< lockstep states of the workload's accelerator
  usize in_flight = 0;      ///< closed-loop jobs in flight
  usize chunk = 0;          ///< submit_batch chunk size
  JobSet set;
};

[[nodiscard]] bool known_workload(const std::string& name);
[[nodiscard]] Workload make_workload(const std::string& name, u64 seed,
                                     bool smoke);

/// The workloads' engine configuration: 64lmul8 at `sn` lockstep states,
/// jit requested, one worker. More workers made throughput bimodal from
/// process to process (see kvxbench/README.md), and every engine round runs
/// on one CPU.
[[nodiscard]] kvx::engine::EngineConfig engine_config(unsigned sn);

/// One cold construction (trace cache cleared first) of what the workload
/// builds before serving: the three paper accelerators, the engine or the
/// server. Returns seconds.
double setup_once(const Workload& w);

/// Run the workload for `seconds` and return its headline numbers; every
/// output is verified into `out`. `layers` (when non-null) receives the
/// per-layer counters the pass can observe.
struct LayerCounters;
Headline measure(const Workload& w, double seconds, Tracer& tracer,
                 Outcome& out, LayerCounters* layers);

// --- engine closed loop (kyber-xof, bulk-16k, engine replays) -------------

/// Per-layer engine numbers observed around a closed-loop or server run.
struct EngineCounters {
  bool valid = false;
  double submit_ns_per_job = 0.0;
  double collect_ns_per_job = 0.0;
  double jobs_per_collect = 0.0;
  double wall_s = 0.0;
  unsigned threads = 0;
  unsigned sn = 0;
  kvx::engine::EngineStats before;
  kvx::engine::EngineStats after;
};

/// Keep `w.in_flight` jobs of `w.set` in flight on `eng` for `seconds`
/// (in windows of at least seconds / `reps`), submitting through
/// submit_batch chunks and collecting through the notify fd +
/// try_drain_ready. Returns each window's verified jobs/s and
/// submit-to-collect latency. Digests are verified; jobs still in flight at
/// the end are drained and verified but not counted.
Windows run_closed_loop(kvx::engine::BatchHashEngine& eng, const Workload& w,
                        double seconds, unsigned reps, Tracer& tracer,
                        Outcome& out, EngineCounters* counters);

// --- serving (serve-open and the net probe of traced runs) ----------------

/// Frozen serve-open traffic rates (requests/s), calibrated once with
/// `kvx_bench --calibrate` on the tuning seed; never recomputed per run.
struct ServeRates {
  double sustainable; ///< S: highest open-loop rate meeting the p99 limit
  double low;         ///< 0.25 S
  double mid;         ///< 0.5 S
  double high;        ///< 0.8 S
};
extern const ServeRates kServeRates;
inline constexpr double kLatencyLimitMs = 1.0;  ///< p99 limit of the ladder

struct NetCounters {
  bool valid = false;
  /// Served/s and HASH latency (intended send → verified) per window.
  Windows windows;
  Histogram squeeze_latency;  ///< SQUEEZE requests
  Histogram lag;              ///< client lateness against schedule
  std::vector<double> scrape_ms;
  u64 backlog = 0;                      ///< sent − answered at window end
  u64 sent = 0;
  kvx::net::ServerCounters server;
  EngineCounters engine;
};

struct PhaseSpec {
  double rate = 0.0;     ///< arrivals/s; 0 = closed loop (window per conn)
  /// Closed loop with one request in flight at a time, alternating between
  /// the connections: the latency a lone caller sees.
  bool lone = false;
  double warm_s = 0.5;
  double measure_s = 1.0;
  unsigned sn = 3;
  u64 seed = 0;
  /// The client, the server's loop thread and its engine worker all run on
  /// allowed CPU `place` (mod their number).
  usize place = 0;
  /// Probed by the client while the server is idle: between lone requests
  /// and when the phase ends.
  HostSpeed* speed = nullptr;
};

/// One serving phase against a fresh in-process HashServer: 2 binary
/// connections (HASH from `set` plus 5% SQUEEZE on 4 sessions each) and an
/// admin connection scraping /metrics once a second. Returns verified
/// responses per second of the measured window.
double run_serve_phase(const JobSet& set, const PhaseSpec& spec,
                       Tracer& tracer, Outcome& out, NetCounters& net);

/// Print the closed-loop saturation rate and the ladder (p99 and backlog
/// per rung) that the frozen serve-open rates come from.
int calibrate_serving(u64 seed);

// --- per-layer replays of a traced run -------------------------------------

struct LayerCounters {
  EngineCounters engine;
  NetCounters net;
};

/// Simulated cycles per permutation of the three paper configs at the
/// workload's SN, each built as the workloads build it (jit requested).
/// Checked against the pinned values in every run.
std::vector<u64> check_paper_cycles(unsigned sn, Outcome& out);

/// Replay the workload's jobs through every layer's public API (golden
/// model, sim tiers, core, engine, codecs, server) and add the per-layer
/// metrics to `out`. `counters` carries what the traced workload pass
/// already observed; layers it did not exercise are replayed.
/// `headline` is the untraced throughput the golden model is set beside.
void measure_layers(const Workload& w, double seconds, double headline,
                    Tracer& tracer, Outcome& out, LayerCounters& counters);

}  // namespace kvxb
