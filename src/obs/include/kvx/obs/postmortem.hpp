// Crash post-mortems: async-signal-safe dumps of the flight recorder, the
// metrics registry, the per-engine/per-shard counters and build info.
//
// Two producers write the same versioned binary format (see below):
//  * install_crash_handler() hooks the fatal signals (SIGSEGV, SIGBUS,
//    SIGILL, SIGFPE, SIGABRT) and std::terminate. The handler runs with
//    only async-signal-safe operations — pre-resolved file path, raw
//    open/write, fixed stack buffers, atomic loads — writes one dump to
//    `<dir>/kvx_postmortem_<pid>_crash.kvxdump`, then re-raises the signal
//    with the default disposition so the exit status is preserved.
//  * dump_now(reason) writes an explicit dump from normal context (same
//    writer, same constraints kept for simplicity) and returns the path.
//    auto_dump(reason) is the rate-capped variant the engine calls on every
//    backend demotion and per-job failure; it is a no-op until enabled.
//
// Configuration: set_dump_dir()/set_auto_dump()/install_crash_handler()
// explicitly, or export KVX_POSTMORTEM=<dir> and let init_from_env() (run
// by every BatchHashEngine construction) switch everything on at once.
// KVX_POSTMORTEM_MAX caps auto dumps per process (default 4; explicit
// dump_now() calls are never capped).
//
// Dump format, version 1 (little-endian, packed):
//   header : magic "KVXPMDMP" | u32 version | u32 section_count | u64 pid
//   section: u32 kind | u32 reserved | u64 payload_bytes | payload
//   kinds  : 1 reason     — u32 signal | u32 len | bytes
//            2 build_info — u32 len | "key=value\n"... text
//            3 events     — u32 ring_count | u32 dropped_lo; per ring:
//                           u32 index | u32 pad | u64 written | u64 stored |
//                           stored × (seq,ns,meta,a0,a1) u64 records
//                           (seq == 0 records are torn/empty: skip)
//            4 metrics    — u32 count; per metric: u32 kind | u32 name_len |
//                           u32 bounds_len | u32 pad | name |
//                           counter: u64 value / gauge: f64 bits /
//                           histogram: bounds | per-bucket counts | sum |
//                           per-bucket exemplar (value, flight seq) pairs
//            5 engines    — u32 count; per engine: u32 shard_count|u32 pad|
//                           u64 submitted|completed|failed; per shard 7×u64
//                           (jobs, failures, fallbacks, dispatches,
//                            sim_cycles, permutations, bytes)
// Constraints the format inherits from signal context: bound gauges report
// their last stored value (callbacks cannot run under a signal), and a
// mid-flight dump may legitimately show submitted > completed + failed.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "kvx/common/types.hpp"
#include "kvx/obs/flight_recorder.hpp"
#include "kvx/obs/metrics.hpp"

namespace kvx::obs::pm {

inline constexpr u32 kDumpVersion = 1;
inline constexpr char kDumpMagic[8] = {'K', 'V', 'X', 'P', 'M', 'D', 'M', 'P'};

enum class SectionKind : u32 {
  kReason = 1,
  kBuildInfo = 2,
  kEvents = 3,
  kMetrics = 4,
  kEngines = 5,
};

// ---------------------------------------------------------------------------
// Engine counters: the ONE storage location of every BatchHashEngine
// counter. Blocks of atomics in a static pool, so the signal handler scrapes
// them without any lock; an engine that finds the pool full (or a shard past
// kMaxShards) keeps an identical block of its own, invisible to dumps.

inline constexpr usize kMaxEngines = 8;
inline constexpr usize kMaxShards = 32;

/// One worker shard's counters (engine::ShardStats). Dumps carry the first
/// seven; host_ns and the step attribution stay in-process.
struct alignas(64) ShardCounters {
  std::atomic<u64> jobs{0};
  std::atomic<u64> failures{0};
  std::atomic<u64> fallbacks{0};
  std::atomic<u64> dispatches{0};
  std::atomic<u64> sim_cycles{0};
  std::atomic<u64> permutations{0};
  std::atomic<u64> bytes{0};
  std::atomic<u64> host_ns{0};
  std::atomic<u64> theta{0};
  std::atomic<u64> rho_pi{0};
  std::atomic<u64> chi_iota{0};
  std::atomic<u64> absorb{0};
  std::atomic<u64> other{0};
  std::atomic<u64> step_total{0};
  std::atomic<u64> rounds{0};
};

struct EngineCounters {
  std::atomic<u32> in_use{0};
  std::atomic<u32> shard_count{0};
  std::atomic<u64> submitted{0};
  std::atomic<u64> completed{0};
  std::atomic<u64> failed{0};
  ShardCounters shards[kMaxShards];
};

/// Claim a zeroed pool block (nullptr once kMaxEngines engines are live —
/// such an engine keeps its own block and stays invisible to dumps).
[[nodiscard]] EngineCounters* claim_engine_counters() noexcept;
void release_engine_counters(EngineCounters* counters) noexcept;

// ---------------------------------------------------------------------------
// Configuration + dump entry points.

/// Directory dumps are written to ("." until configured). Also enables
/// auto dumps.
void set_dump_dir(const std::string& dir);
void set_auto_dump(bool enabled) noexcept;
[[nodiscard]] bool auto_dump_enabled() noexcept;

/// Hook SIGSEGV/SIGBUS/SIGILL/SIGFPE/SIGABRT (on an alternate stack) and
/// std::terminate. Idempotent; chains to the default disposition after the
/// dump so exit statuses and core files are unaffected.
void install_crash_handler();

/// Record the build-info text ("key=value\n"...) embedded in every dump.
/// Truncated to an internal fixed buffer; later calls overwrite.
void set_build_info(const std::string& text);

/// Write one dump right now; returns the file path ("" on I/O failure).
/// Never rate-capped. Safe from any normal (non-signal) context.
std::string dump_now(const std::string& reason);

/// dump_now() iff auto dumps are enabled and fewer than the cap have been
/// written (KVX_POSTMORTEM_MAX, default 4). The engine calls this on every
/// backend demotion and per-job failure.
void auto_dump(const char* reason) noexcept;

/// Dumps written by this process so far (crash + explicit + auto).
[[nodiscard]] u64 dump_count() noexcept;

/// One-shot: if KVX_POSTMORTEM is set, adopt it as the dump directory,
/// enable auto dumps and install the crash handler. Called by every
/// BatchHashEngine construction; cheap and idempotent.
void init_from_env();

// ---------------------------------------------------------------------------
// Parsing (kvx-doctor, tests). Plain ifstream reads; throws kvx::Error on a
// malformed file.

struct DumpRing {
  u32 index = 0;
  u64 written = 0;
  u64 stored = 0;
};

struct DumpMetric {
  std::string name;
  MetricSample::Kind kind = MetricSample::Kind::kCounter;
  u64 counter_value = 0;
  double gauge_value = 0.0;
  std::vector<u64> bounds;
  std::vector<u64> bucket_counts;  ///< per-bucket (not cumulative), bounds+1
  u64 sum = 0;
  std::vector<std::pair<u64, u64>> exemplars;  ///< (value, flight seq) per bucket
};

struct DumpShard {
  u64 jobs = 0;
  u64 failures = 0;
  u64 fallbacks = 0;
  u64 dispatches = 0;
  u64 sim_cycles = 0;
  u64 permutations = 0;
  u64 bytes = 0;
};

struct DumpEngine {
  u64 submitted = 0;
  u64 completed = 0;
  u64 failed = 0;
  std::vector<DumpShard> shards;
};

struct PostmortemDump {
  u32 version = 0;
  u64 pid = 0;
  int signal = 0;         ///< 0 for explicit dumps
  std::string reason;
  std::string build_info;
  u64 events_dropped = 0;
  std::vector<DumpRing> rings;
  std::vector<FlightEvent> events;  ///< merged, sorted by seq
  std::vector<DumpMetric> metrics;
  std::vector<DumpEngine> engines;
};

[[nodiscard]] PostmortemDump parse_dump(const std::string& path);

}  // namespace kvx::obs::pm
