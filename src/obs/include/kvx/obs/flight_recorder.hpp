// Always-on, lock-free, fixed-memory flight recorder.
//
// Every thread that records events claims one fixed-capacity ring of
// compact structured slots; a process-wide monotonic sequence number is
// stamped into each event so the per-thread rings can be merged into one
// causal timeline after the fact (snapshot_merged(), the post-mortem dump,
// kvx-doctor). The recorder is the black box the fail-soft engine flies
// with: job submit/retire/failure, dispatch, backend demotions (with
// from/to tier and an error hash), trace-cache compiles and hits,
// fault-injector firings and queue park/steal all leave a trace here at a
// cost of one relaxed fetch_add plus a handful of relaxed stores. The same
// rings are the process's only event stream: chrome_trace_json() exports
// them as a Chrome/Perfetto timeline (kvx-batch --trace-out).
//
// Concurrency model:
//  * Writers: each ring has exactly one owner thread at a time (claimed on
//    the thread's first event, released by its thread-local destructor and
//    then reusable by a later thread). Slot writes use a seqlock protocol —
//    seq := 0, payload, seq := s (release) — so a concurrent reader either
//    sees a consistent slot or skips it.
//  * Readers (snapshot_merged, the dump writer) never take a lock and never
//    stop the writers: torn slots are simply dropped. All cross-thread
//    fields are std::atomic, so the whole protocol is clean under TSan.
//  * Memory is fixed: at most kMaxRings rings of kRingCapacity slots, ever.
//    Rings wrap (old events are overwritten) and threads beyond kMaxRings
//    drop events into a counter instead of blocking — the recorder degrades
//    by forgetting, never by slowing the engine down.
//
// The crash handler (kvx/obs/postmortem.hpp) reads rings via ring_at() with
// only async-signal-safe operations; record() itself must NOT be called
// from a signal context (it may allocate on a thread's first event).
#pragma once

#include <atomic>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "kvx/common/types.hpp"

namespace kvx::obs {

/// Event vocabulary. Values are part of the on-disk post-mortem format
/// (dump version 1) — append new types, never renumber.
enum class FlightEventType : u16 {
  kNone = 0,
  kJobSubmit = 1,        ///< a0 = first seq id, a1 = job count
  kJobRetire = 2,        ///< code = failed-in-batch, a0 = first seq id, a1 = jobs
  kJobFail = 3,          ///< a0 = job seq id, a1 = error hash
  kDispatch = 4,         ///< a0 = jobs in batch, a1 = shard index
  kBackendDemotion = 5,  ///< code = (from<<8)|to tier, a0 = injected, a1 = error hash
  kTraceCompile = 6,     ///< code = artifact tier (0 trace/1 fused/2 host-simd/3 jit), a0 = ns
  kTraceReject = 7,      ///< code = artifact tier, a1 = error hash
  kTraceCacheHit = 8,    ///< cache lookup served without compiling
  kFaultInjected = 9,    ///< code = fault kind bit, a0 = site, a1 = draw index
  kQueuePark = 10,       ///< code = 0 consumer / 1 producer
  kQueueSteal = 11,      ///< a0 = victim ring, a1 = jobs stolen
};

/// Stable lower-case name ("job_submit", "backend_demotion", ...).
[[nodiscard]] std::string_view flight_event_name(FlightEventType t) noexcept;

/// Payload decoders shared by kvx-doctor and chrome_trace_json(); each
/// returns a view of a string literal, so .data() is NUL-terminated.
/// kTraceCompile/kTraceReject code: "trace" / "fused" / "host-simd" / "jit".
[[nodiscard]] std::string_view artifact_tier_name(u16 tier) noexcept;
/// One byte of the kBackendDemotion code: sim::ExecBackend's backend_name().
[[nodiscard]] std::string_view backend_tier_name(u16 tier) noexcept;
/// kFaultInjected code (sim::FaultKind bit): "regfile_bit_flip", ...
[[nodiscard]] std::string_view fault_kind_name(u16 bit) noexcept;
/// kFaultInjected a0 (sim::FaultSite): "trace_compile" / "execute".
[[nodiscard]] std::string_view fault_site_name(u64 site) noexcept;

/// FNV-1a 64 of an error string — events carry the hash, not the text, so
/// recording never allocates. kvx-doctor matches hashes across events.
[[nodiscard]] u64 flight_hash(std::string_view s) noexcept;

/// One decoded event (snapshot_merged(), parse_dump()).
struct FlightEvent {
  u64 seq = 0;   ///< global causal order (1-based, strictly increasing)
  u64 ns = 0;    ///< steady-clock timestamp
  u16 type_raw = 0;
  u16 code = 0;
  u32 ring = 0;  ///< ring (≈ thread) the event was recorded on
  u64 a0 = 0;
  u64 a1 = 0;

  [[nodiscard]] FlightEventType type() const noexcept {
    return static_cast<FlightEventType>(type_raw);
  }
};

class FlightRecorder {
 public:
  static constexpr usize kMaxRings = 32;
  static constexpr usize kRingCapacity = 1024;  ///< power of two

  /// One storage slot: a seqlock over 5 atomics. seq == 0 means "empty or
  /// mid-write"; readers re-check seq after loading the payload.
  struct Slot {
    std::atomic<u64> seq{0};
    std::atomic<u64> ns{0};
    std::atomic<u64> meta{0};  ///< type | code << 16
    std::atomic<u64> a0{0};
    std::atomic<u64> a1{0};
  };

  struct Ring {
    std::atomic<u64> written{0};   ///< events ever written (monotone)
    std::atomic<u32> claimed{0};   ///< 1 while an owner thread is alive
    u32 index = 0;                 ///< dense ring id (stable for life)
    Slot slots[kRingCapacity];
  };

  /// The process-wide recorder (intentionally leaked: thread-local ring
  /// releases may run during late thread teardown).
  static FlightRecorder& global();

  /// Record one event; returns its global sequence number (0 when the
  /// recorder is disabled or every ring is taken). Wait-free after the
  /// calling thread's first event. NOT async-signal-safe.
  u64 record(FlightEventType type, u16 code = 0, u64 a0 = 0,
             u64 a1 = 0) noexcept;

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Disable/re-enable recording (the overhead bench measures both sides).
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  struct RingInfo {
    u32 index = 0;
    u64 written = 0;  ///< events ever written; > stored means the ring wrapped
    u64 stored = 0;   ///< slots currently holding events (≤ kRingCapacity)
  };

  /// Merge every ring into one timeline sorted by global sequence number.
  /// Lock-free and non-quiescent: events written concurrently may or may
  /// not appear, torn slots are skipped.
  [[nodiscard]] std::vector<FlightEvent> snapshot_merged(
      std::vector<RingInfo>* rings = nullptr) const;

  /// snapshot_merged() exported as Chrome/Perfetto trace JSON (see the
  /// free chrome_trace_json() below), ring wraps and dropped() included.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Events dropped because more than kMaxRings threads recorded.
  [[nodiscard]] u64 dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Live rings (allocated so far; ≤ kMaxRings). Signal-safe.
  [[nodiscard]] usize ring_count() const noexcept {
    return ring_count_.load(std::memory_order_acquire);
  }
  /// Raw ring access for the post-mortem writer. Signal-safe; may return
  /// nullptr for i ≥ ring_count().
  [[nodiscard]] const Ring* ring_at(usize i) const noexcept {
    return i < kMaxRings ? rings_[i].load(std::memory_order_acquire) : nullptr;
  }

  /// Zero every ring and restart the sequence counter. Tests only — racing
  /// writers on other threads may interleave undefined-but-safe garbage.
  void clear() noexcept;

 private:
  FlightRecorder() = default;

  Ring* claim_ring() noexcept;
  friend struct FlightTls;

  std::atomic<Ring*> rings_[kMaxRings] = {};
  std::atomic<u32> ring_count_{0};
  std::atomic<u64> seq_{1};
  std::atomic<u64> dropped_{0};
  std::atomic<bool> enabled_{true};
};

/// Chrome/Perfetto trace JSON ({"traceEvents":[...]}) of a merged timeline:
///  * kTraceCompile -> 'X' span ending at the event, lasting a0 ns, named
///    trace_compile / trace_fuse / host_simd_lower / jit_emit by tier;
///  * kDispatch + the next kJobRetire on its ring -> 'X' "dispatch" span
///    (jobs, failed, shard); a dispatch whose retire is missing (in flight
///    or overwritten) stays an instant;
///  * everything else -> an 'i' instant with decoded args.
/// tid is the ring index, ts is µs from the earliest event. Each wrapped
/// ring (written > stored) and `dropped` (events of threads that got no
/// ring, on tid kMaxRings) become "kvx_dropped_events" entries, so a
/// truncated window is never silent.
[[nodiscard]] std::string chrome_trace_json(
    std::span<const FlightEvent> events,
    std::span<const FlightRecorder::RingInfo> rings = {}, u64 dropped = 0);

}  // namespace kvx::obs
