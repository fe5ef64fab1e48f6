#include "kvx/obs/flight_recorder.hpp"

#include <algorithm>
#include <chrono>

namespace kvx::obs {

namespace {

u64 steady_now_ns() noexcept {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

}  // namespace

std::string_view flight_event_name(FlightEventType t) noexcept {
  switch (t) {
    case FlightEventType::kNone: return "none";
    case FlightEventType::kJobSubmit: return "job_submit";
    case FlightEventType::kJobRetire: return "job_retire";
    case FlightEventType::kJobFail: return "job_fail";
    case FlightEventType::kDispatch: return "dispatch";
    case FlightEventType::kBackendDemotion: return "backend_demotion";
    case FlightEventType::kTraceCompile: return "trace_compile";
    case FlightEventType::kTraceReject: return "trace_reject";
    case FlightEventType::kTraceCacheHit: return "trace_cache_hit";
    case FlightEventType::kFaultInjected: return "fault_injected";
    case FlightEventType::kQueuePark: return "queue_park";
    case FlightEventType::kQueueSteal: return "queue_steal";
  }
  return "unknown";
}

std::string_view artifact_tier_name(u16 tier) noexcept {
  switch (tier) {
    case 0: return "trace";
    case 1: return "fused";
    case 2: return "host-simd";
    case 3: return "jit";
    default: return "?";
  }
}

std::string_view backend_tier_name(u16 tier) noexcept {
  switch (tier) {
    case 0: return "interpreter";
    case 3: return "host-simd";
    case 4: return "jit";
    default: return "?";
  }
}

std::string_view fault_kind_name(u16 bit) noexcept {
  switch (bit) {
    case 1u << 0: return "regfile_bit_flip";
    case 1u << 1: return "memory_bit_flip";
    case 1u << 2: return "sim_fault";
    case 1u << 3: return "compile_fail";
    default: return "?";
  }
}

std::string_view fault_site_name(u64 site) noexcept {
  return site == 0 ? "trace_compile" : "execute";
}

u64 flight_hash(std::string_view s) noexcept {
  u64 h = 0xCBF29CE484222325ull;
  for (const char c : s) {
    h ^= static_cast<u8>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Thread-local ring handle. The destructor releases the claim so a later
/// thread can reuse the ring (its events survive for post-mortems either
/// way; a reused ring simply continues the track).
struct FlightTls {
  FlightRecorder::Ring* ring = nullptr;
  ~FlightTls() {
    if (ring != nullptr) ring->claimed.store(0, std::memory_order_release);
  }
};

FlightRecorder& FlightRecorder::global() {
  // Leaked on purpose: FlightTls destructors of detached threads may run
  // after static destruction would have torn the recorder down.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::Ring* FlightRecorder::claim_ring() noexcept {
  // Reuse a released ring first (threads come and go; rings are forever).
  for (usize i = 0; i < kMaxRings; ++i) {
    Ring* r = rings_[i].load(std::memory_order_acquire);
    if (r == nullptr) break;  // slots are filled densely
    u32 expected = 0;
    if (r->claimed.compare_exchange_strong(expected, 1,
                                           std::memory_order_acq_rel)) {
      return r;
    }
  }
  // Allocate a fresh ring into the next free slot.
  for (;;) {
    const u32 count = ring_count_.load(std::memory_order_acquire);
    if (count >= kMaxRings) return nullptr;
    Ring* fresh = new (std::nothrow) Ring();
    if (fresh == nullptr) return nullptr;
    fresh->index = count;
    fresh->claimed.store(1, std::memory_order_relaxed);
    Ring* expected = nullptr;
    if (rings_[count].compare_exchange_strong(expected, fresh,
                                              std::memory_order_acq_rel)) {
      ring_count_.store(count + 1, std::memory_order_release);
      return fresh;
    }
    // Another thread published slot `count` first; retry (and maybe claim
    // a released ring that appeared meanwhile).
    delete fresh;
    Ring* r = rings_[count].load(std::memory_order_acquire);
    u32 claim = 0;
    if (r != nullptr && r->claimed.compare_exchange_strong(
                            claim, 1, std::memory_order_acq_rel)) {
      return r;
    }
  }
}

u64 FlightRecorder::record(FlightEventType type, u16 code, u64 a0,
                           u64 a1) noexcept {
  if (!enabled_.load(std::memory_order_relaxed)) return 0;
  thread_local FlightTls tls;
  if (tls.ring == nullptr) {
    tls.ring = claim_ring();
    if (tls.ring == nullptr) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return 0;
    }
  }
  Ring& ring = *tls.ring;
  const u64 seq = seq_.fetch_add(1, std::memory_order_relaxed);
  const u64 w = ring.written.load(std::memory_order_relaxed);
  Slot& slot = ring.slots[w % kRingCapacity];
  // Seqlock write: invalidate, fill, publish.
  slot.seq.store(0, std::memory_order_release);
  slot.ns.store(steady_now_ns(), std::memory_order_relaxed);
  slot.meta.store(static_cast<u64>(type) | (static_cast<u64>(code) << 16),
                  std::memory_order_relaxed);
  slot.a0.store(a0, std::memory_order_relaxed);
  slot.a1.store(a1, std::memory_order_relaxed);
  slot.seq.store(seq, std::memory_order_release);
  ring.written.store(w + 1, std::memory_order_release);
  return seq;
}

std::vector<FlightEvent> FlightRecorder::snapshot_merged(
    std::vector<RingInfo>* rings) const {
  std::vector<FlightEvent> out;
  if (rings != nullptr) rings->clear();
  const usize n = ring_count();
  for (usize i = 0; i < n; ++i) {
    const Ring* ring = ring_at(i);
    if (ring == nullptr) continue;
    const u64 written = ring->written.load(std::memory_order_acquire);
    const u64 stored = std::min<u64>(written, kRingCapacity);
    if (rings != nullptr) rings->push_back({ring->index, written, stored});
    for (usize s = 0; s < stored; ++s) {
      const Slot& slot = ring->slots[s];
      // Seqlock read: a slot whose seq changes under us is being rewritten
      // by the owner thread — drop it rather than report torn fields.
      const u64 seq0 = slot.seq.load(std::memory_order_acquire);
      if (seq0 == 0) continue;
      FlightEvent ev;
      ev.seq = seq0;
      ev.ns = slot.ns.load(std::memory_order_relaxed);
      const u64 meta = slot.meta.load(std::memory_order_relaxed);
      ev.type_raw = static_cast<u16>(meta & 0xFFFF);
      ev.code = static_cast<u16>((meta >> 16) & 0xFFFF);
      ev.ring = ring->index;
      ev.a0 = slot.a0.load(std::memory_order_relaxed);
      ev.a1 = slot.a1.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_acquire) != seq0) continue;
      out.push_back(ev);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

void FlightRecorder::clear() noexcept {
  const usize n = ring_count();
  for (usize i = 0; i < n; ++i) {
    Ring* ring = rings_[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (Slot& slot : ring->slots) {
      slot.seq.store(0, std::memory_order_relaxed);
      slot.ns.store(0, std::memory_order_relaxed);
      slot.meta.store(0, std::memory_order_relaxed);
      slot.a0.store(0, std::memory_order_relaxed);
      slot.a1.store(0, std::memory_order_relaxed);
    }
    ring->written.store(0, std::memory_order_release);
  }
  dropped_.store(0, std::memory_order_relaxed);
  seq_.store(1, std::memory_order_release);
}

}  // namespace kvx::obs
