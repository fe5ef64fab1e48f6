// The Chrome/Perfetto exporter of the flight recorder. It lives in its own
// translation unit so that programs which only record events (kvx-hashd,
// kvx-fuzz) do not link it from the static library.
#include "kvx/obs/flight_recorder.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>

namespace kvx::obs {

std::string FlightRecorder::chrome_trace_json() const {
  std::vector<RingInfo> rings;
  const std::vector<FlightEvent> events = snapshot_merged(&rings);
  return obs::chrome_trace_json(events, rings, dropped());
}

namespace {

/// Span names of the four compile tiers, indexed by kTraceCompile code;
/// CI greps the exported timeline for them.
constexpr std::string_view kCompileSpanNames[] = {
    "trace_compile", "trace_fuse", "host_simd_lower", "jit_emit"};

std::string_view event_category(FlightEventType t) noexcept {
  switch (t) {
    case FlightEventType::kBackendDemotion:
    case FlightEventType::kFaultInjected:
      return "sim";
    case FlightEventType::kTraceCompile:
    case FlightEventType::kTraceReject:
    case FlightEventType::kTraceCacheHit:
      return "cache";
    default:
      return "engine";
  }
}

/// Appends printf-formatted text to a JSON document under construction.
template <typename... Args>
void append(std::string& out, const char* fmt, Args... args) {
  char buf[256];
  const int n = std::snprintf(buf, sizeof buf, fmt, args...);
  if (n > 0) {
    out.append(buf, std::min(static_cast<usize>(n), sizeof buf - 1));
  }
}

void append_str(std::string& out, const char* key, std::string_view v) {
  append(out, ",\"%s\":\"%.*s\"", key, static_cast<int>(v.size()), v.data());
}

void append_u64(std::string& out, const char* key, u64 v) {
  append(out, ",\"%s\":%" PRIu64, key, v);
}

void append_hash(std::string& out, u64 h) {
  append(out, ",\"err_hash\":\"%016" PRIx64 "\"", h);
}

/// The decoded per-type payload as args members (after "seq").
void append_args(std::string& out, const FlightEvent& e) {
  switch (e.type()) {
    case FlightEventType::kJobSubmit:
      append_u64(out, "first_seq", e.a0);
      append_u64(out, "jobs", e.a1);
      break;
    case FlightEventType::kJobRetire:
      append_u64(out, "first_seq", e.a0);
      append_u64(out, "jobs", e.a1);
      append_u64(out, "failed", e.code);
      break;
    case FlightEventType::kJobFail:
      append_u64(out, "job_seq", e.a0);
      append_hash(out, e.a1);
      break;
    case FlightEventType::kDispatch:
      append_u64(out, "jobs", e.a0);
      append_u64(out, "shard", e.a1);
      break;
    case FlightEventType::kBackendDemotion:
      append_str(out, "from",
                 backend_tier_name(static_cast<u16>(e.code >> 8)));
      append_str(out, "to",
                 backend_tier_name(static_cast<u16>(e.code & 0xFF)));
      append(out, ",\"injected\":%s", e.a0 != 0 ? "true" : "false");
      append_hash(out, e.a1);
      break;
    case FlightEventType::kTraceCompile:
      append_str(out, "tier", artifact_tier_name(e.code));
      break;
    case FlightEventType::kTraceReject:
      append_str(out, "tier", artifact_tier_name(e.code));
      append_hash(out, e.a1);
      break;
    case FlightEventType::kTraceCacheHit:
      break;
    case FlightEventType::kFaultInjected:
      append_str(out, "kind", fault_kind_name(e.code));
      append_str(out, "site", fault_site_name(e.a0));
      append_u64(out, "draw", e.a1);
      break;
    case FlightEventType::kQueuePark:
      append_str(out, "side", e.code == 0 ? "consumer" : "producer");
      break;
    case FlightEventType::kQueueSteal:
      append_u64(out, "victim", e.a0);
      append_u64(out, "jobs", e.a1);
      break;
    default:
      append_u64(out, "code", e.code);
      append_u64(out, "a0", e.a0);
      append_u64(out, "a1", e.a1);
      break;
  }
}

}  // namespace

std::string chrome_trace_json(std::span<const FlightEvent> events,
                              std::span<const FlightRecorder::RingInfo> rings,
                              u64 dropped) {
  constexpr usize kNone = static_cast<usize>(-1);
  const auto is_compile = [](const FlightEvent& e) {
    return e.type() == FlightEventType::kTraceCompile;
  };
  // A compile span starts a0 ns before its event; the origin is the
  // earliest start so no ts goes negative.
  const auto start_ns = [&](const FlightEvent& e) {
    return is_compile(e) ? e.ns - std::min(e.a0, e.ns) : e.ns;
  };
  u64 origin = events.empty() ? 0 : ~u64{0};
  for (const FlightEvent& e : events) origin = std::min(origin, start_ns(e));

  // Pair each dispatch with the next retire on its ring (events are in seq
  // order, and a ring has one writer at a time, so ring order is seq order).
  std::vector<usize> retire_of(events.size(), kNone);
  std::vector<usize> open_dispatch(FlightRecorder::kMaxRings, kNone);
  for (usize i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    if (e.ring >= FlightRecorder::kMaxRings) continue;
    usize& open = open_dispatch[e.ring];
    if (e.type() == FlightEventType::kDispatch) {
      open = i;
    } else if (e.type() == FlightEventType::kJobRetire && open != kNone) {
      retire_of[open] = i;
      open = kNone;
    }
  }

  std::string out = "{\"traceEvents\":[";
  const auto open_event = [&](char phase, std::string_view cat,
                              std::string_view name, u32 tid, u64 ts_ns) {
    if (out.back() != '[') out += ',';
    append(out, "{\"ph\":\"%c\",\"cat\":\"%.*s\",\"name\":\"%.*s\",\"pid\":1,"
           "\"tid\":%u,\"ts\":%.3f",
           phase, static_cast<int>(cat.size()), cat.data(),
           static_cast<int>(name.size()), name.data(), tid,
           static_cast<double>(ts_ns - origin) / 1e3);
  };
  for (usize i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    const std::string_view cat = event_category(e.type());
    if (is_compile(e)) {
      const std::string_view name = e.code < std::size(kCompileSpanNames)
                                        ? kCompileSpanNames[e.code]
                                        : flight_event_name(e.type());
      open_event('X', cat, name, e.ring, start_ns(e));
      append(out, ",\"dur\":%.3f",
             static_cast<double>(e.ns - start_ns(e)) / 1e3);
    } else if (retire_of[i] != kNone) {
      const u64 end_ns = events[retire_of[i]].ns;
      open_event('X', cat, "dispatch", e.ring, e.ns);
      append(out, ",\"dur\":%.3f",
             static_cast<double>(end_ns - std::min(end_ns, e.ns)) / 1e3);
    } else {
      open_event('i', cat, flight_event_name(e.type()), e.ring, e.ns);
    }
    append(out, ",\"args\":{\"seq\":%" PRIu64, e.seq);
    append_args(out, e);
    if (retire_of[i] != kNone) {
      append_u64(out, "failed", events[retire_of[i]].code);
    }
    out += "}}";
  }

  const auto report_drops = [&](u32 tid, u64 n) {
    if (n == 0) return;
    open_event('i', "obs", "kvx_dropped_events", tid, origin);
    append(out, ",\"args\":{\"dropped\":%" PRIu64 "}}", n);
  };
  for (const FlightRecorder::RingInfo& r : rings) {
    report_drops(r.index, r.written - r.stored);
  }
  report_drops(static_cast<u32>(FlightRecorder::kMaxRings), dropped);
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

}  // namespace kvx::obs
