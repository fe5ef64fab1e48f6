// kvx-doctor — post-mortem dump inspector and invariant checker.
//
//   kvx-doctor [--check] [--last N] DUMP.kvxdump...
//     --check    run the invariant cross-checks and exit 1 if any fails
//                (parse errors always exit 1); without it the tool only
//                prints and exits 0 unless a dump is unreadable
//     --last N   events of merged-timeline tail / failure-window context
//                to print (default 16)
//
// For each dump the doctor prints the header (reason, signal, pid, build
// info), a per-ring accounting table, the tail of the merged causal
// timeline, and a ±N event window around every failure anchor (job_fail,
// backend_demotion, trace_reject, fault_injected). If the latency histogram
// carries exemplars, the window around the worst recorded job is printed
// too.
//
// --check cross-checks what a healthy dump must satisfy:
//   * the merged timeline is strictly increasing with no duplicate
//     sequence numbers (the rings merged consistently);
//   * every ring stores exactly min(written, capacity) events;
//   * engine counters hold submitted >= completed + failed (equality is
//     only guaranteed at quiescence, and a dump may be mid-flight), for
//     both the Prometheus counters and every engine's counter block;
//   * trace-cache entries never exceed the artifacts ever compiled;
//   * every injected backend demotion has fault-injector firings to blame
//     (skipped when any ring wrapped or dropped events — the matching
//     firing may legitimately have been overwritten).
//
// Exit codes: 0 ok, 1 parse failure or (with --check) invariant violation,
// 2 usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "kvx/common/cli.hpp"
#include "kvx/common/error.hpp"
#include "kvx/obs/flight_recorder.hpp"
#include "kvx/obs/postmortem.hpp"

namespace {

using namespace kvx;
using obs::FlightEvent;
using obs::FlightEventType;

constexpr int kExitOk = 0;
constexpr int kExitFail = 1;
constexpr int kExitUsage = 2;

/// One line per event: seq, ring, name and the decoded per-type payload.
void print_event(const FlightEvent& e, const char* marker) {
  std::printf("  %s%8llu  ring %2u  %-17s", marker,
              static_cast<unsigned long long>(e.seq), e.ring,
              std::string(flight_event_name(e.type())).c_str());
  const auto ull = [](u64 v) { return static_cast<unsigned long long>(v); };
  switch (e.type()) {
    case FlightEventType::kJobSubmit:
      std::printf("first_seq=%llu jobs=%llu", ull(e.a0), ull(e.a1));
      break;
    case FlightEventType::kJobRetire:
      std::printf("first_seq=%llu jobs=%llu failed=%u", ull(e.a0), ull(e.a1),
                  e.code);
      break;
    case FlightEventType::kJobFail:
      std::printf("job_seq=%llu err_hash=%016llx", ull(e.a0), ull(e.a1));
      break;
    case FlightEventType::kDispatch:
      std::printf("jobs=%llu shard=%llu", ull(e.a0), ull(e.a1));
      break;
    case FlightEventType::kBackendDemotion: {
      const auto from = static_cast<u16>(e.code >> 8);
      const auto to = static_cast<u16>(e.code & 0xFF);
      std::printf("%s -> %s%s err_hash=%016llx",
                  obs::backend_tier_name(from).data(),
                  obs::backend_tier_name(to).data(),
                  e.a0 != 0 ? " [injected]" : "", ull(e.a1));
      break;
    }
    case FlightEventType::kTraceCompile:
      std::printf("tier=%s ns=%llu", obs::artifact_tier_name(e.code).data(),
                  ull(e.a0));
      break;
    case FlightEventType::kTraceReject:
      std::printf("tier=%s err_hash=%016llx",
                  obs::artifact_tier_name(e.code).data(), ull(e.a1));
      break;
    case FlightEventType::kTraceCacheHit:
      break;
    case FlightEventType::kFaultInjected:
      std::printf("kind=%s site=%s draw=%llu",
                  obs::fault_kind_name(e.code).data(),
                  obs::fault_site_name(e.a0).data(), ull(e.a1));
      break;
    case FlightEventType::kQueuePark:
      std::printf("%s", e.code == 0 ? "consumer" : "producer");
      break;
    case FlightEventType::kQueueSteal:
      std::printf("victim=%llu jobs=%llu", ull(e.a0), ull(e.a1));
      break;
    default:
      std::printf("code=%u a0=%llu a1=%llu", e.code, ull(e.a0), ull(e.a1));
      break;
  }
  std::printf("\n");
}

bool is_failure_anchor(const FlightEvent& e) {
  switch (e.type()) {
    case FlightEventType::kJobFail:
    case FlightEventType::kBackendDemotion:
    case FlightEventType::kTraceReject:
    case FlightEventType::kFaultInjected:
      return true;
    default:
      return false;
  }
}

/// Print events[lo, hi) with a marker on `anchor`.
void print_window(const std::vector<FlightEvent>& events, usize lo, usize hi,
                  usize anchor) {
  for (usize i = lo; i < hi; ++i) {
    print_event(events[i], i == anchor ? "> " : "  ");
  }
}

const obs::pm::DumpMetric* find_metric(const obs::pm::PostmortemDump& dump,
                                       const char* name) {
  for (const obs::pm::DumpMetric& m : dump.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

u64 counter_or_zero(const obs::pm::PostmortemDump& dump, const char* name) {
  const obs::pm::DumpMetric* m = find_metric(dump, name);
  return m != nullptr ? m->counter_value : 0;
}

struct Checker {
  int failures = 0;

  void expect(bool ok, const char* what, u64 lhs, u64 rhs) {
    if (ok) {
      std::printf("  ok    %s (%llu vs %llu)\n", what,
                  static_cast<unsigned long long>(lhs),
                  static_cast<unsigned long long>(rhs));
    } else {
      std::printf("  FAIL  %s (%llu vs %llu)\n", what,
                  static_cast<unsigned long long>(lhs),
                  static_cast<unsigned long long>(rhs));
      ++failures;
    }
  }
};

int inspect(const std::string& path, bool check, usize last) {
  obs::pm::PostmortemDump dump;
  try {
    dump = obs::pm::parse_dump(path);
  } catch (const Error& e) {
    std::fprintf(stderr, "kvx-doctor: %s: %s\n", path.c_str(), e.what());
    return kExitFail;
  }

  std::printf("== %s\n", path.c_str());
  std::printf("  format v%u  pid %llu  reason \"%s\"", dump.version,
              static_cast<unsigned long long>(dump.pid),
              dump.reason.c_str());
  if (dump.signal != 0) std::printf("  signal %d", dump.signal);
  std::printf("\n");
  if (!dump.build_info.empty()) {
    std::printf("-- build info\n");
    std::string line;
    for (const char c : dump.build_info) {
      if (c == '\n') {
        if (!line.empty()) std::printf("  %s\n", line.c_str());
        line.clear();
      } else {
        line.push_back(c);
      }
    }
    if (!line.empty()) std::printf("  %s\n", line.c_str());
  }

  std::printf("-- flight recorder: %zu rings, %zu merged events, %llu dropped\n",
              dump.rings.size(), dump.events.size(),
              static_cast<unsigned long long>(dump.events_dropped));
  bool wrapped = dump.events_dropped != 0;
  for (const obs::pm::DumpRing& r : dump.rings) {
    std::printf("  ring %2u: written %llu, stored %llu%s\n", r.index,
                static_cast<unsigned long long>(r.written),
                static_cast<unsigned long long>(r.stored),
                r.written > r.stored ? " (wrapped)" : "");
    if (r.written > r.stored) wrapped = true;
  }

  const std::vector<FlightEvent>& ev = dump.events;
  if (!ev.empty()) {
    const usize tail = std::min(ev.size(), last);
    std::printf("-- timeline tail (last %zu of %zu)\n", tail, ev.size());
    print_window(ev, ev.size() - tail, ev.size(), ev.size());
  }

  // ±last/2 window around each failure anchor, coalescing overlaps so a
  // burst of related events prints as one window.
  const usize half = std::max<usize>(last / 2, 2);
  usize printed_to = 0;
  for (usize i = 0; i < ev.size(); ++i) {
    if (!is_failure_anchor(ev[i])) continue;
    const usize lo = std::max(std::max(i, half) - half, printed_to);
    const usize hi = std::min(ev.size(), i + half + 1);
    if (lo >= hi) continue;  // already shown by the previous window
    std::printf("-- window around %s (seq %llu)\n",
                std::string(flight_event_name(ev[i].type())).c_str(),
                static_cast<unsigned long long>(ev[i].seq));
    print_window(ev, lo, hi, i);
    printed_to = hi;
  }

  // Worst recorded job: the largest latency exemplar that carries a flight
  // sequence points straight at the retire/fail event of the bucket-max job.
  if (const obs::pm::DumpMetric* lat =
          find_metric(dump, "kvx_engine_job_latency_ns")) {
    u64 worst_v = 0;
    u64 worst_seq = 0;
    for (const auto& [v, seq] : lat->exemplars) {
      if (seq != 0 && v >= worst_v) {
        worst_v = v;
        worst_seq = seq;
      }
    }
    if (worst_seq != 0) {
      std::printf("-- worst-latency exemplar: %llu ns at flight seq %llu\n",
                  static_cast<unsigned long long>(worst_v),
                  static_cast<unsigned long long>(worst_seq));
      for (usize i = 0; i < ev.size(); ++i) {
        if (ev[i].seq == worst_seq) {
          print_window(ev, std::max(i, half) - half,
                       std::min(ev.size(), i + half + 1), i);
          break;
        }
      }
    }
  }

  for (usize n = 0; n < dump.engines.size(); ++n) {
    const obs::pm::DumpEngine& eng = dump.engines[n];
    std::printf("-- engine %zu: submitted %llu, completed %llu, failed %llu, "
                "%zu shards\n",
                n, static_cast<unsigned long long>(eng.submitted),
                static_cast<unsigned long long>(eng.completed),
                static_cast<unsigned long long>(eng.failed),
                eng.shards.size());
  }

  if (!check) return kExitOk;

  std::printf("-- checks\n");
  Checker c;
  // Merged timeline: strictly increasing, so no duplicate and no lost
  // ordering across rings.
  bool monotone = true;
  for (usize i = 1; i < ev.size(); ++i) {
    if (ev[i].seq <= ev[i - 1].seq) monotone = false;
  }
  c.expect(monotone, "timeline strictly increasing", ev.size(), ev.size());
  // Ring accounting: stored == min(written, capacity) — no slot leaked.
  for (const obs::pm::DumpRing& r : dump.rings) {
    const u64 expect_stored =
        std::min<u64>(r.written, obs::FlightRecorder::kRingCapacity);
    // A slot mid-write at dump time is legitimately torn and skipped, so
    // allow stored to undershoot by the writer count (1 per ring).
    c.expect(r.stored == expect_stored || r.stored + 1 == expect_stored,
             "ring stored == min(written, capacity)", r.stored, expect_stored);
  }
  // Prometheus counters: submitted >= completed + failed (equality only at
  // quiescence; a dump can be taken mid-flight).
  const u64 submitted =
      counter_or_zero(dump, "kvx_engine_jobs_submitted_total");
  const u64 completed =
      counter_or_zero(dump, "kvx_engine_jobs_completed_total");
  const u64 failed = counter_or_zero(dump, "kvx_engine_job_failures_total");
  c.expect(submitted >= completed + failed,
           "counters submitted >= completed + failed", submitted,
           completed + failed);
  // Each engine's counter block holds the same invariant.
  for (const obs::pm::DumpEngine& eng : dump.engines) {
    c.expect(eng.submitted >= eng.completed + eng.failed,
             "engine submitted >= completed + failed", eng.submitted,
             eng.completed + eng.failed);
  }
  // Trace-cache accounting: live entries can never exceed the artifacts
  // ever compiled (compiles + fusions + lowerings + jit compiles).
  if (const obs::pm::DumpMetric* entries =
          find_metric(dump, "kvx_trace_cache_entries")) {
    const u64 built =
        counter_or_zero(dump, "kvx_trace_cache_compiles_total") +
        counter_or_zero(dump, "kvx_trace_cache_fusions_total") +
        counter_or_zero(dump, "kvx_hostsimd_lowerings_total") +
        counter_or_zero(dump, "kvx_jit_compiles_total");
    c.expect(static_cast<u64>(entries->gauge_value) <= built,
             "cache entries <= artifacts compiled",
             static_cast<u64>(entries->gauge_value), built);
  }
  // Every injected demotion must have an injector firing to blame — only
  // checkable when no ring wrapped or dropped (the firing may otherwise
  // have been overwritten).
  if (!wrapped) {
    u64 injected_demotions = 0;
    u64 injector_firings = 0;
    for (const FlightEvent& e : ev) {
      if (e.type() == FlightEventType::kBackendDemotion && e.a0 != 0) {
        ++injected_demotions;
      }
      if (e.type() == FlightEventType::kFaultInjected) ++injector_firings;
    }
    c.expect(injected_demotions <= injector_firings,
             "injected demotions <= injector firings", injected_demotions,
             injector_firings);
  }
  std::printf("-- %s\n", c.failures == 0 ? "all checks passed" : "CHECKS FAILED");
  return c.failures == 0 ? kExitOk : kExitFail;
}

int usage() {
  std::fprintf(stderr,
               "usage: kvx-doctor [--check] [--last N] DUMP.kvxdump...\n");
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  usize last = 16;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      check = true;
    } else if (arg == "--last") {
      if (i + 1 >= argc) return usage();
      last = cli::require_usize("kvx-doctor", "--last", argv[++i], 1,
                                usize{1} << 20);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return usage();
  int rc = kExitOk;
  for (const std::string& path : paths) {
    if (inspect(path, check, last) != kExitOk) rc = kExitFail;
  }
  return rc;
}
