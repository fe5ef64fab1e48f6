// Flight recorder + crash post-mortem tests: the always-on black box and
// the dump machinery it feeds.
//
// Covered here:
//  * recorder basics — sequence numbers are globally monotone, payloads
//    round-trip, disabled recording is a true no-op;
//  * the merged-timeline property under 8 concurrent writer threads: no
//    duplicated and no lost events, strictly increasing sequence order,
//    per-thread program order preserved;
//  * ring-wrap accounting (written keeps counting, stored caps at the ring
//    capacity, the snapshot holds the NEWEST events);
//  * dump_now() -> parse_dump() round-trip with a live engine: reason,
//    build info, events, metrics and the per-shard engine mirror all
//    survive the binary format;
//  * histogram exemplars — the bucket max carries its flight sequence;
//  * the Chrome/Perfetto export (kvx-batch --trace-out): valid JSON, 'X'
//    compile and dispatch spans with args, 'i' instants, disabled
//    recording leaves nothing, wrapped rings are reported; a jit engine
//    exports one span per compile tier and per dispatch; the payload
//    decoders agree with the simulator's own names;
//  * death tests: SIGABRT (and SIGSEGV where no sanitizer intercepts it)
//    leave a parseable crash dump with the right signal recorded.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "kvx/common/error.hpp"
#include "kvx/engine/batch_engine.hpp"
#include "kvx/obs/flight_recorder.hpp"
#include "kvx/obs/metrics.hpp"
#include "kvx/obs/postmortem.hpp"
#include "kvx/sim/compiled_trace.hpp"
#include "kvx/sim/exec_backend.hpp"
#include "kvx/sim/fault_injector.hpp"
#include "kvx/sim/host_simd.hpp"
#include "kvx/sim/jit/jit_trace.hpp"

namespace kvx {
namespace {

using obs::FlightEvent;
using obs::FlightEventType;
using obs::FlightRecorder;

/// Events recorded by THIS test are identified by a magic a0 tag — the
/// global recorder is shared with everything else in the process (engine
/// tests, cache instrumentation), so tests filter instead of assuming
/// exclusivity.
constexpr u64 kTag = 0x7465737464617461ull;

TEST(FlightRecorder, SequencesAreMonotoneAndPayloadsRoundTrip) {
  FlightRecorder& fr = FlightRecorder::global();
  const u64 s1 = fr.record(FlightEventType::kDispatch, 7, kTag, 42);
  const u64 s2 = fr.record(FlightEventType::kJobFail, 0, kTag, 43);
  ASSERT_NE(s1, 0u);
  EXPECT_GT(s2, s1);

  bool found = false;
  for (const FlightEvent& e : fr.snapshot_merged()) {
    if (e.seq != s1) continue;
    found = true;
    EXPECT_EQ(e.type(), FlightEventType::kDispatch);
    EXPECT_EQ(e.code, 7u);
    EXPECT_EQ(e.a0, kTag);
    EXPECT_EQ(e.a1, 42u);
    EXPECT_NE(e.ns, 0u);
  }
  EXPECT_TRUE(found);
}

TEST(FlightRecorder, DisabledRecordingIsANoOp) {
  FlightRecorder& fr = FlightRecorder::global();
  fr.set_enabled(false);
  const u64 s = fr.record(FlightEventType::kDispatch, 0, kTag, 99);
  fr.set_enabled(true);
  EXPECT_EQ(s, 0u);
  for (const FlightEvent& e : fr.snapshot_merged()) {
    EXPECT_FALSE(e.a0 == kTag && e.a1 == 99) << "disabled event recorded";
  }
}

TEST(FlightRecorder, EventNamesAreStable) {
  EXPECT_EQ(obs::flight_event_name(FlightEventType::kJobSubmit),
            "job_submit");
  EXPECT_EQ(obs::flight_event_name(FlightEventType::kBackendDemotion),
            "backend_demotion");
  EXPECT_EQ(obs::flight_event_name(FlightEventType::kFaultInjected),
            "fault_injected");
  EXPECT_EQ(obs::flight_event_name(FlightEventType::kQueueSteal),
            "queue_steal");
}

TEST(FlightRecorder, HashIsStableFnv1a) {
  // FNV-1a 64 known-answer: dumps written today must hash identically in
  // any future kvx-doctor.
  EXPECT_EQ(obs::flight_hash(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(obs::flight_hash("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(obs::flight_hash("injected fault"),
            obs::flight_hash(std::string("injected fault")));
  EXPECT_NE(obs::flight_hash("x"), obs::flight_hash("y"));
}

TEST(FlightRecorder, EightThreadMergeLosesNothingAndKeepsOrder) {
  constexpr unsigned kThreads = 8;
  constexpr u64 kPerThread = 200;  // < ring capacity: nothing may wrap away
  FlightRecorder& fr = FlightRecorder::global();
  const u64 start_seq = fr.record(FlightEventType::kDispatch, 1, kTag, 0);
  ASSERT_NE(start_seq, 0u);

  // Each thread claims its ring (first record) BEFORE the barrier: rings
  // are recycled at thread exit, so without this a fast thread could
  // finish and release its ring before a slow one's first record, which
  // would then reuse (and wrap) the same ring and legitimately lose
  // events. The claim event uses code 99 so the window filter drops it.
  std::atomic<unsigned> ready{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ready] {
      FlightRecorder::global().record(FlightEventType::kDispatch, 99, kTag,
                                      0);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (u64 i = 0; i < kPerThread; ++i) {
        // a1 encodes (thread, i) so the merged timeline can be checked for
        // per-thread program order after the fact.
        FlightRecorder::global().record(FlightEventType::kDispatch,
                                        static_cast<u16>(t + 100), kTag,
                                        (u64{t} << 32) | i);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const u64 end_seq = fr.record(FlightEventType::kDispatch, 2, kTag, 0);

  std::vector<FlightEvent> window;
  for (const FlightEvent& e : fr.snapshot_merged()) {
    if (e.seq > start_seq && e.seq < end_seq && e.a0 == kTag &&
        e.code >= 100) {
      window.push_back(e);
    }
  }
  // No lost events, no duplicates (snapshot_merged returns sorted order).
  ASSERT_EQ(window.size(), kThreads * kPerThread);
  u64 last_i[kThreads];
  bool seen[kThreads] = {};
  for (usize k = 0; k < window.size(); ++k) {
    if (k > 0) ASSERT_LT(window[k - 1].seq, window[k].seq);
    const unsigned t = static_cast<unsigned>(window[k].a1 >> 32);
    const u64 i = window[k].a1 & 0xFFFFFFFFull;
    ASSERT_LT(t, kThreads);
    if (seen[t]) {
      EXPECT_EQ(i, last_i[t] + 1) << "thread " << t << " order broken";
    } else {
      EXPECT_EQ(i, 0u);
      seen[t] = true;
    }
    last_i[t] = i;
  }
}

TEST(FlightRecorder, RingWrapKeepsNewestAndCountsWritten) {
  constexpr u64 kOverfill = FlightRecorder::kRingCapacity + 64;
  FlightRecorder& fr = FlightRecorder::global();
  std::atomic<u64> first_seq{0};
  std::atomic<u64> last_seq{0};
  // A dedicated thread gets a ring of its own; overfilling it wraps that
  // ring without disturbing this thread's.
  std::thread writer([&] {
    for (u64 i = 0; i < kOverfill; ++i) {
      const u64 s =
          fr.record(FlightEventType::kTraceCacheHit, 999, kTag, i);
      if (i == 0) first_seq.store(s);
      last_seq.store(s);
    }
  });
  writer.join();

  u64 survivors = 0;
  u64 min_i = kOverfill;
  u64 max_i = 0;
  for (const FlightEvent& e : fr.snapshot_merged()) {
    if (e.a0 == kTag && e.code == 999) {
      ++survivors;
      min_i = std::min(min_i, e.a1);
      max_i = std::max(max_i, e.a1);
    }
  }
  // Exactly one ring's worth survives and it is the NEWEST window.
  EXPECT_EQ(survivors, FlightRecorder::kRingCapacity);
  EXPECT_EQ(max_i, kOverfill - 1);
  EXPECT_EQ(min_i, kOverfill - FlightRecorder::kRingCapacity);
  EXPECT_EQ(last_seq.load() - first_seq.load(), kOverfill - 1);
}

TEST(Histogram, ExemplarTracksBucketMaxFlightSeq) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat", "", {100, 200});
  h.observe_exemplar(50, 7);    // bucket 0
  h.observe_exemplar(90, 8);    // bucket 0: new max 90 -> seq 8
  h.observe_exemplar(60, 9);    // bucket 0: not a max, seq stays 8
  h.observe_exemplar(150, 11);  // bucket 1
  h.observe(175);               // no exemplar: must not clobber seq 11
  const auto ex = h.exemplars();
  ASSERT_EQ(ex.size(), 3u);
  EXPECT_EQ(ex[0].value, 90u);
  EXPECT_EQ(ex[0].flight_seq, 8u);
  EXPECT_EQ(ex[1].value, 150u);
  EXPECT_EQ(ex[1].flight_seq, 11u);
  EXPECT_EQ(ex[2].flight_seq, 0u);  // +Inf bucket untouched
}

// ---------------------------------------------------------------------------
// Chrome trace export

/// Minimal JSON syntax checker (objects, arrays, strings, numbers,
/// literals) — enough to prove the exporter's output parses without
/// pulling a JSON library into the tests.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}
  bool valid() {
    ws();
    if (!value()) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  bool at(char c) const { return i_ < s_.size() && s_[i_] == c; }
  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool value() {
    if (at('{')) return container('}', /*object=*/true);
    if (at('[')) return container(']', /*object=*/false);
    if (at('"')) return string();
    for (const std::string_view lit : {"true", "false", "null"}) {
      if (s_.substr(i_, lit.size()) == lit) {
        i_ += lit.size();
        return true;
      }
    }
    return number();
  }
  bool container(char close, bool object) {
    ++i_;
    ws();
    if (at(close)) return ++i_, true;
    for (;;) {
      if (object) {
        if (!string()) return false;
        ws();
        if (!at(':')) return false;
        ++i_;
        ws();
      }
      if (!value()) return false;
      ws();
      if (at(close)) return ++i_, true;
      if (!at(',')) return false;
      ++i_;
      ws();
    }
  }
  bool string() {
    if (!at('"')) return false;
    for (++i_; i_ < s_.size(); ++i_) {
      if (s_[i_] == '\\') {
        ++i_;
      } else if (s_[i_] == '"') {
        return ++i_, true;
      } else if (static_cast<unsigned char>(s_[i_]) < 0x20) {
        return false;
      }
    }
    return false;
  }
  bool number() {
    const usize start = i_;
    if (at('-')) ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            std::strchr(".eE+-", s_[i_]) != nullptr)) {
      ++i_;
    }
    return i_ > start &&
           std::isdigit(static_cast<unsigned char>(s_[i_ - 1])) != 0;
  }

  std::string_view s_;
  usize i_ = 0;
};

usize count(const std::string& hay, const std::string& needle) {
  usize n = 0;
  for (usize p = hay.find(needle); p != std::string::npos;
       p = hay.find(needle, p + 1)) {
    ++n;
  }
  return n;
}

FlightEvent event(u64 seq, u64 ns, FlightEventType type, u32 ring,
                  u16 code = 0, u64 a0 = 0, u64 a1 = 0) {
  FlightEvent e;
  e.seq = seq;
  e.ns = ns;
  e.type_raw = static_cast<u16>(type);
  e.code = code;
  e.ring = ring;
  e.a0 = a0;
  e.a1 = a1;
  return e;
}

TEST(ChromeTrace, SpansInstantsAndDropsFormValidJson) {
  const u16 jit_to_hs = (4 << 8) | 3;
  const std::vector<FlightEvent> events = {
      // jit emission that took 2 µs and finished at ns 5000.
      event(1, 5000, FlightEventType::kTraceCompile, 0, 3, 2000),
      event(2, 3000, FlightEventType::kDispatch, 1, 0, 4, 1),
      event(3, 4000, FlightEventType::kBackendDemotion, 1, jit_to_hs, 1, 0xAB),
      event(4, 7000, FlightEventType::kJobRetire, 1, 1, 10, 4),
      // In flight (or its retire was overwritten): stays an instant.
      event(5, 8000, FlightEventType::kDispatch, 2, 0, 2, 0),
      event(6, 9000, FlightEventType::kQueuePark, 2, 1),
  };
  const std::vector<FlightRecorder::RingInfo> rings = {
      {0, 1, 1}, {1, FlightRecorder::kRingCapacity + 76,
                  FlightRecorder::kRingCapacity}};
  const std::string json = obs::chrome_trace_json(events, rings, 3);

  // The checker itself rejects the slips a hand-rolled writer makes.
  EXPECT_FALSE(JsonChecker("{\"a\":[1,],\"b\":2}").valid());
  EXPECT_FALSE(JsonChecker("{\"a\":1}{").valid());
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  // ts counts µs from the earliest start (the compile span's, 3000 ns).
  EXPECT_NE(json.find("\"ph\":\"X\",\"cat\":\"cache\",\"name\":\"jit_emit\","
                      "\"pid\":1,\"tid\":0,\"ts\":0.000,\"dur\":2.000,"
                      "\"args\":{\"seq\":1,\"tier\":\"jit\"}}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ph\":\"X\",\"cat\":\"engine\",\"name\":\"dispatch\","
                      "\"pid\":1,\"tid\":1,\"ts\":0.000,\"dur\":4.000,"
                      "\"args\":{\"seq\":2,\"jobs\":4,\"shard\":1,"
                      "\"failed\":1}}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ph\":\"i\",\"cat\":\"sim\","
                      "\"name\":\"backend_demotion\",\"pid\":1,\"tid\":1,"
                      "\"ts\":1.000,\"args\":{\"seq\":3,\"from\":\"jit\","
                      "\"to\":\"host-simd\",\"injected\":true,"
                      "\"err_hash\":\"00000000000000ab\"}}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"job_retire\",\"pid\":1,\"tid\":1,"
                      "\"ts\":4.000,\"args\":{\"seq\":4,\"first_seq\":10,"
                      "\"jobs\":4,\"failed\":1}}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ph\":\"i\",\"cat\":\"engine\",\"name\":\"dispatch\","
                      "\"pid\":1,\"tid\":2,\"ts\":5.000,"
                      "\"args\":{\"seq\":5,\"jobs\":2,\"shard\":0}}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"args\":{\"seq\":6,\"side\":\"producer\"}"),
            std::string::npos);
  EXPECT_EQ(count(json, "\"ph\":\"X\""), 2u);
  // Truncation is never silent: ring 1 wrapped by 76 events, 3 events
  // found no ring at all (reported on the pseudo-track kMaxRings).
  EXPECT_NE(json.find("\"name\":\"kvx_dropped_events\",\"pid\":1,\"tid\":1,"
                      "\"ts\":0.000,\"args\":{\"dropped\":76}}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"tid\":" + std::to_string(FlightRecorder::kMaxRings) +
                      ",\"ts\":0.000,\"args\":{\"dropped\":3}}"),
            std::string::npos)
      << json;
  EXPECT_EQ(count(json, "kvx_dropped_events"), 2u);

  const std::string empty = obs::chrome_trace_json({});
  EXPECT_TRUE(JsonChecker(empty).valid()) << empty;
  EXPECT_EQ(empty.find("kvx_dropped_events"), std::string::npos);
}

TEST(ChromeTrace, DisabledRecordingExportsNothing) {
  FlightRecorder& fr = FlightRecorder::global();
  fr.set_enabled(false);
  (void)fr.record(FlightEventType::kJobSubmit, 0, kTag, 0xD15AB1ED);
  fr.set_enabled(true);
  (void)fr.record(FlightEventType::kJobSubmit, 0, kTag, 0xE4AB1ED);
  const std::string json = fr.chrome_trace_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_EQ(json.find(std::to_string(0xD15AB1EDull)), std::string::npos);
  EXPECT_NE(json.find(std::to_string(0xE4AB1EDull)), std::string::npos);
}

TEST(ChromeTrace, WrappedLiveRingReportsDroppedEvents) {
  FlightRecorder& fr = FlightRecorder::global();
  std::thread writer([&] {
    for (u64 i = 0; i < FlightRecorder::kRingCapacity + 100; ++i) {
      (void)fr.record(FlightEventType::kTraceCacheHit, 0, kTag, i);
    }
  });
  writer.join();

  std::vector<FlightRecorder::RingInfo> rings;
  const std::vector<FlightEvent> events = fr.snapshot_merged(&rings);
  const std::string json = obs::chrome_trace_json(events, rings, fr.dropped());
  EXPECT_TRUE(JsonChecker(json).valid());
  usize wrapped = 0;
  for (const FlightRecorder::RingInfo& r : rings) {
    if (r.written == r.stored) continue;
    ++wrapped;
    EXPECT_EQ(r.stored, FlightRecorder::kRingCapacity);
    EXPECT_NE(json.find("\"name\":\"kvx_dropped_events\",\"pid\":1,\"tid\":" +
                        std::to_string(r.index) + ",\"ts\":0.000,\"args\":{"
                        "\"dropped\":" + std::to_string(r.written - r.stored) +
                        "}}"),
              std::string::npos);
  }
  EXPECT_GE(wrapped, 1u);
  EXPECT_NE(fr.chrome_trace_json().find("kvx_dropped_events"),
            std::string::npos);
}

bool jit_emits_on_this_host() {
  return sim::jit_supported() &&
         (sim::host_simd_isa_available(sim::HostSimdIsa::kAvx2) ||
          sim::host_simd_isa_available(sim::HostSimdIsa::kAvx512));
}

TEST(ChromeTrace, JitEngineExportsEveryCompileTierAndDispatch) {
  if (!jit_emits_on_this_host()) {
    GTEST_SKIP() << "jit backend cannot emit on this build/host";
  }
  // A cold cache makes the engine's warm-up run all four build stages.
  sim::TraceCache::global().clear();
  FlightRecorder& fr = FlightRecorder::global();
  const u64 start = fr.record(FlightEventType::kJobSubmit, 0, kTag, 0);
  {
    engine::EngineConfig cfg;
    cfg.threads = 2;
    cfg.accel = {core::Arch::k64Lmul8, 15, 24};
    cfg.accel.backend = sim::ExecBackend::kJit;
    engine::BatchHashEngine engine(cfg);
    std::vector<engine::HashJob> jobs(24);
    for (usize i = 0; i < jobs.size(); ++i) {
      jobs[i].algo = engine::Algo::kSha3_256;
      jobs[i].message.assign(100 + i, static_cast<u8>(i));
    }
    engine.submit_all(jobs);
    for (const auto& r : engine.drain_results()) ASSERT_TRUE(r.ok()) << r.error;
  }

  std::vector<FlightEvent> window;
  for (const FlightEvent& e : fr.snapshot_merged()) {
    if (e.seq > start) window.push_back(e);
  }
  // Build-stage codes follow the cache's build order on a cold jit lookup:
  // record, fuse, lower, emit — each records on completion.
  std::vector<std::string_view> tiers;
  usize dispatches = 0;
  for (const FlightEvent& e : window) {
    if (e.type() == FlightEventType::kTraceCompile) {
      tiers.push_back(obs::artifact_tier_name(e.code));
    }
    if (e.type() == FlightEventType::kDispatch) ++dispatches;
  }
  EXPECT_EQ(tiers, (std::vector<std::string_view>{"trace", "fused",
                                                  "host-simd", "jit"}));

  const std::string json = obs::chrome_trace_json(window);
  EXPECT_TRUE(JsonChecker(json).valid());
  for (const char* name :
       {"trace_compile", "trace_fuse", "host_simd_lower", "jit_emit"}) {
    EXPECT_EQ(count(json, std::string("\"ph\":\"X\",\"cat\":\"cache\","
                                      "\"name\":\"") + name + "\""),
              1u)
        << name;
  }
  EXPECT_GT(dispatches, 0u);
  EXPECT_EQ(
      count(json, "\"ph\":\"X\",\"cat\":\"engine\",\"name\":\"dispatch\""),
      dispatches);
}

TEST(FlightDecoders, AgreeWithSimulatorNames) {
  using sim::ExecBackend;
  for (const ExecBackend b :
       {ExecBackend::kInterpreter, ExecBackend::kHostSimd, ExecBackend::kJit}) {
    EXPECT_EQ(obs::backend_tier_name(static_cast<u16>(b)),
              sim::backend_name(b));
  }
  // Codes 1 and 2 are unassigned; the others are never renumbered.
  for (const u16 gone : {u16{1}, u16{2}}) {
    EXPECT_EQ(obs::backend_tier_name(gone), "?");
  }
  EXPECT_EQ(obs::backend_tier_name(static_cast<u16>(ExecBackend::kJit) + 1),
            "?");
  // Build stages are named by the artifact each produces.
  EXPECT_EQ(obs::artifact_tier_name(0), "trace");
  EXPECT_EQ(obs::artifact_tier_name(1), "fused");
  EXPECT_EQ(obs::artifact_tier_name(2), "host-simd");
  EXPECT_EQ(obs::artifact_tier_name(3), "jit");
  EXPECT_EQ(obs::artifact_tier_name(4), "?");
  EXPECT_EQ(obs::fault_kind_name(
                static_cast<u16>(sim::FaultKind::kRegfileBitFlip)),
            "regfile_bit_flip");
  EXPECT_EQ(
      obs::fault_kind_name(static_cast<u16>(sim::FaultKind::kCompileFail)),
      "compile_fail");
  EXPECT_EQ(obs::fault_site_name(
                static_cast<u64>(sim::FaultSite::kTraceCompile)),
            "trace_compile");
  EXPECT_EQ(obs::fault_site_name(static_cast<u64>(sim::FaultSite::kExecute)),
            "execute");
}

// ---------------------------------------------------------------------------
// Dump round-trip

std::string fresh_dump_dir(const char* tag) {
  const std::string dir =
      testing::TempDir() + "kvx_fr_" + tag + "_" +
      std::to_string(static_cast<unsigned long long>(::getpid()));
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

TEST(Postmortem, DumpNowRoundTripsThroughParse) {
  const std::string dir = fresh_dump_dir("roundtrip");
  obs::pm::set_dump_dir(dir);

  engine::EngineConfig cfg;
  cfg.threads = 2;
  cfg.accel = {core::Arch::k64Lmul8, 15, 24};
  engine::BatchHashEngine engine(cfg);
  std::vector<engine::HashJob> jobs(9);
  for (usize i = 0; i < jobs.size(); ++i) {
    jobs[i].algo = engine::Algo::kSha3_256;
    jobs[i].message.assign(64, static_cast<u8>(i));
  }
  engine.submit_all(jobs);
  const auto results = engine.drain_results();
  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.error;

  const std::string path = obs::pm::dump_now("unit_test");
  ASSERT_FALSE(path.empty());
  const obs::pm::PostmortemDump dump = obs::pm::parse_dump(path);

  EXPECT_EQ(dump.version, obs::pm::kDumpVersion);
  EXPECT_EQ(dump.pid, static_cast<u64>(::getpid()));
  EXPECT_EQ(dump.signal, 0);
  EXPECT_EQ(dump.reason, "unit_test");
  EXPECT_NE(dump.build_info.find("version="), std::string::npos);
  EXPECT_NE(dump.build_info.find("compiler="), std::string::npos);

  // Events: non-empty, strictly increasing (merged timeline contract).
  ASSERT_FALSE(dump.events.empty());
  for (usize i = 1; i < dump.events.size(); ++i) {
    ASSERT_GT(dump.events[i].seq, dump.events[i - 1].seq);
  }

  // Metrics: the engine counters made it through the binary format.
  const obs::pm::DumpMetric* submitted = nullptr;
  const obs::pm::DumpMetric* latency = nullptr;
  for (const obs::pm::DumpMetric& m : dump.metrics) {
    if (m.name == "kvx_engine_jobs_submitted_total") submitted = &m;
    if (m.name == "kvx_engine_job_latency_ns") latency = &m;
  }
  ASSERT_NE(submitted, nullptr);
  EXPECT_GE(submitted->counter_value, jobs.size());
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->bucket_counts.size(), latency->bounds.size() + 1);
  EXPECT_EQ(latency->exemplars.size(), latency->bounds.size() + 1);

  // Engine mirror: this engine is still alive, so its mirror must be in
  // the dump with the exact totals.
  ASSERT_FALSE(dump.engines.empty());
  bool mirror_found = false;
  for (const obs::pm::DumpEngine& e : dump.engines) {
    if (e.submitted == jobs.size() && e.completed == jobs.size() &&
        e.failed == 0 && e.shards.size() == 2) {
      mirror_found = true;
      u64 shard_jobs = 0;
      for (const obs::pm::DumpShard& s : e.shards) shard_jobs += s.jobs;
      EXPECT_EQ(shard_jobs, jobs.size());
    }
  }
  EXPECT_TRUE(mirror_found);
  std::remove(path.c_str());
}

/// Every *.kvxdump file inside `dir`.
std::vector<std::string> list_dumps(const std::string& dir) {
  std::vector<std::string> dumps;
  std::FILE* ls = ::popen(("ls " + dir).c_str(), "r");
  if (ls == nullptr) return dumps;
  char name[512];
  while (std::fscanf(ls, "%511s", name) == 1) {
    const std::string_view n(name);
    if (n.size() > 8 && n.substr(n.size() - 8) == ".kvxdump") {
      dumps.push_back(dir + "/" + name);
    }
  }
  ::pclose(ls);
  return dumps;
}

TEST(Postmortem, FaultedJitEngineAutoDumpPassesDoctorCheck) {
  // Sim faults at every dispatch walk a jit engine down the whole chain:
  // jit -> host-simd -> interpreter, where the job fails. The auto dumps
  // that provokes must pass kvx-doctor --check, and their demotion events
  // must decode as exactly those two steps (on a host that cannot emit,
  // the first step happens at construction instead).
  const std::string dir = fresh_dump_dir("faulted_jit");
  for (const std::string& stale : list_dumps(dir)) std::remove(stale.c_str());
  obs::pm::set_dump_dir(dir);
  {
    engine::EngineConfig cfg;
    cfg.threads = 1;
    cfg.accel = {core::Arch::k64Lmul8, 15, 24};
    cfg.accel.backend = sim::ExecBackend::kJit;
    sim::FaultPlan plan;
    plan.rate = 1.0;
    plan.kinds = static_cast<u32>(sim::FaultKind::kSimFault);
    cfg.accel.fault_injector = std::make_shared<sim::FaultInjector>(plan);
    engine::BatchHashEngine engine(cfg);
    std::vector<engine::HashJob> jobs(2);
    for (engine::HashJob& job : jobs) {
      job.algo = engine::Algo::kSha3_256;
      job.message.assign(40, 0x5A);
    }
    engine.submit_all(jobs);
    for (const auto& r : engine.drain_results()) EXPECT_FALSE(r.ok());
  }
  obs::pm::set_auto_dump(false);

  const std::vector<std::string> dumps = list_dumps(dir);
  ASSERT_FALSE(dumps.empty()) << "no auto dump in " << dir;
  std::vector<std::pair<std::string_view, std::string_view>> steps;
  for (const std::string& path : dumps) {
    const obs::pm::PostmortemDump dump = obs::pm::parse_dump(path);
    for (const FlightEvent& e : dump.events) {
      if (e.type() != FlightEventType::kBackendDemotion) continue;
      const auto from = static_cast<u16>(e.code >> 8);
      const auto to = static_cast<u16>(e.code & 0xFF);
      const std::pair step{obs::backend_tier_name(from),
                           obs::backend_tier_name(to)};
      if (std::find(steps.begin(), steps.end(), step) == steps.end()) {
        steps.push_back(step);
      }
    }
#ifdef KVX_DOCTOR_PATH
    const std::string cmd = std::string(KVX_DOCTOR_PATH) + " --check " +
                            path + " > /dev/null";
    EXPECT_EQ(std::system(cmd.c_str()), 0) << "kvx-doctor --check " << path;
#endif
    std::remove(path.c_str());
  }
  using Step = std::pair<std::string_view, std::string_view>;
  EXPECT_NE(std::find(steps.begin(), steps.end(), Step{"jit", "host-simd"}),
            steps.end());
  EXPECT_NE(std::find(steps.begin(), steps.end(),
                      Step{"host-simd", "interpreter"}),
            steps.end());
  for (const Step& step : steps) {
    EXPECT_NE(step.first, "?");
    EXPECT_NE(step.second, "?");
  }
}

TEST(Postmortem, ParseRejectsGarbage) {
  const std::string dir = fresh_dump_dir("garbage");
  const std::string path = dir + "/not_a_dump.kvxdump";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a post-mortem dump at all", f);
  std::fclose(f);
  EXPECT_THROW(obs::pm::parse_dump(path), Error);
  EXPECT_THROW(obs::pm::parse_dump(dir + "/missing.kvxdump"), Error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Crash-path death tests. Each runs in a forked child (threadsafe style);
// the parent then parses the dump the dying child left behind.

class PostmortemDeathTest : public testing::Test {
 protected:
  void SetUp() override {
    // fork+exec style: the child re-runs from main(), so it cannot inherit
    // this process's threads mid-state (the engine tests leave workers).
    testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

/// The single *_crash.kvxdump inside `dir` (each death test uses a private
/// directory, so the one crash dump in it is the dead child's).
std::string find_crash_dump(const std::string& dir) {
  std::string crash_path;
  std::FILE* ls = ::popen(("ls " + dir).c_str(), "r");
  if (ls == nullptr) return crash_path;
  char name[512];
  while (std::fscanf(ls, "%511s", name) == 1) {
    if (std::string(name).find("_crash.kvxdump") != std::string::npos) {
      crash_path = dir + "/" + name;
    }
  }
  ::pclose(ls);
  return crash_path;
}

/// Death tests need a dump directory WITHOUT the pid in its name: the
/// threadsafe-style child re-runs the test body from main(), so a
/// pid-derived path would differ between the child (which writes the
/// dump) and the parent (which looks for it). Stale crash dumps from
/// earlier runs are removed so the one found afterwards is fresh.
std::string fixed_dump_dir(const char* tag) {
  const std::string dir = testing::TempDir() + "kvx_fr_" + tag;
  ::mkdir(dir.c_str(), 0755);
  for (std::string stale = find_crash_dump(dir); !stale.empty();
       stale = find_crash_dump(dir)) {
    std::remove(stale.c_str());
  }
  return dir;
}

TEST_F(PostmortemDeathTest, SigabrtLeavesParseableCrashDump) {
  const std::string dir = fixed_dump_dir("abrt");
  EXPECT_EXIT(
      {
        obs::pm::set_dump_dir(dir);
        obs::pm::install_crash_handler();
        // Stamp one recognizable event so the dump provably carries the
        // pre-crash timeline.
        obs::FlightRecorder::global().record(FlightEventType::kJobFail, 0,
                                             kTag, 0xABCD);
        std::abort();
      },
      testing::KilledBySignal(SIGABRT), "");

  const std::string crash_path = find_crash_dump(dir);
  ASSERT_FALSE(crash_path.empty()) << "no crash dump in " << dir;

  const obs::pm::PostmortemDump dump = obs::pm::parse_dump(crash_path);
  EXPECT_EQ(dump.signal, SIGABRT);
  EXPECT_NE(dump.reason.find("signal"), std::string::npos);
  bool stamped = false;
  for (const FlightEvent& e : dump.events) {
    if (e.type() == FlightEventType::kJobFail && e.a0 == kTag &&
        e.a1 == 0xABCD) {
      stamped = true;
    }
  }
  EXPECT_TRUE(stamped);
  std::remove(crash_path.c_str());
}

// Sanitizers intercept SIGSEGV for their own reporting, so the handler
// never runs there; SIGABRT above covers the crash path under sanitizers.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define KVX_SANITIZER_OWNS_SIGSEGV 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define KVX_SANITIZER_OWNS_SIGSEGV 1
#endif

#if !defined(KVX_SANITIZER_OWNS_SIGSEGV)
TEST_F(PostmortemDeathTest, SigsegvLeavesParseableCrashDump) {
  const std::string dir = fixed_dump_dir("segv");
  EXPECT_EXIT(
      {
        obs::pm::set_dump_dir(dir);
        obs::pm::install_crash_handler();
        volatile int* p = nullptr;
        *p = 1;  // NOLINT: intentional crash
      },
      testing::KilledBySignal(SIGSEGV), "");

  const std::string crash_path = find_crash_dump(dir);
  ASSERT_FALSE(crash_path.empty()) << "no crash dump in " << dir;
  const obs::pm::PostmortemDump dump = obs::pm::parse_dump(crash_path);
  EXPECT_EQ(dump.signal, SIGSEGV);
  std::remove(crash_path.c_str());
}
#endif

}  // namespace
}  // namespace kvx
