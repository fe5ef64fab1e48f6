#include "kvx/obs/postmortem.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "kvx/common/error.hpp"

namespace kvx::obs::pm {

namespace {

// ---------------------------------------------------------------------------
// Configuration state. Everything the signal handler touches is either an
// atomic or a fixed buffer that is only mutated from normal context before
// the handler can fire (set_dump_dir/install happen at startup in practice;
// a torn path in a true startup race yields a failed open(), not UB).

constexpr usize kDirMax = 512;
constexpr usize kPathMax = 640;
constexpr usize kBuildInfoMax = 1024;
constexpr usize kReasonMax = 256;

char g_dump_dir[kDirMax] = ".";
std::atomic<bool> g_auto_dump{false};
std::atomic<u64> g_auto_cap{4};
std::atomic<u64> g_dumps_written{0};
std::atomic<u64> g_auto_dumps_written{0};

char g_build_info[kBuildInfoMax];
std::atomic<usize> g_build_info_len{0};

/// Crash path pre-rendered at install time so the handler never formats.
char g_crash_path[kPathMax];
std::atomic<bool> g_crash_path_ready{false};
std::atomic<u32> g_crash_dump_active{0};  ///< double-fault guard

std::atomic<bool> g_handler_installed{false};
std::terminate_handler g_prev_terminate = nullptr;

// ---------------------------------------------------------------------------
// Async-signal-safe writer: raw fd, fixed buffer, EINTR retries. Every
// helper is noexcept and allocation-free; both the crash handler and
// dump_now() use it so the two paths can never diverge in format.

class Writer {
 public:
  explicit Writer(int fd) noexcept : fd_(fd) {}
  ~Writer() { flush(); }

  void put_bytes(const void* data, usize len) noexcept {
    const char* p = static_cast<const char*>(data);
    while (len > 0) {
      const usize room = sizeof buf_ - used_;
      if (room == 0) {
        flush();
        continue;
      }
      const usize take = len < room ? len : room;
      std::memcpy(buf_ + used_, p, take);
      used_ += take;
      p += take;
      len -= take;
    }
  }
  void put_u32(u32 v) noexcept { put_bytes(&v, sizeof v); }
  void put_u64(u64 v) noexcept { put_bytes(&v, sizeof v); }
  void put_f64(double v) noexcept { put_bytes(&v, sizeof v); }

  void flush() noexcept {
    usize off = 0;
    while (off < used_) {
      const ssize_t n = ::write(fd_, buf_ + off, used_ - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        ok_ = false;
        break;
      }
      off += static_cast<usize>(n);
    }
    used_ = 0;
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  int fd_;
  char buf_[512];
  usize used_ = 0;
  bool ok_ = true;
};

/// Minimal unsigned decimal formatter (snprintf is not signal-safe).
usize format_u64(u64 v, char* out, usize cap) noexcept {
  char tmp[20];
  usize n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  if (n > cap) return 0;
  for (usize i = 0; i < n; ++i) out[i] = tmp[n - 1 - i];
  return n;
}

/// Build "<dir>/kvx_postmortem_<pid>_<tag>.kvxdump" into `out`. `tag` is
/// either a literal ("crash") or a dump ordinal. Signal-safe.
bool build_path(char* out, usize cap, const char* dir, u64 pid,
                const char* tag_str, u64 tag_num, bool use_num) noexcept {
  usize pos = 0;
  const auto append = [&](const char* s) {
    const usize len = std::strlen(s);
    if (pos + len >= cap) return false;
    std::memcpy(out + pos, s, len);
    pos += len;
    return true;
  };
  const auto append_num = [&](u64 v) {
    char digits[20];
    const usize len = format_u64(v, digits, sizeof digits);
    if (len == 0 || pos + len >= cap) return false;
    std::memcpy(out + pos, digits, len);
    pos += len;
    return true;
  };
  if (!append(dir) || !append("/kvx_postmortem_") || !append_num(pid) ||
      !append("_")) {
    return false;
  }
  if (use_num ? !append_num(tag_num) : !append(tag_str)) return false;
  if (!append(".kvxdump")) return false;
  out[pos] = '\0';
  return true;
}

// ---------------------------------------------------------------------------
// Section payloads. Each section is written in two passes over the same
// data: size_*() computes payload_bytes for the section header, write_*()
// emits it. State that could move between the passes (ring `written`
// cursors, metric count) is captured once up front so header and payload
// always agree; slots that advance mid-write only change *values*, and
// torn slots are emitted as zero records the parser skips.

struct EventsPlan {
  usize ring_count = 0;
  u64 stored[FlightRecorder::kMaxRings];
  u64 written[FlightRecorder::kMaxRings];
  u32 index[FlightRecorder::kMaxRings];
};

void plan_events(EventsPlan& plan) noexcept {
  const FlightRecorder& rec = FlightRecorder::global();
  const usize n = rec.ring_count();
  plan.ring_count = 0;
  for (usize i = 0; i < n && i < FlightRecorder::kMaxRings; ++i) {
    const FlightRecorder::Ring* ring = rec.ring_at(i);
    if (ring == nullptr) continue;
    const u64 written = ring->written.load(std::memory_order_acquire);
    const usize k = plan.ring_count++;
    plan.index[k] = ring->index;
    plan.written[k] = written;
    plan.stored[k] = written < FlightRecorder::kRingCapacity
                         ? written
                         : FlightRecorder::kRingCapacity;
  }
}

u64 size_events(const EventsPlan& plan) noexcept {
  u64 bytes = 8;  // ring_count + dropped_lo
  for (usize i = 0; i < plan.ring_count; ++i) {
    bytes += 8 + 16 + plan.stored[i] * 40;
  }
  return bytes;
}

void write_events(Writer& w, const EventsPlan& plan) noexcept {
  const FlightRecorder& rec = FlightRecorder::global();
  w.put_u32(static_cast<u32>(plan.ring_count));
  w.put_u32(static_cast<u32>(rec.dropped() & 0xFFFFFFFFull));
  for (usize i = 0; i < plan.ring_count; ++i) {
    w.put_u32(plan.index[i]);
    w.put_u32(0);
    w.put_u64(plan.written[i]);
    w.put_u64(plan.stored[i]);
    const FlightRecorder::Ring* ring = rec.ring_at(plan.index[i]);
    for (u64 s = 0; s < plan.stored[i]; ++s) {
      if (ring == nullptr) {  // unreachable (rings are never freed)
        for (int f = 0; f < 5; ++f) w.put_u64(0);
        continue;
      }
      const FlightRecorder::Slot& slot = ring->slots[s];
      const u64 seq0 = slot.seq.load(std::memory_order_acquire);
      const u64 ns = slot.ns.load(std::memory_order_relaxed);
      const u64 meta = slot.meta.load(std::memory_order_relaxed);
      const u64 a0 = slot.a0.load(std::memory_order_relaxed);
      const u64 a1 = slot.a1.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_acquire) != seq0) {
        for (int f = 0; f < 5; ++f) w.put_u64(0);  // torn: zero record
        continue;
      }
      w.put_u64(seq0);
      w.put_u64(ns);
      w.put_u64(meta);
      w.put_u64(a0);
      w.put_u64(a1);
    }
  }
}

u64 metric_payload_bytes(const MetricsRegistry::PmRead& m) noexcept {
  u64 bytes = 16 + m.name_len;  // kind + name_len + bounds_len + pad + name
  switch (m.kind) {
    case MetricSample::Kind::kCounter:
    case MetricSample::Kind::kGauge:
      bytes += 8;
      break;
    case MetricSample::Kind::kHistogram:
      // bounds | per-bucket counts | sum | per-bucket (ex_value, ex_seq)
      bytes += m.bounds_len * 8 + (m.bounds_len + 1) * 8 + 8 +
               (m.bounds_len + 1) * 16;
      break;
  }
  return bytes;
}

u64 size_metrics(usize count) noexcept {
  u64 bytes = 4;  // count
  MetricsRegistry::PmRead m;
  const MetricsRegistry& reg = MetricsRegistry::global();
  for (usize i = 0; i < count; ++i) {
    if (!reg.pm_read(i, m)) continue;
    bytes += metric_payload_bytes(m);
  }
  return bytes;
}

void write_metrics(Writer& w, usize count) noexcept {
  w.put_u32(static_cast<u32>(count));
  MetricsRegistry::PmRead m;
  const MetricsRegistry& reg = MetricsRegistry::global();
  for (usize i = 0; i < count; ++i) {
    if (!reg.pm_read(i, m)) {
      // Keep header/payload agreement: emit an empty counter.
      w.put_u32(static_cast<u32>(MetricSample::Kind::kCounter));
      w.put_u32(0);
      w.put_u32(0);
      w.put_u32(0);
      w.put_u64(0);
      continue;
    }
    w.put_u32(static_cast<u32>(m.kind));
    w.put_u32(static_cast<u32>(m.name_len));
    w.put_u32(static_cast<u32>(m.bounds_len));
    w.put_u32(0);
    w.put_bytes(m.name, m.name_len);
    switch (m.kind) {
      case MetricSample::Kind::kCounter:
        w.put_u64(m.counter_value);
        break;
      case MetricSample::Kind::kGauge:
        w.put_f64(m.gauge_value);
        break;
      case MetricSample::Kind::kHistogram: {
        for (usize b = 0; b < m.bounds_len; ++b) w.put_u64(m.bounds[b]);
        for (usize b = 0; b <= m.bounds_len; ++b) {
          // bounds_len == 0 means fill_pm overflowed: one zero +Inf bucket.
          w.put_u64(m.bounds_len == 0 ? 0 : m.counts[b]);
        }
        w.put_u64(m.sum);
        for (usize b = 0; b <= m.bounds_len; ++b) {
          w.put_u64(m.bounds_len == 0 ? 0 : m.ex_value[b]);
          w.put_u64(m.bounds_len == 0 ? 0 : m.ex_seq[b]);
        }
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Engine counter pool.

EngineCounters g_engines[kMaxEngines];

usize count_engines() noexcept {
  usize n = 0;
  for (const auto& m : g_engines) {
    if (m.in_use.load(std::memory_order_acquire) != 0) ++n;
  }
  return n;
}

u64 size_engines() noexcept {
  u64 bytes = 4;
  for (const auto& m : g_engines) {
    if (m.in_use.load(std::memory_order_acquire) == 0) continue;
    const u32 shards = m.shard_count.load(std::memory_order_relaxed);
    bytes += 8 + 24 + static_cast<u64>(shards) * 56;
  }
  return bytes;
}

void write_engines(Writer& w) noexcept {
  w.put_u32(static_cast<u32>(count_engines()));
  for (const auto& m : g_engines) {
    if (m.in_use.load(std::memory_order_acquire) == 0) continue;
    const u32 shards = m.shard_count.load(std::memory_order_relaxed);
    // Retirements before submissions (the engine's stats() order), so a
    // mid-flight dump still shows completed + failed <= submitted.
    const u64 completed = m.completed.load(std::memory_order_acquire);
    const u64 failed = m.failed.load(std::memory_order_acquire);
    const u64 submitted = m.submitted.load(std::memory_order_relaxed);
    w.put_u32(shards);
    w.put_u32(0);
    w.put_u64(submitted);
    w.put_u64(completed);
    w.put_u64(failed);
    for (u32 s = 0; s < shards && s < kMaxShards; ++s) {
      const ShardCounters& sh = m.shards[s];
      w.put_u64(sh.jobs.load(std::memory_order_relaxed));
      w.put_u64(sh.failures.load(std::memory_order_relaxed));
      w.put_u64(sh.fallbacks.load(std::memory_order_relaxed));
      w.put_u64(sh.dispatches.load(std::memory_order_relaxed));
      w.put_u64(sh.sim_cycles.load(std::memory_order_relaxed));
      w.put_u64(sh.permutations.load(std::memory_order_relaxed));
      w.put_u64(sh.bytes.load(std::memory_order_relaxed));
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-dump writer (shared by crash handler and dump_now).

bool write_dump_to(const char* path, int signal_no, const char* reason,
                   usize reason_len) noexcept {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;

  if (reason_len > kReasonMax) reason_len = kReasonMax;
  EventsPlan plan;
  plan_events(plan);
  const usize metric_count = MetricsRegistry::global().pm_count();
  const usize build_len = g_build_info_len.load(std::memory_order_acquire);

  Writer w(fd);
  // Header.
  w.put_bytes(kDumpMagic, sizeof kDumpMagic);
  w.put_u32(kDumpVersion);
  w.put_u32(5);  // section_count
  w.put_u64(static_cast<u64>(::getpid()));
  // Reason.
  w.put_u32(static_cast<u32>(SectionKind::kReason));
  w.put_u32(0);
  w.put_u64(8 + reason_len);
  w.put_u32(static_cast<u32>(signal_no));
  w.put_u32(static_cast<u32>(reason_len));
  w.put_bytes(reason, reason_len);
  // Build info.
  w.put_u32(static_cast<u32>(SectionKind::kBuildInfo));
  w.put_u32(0);
  w.put_u64(4 + build_len);
  w.put_u32(static_cast<u32>(build_len));
  w.put_bytes(g_build_info, build_len);
  // Events.
  w.put_u32(static_cast<u32>(SectionKind::kEvents));
  w.put_u32(0);
  w.put_u64(size_events(plan));
  write_events(w, plan);
  // Metrics.
  w.put_u32(static_cast<u32>(SectionKind::kMetrics));
  w.put_u32(0);
  w.put_u64(size_metrics(metric_count));
  write_metrics(w, metric_count);
  // Engines.
  w.put_u32(static_cast<u32>(SectionKind::kEngines));
  w.put_u32(0);
  w.put_u64(size_engines());
  write_engines(w);

  w.flush();
  const bool ok = w.ok();
  ::close(fd);
  if (ok) g_dumps_written.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

// ---------------------------------------------------------------------------
// Crash handling.

void write_crash_dump(int signal_no, const char* reason) noexcept {
  // One crash dump per process: a fault inside the handler (or a second
  // faulting thread) must not recurse or interleave writes.
  u32 expected = 0;
  if (!g_crash_dump_active.compare_exchange_strong(
          expected, 1, std::memory_order_acq_rel)) {
    return;
  }
  if (!g_crash_path_ready.load(std::memory_order_acquire)) return;
  write_dump_to(g_crash_path, signal_no, reason, std::strlen(reason));
  // Best-effort breadcrumb on stderr (write() is signal-safe).
  const char* msg = "kvx: post-mortem dump written: ";
  (void)!::write(2, msg, std::strlen(msg));
  (void)!::write(2, g_crash_path, std::strlen(g_crash_path));
  (void)!::write(2, "\n", 1);
}

void fatal_signal_handler(int signo, siginfo_t*, void*) {
  write_crash_dump(signo, "fatal signal");
  // Restore the default disposition and re-raise so the process still dies
  // with the original signal (exit status, core files, test harnesses all
  // see the truth).
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

[[noreturn]] void terminate_handler() {
  write_crash_dump(0, "std::terminate");
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

}  // namespace

EngineCounters* claim_engine_counters() noexcept {
  for (auto& m : g_engines) {
    u32 expected = 0;
    if (m.in_use.compare_exchange_strong(expected, 1,
                                         std::memory_order_acq_rel)) {
      m.shard_count.store(0, std::memory_order_relaxed);
      m.submitted.store(0, std::memory_order_relaxed);
      m.completed.store(0, std::memory_order_relaxed);
      m.failed.store(0, std::memory_order_relaxed);
      for (auto& sh : m.shards) {
        for (std::atomic<u64>* c :
             {&sh.jobs, &sh.failures, &sh.fallbacks, &sh.dispatches,
              &sh.sim_cycles, &sh.permutations, &sh.bytes, &sh.host_ns,
              &sh.theta, &sh.rho_pi, &sh.chi_iota, &sh.absorb, &sh.other,
              &sh.step_total, &sh.rounds}) {
          c->store(0, std::memory_order_relaxed);
        }
      }
      return &m;
    }
  }
  return nullptr;
}

void release_engine_counters(EngineCounters* counters) noexcept {
  if (counters != nullptr) {
    counters->in_use.store(0, std::memory_order_release);
  }
}

void set_dump_dir(const std::string& dir) {
  const usize len = dir.size() < kDirMax - 1 ? dir.size() : kDirMax - 1;
  std::memcpy(g_dump_dir, dir.data(), len);
  g_dump_dir[len] = '\0';
  g_auto_dump.store(true, std::memory_order_release);
  // Re-render the crash path against the new directory if the handler is
  // already installed.
  if (g_handler_installed.load(std::memory_order_acquire)) {
    g_crash_path_ready.store(
        build_path(g_crash_path, sizeof g_crash_path, g_dump_dir,
                   static_cast<u64>(::getpid()), "crash", 0, false),
        std::memory_order_release);
  }
}

void set_auto_dump(bool enabled) noexcept {
  g_auto_dump.store(enabled, std::memory_order_release);
}

bool auto_dump_enabled() noexcept {
  return g_auto_dump.load(std::memory_order_acquire);
}

void install_crash_handler() {
  bool expected = false;
  if (!g_handler_installed.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel)) {
    return;
  }
  g_crash_path_ready.store(
      build_path(g_crash_path, sizeof g_crash_path, g_dump_dir,
                 static_cast<u64>(::getpid()), "crash", 0, false),
      std::memory_order_release);

  // A dedicated stack so a stack-overflow SIGSEGV can still dump.
  static char alt_stack[64 * 1024];
  stack_t ss{};
  ss.ss_sp = alt_stack;
  ss.ss_size = sizeof alt_stack;
  ss.ss_flags = 0;
  (void)::sigaltstack(&ss, nullptr);

  struct sigaction sa{};
  sa.sa_sigaction = fatal_signal_handler;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  ::sigemptyset(&sa.sa_mask);
  for (const int signo : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT}) {
    (void)::sigaction(signo, &sa, nullptr);
  }
  g_prev_terminate = std::set_terminate(terminate_handler);
}

void set_build_info(const std::string& text) {
  const usize len =
      text.size() < kBuildInfoMax ? text.size() : kBuildInfoMax;
  std::memcpy(g_build_info, text.data(), len);
  g_build_info_len.store(len, std::memory_order_release);
}

std::string dump_now(const std::string& reason) {
  static std::atomic<u64> next_ordinal{0};
  char path[kPathMax];
  const u64 ordinal = next_ordinal.fetch_add(1, std::memory_order_relaxed);
  if (!build_path(path, sizeof path, g_dump_dir,
                  static_cast<u64>(::getpid()), nullptr, ordinal, true)) {
    return "";
  }
  if (!write_dump_to(path, 0, reason.data(), reason.size())) return "";
  return path;
}

void auto_dump(const char* reason) noexcept {
  if (!g_auto_dump.load(std::memory_order_acquire)) return;
  // Cap + increment in one CAS loop so concurrent failures cannot overshoot.
  const u64 cap = g_auto_cap.load(std::memory_order_relaxed);
  u64 n = g_auto_dumps_written.load(std::memory_order_relaxed);
  do {
    if (n >= cap) return;
  } while (!g_auto_dumps_written.compare_exchange_weak(
      n, n + 1, std::memory_order_acq_rel));
  try {
    dump_now(reason != nullptr ? reason : "auto");
  } catch (...) {
    // dump_now allocates one std::string; swallow rather than crash the
    // failure path we are trying to document.
  }
}

u64 dump_count() noexcept {
  return g_dumps_written.load(std::memory_order_relaxed);
}

void init_from_env() {
  static std::atomic<bool> done{false};
  bool expected = false;
  if (!done.compare_exchange_strong(expected, true,
                                    std::memory_order_acq_rel)) {
    return;
  }
  const char* cap = std::getenv("KVX_POSTMORTEM_MAX");
  if (cap != nullptr && *cap != '\0') {
    g_auto_cap.store(std::strtoull(cap, nullptr, 10),
                     std::memory_order_relaxed);
  }
  const char* dir = std::getenv("KVX_POSTMORTEM");
  if (dir == nullptr || *dir == '\0') return;
  set_dump_dir(dir);
  install_crash_handler();
}

// ---------------------------------------------------------------------------
// Parsing.

namespace {

class Reader {
 public:
  explicit Reader(const std::string& path) : in_(path, std::ios::binary) {
    if (!in_) throw Error("postmortem: cannot open dump '" + path + "'");
  }

  void read_bytes(void* out, usize len) {
    in_.read(static_cast<char*>(out), static_cast<std::streamsize>(len));
    if (in_.gcount() != static_cast<std::streamsize>(len)) {
      throw Error("postmortem: truncated dump");
    }
  }
  u32 read_u32() {
    u32 v;
    read_bytes(&v, sizeof v);
    return v;
  }
  u64 read_u64() {
    u64 v;
    read_bytes(&v, sizeof v);
    return v;
  }
  double read_f64() {
    double v;
    read_bytes(&v, sizeof v);
    return v;
  }
  std::string read_string(usize len) {
    std::string s(len, '\0');
    if (len > 0) read_bytes(s.data(), len);
    return s;
  }
  void skip(u64 len) {
    in_.seekg(static_cast<std::streamoff>(len), std::ios::cur);
    if (!in_) throw Error("postmortem: truncated dump");
  }

 private:
  std::ifstream in_;
};

void parse_events(Reader& r, PostmortemDump& dump) {
  const u32 ring_count = r.read_u32();
  dump.events_dropped = r.read_u32();
  for (u32 i = 0; i < ring_count; ++i) {
    DumpRing ring;
    ring.index = r.read_u32();
    (void)r.read_u32();  // pad
    ring.written = r.read_u64();
    ring.stored = r.read_u64();
    if (ring.stored > FlightRecorder::kRingCapacity) {
      throw Error("postmortem: ring stored count out of range");
    }
    for (u64 s = 0; s < ring.stored; ++s) {
      FlightEvent ev;
      ev.seq = r.read_u64();
      ev.ns = r.read_u64();
      const u64 meta = r.read_u64();
      ev.type_raw = static_cast<u16>(meta & 0xFFFF);
      ev.code = static_cast<u16>((meta >> 16) & 0xFFFF);
      ev.ring = ring.index;
      ev.a0 = r.read_u64();
      ev.a1 = r.read_u64();
      if (ev.seq != 0) dump.events.push_back(ev);  // 0 = empty/torn slot
    }
    dump.rings.push_back(ring);
  }
  std::sort(dump.events.begin(), dump.events.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
}

void parse_metrics(Reader& r, PostmortemDump& dump) {
  const u32 count = r.read_u32();
  for (u32 i = 0; i < count; ++i) {
    DumpMetric m;
    const u32 kind = r.read_u32();
    const u32 name_len = r.read_u32();
    const u32 bounds_len = r.read_u32();
    (void)r.read_u32();  // pad
    if (name_len > 4096 || bounds_len > MetricsRegistry::kPmMaxBuckets) {
      throw Error("postmortem: metric record out of range");
    }
    m.name = r.read_string(name_len);
    m.kind = static_cast<MetricSample::Kind>(kind);
    switch (m.kind) {
      case MetricSample::Kind::kCounter:
        m.counter_value = r.read_u64();
        break;
      case MetricSample::Kind::kGauge:
        m.gauge_value = r.read_f64();
        break;
      case MetricSample::Kind::kHistogram: {
        m.bounds.resize(bounds_len);
        for (auto& b : m.bounds) b = r.read_u64();
        m.bucket_counts.resize(bounds_len + 1);
        for (auto& c : m.bucket_counts) c = r.read_u64();
        m.sum = r.read_u64();
        m.exemplars.resize(bounds_len + 1);
        for (auto& ex : m.exemplars) {
          ex.first = r.read_u64();
          ex.second = r.read_u64();
        }
        break;
      }
      default:
        throw Error("postmortem: unknown metric kind in dump");
    }
    dump.metrics.push_back(std::move(m));
  }
}

void parse_engines(Reader& r, PostmortemDump& dump) {
  const u32 count = r.read_u32();
  if (count > kMaxEngines) {
    throw Error("postmortem: engine count out of range");
  }
  for (u32 i = 0; i < count; ++i) {
    DumpEngine e;
    const u32 shard_count = r.read_u32();
    (void)r.read_u32();  // pad
    if (shard_count > kMaxShards) {
      throw Error("postmortem: shard count out of range");
    }
    e.submitted = r.read_u64();
    e.completed = r.read_u64();
    e.failed = r.read_u64();
    for (u32 s = 0; s < shard_count; ++s) {
      DumpShard sh;
      sh.jobs = r.read_u64();
      sh.failures = r.read_u64();
      sh.fallbacks = r.read_u64();
      sh.dispatches = r.read_u64();
      sh.sim_cycles = r.read_u64();
      sh.permutations = r.read_u64();
      sh.bytes = r.read_u64();
      e.shards.push_back(sh);
    }
    dump.engines.push_back(std::move(e));
  }
}

}  // namespace

PostmortemDump parse_dump(const std::string& path) {
  Reader r(path);
  char magic[8];
  r.read_bytes(magic, sizeof magic);
  if (std::memcmp(magic, kDumpMagic, sizeof magic) != 0) {
    throw Error("postmortem: bad magic in '" + path + "'");
  }
  PostmortemDump dump;
  dump.version = r.read_u32();
  if (dump.version != kDumpVersion) {
    throw Error("postmortem: unsupported dump version " +
                std::to_string(dump.version));
  }
  const u32 section_count = r.read_u32();
  dump.pid = r.read_u64();
  for (u32 i = 0; i < section_count; ++i) {
    const u32 kind = r.read_u32();
    (void)r.read_u32();  // reserved
    const u64 payload = r.read_u64();
    switch (static_cast<SectionKind>(kind)) {
      case SectionKind::kReason: {
        dump.signal = static_cast<int>(r.read_u32());
        const u32 len = r.read_u32();
        if (len > payload) throw Error("postmortem: reason overruns section");
        dump.reason = r.read_string(len);
        break;
      }
      case SectionKind::kBuildInfo: {
        const u32 len = r.read_u32();
        if (len > payload) {
          throw Error("postmortem: build info overruns section");
        }
        dump.build_info = r.read_string(len);
        break;
      }
      case SectionKind::kEvents:
        parse_events(r, dump);
        break;
      case SectionKind::kMetrics:
        parse_metrics(r, dump);
        break;
      case SectionKind::kEngines:
        parse_engines(r, dump);
        break;
      default:
        r.skip(payload);  // forward compatibility: unknown sections skip
        break;
    }
  }
  return dump;
}

}  // namespace kvx::obs::pm
