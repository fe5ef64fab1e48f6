// Shared pieces of kvx_bench: timing, statistics, the result record, the
// harness-side span recorder and the seeded job sets the workloads and the
// layer replays run on.
#pragma once

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "kvx/common/rng.hpp"
#include "kvx/common/types.hpp"
#include "kvx/engine/job.hpp"
#include "kvx/keccak/state.hpp"

namespace kvxb {

using kvx::u16;
using kvx::u32;
using kvx::u64;
using kvx::u8;
using kvx::usize;

inline u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(u64 t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

/// Nearest-rank median (0 when empty).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

// Co-tenants on a shared host only ever slow a measurement down, in bursts
// of a tenth of a second to seconds, and how much of a run they hit varies
// from run to run. A run is therefore summarised by its least disturbed
// samples, not by its typical one, and never by its single best.

/// Quantile `q` in [0, 1] of `v` (nearest rank; 0 when empty).
double nearest_rank(std::vector<double> v, double q);

/// The best twentieth of `v`: its 95th percentile when `higher` is better,
/// else its 5th. Over ten runs of one seed set it spread less than the
/// best decile did: 1.5% against 3.7% on perm-paper's throughput windows,
/// 0.6% against 1.7% on its latency.
inline double best_twentieth(std::vector<double> v, bool higher) {
  return nearest_rank(std::move(v), higher ? 0.95 : 0.05);
}

/// Median, over consecutive groups of `group` samples, of each group's best
/// sample; a short tail that fills no group is dropped unless none fills.
double median_of_best(const std::vector<double>& v, usize group, bool higher);

/// Pins the calling thread to each CPU it may run on, in turn, and restores
/// its affinity when destroyed. On a shared host, co-tenants slow some
/// CPUs for seconds at a time: a single-thread Keccak loop reads either
/// about 1.1 or 2.1 M permutations/s depending only on where it runs, and
/// a cold construction 6.7 or 10.5 ms. Single-thread measurements taken
/// round-robin over every CPU stop depending on where the scheduler
/// happened to place the thread. Threads started while pinned inherit the
/// pin: the engine and server workloads use that to run a whole round on
/// one CPU.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pin to the `k`-th allowed CPU (mod their number).
  void pin(usize k);

 private:
  cpu_set_t original_{};
  std::vector<usize> cpus_;
};

/// The host's speed while a workload runs, read from a fixed yardstick: a
/// plain scalar Keccak-f[1600] compiled into the benchmark, which no change
/// to the library can make faster or slower. Co-tenants move the speed of
/// every CPU of the guest by 5–15% over minutes (on top of the per-CPU
/// bursts the best-twentieth summaries filter out), which no estimator
/// inside a run can separate from a change to the program. A workload
/// therefore probes the yardstick on its harness thread between
/// measurement windows, on the CPU its measured threads run on, and its
/// host-time metrics are scaled to the nominal speed kNominalPermsPerS.
/// Over ten runs in a drifting hour, perm-paper's throughput spread 9.5%
/// raw and 0.6% scaled, its set-up time 19.8% and 2.8%. Probed from
/// another CPU than the engine's worker, bulk-16k's throughput still
/// spread 10.4%.
class HostSpeed {
 public:
  /// The yardstick's undisturbed rate on the calibration host (Intel Xeon
  /// with AVX-512, 4-vCPU KVM guest), in permutations per second.
  static constexpr double kNominalPermsPerS = 590'000.0;

  /// Time a short burst of the yardstick (about 55 µs) on the calling
  /// thread.
  void probe();
  /// Probe if the last probe is a millisecond old or more: called between
  /// measurement windows, it spends at most about 5% of the run.
  void tick() {
    if (now_ns() - last_ns_ >= 1'000'000) probe();
  }
  /// 64 probes back to back (about 3.5 ms), taken where nothing else of the
  /// workload runs: before an engine round starts, after a server slot
  /// stopped. Probes taken only inside engine rounds read the yardstick
  /// 26% and 49% slow in two kyber-xof runs out of about forty, where the
  /// set-up's probes of the same runs read it normal, and so overstated
  /// throughput by 31% and 81%.
  void burst() {
    for (int i = 0; i < 64; ++i) probe();
  }
  /// The 99th percentile of the probes' rates (0 when none ran). A
  /// disturbed CPU runs the yardstick at about half speed, far slower than
  /// it runs the workloads, and some runs spend more than 95% of their
  /// probes disturbed; only the undisturbed speed is comparable from run to
  /// run.
  [[nodiscard]] double rate() const;
  /// Nominal over measured speed: multiply a rate by it, divide a time.
  [[nodiscard]] double scale() const;
  [[nodiscard]] usize probes() const noexcept { return rates_.size(); }
  /// Report line with the quantiles of the probes' rates.
  void print(const char* label) const;
  /// The yardstick computes Keccak-f[1600] (checked against the golden
  /// model), so no compiler can shortcut the work it times.
  [[nodiscard]] static bool yardstick_is_keccak();

 private:
  std::vector<double> rates_;
  u64 last_ns_ = 0;
  u64 state_[25] = {1};
};

/// Latency histogram in nanoseconds with fixed memory: exact below 128 ns,
/// then 128 log-linear buckets per power of two (bucket width < 0.8 % of
/// the value); percentiles interpolate inside a bucket. Its size does not
/// grow with the number of samples, so a run's peak RSS does not track the
/// throughput it reached.
class Histogram {
 public:
  void record(u64 ns) {
    ++buckets_[index(ns)];
    ++total_;
  }
  void clear() {
    std::fill(buckets_.begin(), buckets_.end(), u64{0});
    total_ = 0;
  }
  void merge(const Histogram& o) {
    for (usize i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
    total_ += o.total_;
  }
  [[nodiscard]] u64 count() const noexcept { return total_; }
  /// Percentile `q` in [0, 1] (0 when empty).
  [[nodiscard]] double percentile(double q) const;

 private:
  static constexpr unsigned kSubBits = 7;
  static constexpr usize kSub = usize{1} << kSubBits;
  static usize index(u64 v) {
    if (v < kSub) return static_cast<usize>(v);
    const unsigned e = 63u - static_cast<unsigned>(std::countl_zero(v));
    return (e - kSubBits + 1) * kSub +
           static_cast<usize>((v >> (e - kSubBits)) & (kSub - 1));
  }
  std::vector<u64> buckets_ = std::vector<u64>((64 - kSubBits + 1) * kSub, 0);
  u64 total_ = 0;
};

/// One report line summarising a series of window values (their number
/// and quantiles, times `scale`), so run-to-run noise can be inspected.
void print_series(const char* label, const char* what, std::vector<double> v,
                  double scale);

/// The short measurement windows of a run: each one's rate and latency
/// p50 (a run reports their best twentieths), and every window's latency
/// samples together (for the tail percentiles, which need them all).
struct Windows {
  std::vector<double> rate, p50;
  Histogram all;

  void add(double window_rate, const Histogram& lat) {
    rate.push_back(window_rate);
    p50.push_back(lat.percentile(0.50));
    all.merge(lat);
  }
  void append(const Windows& o) {
    rate.insert(rate.end(), o.rate.begin(), o.rate.end());
    p50.insert(p50.end(), o.p50.begin(), o.p50.end());
    all.merge(o.all);
  }

  void print(const char* label) const {
    print_series(label, "window rate/s", rate, 1.0);
    print_series(label, "window p50 us", p50, 1e-3);
  }
};

/// Uniform draw in [0, 1) from a seeded generator.
inline double unit_draw(kvx::SplitMix64& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

/// One named measurement of the run.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports. `attempted`/`failed` count the
/// workload's operations (dispatch chains, jobs or requests); a mismatch
/// against the golden model, a failed job and a missing response all
/// count as failed.
struct Outcome {
  u64 attempted = 0;
  u64 failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< first few failure descriptions

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record a correctness failure (the run then exits nonzero).
  void fail(const std::string& what, u64 count = 1) {
    failed += count;
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
  /// A broken invariant that is not an operation failure (pinned cycles,
  /// reproducibility): the run is incorrect but no operation failed.
  void invariant(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// Harness-side span recorder. Spans nest on one thread (each records its
/// parent); only the harness thread records, so no synchronisation. A
/// disabled tracer costs one branch per scope.
class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< "layer.operation"; the prefix is the layer
    u64 start_ns = 0;
    u64 end_ns = 0;
    u32 parent = kNone;
    u64 id = 0;             ///< job or request id, 0 when none
  };
  static constexpr u32 kNone = 0xFFFFFFFFu;
  /// 80 MB of spans at most; beyond it spans are dropped (and counted), and
  /// their time shows up as their parent's self time.
  static constexpr usize kMaxSpans = usize{1} << 21;

  class Scope {
   public:
    Scope(Tracer& t, const char* name, u64 id) : t_(t) {
      if (t_.enabled_) idx_ = t_.begin(name, id);
    }
    ~Scope() {
      if (idx_ != kNone) t_.end(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Label the span with an id learnt after it began.
    void set_id(u64 id) {
      if (idx_ != kNone) t_.spans_[idx_].id = id;
    }

   private:
    Tracer& t_;
    u32 idx_ = kNone;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] Scope scope(const char* name, u64 id = 0) {
    return Scope(*this, name, id);
  }
  /// Begin/end pairs for spans that do not follow a C++ scope.
  u32 begin(const char* name, u64 id = 0);
  void end(u32 idx);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] u64 dropped() const noexcept { return dropped_; }

  struct LayerTime {
    std::string layer;
    double self_ms = 0.0;
    u64 spans = 0;
  };
  /// Self time (duration minus child coverage) summed per layer, over the
  /// spans inside root span `root` (kNone = every span).
  [[nodiscard]] std::vector<LayerTime> self_times(u32 root = kNone) const;

  /// Write Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<u32> stack_;
  u64 dropped_ = 0;
};

/// One workload's seeded job set: the jobs the workload submits (or the
/// traffic templates it sends) and their golden-model digests. The layer
/// replays of a traced run execute exactly these jobs.
struct JobSet {
  std::vector<kvx::engine::HashJob> jobs;
  std::vector<std::vector<u8>> expected;
  u64 message_bytes = 0;  ///< sum of message sizes
};

inline std::vector<u8> random_message(kvx::SplitMix64& rng, usize n) {
  std::vector<u8> m(n);
  for (u8& b : m) b = static_cast<u8>(rng.next());
  return m;
}

/// Seeded Keccak states for permutation chains.
inline std::vector<kvx::keccak::State> random_states(kvx::SplitMix64& rng,
                                                     unsigned n) {
  std::vector<kvx::keccak::State> states(n);
  for (kvx::keccak::State& s : states) {
    for (u64& lane : s.flat()) lane = rng.next();
  }
  return states;
}

/// Run `fn(i)` for i in [0, n) on up to four host threads (the process
/// budget). Used only for verification, after timing.
template <typename Fn>
void parallel_for(usize n, Fn fn) {
  const usize workers = std::min<usize>(
      n, std::max(1u, std::min(4u, std::thread::hardware_concurrency())));
  std::vector<std::thread> pool;
  std::atomic<usize> next{0};
  for (usize t = 0; t < workers; ++t) {
    pool.emplace_back([&] {
      for (usize i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& th : pool) th.join();
}

/// Fill in the golden digests (host model) of `set.jobs`.
void compute_expected(JobSet& set);

/// Exact Keccak-f permutations the golden sponge spends on `job` (absorb
/// blocks incl. padding and the KMAC prefix blocks, plus extra squeeze
/// blocks) — the reference core.perms_per_job is checked against.
u64 golden_permutations(const kvx::engine::HashJob& job);

}  // namespace kvxb
