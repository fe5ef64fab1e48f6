// Lock-cheap metrics registry: named counters, gauges and fixed-bucket
// histograms with striped per-thread shards aggregated on scrape.
//
// Hot-path cost is one relaxed fetch_add on a cache-line-padded shard
// selected by a thread-local stripe index — no registry lock, no
// allocation, no contention between engine worker shards. Scraping
// (snapshot / to_prometheus / to_json) walks every stripe under the
// registry mutex; it is intended for periodic exporters and end-of-run
// dumps, not per-job paths.
//
// Exposition formats:
//  * to_prometheus() — Prometheus text exposition format 0.0.4
//    (`# HELP` / `# TYPE` headers, `_bucket{le="..."}` histogram series);
//  * to_json()       — a stable machine-readable snapshot
//    {"counters":{...},"gauges":{...},"histograms":{...}} consumed by
//    `kvx-batch --metrics-json` and the CI observability smoke step.
//
// Metric names must match [a-zA-Z_][a-zA-Z0-9_]* (enforced); see
// docs/observability.md for the names the engine and trace cache export.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kvx/common/types.hpp"

namespace kvx::obs {

namespace detail {

/// Number of stripes counters/histograms are sharded over. A power of two
/// comfortably above the engine's worker-thread counts keeps stripe
/// collisions (and hence cache-line bouncing) rare without bloating every
/// metric.
inline constexpr usize kStripes = 16;

/// Stable per-thread stripe index in [0, kStripes).
[[nodiscard]] usize stripe_index() noexcept;

/// One cache line per stripe so two threads never false-share a counter.
struct alignas(64) PaddedU64 {
  std::atomic<u64> value{0};
};

}  // namespace detail

/// Monotone counter. inc() is wait-free on the caller's stripe.
class Counter {
 public:
  void inc(u64 delta = 1) noexcept {
    stripes_[detail::stripe_index()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  /// Aggregated value across all stripes.
  [[nodiscard]] u64 value() const noexcept {
    u64 sum = 0;
    for (const auto& s : stripes_) sum += s.value.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  detail::PaddedU64 stripes_[detail::kStripes];
};

/// Last-write-wins gauge (queue depth, coverage percentages, ...). Stored as
/// a double so it can carry ratios; set/add are single relaxed atomics.
///
/// A gauge can alternatively be *bound* to a callback: value() — and hence
/// every scrape — then evaluates the callback instead of reading the stored
/// value, so the metric is aggregated at observation time and can never go
/// stale or race with its source (the engine binds its queue-depth gauges
/// this way; see docs/observability.md). set()/add() while bound still
/// update the stored value but stay shadowed until unbind().
class Gauge {
 public:
  void set(double v) noexcept { bits_.store(pack(v), std::memory_order_relaxed); }
  void add(double delta) noexcept {
    u64 cur = bits_.load(std::memory_order_relaxed);
    for (;;) {
      const u64 next = pack(unpack(cur) + delta);
      if (bits_.compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
        return;
      }
    }
  }
  [[nodiscard]] double value() const;

  /// Last stored value, never evaluating a bound callback — the only value
  /// the post-mortem writer may read from a signal context. Bound gauges
  /// report their most recent set() (0 if never set) until unbind() freezes
  /// the final callback value.
  [[nodiscard]] double stored_value() const noexcept {
    return unpack(bits_.load(std::memory_order_relaxed));
  }

  /// Bind `fn` as the live value source. Returns a token for unbind();
  /// a later bind supersedes an earlier one (its token goes stale).
  u64 bind(std::function<double()> fn);
  /// Remove the callback if `token` is still the current binding, storing
  /// the callback's final value so post-unbind reads stay meaningful.
  void unbind(u64 token);

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  static u64 pack(double v) noexcept {
    u64 bits;
    static_assert(sizeof bits == sizeof v);
    __builtin_memcpy(&bits, &v, sizeof bits);
    return bits;
  }
  static double unpack(u64 bits) noexcept {
    double v;
    __builtin_memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::atomic<u64> bits_{0};
  /// Callback binding (scrape path only; set()/value() without a binding
  /// never touch the mutex).
  std::atomic<bool> bound_{false};
  mutable std::mutex cb_mutex_;
  std::function<double()> cb_;
  u64 cb_token_ = 0;
};

/// Fixed-bucket histogram. Bounds are upper-inclusive (`le`), strictly
/// increasing, fixed at creation; observations beyond the last bound land
/// only in the implicit +Inf bucket. Each stripe owns a full bucket array,
/// so observe() touches only the caller's stripe. Registered histograms come
/// from MetricsRegistry::histogram(); an owner that only reads quantiles
/// back (the engine's per-engine latency) constructs one directly.
class Histogram {
 public:
  /// `bounds` must be strictly increasing (throws kvx::Error otherwise).
  explicit Histogram(std::vector<u64> bounds);

  /// One exemplar per bucket: the bucket-max observation and the flight-
  /// recorder sequence number recorded with it (0 = none yet). kvx-doctor
  /// uses the latency histogram's exemplars to reconstruct what the engine
  /// was doing around its worst jobs.
  struct Exemplar {
    u64 value = 0;
    u64 flight_seq = 0;
  };

  void observe(u64 v) noexcept;
  /// observe(v), additionally stamping `flight_seq` as the bucket's
  /// exemplar if `v` is the largest observation that bucket has seen.
  void observe_exemplar(u64 v, u64 flight_seq) noexcept;

  [[nodiscard]] const std::vector<u64>& bounds() const noexcept {
    return bounds_;
  }
  /// Cumulative count per bound (Prometheus `le` semantics) plus +Inf last.
  [[nodiscard]] std::vector<u64> cumulative_counts() const;
  [[nodiscard]] u64 count() const noexcept;
  [[nodiscard]] u64 sum() const noexcept;
  /// Largest observation so far (exact; 0 while empty).
  [[nodiscard]] u64 max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  /// Estimated q-quantile (q in [0, 1]) of every observation: the bucket
  /// holding rank q·count, linearly interpolated between its bounds (the
  /// +Inf bucket spans last bound .. max) and clamped to max(). The error
  /// is at most that bucket's width; 0 while empty.
  [[nodiscard]] u64 quantile(double q) const;
  /// Per-bucket exemplars (bounds + 1 entries).
  [[nodiscard]] std::vector<Exemplar> exemplars() const;

  /// Allocation-free scrape for the post-mortem writer: fills per-bucket
  /// (non-cumulative) counts and exemplars into caller-owned arrays of at
  /// least bounds().size() + 1 entries. Signal-safe; returns the bucket
  /// count written, or 0 if `cap` is too small.
  usize fill_pm(u64* counts, u64* ex_value, u64* ex_seq, u64* sum_out,
                usize cap) const noexcept;

 private:
  /// Count `v` in its bucket, the sum and the max; returns the bucket.
  usize record(u64 v) noexcept;

  struct Stripe {
    detail::PaddedU64 sum;
    std::unique_ptr<std::atomic<u64>[]> buckets;  ///< bounds + 1 (+Inf)
  };

  /// CAS-max on value, then store seq: two racing observers may leave the
  /// smaller one's seq behind — an acceptable diagnostic-grade race that
  /// keeps the hot path to one load + (rarely) one CAS.
  struct ExemplarSlot {
    std::atomic<u64> value{0};
    std::atomic<u64> seq{0};
  };

  std::vector<u64> bounds_;
  Stripe stripes_[detail::kStripes];
  std::unique_ptr<ExemplarSlot[]> exemplars_;  ///< bounds + 1 (shared)
  std::atomic<u64> max_{0};
};

/// Exponential default buckets for nanosecond latencies: 1 µs .. ~17 s.
[[nodiscard]] std::vector<u64> default_latency_bounds_ns();

/// Log-spaced nanosecond buckets fine enough for quantile estimates: eight
/// per octave (each bound 2^(1/8) ≈ 1.09× the previous, so a quantile is
/// within ~9% of the exact order statistic) from 64 ns to 2^36 ns (~69 s).
[[nodiscard]] std::vector<u64> fine_latency_bounds_ns();

/// Point-in-time snapshot of one metric (stable scrape order: registration
/// order within each kind).
struct MetricSample {
  std::string name;
  std::string help;
  /// Pre-rendered Prometheus label pairs (`k="v",k2="v2"`); "" for the
  /// common unlabeled case.
  std::string labels;
  enum class Kind { kCounter, kGauge, kHistogram } kind = Kind::kCounter;
  u64 counter_value = 0;
  double gauge_value = 0.0;
  std::vector<u64> bounds;        ///< histogram only
  std::vector<u64> cumulative;    ///< histogram only, bounds + 1 entries
  std::vector<Histogram::Exemplar> exemplars;  ///< histogram only
  u64 hist_count = 0;
  u64 hist_sum = 0;
};

class MetricsRegistry {
 public:
  /// The process-wide registry the engine, trace cache and tools share.
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create by name. Re-registering an existing name returns the
  /// same object; a kind mismatch throws kvx::Error, as does an invalid
  /// name. References stay valid for the registry's lifetime.
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  /// Gauge carrying fixed, pre-rendered Prometheus labels (`k="v",...`) —
  /// exposed as `name{labels} value` (kvx_build_info). Lookup is by name
  /// only; the labels of the first registration win.
  Gauge& labeled_gauge(const std::string& name, const std::string& labels,
                       const std::string& help = "");
  /// `bounds` must be strictly increasing; empty = default_latency_bounds_ns.
  Histogram& histogram(const std::string& name, const std::string& help = "",
                       std::vector<u64> bounds = {});

  [[nodiscard]] std::vector<MetricSample> snapshot() const;
  [[nodiscard]] std::string to_prometheus() const;
  [[nodiscard]] std::string to_json() const;

  /// Drop every metric (tests only — outstanding references go stale).
  void reset();

  // --- Async-signal-safe scrape support (post-mortem dumps) ---------------
  // Registration also appends each entry to a fixed, append-only side index
  // readable without the registry mutex; bound gauges report
  // stored_value().

  static constexpr usize kPmMaxMetrics = 256;
  static constexpr usize kPmMaxBuckets = 32;

  struct PmRead {
    const char* name = nullptr;  ///< NOT nul-padded; use name_len
    usize name_len = 0;
    MetricSample::Kind kind = MetricSample::Kind::kCounter;
    u64 counter_value = 0;
    double gauge_value = 0.0;
    const u64* bounds = nullptr;
    usize bounds_len = 0;        ///< 0 also when bounds+1 > kPmMaxBuckets
    u64 counts[kPmMaxBuckets];   ///< per-bucket, bounds_len + 1 valid
    u64 sum = 0;
    u64 ex_value[kPmMaxBuckets];
    u64 ex_seq[kPmMaxBuckets];
  };

  /// Entries registered so far (monotone; stable once returned).
  [[nodiscard]] usize pm_count() const noexcept {
    return pm_count_.load(std::memory_order_acquire);
  }
  /// Sample metric `i` of the side index into `out` without locking or
  /// allocating. Signal-safe. Returns false for i ≥ pm_count().
  bool pm_read(usize i, PmRead& out) const noexcept;

 private:
  struct Entry {
    std::string name;
    std::string help;
    std::string labels;
    MetricSample::Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_create(const std::string& name, const std::string& help,
                        MetricSample::Kind kind);
  void pm_publish_locked(Entry& e);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;  ///< registration order
  Entry* pm_entries_[kPmMaxMetrics] = {};
  std::atomic<usize> pm_count_{0};
};

}  // namespace kvx::obs
