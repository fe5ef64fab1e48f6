#include "kvx/obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "kvx/common/error.hpp"

namespace kvx::obs {

namespace detail {

usize stripe_index() noexcept {
  // Hand out stripe slots round-robin per thread; cheaper and more evenly
  // distributed than hashing std::this_thread::get_id().
  static std::atomic<usize> next{0};
  thread_local const usize slot =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return slot;
}

}  // namespace detail

namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  if (std::isdigit(static_cast<unsigned char>(name.front())) != 0) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
  });
}

const char* kind_name(MetricSample::Kind k) {
  switch (k) {
    case MetricSample::Kind::kCounter: return "counter";
    case MetricSample::Kind::kGauge: return "gauge";
    case MetricSample::Kind::kHistogram: return "histogram";
  }
  return "?";
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string format_double(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Raise `slot` to at least `v` (relaxed CAS-max).
void raise_to(std::atomic<u64>& slot, u64 v) noexcept {
  u64 cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

double Gauge::value() const {
  if (bound_.load(std::memory_order_acquire)) {
    std::lock_guard lock(cb_mutex_);
    if (cb_) return cb_();
  }
  return unpack(bits_.load(std::memory_order_relaxed));
}

u64 Gauge::bind(std::function<double()> fn) {
  std::lock_guard lock(cb_mutex_);
  cb_ = std::move(fn);
  const u64 token = ++cb_token_;
  bound_.store(static_cast<bool>(cb_), std::memory_order_release);
  return token;
}

void Gauge::unbind(u64 token) {
  std::lock_guard lock(cb_mutex_);
  if (token != cb_token_ || !cb_) return;  // superseded by a later bind
  // Freeze the final callback value so post-unbind reads stay meaningful.
  bits_.store(pack(cb_()), std::memory_order_relaxed);
  cb_ = nullptr;
  bound_.store(false, std::memory_order_release);
}

Histogram::Histogram(std::vector<u64> bounds) : bounds_(std::move(bounds)) {
  KVX_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                    std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                        bounds_.end(),
                "histogram bounds must be strictly increasing");
  for (auto& s : stripes_) {
    s.buckets = std::make_unique<std::atomic<u64>[]>(bounds_.size() + 1);
    for (usize i = 0; i <= bounds_.size(); ++i) s.buckets[i].store(0);
  }
  exemplars_ = std::make_unique<ExemplarSlot[]>(bounds_.size() + 1);
}

usize Histogram::record(u64 v) noexcept {
  auto& stripe = stripes_[detail::stripe_index()];
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const usize idx = static_cast<usize>(it - bounds_.begin());
  stripe.buckets[idx].fetch_add(1, std::memory_order_relaxed);
  stripe.sum.value.fetch_add(v, std::memory_order_relaxed);
  raise_to(max_, v);
  return idx;
}

void Histogram::observe(u64 v) noexcept { (void)record(v); }

void Histogram::observe_exemplar(u64 v, u64 flight_seq) noexcept {
  ExemplarSlot& ex = exemplars_[record(v)];
  u64 cur = ex.value.load(std::memory_order_relaxed);
  while (v >= cur) {  // >= so a tie still refreshes the (newer) flight seq
    if (ex.value.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
      ex.seq.store(flight_seq, std::memory_order_relaxed);
      return;
    }
  }
}

std::vector<u64> Histogram::cumulative_counts() const {
  std::vector<u64> per_bucket(bounds_.size() + 1, 0);
  for (const auto& s : stripes_) {
    for (usize i = 0; i <= bounds_.size(); ++i) {
      per_bucket[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  u64 running = 0;
  for (auto& b : per_bucket) {
    running += b;
    b = running;
  }
  return per_bucket;
}

u64 Histogram::count() const noexcept {
  u64 total = 0;
  for (const auto& s : stripes_) {
    for (usize i = 0; i <= bounds_.size(); ++i) {
      total += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return total;
}

u64 Histogram::sum() const noexcept {
  u64 total = 0;
  for (const auto& s : stripes_) {
    total += s.sum.value.load(std::memory_order_relaxed);
  }
  return total;
}

u64 Histogram::quantile(double q) const {
  const std::vector<u64> cum = cumulative_counts();
  const u64 n = cum.back();
  if (n == 0) return 0;
  // Rank of the wanted order statistic (1-based, continuous): the bucket
  // holding it is the first whose cumulative count reaches it.
  const double rank =
      std::max(1.0, std::clamp(q, 0.0, 1.0) * static_cast<double>(n));
  const auto reached = std::lower_bound(
      cum.begin(), cum.end(), rank,
      [](u64 c, double r) { return static_cast<double>(c) < r; });
  const usize i = static_cast<usize>(reached - cum.begin());
  const u64 hi = max();
  const double below = i == 0 ? 0.0 : static_cast<double>(cum[i - 1]);
  const double lo = i == 0 ? 0.0 : static_cast<double>(bounds_[i - 1]);
  const double up = static_cast<double>(i < bounds_.size() ? bounds_[i] : hi);
  const double frac = (rank - below) / (static_cast<double>(cum[i]) - below);
  const double est = lo + frac * std::max(0.0, up - lo);
  return std::min(hi, static_cast<u64>(est + 0.5));
}

std::vector<Histogram::Exemplar> Histogram::exemplars() const {
  std::vector<Exemplar> out(bounds_.size() + 1);
  for (usize i = 0; i <= bounds_.size(); ++i) {
    out[i].value = exemplars_[i].value.load(std::memory_order_relaxed);
    out[i].flight_seq = exemplars_[i].seq.load(std::memory_order_relaxed);
  }
  return out;
}

usize Histogram::fill_pm(u64* counts, u64* ex_value, u64* ex_seq,
                         u64* sum_out, usize cap) const noexcept {
  const usize n = bounds_.size() + 1;
  if (n > cap) return 0;
  for (usize i = 0; i < n; ++i) {
    counts[i] = 0;
    ex_value[i] = exemplars_[i].value.load(std::memory_order_relaxed);
    ex_seq[i] = exemplars_[i].seq.load(std::memory_order_relaxed);
  }
  u64 total = 0;
  for (const auto& s : stripes_) {
    for (usize i = 0; i < n; ++i) {
      counts[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
    total += s.sum.value.load(std::memory_order_relaxed);
  }
  *sum_out = total;
  return n;
}

std::vector<u64> default_latency_bounds_ns() {
  // 1 µs doubling to ~17.2 s: 25 bounds covering both the sub-millisecond
  // single-job path and multi-second saturated-queue tails.
  std::vector<u64> bounds;
  bounds.reserve(25);
  u64 b = 1'000;
  for (int i = 0; i < 25; ++i) {
    bounds.push_back(b);
    b *= 2;
  }
  return bounds;
}

std::vector<u64> fine_latency_bounds_ns() {
  constexpr int kPerOctave = 8;
  constexpr int kOctaves = 30;  // 2^6 .. 2^36 ns
  std::vector<u64> bounds;
  bounds.reserve(kPerOctave * kOctaves + 1);
  for (int k = 0; k <= kPerOctave * kOctaves; ++k) {
    bounds.push_back(static_cast<u64>(
        std::llround(64.0 * std::exp2(static_cast<double>(k) / kPerOctave))));
  }
  return bounds;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    const std::string& name, const std::string& help,
    MetricSample::Kind kind) {
  if (!valid_metric_name(name)) {
    throw Error("obs: invalid metric name '" + name + "'");
  }
  for (auto& e : entries_) {
    if (e->name == name) {
      if (e->kind != kind) {
        throw Error("obs: metric '" + name + "' already registered as " +
                    kind_name(e->kind) + ", requested " + kind_name(kind));
      }
      return *e;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = help;
  entry->kind = kind;
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

void MetricsRegistry::pm_publish_locked(Entry& e) {
  const usize n = pm_count_.load(std::memory_order_relaxed);
  if (n >= kPmMaxMetrics) return;  // overflow: absent from dumps, that's all
  pm_entries_[n] = &e;
  pm_count_.store(n + 1, std::memory_order_release);
}

bool MetricsRegistry::pm_read(usize i, PmRead& out) const noexcept {
  if (i >= pm_count()) return false;
  const Entry* e = pm_entries_[i];
  out.name = e->name.c_str();
  out.name_len = e->name.size();
  out.kind = e->kind;
  out.counter_value = 0;
  out.gauge_value = 0.0;
  out.bounds = nullptr;
  out.bounds_len = 0;
  out.sum = 0;
  switch (e->kind) {
    case MetricSample::Kind::kCounter:
      if (e->counter) out.counter_value = e->counter->value();
      break;
    case MetricSample::Kind::kGauge:
      if (e->gauge) out.gauge_value = e->gauge->stored_value();
      break;
    case MetricSample::Kind::kHistogram:
      if (e->histogram) {
        const usize n = e->histogram->fill_pm(out.counts, out.ex_value,
                                              out.ex_seq, &out.sum,
                                              kPmMaxBuckets);
        if (n != 0) {
          out.bounds = e->histogram->bounds().data();
          out.bounds_len = e->histogram->bounds().size();
        }
      }
      break;
  }
  return true;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  std::lock_guard lock(mutex_);
  Entry& e = find_or_create(name, help, MetricSample::Kind::kCounter);
  if (!e.counter) {
    e.counter.reset(new Counter());
    pm_publish_locked(e);
  }
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  std::lock_guard lock(mutex_);
  Entry& e = find_or_create(name, help, MetricSample::Kind::kGauge);
  if (!e.gauge) {
    e.gauge.reset(new Gauge());
    pm_publish_locked(e);
  }
  return *e.gauge;
}

Gauge& MetricsRegistry::labeled_gauge(const std::string& name,
                                      const std::string& labels,
                                      const std::string& help) {
  std::lock_guard lock(mutex_);
  Entry& e = find_or_create(name, help, MetricSample::Kind::kGauge);
  if (!e.gauge) {
    e.gauge.reset(new Gauge());
    e.labels = labels;
    pm_publish_locked(e);
  }
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<u64> bounds) {
  std::lock_guard lock(mutex_);
  Entry& e = find_or_create(name, help, MetricSample::Kind::kHistogram);
  if (!e.histogram) {
    if (bounds.empty()) bounds = default_latency_bounds_ns();
    e.histogram.reset(new Histogram(std::move(bounds)));
    pm_publish_locked(e);
  }
  return *e.histogram;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricSample s;
    s.name = e->name;
    s.help = e->help;
    s.labels = e->labels;
    s.kind = e->kind;
    switch (e->kind) {
      case MetricSample::Kind::kCounter:
        s.counter_value = e->counter->value();
        break;
      case MetricSample::Kind::kGauge:
        s.gauge_value = e->gauge->value();
        break;
      case MetricSample::Kind::kHistogram:
        s.bounds = e->histogram->bounds();
        s.cumulative = e->histogram->cumulative_counts();
        s.exemplars = e->histogram->exemplars();
        s.hist_count = s.cumulative.empty() ? 0 : s.cumulative.back();
        s.hist_sum = e->histogram->sum();
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string MetricsRegistry::to_prometheus() const {
  std::string out;
  for (const auto& s : snapshot()) {
    if (!s.help.empty()) {
      out += "# HELP " + s.name + " " + s.help + "\n";
    }
    out += "# TYPE " + s.name + " " + kind_name(s.kind) + "\n";
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        out += s.name + " " + std::to_string(s.counter_value) + "\n";
        break;
      case MetricSample::Kind::kGauge:
        out += s.name;
        if (!s.labels.empty()) {
          out += '{';
          out += s.labels;
          out += '}';
        }
        out += ' ';
        out += format_double(s.gauge_value);
        out += '\n';
        break;
      case MetricSample::Kind::kHistogram: {
        for (usize i = 0; i < s.bounds.size(); ++i) {
          out += s.name + "_bucket{le=\"" + std::to_string(s.bounds[i]) +
                 "\"} " + std::to_string(s.cumulative[i]) + "\n";
        }
        out += s.name + "_bucket{le=\"+Inf\"} " +
               std::to_string(s.hist_count) + "\n";
        out += s.name + "_sum " + std::to_string(s.hist_sum) + "\n";
        out += s.name + "_count " + std::to_string(s.hist_count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  const auto samples = snapshot();
  std::string counters, gauges, histograms;
  for (const auto& s : samples) {
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        if (!counters.empty()) counters += ',';
        append_json_string(counters, s.name);
        counters += ':' + std::to_string(s.counter_value);
        break;
      case MetricSample::Kind::kGauge:
        if (!gauges.empty()) gauges += ',';
        append_json_string(gauges, s.name);
        gauges += ':' + format_double(s.gauge_value);
        break;
      case MetricSample::Kind::kHistogram: {
        if (!histograms.empty()) histograms += ',';
        append_json_string(histograms, s.name);
        histograms += ":{\"bounds\":[";
        for (usize i = 0; i < s.bounds.size(); ++i) {
          if (i != 0) histograms += ',';
          histograms += std::to_string(s.bounds[i]);
        }
        histograms += "],\"cumulative\":[";
        for (usize i = 0; i < s.cumulative.size(); ++i) {
          if (i != 0) histograms += ',';
          histograms += std::to_string(s.cumulative[i]);
        }
        histograms += "],\"count\":" + std::to_string(s.hist_count) +
                      ",\"sum\":" + std::to_string(s.hist_sum);
        // Exemplars: (value, flight-recorder seq) of the bucket-max job.
        // Only emitted once any bucket has one, to keep scrapes compact.
        bool any_exemplar = false;
        for (const auto& ex : s.exemplars) {
          if (ex.flight_seq != 0) { any_exemplar = true; break; }
        }
        if (any_exemplar) {
          histograms += ",\"exemplars\":[";
          for (usize i = 0; i < s.exemplars.size(); ++i) {
            if (i != 0) histograms += ',';
            histograms += '[';
            histograms += std::to_string(s.exemplars[i].value);
            histograms += ',';
            histograms += std::to_string(s.exemplars[i].flight_seq);
            histograms += ']';
          }
          histograms += "]";
        }
        histograms += "}";
        break;
      }
    }
  }
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges +
         "},\"histograms\":{" + histograms + "}}";
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  // Drop the signal-safe index before the entries it points into: a reader
  // (crash handler) that raced a reset sees count 0, never a dangling entry.
  pm_count_.store(0, std::memory_order_release);
  entries_.clear();
}

}  // namespace kvx::obs
