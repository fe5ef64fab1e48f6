#include "kvx/engine/batch_engine.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif
#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "kvx/common/error.hpp"
#include "kvx/common/strings.hpp"
#include "kvx/obs/flight_recorder.hpp"
#include "kvx/obs/metrics.hpp"
#include "kvx/obs/postmortem.hpp"
#include "kvx/obs/process_metrics.hpp"
#include "kvx/sim/host_simd.hpp"
#include "kvx/sim/jit/jit_trace.hpp"

namespace kvx::engine {

namespace {

/// Engine metrics, registered once in the process-wide registry. Counter
/// increments are lock-free on the caller's stripe, so touching these from
/// every dispatch adds nothing measurable next to a simulator batch.
struct EngineMetrics {
  obs::Counter& jobs_submitted;
  obs::Counter& jobs_completed;
  obs::Counter& job_failures;
  obs::Counter& fallbacks;
  obs::Counter& bytes_hashed;
  obs::Counter& dispatches;
  obs::Counter& sim_cycles;
  obs::Counter& permutations;
  obs::Counter& step_theta;
  obs::Counter& step_rho_pi;
  obs::Counter& step_chi_iota;
  obs::Counter& step_absorb;
  obs::Counter& step_other;
  obs::Histogram& job_latency_ns;

  static EngineMetrics& get() {
    auto& r = obs::MetricsRegistry::global();
    static EngineMetrics m{
        r.counter("kvx_engine_jobs_submitted_total",
                  "Jobs accepted by BatchHashEngine::submit"),
        r.counter("kvx_engine_jobs_completed_total",
                  "Jobs retired successfully (digest available)"),
        r.counter("kvx_engine_job_failures_total",
                  "Jobs retired with a per-job error"),
        r.counter("kvx_engine_fallbacks_total",
                  "Backend demotions (jit->host-simd->interpreter)"),
        r.counter("kvx_engine_bytes_hashed_total", "Message bytes hashed"),
        r.counter("kvx_engine_dispatches_total",
                  "Job batches dispatched to shard accelerators"),
        r.counter("kvx_engine_sim_cycles_total",
                  "Simulated accelerator cycles consumed"),
        r.counter("kvx_engine_permutations_total",
                  "Keccak state-permutations performed"),
        r.counter("kvx_engine_step_cycles_theta_total",
                  "Simulated cycles attributed to the theta step"),
        r.counter("kvx_engine_step_cycles_rho_pi_total",
                  "Simulated cycles attributed to the rho+pi steps"),
        r.counter("kvx_engine_step_cycles_chi_iota_total",
                  "Simulated cycles attributed to the chi+iota steps"),
        r.counter("kvx_engine_step_cycles_absorb_total",
                  "Simulated cycles attributed to on-device absorb staging"),
        r.counter("kvx_engine_step_cycles_other_total",
                  "Simulated cycles attributed to permutation loop control"),
        r.histogram("kvx_engine_job_latency_ns",
                    "Submit-to-retire job latency (host wall time)"),
    };
    return m;
  }
};

/// Best-effort worker pinning: worker `index` goes to host CPU
/// index mod hardware_concurrency. Failure is silently ignored — pinning is
/// a locality hint, never a correctness requirement (cgroup CPU masks,
/// non-Linux hosts and restricted environments all legitimately refuse it).
void pin_to_cpu(unsigned index) {
#if defined(__linux__)
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(index % hw, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
#else
  (void)index;
#endif
}

u64 steady_now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

/// Jobs that can share one accelerator dispatch: same algorithm, output
/// length and (for KMAC) key material. ParallelSha3 then handles the
/// by-length lockstep grouping internally.
bool same_dispatch(const HashJob& a, const HashJob& b) {
  return a.algo == b.algo && a.resolved_out_len() == b.resolved_out_len() &&
         a.key == b.key && a.customization == b.customization;
}

/// Validation error for a malformed job, or "" if the job is well-formed.
/// Malformed jobs become immediate per-job failures (never exceptions), so
/// one bad job in a stream cannot discard its stream-mates.
std::string validate(const HashJob& job) {
  const usize fixed = fixed_digest_bytes(job.algo);
  if (fixed == 0 && job.out_len == 0) {
    return strfmt("%s job requires an explicit out_len",
                  std::string(algo_name(job.algo)).c_str());
  }
  if (fixed != 0 && job.out_len != 0 && job.out_len != fixed) {
    return strfmt("%s digest is %zu bytes, job asked for %zu",
                  std::string(algo_name(job.algo)).c_str(), fixed,
                  job.out_len);
  }
  const bool is_kmac = job.algo == Algo::kKmac128 || job.algo == Algo::kKmac256;
  if (!is_kmac && (!job.key.empty() || !job.customization.empty())) {
    return "key/customization are only valid for KMAC jobs";
  }
  return {};
}

/// The forensic demotion path of the accelerator's current state:
/// construction-time rejections (fixed per shard) followed by the tier
/// attempts of the most recent dispatch.
std::vector<TierAttempt> demotion_path_of(const core::ParallelSha3& accel) {
  std::vector<TierAttempt> path;
  const auto append = [&path](const std::vector<core::BackendAttempt>& as) {
    for (const core::BackendAttempt& a : as) {
      path.push_back({std::string(sim::backend_name(a.tier)), a.error,
                      a.injected});
    }
  };
  append(accel.construction_attempts());
  append(accel.last_dispatch_attempts());
  return path;
}

/// Add one batch's deltas to a shard's counters. Relaxed: the release
/// increment of the engine's completed/failed totals that follows publishes
/// them.
void add_batch(obs::pm::ShardCounters& c, const ShardStats& d) noexcept {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  c.jobs.fetch_add(d.jobs, kRelaxed);
  c.failures.fetch_add(d.failures, kRelaxed);
  c.fallbacks.fetch_add(d.fallbacks, kRelaxed);
  c.dispatches.fetch_add(d.dispatches, kRelaxed);
  c.sim_cycles.fetch_add(d.sim_cycles, kRelaxed);
  c.permutations.fetch_add(d.permutations, kRelaxed);
  c.bytes.fetch_add(d.bytes, kRelaxed);
  c.host_ns.fetch_add(d.host_ns, kRelaxed);
  c.theta.fetch_add(d.step_cycles.theta, kRelaxed);
  c.rho_pi.fetch_add(d.step_cycles.rho_pi, kRelaxed);
  c.chi_iota.fetch_add(d.step_cycles.chi_iota, kRelaxed);
  c.absorb.fetch_add(d.step_cycles.absorb, kRelaxed);
  c.other.fetch_add(d.step_cycles.other, kRelaxed);
  c.step_total.fetch_add(d.step_cycles.total, kRelaxed);
  c.rounds.fetch_add(d.step_cycles.rounds, kRelaxed);
}

ShardStats read_counters(const obs::pm::ShardCounters& c) noexcept {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  ShardStats s;
  s.jobs = c.jobs.load(kRelaxed);
  s.failures = c.failures.load(kRelaxed);
  s.fallbacks = c.fallbacks.load(kRelaxed);
  s.dispatches = c.dispatches.load(kRelaxed);
  s.sim_cycles = c.sim_cycles.load(kRelaxed);
  s.permutations = c.permutations.load(kRelaxed);
  s.bytes = c.bytes.load(kRelaxed);
  s.host_ns = c.host_ns.load(kRelaxed);
  s.step_cycles = {c.theta.load(kRelaxed),    c.rho_pi.load(kRelaxed),
                   c.chi_iota.load(kRelaxed), c.absorb.load(kRelaxed),
                   c.other.load(kRelaxed),    c.step_total.load(kRelaxed),
                   c.rounds.load(kRelaxed)};
  return s;
}

}  // namespace

BatchHashEngine::BatchHashEngine(const EngineConfig& config)
    : config_(config),
      window_(config.batch_window != 0 ? config.batch_window
                                       : 4 * config.accel.sn()),
      queue_(config.threads, config.max_queue),
      start_time_(std::chrono::steady_clock::now()) {
  if (config_.threads == 0) throw Error("engine needs at least one thread");
  // KVX_POSTMORTEM=<dir> switches on auto dumps + the crash handler for any
  // engine-bearing process without code changes (idempotent, cheap).
  obs::pm::init_from_env();
  // One immutable program shared by every shard; each shard still owns an
  // independent simulator, so shards never contend outside the job queue.
  const auto program = core::VectorKeccak::build_program(config_.accel);
  // Trace/fusion compile time attributable to this engine: the global cache
  // counters advance only when shard construction actually compiles (cache
  // hits add nothing, truthfully).
  const sim::TraceCacheStats tc0 = sim::TraceCache::global().stats();
  // The counters live in a post-mortem pool block, so the crash handler
  // scrapes them without locks; with the pool full they stay engine-owned.
  counters_ = obs::pm::claim_engine_counters();
  if (counters_ == nullptr) counters_ = &own_counters_;
  counters_->shard_count.store(
      static_cast<u32>(std::min<usize>(config_.threads, obs::pm::kMaxShards)),
      std::memory_order_relaxed);
  shards_.reserve(config_.threads);
  u64 construction_fallbacks = 0;
  for (unsigned t = 0; t < config_.threads; ++t) {
    auto shard = std::make_unique<Shard>();
    shard->index = t;
    shard->counters = t < obs::pm::kMaxShards ? &counters_->shards[t]
                                               : &shard->own_counters;
    shard->accel = std::make_unique<core::ParallelSha3>(
        config_.accel, program, config_.accel_options);
    // Construction-time demotions (trace compile rejected, genuinely or by
    // an injected fault) are fallbacks too — count them before any job runs.
    const u64 fb = shard->accel->backend_fallbacks();
    if (fb != 0) EngineMetrics::get().fallbacks.inc(fb);
    shard->counters->fallbacks.store(fb, std::memory_order_relaxed);
    shard->fallbacks_seen = fb;
    construction_fallbacks += fb;
    shards_.push_back(std::move(shard));
  }
  const sim::TraceCacheStats tc1 = sim::TraceCache::global().stats();
  backend_compile_ns_ =
      (tc1.compile_ns - tc0.compile_ns) + (tc1.fuse_ns - tc0.fuse_ns);
  // Build info + process self-metrics ride along with every engine: both
  // are idempotent and re-register after a test's registry reset. Build
  // info names what the constructed tier runs (as EngineStats does), or
  // for an interpreter engine the ISA host-simd would dispatch to.
  const core::ParallelSha3& accel = *shards_.front()->accel;
  std::string form(accel.host_form(accel.active_backend()));
  if (form.empty()) {
    form = sim::host_simd_isa_name(
        sim::host_simd_dispatch_isa(config_.accel.sn()));
  }
  obs::publish_build_info(form, sim::jit_supported() ? "on" : "off");
  obs::register_process_metrics();
  if (construction_fallbacks != 0) {
    obs::pm::auto_dump("backend_demotion_at_construction");
  }
  // Register the engine metrics up front, so scrapes show them (at zero)
  // before the first job.
  (void)EngineMetrics::get();
  // Queue-depth gauges are *bound*, not set: every scrape evaluates the
  // live ring depths, so the exported values can neither go stale nor race
  // a push/pop that lands between update and scrape. One aggregate gauge
  // plus one per queue shard. A second engine binding the same names
  // supersedes this one (tokens keep the unbinds from clobbering it).
  auto& registry = obs::MetricsRegistry::global();
  obs::Gauge& agg = registry.gauge(
      "kvx_engine_queue_depth",
      "Jobs in flight in the engine queue (evaluated at scrape time)");
  depth_gauges_.emplace_back(
      &agg, agg.bind([this] { return static_cast<double>(queue_.depth()); }));
  for (usize s = 0; s < queue_.shard_count(); ++s) {
    obs::Gauge& g = registry.gauge(
        strfmt("kvx_engine_queue_depth_shard_%zu", s),
        "Jobs in flight on one engine queue shard (evaluated at scrape time)");
    depth_gauges_.emplace_back(&g, g.bind([this, s] {
      return static_cast<double>(queue_.shard_depth(s));
    }));
  }
  workers_.reserve(config_.threads);
  for (unsigned t = 0; t < config_.threads; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t, *shards_[t]); });
  }
}

BatchHashEngine::~BatchHashEngine() {
  close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Unbind before queue_ is destroyed; a scrape after this point reads the
  // frozen final value (0 once drained).
  for (auto& [gauge, token] : depth_gauges_) gauge->unbind(token);
  if (counters_ != &own_counters_) obs::pm::release_engine_counters(counters_);
}

void BatchHashEngine::record_latency(u64 sample_ns, u64 flight_seq) noexcept {
  latency_.observe(sample_ns);
  obs::Histogram& global = EngineMetrics::get().job_latency_ns;
  if (flight_seq != 0) {
    global.observe_exemplar(sample_ns, flight_seq);
  } else {
    global.observe(sample_ns);
  }
}

void BatchHashEngine::notify_retire() noexcept {
  const int fd = notify_fd_.load(std::memory_order_acquire);
  if (fd < 0) return;
#if defined(__unix__) || defined(__APPLE__)
  // Eventfd semantics: the u64 accumulates into the counter, so one poll
  // wakeup coalesces any number of retirements. EAGAIN (counter saturated)
  // is harmless — the readable edge the caller sleeps on is already
  // pending. Pipes coalesce the same way once full.
  const u64 one = 1;
  const ssize_t ignored = ::write(fd, &one, sizeof one);
  (void)ignored;
#endif
}

void BatchHashEngine::fail_job_locked(u64 seq, u64 submit_ns,
                                      std::string error) {
  const u64 fseq = obs::FlightRecorder::global().record(
      obs::FlightEventType::kJobFail, 0, seq,
      obs::flight_hash(error.c_str()));
  record_latency(steady_now_ns() - submit_ns, fseq);
  EngineMetrics::get().job_failures.inc();
  counters_->failed.fetch_add(1, std::memory_order_release);
  const usize idx = static_cast<usize>(seq - collected_);
  results_[idx].error = std::move(error);
  results_[idx].flight_seq = fseq;
  done_[idx] = 1;
  all_done_.notify_all();
}

u64 BatchHashEngine::submit(HashJob job) {
  std::string invalid = validate(job);
  const u64 submit_ns = steady_now_ns();
  u64 seq = 0;
  {
    std::lock_guard lock(state_mutex_);
    if (closed_) throw Error("submit after close()");
    seq = counters_->submitted.load(std::memory_order_relaxed);
    counters_->submitted.store(seq + 1, std::memory_order_relaxed);
    results_.emplace_back();
    done_.push_back(0);
  }
  EngineMetrics::get().jobs_submitted.inc();
  obs::FlightRecorder::global().record(obs::FlightEventType::kJobSubmit, 0,
                                       seq, 1);
  if (!invalid.empty()) {
    // Malformed: retire right here as a per-job failure (full accounting,
    // no queue round-trip) so batch-mates are untouched.
    {
      std::lock_guard lock(state_mutex_);
      fail_job_locked(seq, submit_ns, std::move(invalid));
    }
    notify_retire();
    obs::pm::auto_dump("job_failure");
    return seq;
  }
  // Push outside state_mutex_: a bounded queue may block here, and workers
  // need the state mutex to retire jobs (holding it would deadlock).
  if (!queue_.push({seq, submit_ns, std::move(job)})) {
    // close() raced with this submit; retire the job as failed so drain
    // cannot hang, and surface the loss to the caller.
    {
      std::lock_guard lock(state_mutex_);
      fail_job_locked(seq, submit_ns,
                      "engine closed while a submit was in flight");
    }
    notify_retire();
    throw Error("submit after close()");
  }
  return seq;
}

u64 BatchHashEngine::submit_batch(std::span<const HashJob> jobs) {
  // Validate the whole span before taking any lock — the expensive part of
  // intake runs unsynchronized. Validity is recorded separately because the
  // retire loop below moves the error strings out (a moved-from error reads
  // empty, which must not make the job look well-formed afterwards).
  std::vector<std::string> errors(jobs.size());
  std::vector<char> ok(jobs.size(), 0);
  usize valid = 0;
  for (usize i = 0; i < jobs.size(); ++i) {
    errors[i] = validate(jobs[i]);
    if (errors[i].empty()) {
      ok[i] = 1;
      ++valid;
    }
  }
  const u64 submit_ns = steady_now_ns();
  u64 first = 0;
  {
    // ONE state-mutex acquisition reserves the contiguous sequence range,
    // grows the result slots and retires the malformed jobs — concurrent
    // submit_batch callers each get a dense, disjoint range.
    std::lock_guard lock(state_mutex_);
    first = counters_->submitted.load(std::memory_order_relaxed);
    if (jobs.empty()) return first;
    if (closed_) throw Error("submit after close()");
    counters_->submitted.store(first + jobs.size(), std::memory_order_relaxed);
    results_.resize(results_.size() + jobs.size());
    done_.resize(done_.size() + jobs.size(), 0);
    for (usize i = 0; i < jobs.size(); ++i) {
      if (ok[i] == 0) {
        fail_job_locked(first + i, submit_ns, std::move(errors[i]));
      }
    }
  }
  EngineMetrics::get().jobs_submitted.inc(jobs.size());
  obs::FlightRecorder::global().record(obs::FlightEventType::kJobSubmit, 0,
                                       first, jobs.size());
  if (valid != jobs.size()) {
    notify_retire();
    obs::pm::auto_dump("job_failure");
  }
  if (valid == 0) return first;
  std::vector<QueuedJob> items;
  items.reserve(valid);
  for (usize i = 0; i < jobs.size(); ++i) {
    if (ok[i] != 0) items.push_back({first + i, submit_ns, jobs[i]});
  }
  // Push outside state_mutex_ (bounded queues block here; workers need the
  // state mutex to retire). push_bulk distributes window_-sized contiguous
  // chunks across the queue shards and wakes sleepers once per chunk.
  const usize pushed = queue_.push_bulk(items, window_);
  if (pushed != items.size()) {
    // close() raced with this submit; retire the unpushed tail as failed so
    // drain cannot hang, and surface the loss to the caller.
    {
      std::lock_guard lock(state_mutex_);
      for (usize i = pushed; i < items.size(); ++i) {
        fail_job_locked(items[i].seq, submit_ns,
                        "engine closed while a submit was in flight");
      }
    }
    notify_retire();
    throw Error("submit after close()");
  }
  return first;
}

void BatchHashEngine::close() {
  {
    std::lock_guard lock(state_mutex_);
    closed_ = true;
  }
  queue_.close();
}

usize BatchHashEngine::drain_batch(std::vector<JobResult>& out) {
  std::unique_lock lock(state_mutex_);
  // Every reserved sequence id has a slot, so "all submitted jobs retired"
  // is "every slot done". `ready` is an absolute sequence cursor: the scan
  // resumes where the last wakeup stopped (try_drain_ready may collect a
  // prefix meanwhile), so the wait costs O(jobs) in total.
  u64 ready = collected_;
  all_done_.wait(lock, [&] {
    ready = std::max(ready, collected_);
    while (ready < collected_ + done_.size() &&
           done_[static_cast<usize>(ready - collected_)] != 0) {
      ++ready;
    }
    return ready == collected_ + done_.size();
  });
  const usize n = results_.size();
  if (out.empty()) {
    out = std::move(results_);
  } else {
    out.insert(out.end(), std::make_move_iterator(results_.begin()),
               std::make_move_iterator(results_.end()));
  }
  results_.clear();
  done_.clear();
  collected_ += n;
  return n;
}

std::vector<JobResult> BatchHashEngine::drain_results() {
  std::vector<JobResult> out;
  drain_batch(out);
  return out;
}

usize BatchHashEngine::try_drain_ready(std::vector<JobResult>& out,
                                       usize max) {
  std::lock_guard lock(state_mutex_);
  // Results are handed out strictly in submission order, same as drain():
  // only the contiguous retired prefix is collectable. A still-in-flight
  // job at the front holds everything behind it (the caller sleeps on the
  // notify fd and retries, so this is starvation-free).
  const usize limit = max == 0 ? results_.size() : std::min(max, results_.size());
  usize n = 0;
  while (n < limit && done_[n] != 0) ++n;
  if (n == 0) return 0;
  out.insert(out.end(), std::make_move_iterator(results_.begin()),
             std::make_move_iterator(results_.begin() +
                                     static_cast<std::ptrdiff_t>(n)));
  results_.erase(results_.begin(),
                 results_.begin() + static_cast<std::ptrdiff_t>(n));
  done_.erase(done_.begin(), done_.begin() + static_cast<std::ptrdiff_t>(n));
  collected_ += n;
  return n;
}

std::vector<std::vector<u8>> BatchHashEngine::drain() {
  std::vector<JobResult> rs = drain_results();
  usize failures = 0;
  const std::string* first = nullptr;
  for (const JobResult& r : rs) {
    if (!r.ok()) {
      if (first == nullptr) first = &r.error;
      ++failures;
    }
  }
  if (failures != 0) {
    throw Error(strfmt("%zu of %zu jobs failed; first error: %s", failures,
                       rs.size(), first->c_str()));
  }
  std::vector<std::vector<u8>> out;
  out.reserve(rs.size());
  for (JobResult& r : rs) out.push_back(std::move(r.digest));
  return out;
}

JobResult BatchHashEngine::result(u64 seq) {
  std::unique_lock lock(state_mutex_);
  if (seq >= collected_ + done_.size()) {
    throw Error(strfmt("result: sequence id %llu was never issued",
                       static_cast<unsigned long long>(seq)));
  }
  all_done_.wait(lock, [&] {
    return seq < collected_ || done_[static_cast<usize>(seq - collected_)] != 0;
  });
  if (seq < collected_) {
    throw Error(strfmt("result: job %llu was already collected by drain",
                       static_cast<unsigned long long>(seq)));
  }
  return results_[static_cast<usize>(seq - collected_)];
}

u64 BatchHashEngine::in_flight() const noexcept {
  // Retirements first (acquire), then submitted: every retirement seen was
  // preceded by its submission, so the difference never underflows.
  const u64 retired = counters_->completed.load(std::memory_order_acquire) +
                      counters_->failed.load(std::memory_order_acquire);
  return counters_->submitted.load(std::memory_order_relaxed) - retired;
}

EngineStats BatchHashEngine::stats() const {
  EngineStats st;
  // Same load order as in_flight(): completed + failed ≤ submitted.
  st.completed = counters_->completed.load(std::memory_order_acquire);
  st.failed = counters_->failed.load(std::memory_order_acquire);
  st.submitted = counters_->submitted.load(std::memory_order_relaxed);
  st.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    st.shards.push_back(read_counters(*shard->counters));
  }
  st.latency.count = latency_.count();
  st.latency.p50_ns = latency_.quantile(0.50);
  st.latency.p99_ns = latency_.quantile(0.99);
  st.latency.p999_ns = latency_.quantile(0.999);
  st.latency.max_ns = latency_.max();
  if (!shards_.empty()) {
    // All shards share one program + config, so shard 0 is representative.
    const core::ParallelSha3& accel = *shards_.front()->accel;
    st.backend = sim::backend_name(accel.active_backend());
    st.effective_backend = sim::backend_name(accel.last_backend());
    st.fusion_coverage = accel.fusion_coverage();
    st.host_simd_coverage = accel.host_simd_coverage();
    st.jit_code_bytes = accel.jit_code_bytes();
    st.host_simd_isa = accel.host_form(accel.last_backend());
  }
  st.backend_compile_ns = backend_compile_ns_;
  st.queue_high_water = queue_.high_water();
  st.queue_shard_depths.reserve(queue_.shard_count());
  for (usize s = 0; s < queue_.shard_count(); ++s) {
    st.queue_shard_depths.push_back(queue_.shard_depth(s));
  }
  st.elapsed_ns = static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
  return st;
}

void BatchHashEngine::worker_loop(unsigned index, Shard& shard) {
  if (config_.pin_workers) pin_to_cpu(index);
  std::vector<QueuedJob> batch;
  while (queue_.pop_bulk(index, window_, batch) > 0) {
    try {
      process_batch(shard, batch);
    } catch (const std::exception& e) {
      // Backstop for failures outside the per-group isolation (allocation
      // in the grouping pass): process_batch retires nothing before its
      // dispatches are done, so every job of the batch is retired here as
      // failed, with full metric and latency accounting, so drain
      // terminates and the counters stay consistent.
      fail_batch(shard, batch, e.what());
    }
  }
}

void BatchHashEngine::fail_batch(Shard& shard,
                                 const std::vector<QueuedJob>& batch,
                                 const char* what) {
  obs::FlightRecorder& fr = obs::FlightRecorder::global();
  const u64 err_hash = obs::flight_hash(what);
  const u64 retire_ns = steady_now_ns();
  std::vector<u64> fseqs(batch.size());
  for (usize i = 0; i < batch.size(); ++i) {
    fseqs[i] =
        fr.record(obs::FlightEventType::kJobFail, 0, batch[i].seq, err_hash);
    record_latency(retire_ns - batch[i].submit_ns, fseqs[i]);
  }
  EngineMetrics::get().job_failures.inc(batch.size());
  shard.counters->failures.fetch_add(batch.size(), std::memory_order_relaxed);
  counters_->failed.fetch_add(batch.size(), std::memory_order_release);
  {
    std::lock_guard lock(state_mutex_);
    for (usize i = 0; i < batch.size(); ++i) {
      const usize idx = static_cast<usize>(batch[i].seq - collected_);
      results_[idx].error = what;
      results_[idx].flight_seq = fseqs[i];
      done_[idx] = 1;
    }
    all_done_.notify_all();
  }
  notify_retire();
  obs::pm::auto_dump("job_failure");
}

void BatchHashEngine::process_batch(Shard& shard,
                                    std::vector<QueuedJob>& batch) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  core::ParallelSha3& accel = *shard.accel;
  const core::BatchStats before = accel.stats();
  obs::FlightRecorder& fr = obs::FlightRecorder::global();
  fr.record(obs::FlightEventType::kDispatch, 0, batch.size(), shard.index);

  // Partition the run into dispatch groups (order-preserving); each group
  // goes to the accelerator as one batch so equal-length jobs share lanes.
  // Each group is its own failure domain: a SimError or Error thrown by one
  // dispatch marks only that group's jobs failed; the loop continues with
  // the next group.
  std::vector<JobResult> outcomes(batch.size());
  std::vector<bool> grouped(batch.size(), false);
  u64 bytes = 0;
  for (usize i = 0; i < batch.size(); ++i) {
    if (grouped[i]) continue;
    std::vector<usize> members{i};
    for (usize j = i + 1; j < batch.size(); ++j) {
      if (!grouped[j] && same_dispatch(batch[i].job, batch[j].job)) {
        grouped[j] = true;
        members.push_back(j);
      }
    }
    std::vector<std::vector<u8>> msgs(members.size());
    u64 group_bytes = 0;
    for (usize k = 0; k < members.size(); ++k) {
      msgs[k] = batch[members[k]].job.message;
      group_bytes += msgs[k].size();
    }
    const HashJob& head = batch[i].job;
    const usize out_len = head.resolved_out_len();
    try {
      std::vector<std::vector<u8>> outs;
      switch (head.algo) {
        case Algo::kKmac128:
        case Algo::kKmac256:
          outs = accel.kmac_batch(head.algo == Algo::kKmac128 ? 128u : 256u,
                                  head.key, msgs, out_len, head.customization);
          break;
        case Algo::kShake128:
        case Algo::kShake256:
          outs = accel.xof_batch(base_function(head.algo), msgs, out_len);
          break;
        default:
          outs = accel.hash_batch(base_function(head.algo), msgs);
          break;
      }
      const std::string backend(sim::backend_name(accel.last_backend()));
      // Forensics: a job that succeeded only after demotions carries the
      // tier chain it went through; the common clean dispatch stays empty.
      std::vector<TierAttempt> path;
      if (!accel.construction_attempts().empty() ||
          accel.last_dispatch_attempts().size() > 1) {
        path = demotion_path_of(accel);
      }
      for (usize k = 0; k < members.size(); ++k) {
        outcomes[members[k]].digest = std::move(outs[k]);
        outcomes[members[k]].backend = backend;
        outcomes[members[k]].demotion_path = path;
      }
      bytes += group_bytes;  // only successfully hashed bytes count
    } catch (const std::exception& e) {
      // Dispatch failed on every tier (the interpreter is the last resort,
      // so reaching here means even it threw): each member gets the error
      // and the full attempted-tier chain.
      std::vector<TierAttempt> path = demotion_path_of(accel);
      for (const usize member : members) {
        outcomes[member].error = e.what();
        outcomes[member].demotion_path = path;
      }
    }
  }

  const core::BatchStats after = accel.stats();
  const u64 host_ns = static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  const u64 cycles = after.accelerator_cycles - before.accelerator_cycles;
  const u64 perms = after.permutations - before.permutations;
  const obs::StepCycleStats steps = after.step_cycles.minus(before.step_cycles);
  // Dispatch-time backend demotions this batch caused: diff the
  // accelerator's monotone fallback counter (worker thread only, so no
  // other batch can interleave on this shard).
  const u64 accel_fallbacks = accel.backend_fallbacks();
  const u64 fallbacks = accel_fallbacks - shard.fallbacks_seen;
  shard.fallbacks_seen = accel_fallbacks;

  usize ok_jobs = 0;
  for (const JobResult& r : outcomes) {
    if (r.ok()) ++ok_jobs;
  }
  const usize failed_jobs = batch.size() - ok_jobs;

  EngineMetrics& m = EngineMetrics::get();
  m.jobs_completed.inc(ok_jobs);
  if (failed_jobs != 0) m.job_failures.inc(failed_jobs);
  if (fallbacks != 0) m.fallbacks.inc(fallbacks);
  m.bytes_hashed.inc(bytes);
  m.dispatches.inc();
  m.sim_cycles.inc(cycles);
  m.permutations.inc(perms);
  m.step_theta.inc(steps.theta);
  m.step_rho_pi.inc(steps.rho_pi);
  m.step_chi_iota.inc(steps.chi_iota);
  m.step_absorb.inc(steps.absorb);
  m.step_other.inc(steps.other);

  // One retire event covers the whole batch; failed jobs additionally get
  // their own kJobFail event so kvx-doctor can anchor a timeline window on
  // each failure individually. Every retirement is latency-stamped, failed
  // or not — dropping failures would skew p50/p99.9 toward the survivors.
  const u64 retire_seq = fr.record(
      obs::FlightEventType::kJobRetire,
      static_cast<u16>(std::min<usize>(failed_jobs, 0xFFFF)),
      batch.front().seq, batch.size());
  const u64 retire_ns = steady_now_ns();
  for (usize i = 0; i < batch.size(); ++i) {
    u64 fseq = retire_seq;
    if (!outcomes[i].ok()) {
      fseq = fr.record(obs::FlightEventType::kJobFail, 0, batch[i].seq,
                       obs::flight_hash(outcomes[i].error));
    }
    outcomes[i].flight_seq = fseq;
    record_latency(retire_ns - batch[i].submit_ns, fseq);
  }
  add_batch(*shard.counters,
            {.jobs = ok_jobs, .failures = failed_jobs, .fallbacks = fallbacks,
             .bytes = bytes, .dispatches = 1, .sim_cycles = cycles,
             .permutations = perms, .host_ns = host_ns, .step_cycles = steps});
  counters_->completed.fetch_add(ok_jobs, std::memory_order_release);
  counters_->failed.fetch_add(failed_jobs, std::memory_order_release);
  {
    std::lock_guard lock(state_mutex_);
    for (usize i = 0; i < batch.size(); ++i) {
      // collected_ only moves past retired slots, so this index is always
      // in range.
      const usize idx = static_cast<usize>(batch[i].seq - collected_);
      results_[idx] = std::move(outcomes[i]);
      done_[idx] = 1;
    }
    all_done_.notify_all();
  }
  notify_retire();
  // Post-mortem triggers run outside state_mutex_ — a dump scrapes the
  // metrics registry, and the scrape path may re-enter engine callbacks.
  if (fallbacks != 0) obs::pm::auto_dump("backend_demotion");
  if (failed_jobs != 0) obs::pm::auto_dump("job_failure");
}

std::vector<std::vector<u8>> run_batch(const EngineConfig& config,
                                       std::span<const HashJob> jobs) {
  BatchHashEngine engine(config);
  engine.submit_all(jobs);
  engine.close();
  return engine.drain();
}

}  // namespace kvx::engine
