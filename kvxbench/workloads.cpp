#include "workloads.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "kvx/core/vector_keccak.hpp"
#include "kvx/keccak/permutation.hpp"
#include "kvx/sim/compiled_trace.hpp"

namespace kvxb {

using kvx::engine::Algo;
using kvx::engine::HashJob;

namespace {

constexpr const char* kNames[] = {"perm-paper", "kyber-xof", "bulk-16k",
                                  "serve-open"};

/// Fresh engines per kyber-xof or bulk-16k run: three visits to each CPU
/// of a 4-CPU guest.
constexpr unsigned kRounds = 12;
/// Share of each engine round after its warm-up spent on lone jobs.
constexpr double kLoneShare = 0.25;
/// Lone jobs per latency window. A time window mixes disturbed and
/// undisturbed stretches; windows of a few consecutive jobs keep them
/// apart. Over ten runs of bulk-16k (on three workers), windows of 9 jobs
/// spread 6.5% where 50 ms windows spread 10.3%.
constexpr usize kLoneGroup = 9;
/// Length of one serve-open phase, each on a fresh server.
constexpr double kServeSlotS = 1.25;

/// An eventfd registered as the engine's notify fd for the object's
/// lifetime.
struct NotifyFd {
  kvx::engine::BatchHashEngine& eng;
  int fd;
  explicit NotifyFd(kvx::engine::BatchHashEngine& e)
      : eng(e), fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
    if (fd >= 0) eng.set_notify_fd(fd);
  }
  ~NotifyFd() {
    eng.set_notify_fd(-1);
    if (fd >= 0) ::close(fd);
  }
  NotifyFd(const NotifyFd&) = delete;
  NotifyFd& operator=(const NotifyFd&) = delete;
};

/// Kyber1024 matrix-generation jobs: SHAKE128(seed ‖ j ‖ i) → 672 B, 16 per
/// 32-byte seed (examples/kyber_matrix_gen).
void kyber_jobs(JobSet& set, kvx::SplitMix64& rng, usize matrices) {
  for (usize m = 0; m < matrices; ++m) {
    const std::vector<u8> seed = random_message(rng, 32);
    for (u8 i = 0; i < 4; ++i) {
      for (u8 j = 0; j < 4; ++j) {
        HashJob job{Algo::kShake128, seed, 672, {}, {}};
        job.message.push_back(j);
        job.message.push_back(i);
        set.jobs.push_back(std::move(job));
      }
    }
  }
}

/// The kvx-loadgen traffic mix: 70% SHA3-256, 15% SHAKE128 → 64 B, 15%
/// KMAC256 → 32 B under a 32-byte key; messages of 0–600 B.
void mixed_jobs(JobSet& set, kvx::SplitMix64& rng, usize n) {
  const std::vector<u8> key = random_message(rng, 32);
  for (usize k = 0; k < n; ++k) {
    const u64 pick = rng.below(100);
    HashJob job;
    job.message = random_message(rng, rng.below(601));
    if (pick < 70) {
      job.algo = Algo::kSha3_256;
    } else if (pick < 85) {
      job.algo = Algo::kShake128;
      job.out_len = 64;
    } else {
      job.algo = Algo::kKmac256;
      job.out_len = 32;
      job.key = key;
    }
    set.jobs.push_back(std::move(job));
  }
}

double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// --- perm-paper ------------------------------------------------------------

/// A paper config with the jit requested, at `sn` lockstep states.
kvx::core::VectorKeccakConfig paper_accel(kvx::core::Arch arch, unsigned sn) {
  kvx::core::VectorKeccakConfig c{arch, 5 * sn, 24};
  c.backend = kvx::sim::ExecBackend::kJit;
  return c;
}

/// One accelerator of perm-paper and the permutation chain it runs: its
/// states advance by one permutation per dispatch, so the final states can
/// be checked against the golden model applied as many times.
struct PermChain {
  std::unique_ptr<kvx::core::VectorKeccak> vk;
  std::vector<kvx::keccak::State> init, states;
  u64 dispatches = 0;

  PermChain(const kvx::core::VectorKeccakConfig& cfg, kvx::SplitMix64& rng,
            int warm)
      : vk(std::make_unique<kvx::core::VectorKeccak>(cfg)),
        init(random_states(rng, cfg.sn())),
        states(init) {
    for (int i = 0; i < warm; ++i) permute();
  }
  void permute() {
    vk->permute(states);
    ++dispatches;
  }
};

Headline measure_perm_paper(const Workload& w, double seconds, Tracer& tracer,
                            Outcome& out, HostSpeed& speed) {
  constexpr int kWarm = 200;
  constexpr int kChunk = 64;  ///< dispatches per throughput window
  // Throughput is chained permute() of SN states on each paper config,
  // timed in windows of 64 dispatches. Latency is one state at a time on
  // the same config built for SN = 1, the paper's single-state point: a
  // different program from the SN-state one, so it does not restate the
  // throughput. The configs and the two kinds take turns in slices of
  // kWindowS, each slice on the next CPU, and each config is summarised by
  // the best twentieth of its windows.
  const usize n_cfg = std::size(kPaperConfigs);
  const u64 rounds = std::max<u64>(
      1, static_cast<u64>(seconds /
                          (2.0 * kWindowS * static_cast<double>(n_cfg))));
  const u64 slice_ns =
      static_cast<u64>(seconds * 1e9) / (2 * rounds * n_cfg);
  struct Config {
    PermChain wide, lone;
    std::vector<double> rate;  ///< permutations/s of each 64-dispatch window
    Windows lone_lat;          ///< one-state dispatch latency per slice
  };
  std::vector<Config> cfgs;
  kvx::SplitMix64 rng(w.seed ^ 0x7065726D);
  {
    auto span = tracer.scope("sim.warm");
    for (const PaperConfig& pc : kPaperConfigs) {
      cfgs.push_back({PermChain(paper_accel(pc.arch, w.sn), rng, kWarm),
                      PermChain(paper_accel(pc.arch, 1), rng, kWarm),
                      {},
                      {}});
    }
  }
  {
    CpuRotation cpus;
    Histogram lat;
    for (u64 r = 0; r < rounds; ++r) {
      for (usize ci = 0; ci < n_cfg; ++ci) {
        Config& c = cfgs[ci];
        cpus.pin(r + ci);
        u64 t = now_ns();
        const u64 wide_end = t + slice_ns;
        while (t < wide_end) {
          // One span per window keeps the trace bounded.
          auto span = tracer.scope("sim.permute", c.wide.dispatches);
          const u64 a = t;
          for (int k = 0; k < kChunk; ++k) c.wide.permute();
          t = now_ns();
          c.rate.push_back(static_cast<double>(kChunk * c.wide.states.size()) /
                           (static_cast<double>(t - a) / 1e9));
          speed.tick();
          t = now_ns();
        }
        lat.clear();
        const u64 lone_start = t;
        const u64 lone_end = t + slice_ns;
        auto span = tracer.scope("sim.permute_one", c.lone.dispatches);
        while (t < lone_end) {
          const u64 a = t;
          c.lone.permute();
          t = now_ns();
          lat.record(t - a);
          if (lat.count() % 64 == 0) {
            speed.tick();
            t = now_ns();
          }
        }
        c.lone_lat.add(static_cast<double>(lat.count()) /
                           (static_cast<double>(t - lone_start) / 1e9),
                       lat);
      }
    }
  }

  std::vector<double> rates, p50s, p99s;
  u64 samples = 0;
  std::fprintf(stderr, "  %-8s %-6s %14s %13s %13s %7s %8s\n", "config",
               "tier", "host perms/s", "SN=1 p50 us", "SN=1 p99 us",
               "cycles", "paper");
  struct Chain {
    usize config = 0;
    kvx::keccak::State init;
    kvx::keccak::State final_state;
    u64 length = 0;
  };
  std::vector<Chain> chains;
  for (usize ci = 0; ci < n_cfg; ++ci) {
    const PaperConfig& pc = kPaperConfigs[ci];
    Config& c = cfgs[ci];
    const u64 cycles = c.wide.vk->last_timing().permutation_cycles;
    out.invariant(cycles == pc.model_cycles,
                  std::string("perm_cycles.") + pc.name + " = " +
                      std::to_string(cycles) + ", pinned " +
                      std::to_string(pc.model_cycles));
    print_series(pc.name, "window perms/s", c.rate, 1.0);
    print_series(pc.name, "SN=1 window p50 us", c.lone_lat.p50, 1e-3);
    rates.push_back(best_twentieth(c.rate, true));
    p50s.push_back(best_twentieth(c.lone_lat.p50, false) / 1e6);
    p99s.push_back(c.lone_lat.all.percentile(0.99) / 1e6);
    samples += c.lone_lat.all.count();
    std::fprintf(
        stderr, "  %-8s %-6s %14.0f %13.3f %13.3f %7llu %8llu  (%+.2f%%)\n",
        pc.name,
        std::string(kvx::sim::backend_name(c.wide.vk->active_backend())).c_str(),
        rates.back(), p50s.back() * 1e3, p99s.back() * 1e3,
        static_cast<unsigned long long>(cycles),
        static_cast<unsigned long long>(pc.paper_cycles),
        100.0 * (static_cast<double>(cycles) /
                     static_cast<double>(pc.paper_cycles) -
                 1.0));
    for (const PermChain* pch : {&c.wide, &c.lone}) {
      for (usize s = 0; s < pch->states.size(); ++s) {
        chains.push_back({ci, pch->init[s], pch->states[s], pch->dispatches});
      }
    }
  }
  // Every final state against the golden model applied along the same
  // chain (permute_fast is the lane-unrolled path, bit-identical to
  // keccak::permute); verification runs after timing, on up to 4 threads.
  std::vector<u8> ok(chains.size(), 0);
  {
    auto span = tracer.scope("verify.chains");
    parallel_for(chains.size(), [&](usize i) {
      kvx::keccak::State s = chains[i].init;
      for (u64 k = 0; k < chains[i].length; ++k) kvx::keccak::permute_fast(s);
      ok[i] = s == chains[i].final_state ? 1 : 0;
    });
  }
  for (usize i = 0; i < chains.size(); ++i) {
    out.attempted += chains[i].length;
    if (ok[i] == 0) {
      out.fail(std::string("perm-paper: final state of a ") +
                   kPaperConfigs[chains[i].config].name +
                   " chain differs from the golden model",
               chains[i].length);
    }
  }
  Headline h;
  h.throughput = geomean(rates);
  h.p50_ms = geomean(p50s);
  h.p99_ms = geomean(p99s);
  h.samples = samples;
  return h;
}

// --- kyber-xof / bulk-16k --------------------------------------------------

/// One job at a time on an otherwise idle engine for `seconds`: submit it,
/// sleep on the notify fd until it retires, collect it. Each window is
/// kLoneGroup consecutive jobs and holds their submit-to-collect latency;
/// digests are verified.
Windows run_lone_jobs(kvx::engine::BatchHashEngine& eng, const Workload& w,
                      double seconds, Tracer& tracer, Outcome& out,
                      HostSpeed& speed) {
  NotifyFd notify(eng);
  if (notify.fd < 0) {
    out.fail("eventfd failed");
    return {};
  }
  const std::vector<HashJob>& pool = w.set.jobs;
  Windows r;
  std::array<u64, kLoneGroup> group{};
  usize in_group = 0;
  std::vector<kvx::engine::JobResult> results;
  u64 group_start = now_ns();
  const u64 end = group_start + static_cast<u64>(seconds * 1e9);
  for (usize idx = 0; now_ns() < end; idx = (idx + 1) % pool.size()) {
    const u64 a = now_ns();
    {
      auto span = tracer.scope("engine.submit_batch", idx);
      eng.submit_batch(std::span<const HashJob>(pool.data() + idx, 1));
    }
    results.clear();
    while (results.empty()) {
      {
        auto span = tracer.scope("wait.poll");
        pollfd pfd{notify.fd, POLLIN, 0};
        (void)::poll(&pfd, 1, 100);
        u64 drained = 0;
        (void)!::read(notify.fd, &drained, sizeof drained);
      }
      auto span = tracer.scope("engine.try_drain_ready");
      (void)eng.try_drain_ready(results);
      if (results.empty() && now_ns() - a > 10'000'000'000ull) {
        out.fail(w.name + ": a lone job never retired");
        return {};
      }
    }
    const u64 b = now_ns();
    ++out.attempted;
    if (!results[0].ok()) {
      out.fail("job failed: " + results[0].error);
    } else if (results[0].digest != w.set.expected[idx]) {
      out.fail(w.name + ": digest of job " + std::to_string(idx) +
               " differs from the golden model");
    } else {
      r.all.record(b - a);
      group[in_group++] = b - a;
    }
    if (in_group == kLoneGroup) {
      const auto mid = group.begin() + kLoneGroup / 2;
      std::nth_element(group.begin(), mid, group.end());
      r.rate.push_back(static_cast<double>(kLoneGroup) /
                       (static_cast<double>(b - group_start) / 1e9));
      r.p50.push_back(static_cast<double>(*mid));
      in_group = 0;
      speed.tick();
      group_start = now_ns();
    }
  }
  return r;
}

Headline measure_engine(const Workload& w, double seconds, Tracer& tracer,
                        Outcome& out, LayerCounters* layers,
                        HostSpeed& speed) {
  // Rounds on fresh engines, each on the next CPU: the harness thread is
  // pinned there and the worker inherits the pin it is started under, so
  // the whole round runs on one CPU, and so do the yardstick probes the
  // harness takes before the engine starts and between lone jobs, while
  // the worker sleeps (beside a busy worker a probe would time the worker
  // too). Each round runs the closed loop (throughput) and then lone jobs
  // on the idle engine (latency).
  // Closed-loop latency is not reported as a headline: with a fixed number
  // of jobs in flight it is in-flight / throughput and would count the
  // throughput twice.
  const unsigned rounds = w.smoke ? 1u : kRounds;
  const double round_s = seconds / rounds;
  const double warm_s = std::min(0.2, round_s * 0.1);
  const double lone_s = (round_s - warm_s) * kLoneShare;
  const double loaded_s = round_s - warm_s - lone_s;
  Windows loaded, lone;
  CpuRotation cpus;
  for (unsigned r = 0; r < rounds; ++r) {
    cpus.pin(r);
    speed.burst();
    kvx::engine::BatchHashEngine eng(engine_config(w.sn));
    {
      auto span = tracer.scope("harness.warmup");
      (void)run_closed_loop(eng, w, warm_s, 1, tracer, out, nullptr);
    }
    const bool last = r + 1 == rounds;
    loaded.append(run_closed_loop(
        eng, w, loaded_s,
        std::max(1u, static_cast<unsigned>(loaded_s / kWindowS)), tracer, out,
        last && layers != nullptr ? &layers->engine : nullptr));
    lone.append(run_lone_jobs(eng, w, lone_s, tracer, out, speed));
  }
  Headline h;
  h.throughput = best_twentieth(loaded.rate, true);
  h.p50_ms = best_twentieth(lone.p50, false) / 1e6;
  h.p99_ms = lone.all.percentile(0.99) / 1e6;
  h.samples = lone.all.count();
  loaded.print("closed loop");
  lone.print("lone job");
  std::fprintf(stderr,
               "  closed loop: %.2f MB/s of message at the reported rate, "
               "submit-to-collect p50 %.3f ms with %zu in flight\n",
               h.throughput * static_cast<double>(w.set.message_bytes) /
                   static_cast<double>(w.set.jobs.size()) / 1e6,
               loaded.all.percentile(0.5) / 1e6, w.in_flight);
  return h;
}

// --- serve-open --------------------------------------------------------------

Headline measure_serve(const Workload& w, double seconds, Tracer& tracer,
                       Outcome& out, LayerCounters* layers, HostSpeed& speed) {
  // Closed-loop saturation (throughput), lone requests (latency) and the
  // three frozen open-loop rates. Every phase runs on a fresh server on the
  // next CPU, for the same reason the engine workloads use fresh engines.
  enum : usize { kSat, kLone, kLow, kMid, kHigh };
  const struct {
    const char* name;
    double rate;
  } steps[] = {{"saturation", 0.0},
               {"lone", 0.0},
               {"low", kServeRates.low},
               {"mid", kServeRates.mid},
               {"high", kServeRates.high}};
  // Saturation and lone requests alternate in short slots, so that each
  // samples many servers and every CPU across the whole run; the open-loop
  // rates, which are reported but carry no headline, get one slot each.
  std::vector<usize> order{kSat, kLone, kLow, kMid, kHigh};
  if (!w.smoke) {
    const usize n = std::max<usize>(
        order.size(), static_cast<usize>(std::lround(seconds / kServeSlotS)));
    order.clear();
    for (usize k = 0; k + 3 < n; ++k) order.push_back(k % 2 == 0 ? kSat : kLone);
    for (const usize open : {kLow, kMid, kHigh}) {
      const usize at = order.size() * (open - kLone) / 4;
      order.insert(order.begin() + static_cast<std::ptrdiff_t>(at), open);
    }
  }
  const double slot_s = seconds / static_cast<double>(order.size());
  const double warm = w.smoke ? 0.05 : std::min(0.5, 0.25 * slot_s);
  const double measure_s = std::max(0.05, slot_s - warm);
  std::vector<Windows> windows(std::size(steps));
  std::fprintf(stderr, "  %-10s %10s %10s %9s %9s %9s %8s %7s\n", "phase",
               "rate/s", "served/s", "p50 ms", "p99 ms", "lag99 us",
               "samples", "valid");
  std::vector<usize> visits(std::size(steps), 0);
  for (usize k = 0; k < order.size(); ++k) {
    const usize i = order[k];
    PhaseSpec spec;
    spec.rate =
        w.smoke && steps[i].rate > 0 ? steps[i].rate / 20 : steps[i].rate;
    spec.lone = i == kLone;
    spec.warm_s = warm;
    spec.measure_s = measure_s;
    spec.sn = w.sn;
    spec.seed = w.seed * 31 + k;
    spec.place = visits[i]++;  // each kind of phase visits every CPU in turn
    spec.speed = &speed;
    NetCounters net;
    (void)run_serve_phase(w.set, spec, tracer, out, net);
    const double lag99 = net.lag.percentile(0.99) / 1e3;
    std::fprintf(stderr, "  %-10s %10.0f %10.0f %9.4f %9.4f %9.1f %8llu %7s\n",
                 steps[i].name, spec.rate, best_twentieth(net.windows.rate, true),
                 best_twentieth(net.windows.p50, false) / 1e6,
                 net.windows.all.percentile(0.99) / 1e6, lag99,
                 static_cast<unsigned long long>(net.windows.all.count()),
                 spec.rate == 0.0 || lag99 <= 100.0 ? "yes" : "NO");
    windows[i].append(net.windows);
    if (layers != nullptr && i == kMid) layers->net = std::move(net);
  }
  for (usize i = 0; i < windows.size(); ++i) windows[i].print(steps[i].name);
  Headline h;
  h.throughput = best_twentieth(windows[kSat].rate, true);
  h.p50_ms = best_twentieth(windows[kLone].p50, false) / 1e6;
  h.p99_ms = windows[kLone].all.percentile(0.99) / 1e6;
  h.samples = windows[kLone].all.count();
  return h;
}

}  // namespace

bool known_workload(const std::string& name) {
  return std::find(std::begin(kNames), std::end(kNames), name) !=
         std::end(kNames);
}

Workload make_workload(const std::string& name, u64 seed, bool smoke) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.smoke = smoke;
  kvx::SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + name.size());
  if (name == "perm-paper") {
    // The layer replays hash one-block SHA3-256 messages: one permutation
    // per job, the hashing-path face of a bare permutation.
    for (usize i = 0; i < (smoke ? 64u : 1024u); ++i) {
      w.set.jobs.push_back({Algo::kSha3_256, random_message(rng, 135), 0, {}, {}});
    }
    w.in_flight = smoke ? 64 : 4096;
    w.chunk = smoke ? 32 : 256;
  } else if (name == "kyber-xof") {
    kyber_jobs(w.set, rng, smoke ? 16 : 1024);  // 16384 jobs
    w.in_flight = smoke ? 256 : 16384;
    w.chunk = smoke ? 64 : 1024;
  } else if (name == "bulk-16k") {
    // 256 × 16 KiB = 4 MiB working set, larger than the 2 MiB L2.
    for (usize i = 0; i < (smoke ? 16u : 256u); ++i) {
      w.set.jobs.push_back(
          {Algo::kSha3_256, random_message(rng, 16384), 0, {}, {}});
    }
    w.in_flight = smoke ? 16 : 256;
    w.chunk = smoke ? 8 : 32;
  } else {  // serve-open
    mixed_jobs(w.set, rng, smoke ? 256 : 4096);
    w.sn = 3;
    w.in_flight = smoke ? 128 : 1024;
    w.chunk = smoke ? 32 : 128;
  }
  compute_expected(w.set);
  return w;
}

kvx::engine::EngineConfig engine_config(unsigned sn) {
  kvx::engine::EngineConfig c;
  c.threads = 1;
  c.accel = {kvx::core::Arch::k64Lmul8, 5 * sn, 24};
  c.accel.backend = kvx::sim::ExecBackend::kJit;
  return c;
}

double setup_once(const Workload& w) {
  kvx::sim::TraceCache::global().clear();
  if (w.name == "perm-paper") {
    const u64 t0 = now_ns();
    for (const PaperConfig& pc : kPaperConfigs) {
      kvx::core::VectorKeccak wide(paper_accel(pc.arch, w.sn));
      kvx::core::VectorKeccak lone(paper_accel(pc.arch, 1));
    }
    return seconds_since(t0);
  }
  if (w.name == "serve-open") {
    kvx::net::ServerConfig cfg;
    cfg.engine = engine_config(w.sn);
    cfg.engine.max_queue = 1024;
    const u64 t0 = now_ns();
    kvx::net::HashServer server(cfg);
    return seconds_since(t0);
  }
  const u64 t0 = now_ns();
  kvx::engine::BatchHashEngine eng(engine_config(w.sn));
  return seconds_since(t0);
}

Headline measure(const Workload& w, double seconds, Tracer& tracer,
                 Outcome& out, LayerCounters* layers) {
  HostSpeed speed;
  Headline h =
      w.name == "perm-paper"   ? measure_perm_paper(w, seconds, tracer, out, speed)
      : w.name == "serve-open" ? measure_serve(w, seconds, tracer, out, layers, speed)
                               : measure_engine(w, seconds, tracer, out, layers, speed);
  h.speed = std::move(speed);
  return h;
}

Windows run_closed_loop(kvx::engine::BatchHashEngine& eng, const Workload& w,
                        double seconds, unsigned reps, Tracer& tracer,
                        Outcome& out, EngineCounters* counters) {
  NotifyFd notify(eng);
  if (notify.fd < 0) {
    out.fail("eventfd failed");
    return {};
  }

  const std::vector<HashJob>& pool = w.set.jobs;
  const usize chunk = w.chunk;
  Windows r;
  // A window closes at the first collection at least `window_ns` after it
  // opened, and its rate is the jobs it collected over its own length:
  // jobs retire in bursts, so counting them into fixed time slots would
  // quantise the rate to the burst size.
  const u64 window_ns = static_cast<u64>(seconds / reps * 1e9);
  u64 window_start = 0, window_jobs = 0;
  Histogram window_lat;
  std::vector<u64> chunk_submit_ns;  // submit time of chunk k
  std::vector<kvx::engine::JobResult> results;
  u64 submitted = 0, collected = 0;
  u64 submit_ns = 0, collect_ns = 0, collect_calls = 0;
  usize cursor = 0;

  const auto collect = [&](bool in_window) {
    {
      auto span = tracer.scope("wait.poll");
      pollfd pfd{notify.fd, POLLIN, 0};
      (void)::poll(&pfd, 1, 10);
      u64 drained = 0;
      (void)!::read(notify.fd, &drained, sizeof drained);
    }
    const u64 a = now_ns();
    usize n = 0;
    {
      auto span = tracer.scope("engine.try_drain_ready");
      n = eng.try_drain_ready(results);
    }
    const u64 b = now_ns();
    if (n == 0) return;
    collect_ns += b - a;
    ++collect_calls;
    auto span = tracer.scope("verify.digests", collected);
    for (const kvx::engine::JobResult& res : results) {
      const usize idx = static_cast<usize>(collected % pool.size());
      ++out.attempted;
      if (!res.ok()) {
        out.fail("job failed: " + res.error);
      } else if (res.digest != w.set.expected[idx]) {
        out.fail(w.name + ": digest of job " + std::to_string(idx) +
                 " differs from the golden model");
      } else if (in_window) {
        ++window_jobs;
        window_lat.record(b - chunk_submit_ns[collected / chunk]);
      }
      ++collected;
    }
    results.clear();
    if (in_window && b - window_start >= window_ns) {
      r.add(static_cast<double>(window_jobs) /
                (static_cast<double>(b - window_start) / 1e9),
            window_lat);
      window_start = now_ns();
      window_jobs = 0;
      window_lat.clear();
    }
  };

  if (counters != nullptr) counters->before = eng.stats();
  const u64 t0 = now_ns();
  const u64 end = t0 + static_cast<u64>(seconds * 1e9);
  window_start = t0;
  while (now_ns() < end) {
    while (submitted - collected + chunk <= w.in_flight) {
      const u64 a = now_ns();
      {
        auto span = tracer.scope("engine.submit_batch", submitted);
        eng.submit_batch(std::span<const HashJob>(pool.data() + cursor, chunk));
      }
      submit_ns += now_ns() - a;
      chunk_submit_ns.push_back(a);
      submitted += chunk;
      cursor = (cursor + chunk) % pool.size();
    }
    collect(true);
  }
  if (r.rate.empty() && window_jobs > 0) {  // a run shorter than one window
    r.add(static_cast<double>(window_jobs) / seconds_since(window_start),
          window_lat);
  }
  const double wall = seconds_since(t0);
  if (counters != nullptr) {
    counters->after = eng.stats();
    counters->valid = true;
    counters->wall_s = wall;
    counters->threads = eng.threads();
    counters->sn = eng.lanes_per_shard();
    counters->submit_ns_per_job =
        static_cast<double>(submit_ns) / static_cast<double>(submitted);
    counters->collect_ns_per_job =
        static_cast<double>(collect_ns) / static_cast<double>(collected);
    counters->jobs_per_collect =
        static_cast<double>(collected) / static_cast<double>(collect_calls);
  }
  // Jobs still in flight are verified but lie outside the window.
  const u64 tail_deadline = now_ns() + 60'000'000'000ull;
  while (collected < submitted && now_ns() < tail_deadline) {
    collect(false);
  }
  if (collected < submitted) {
    out.fail(w.name + ": jobs never retired", submitted - collected);
  }
  return r;
}

}  // namespace kvxb
