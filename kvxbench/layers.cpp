// Per-layer replays of a traced run. Each layer is timed from outside,
// through its public API, on the workload's own jobs: the golden model
// (keccak), the permutation tiers (sim), the batched sponge (core), the
// engine, the wire codecs and the server (net), and the flight recorder
// (obs).
#include <algorithm>
#include <map>

#include "kvx/core/parallel_sha3.hpp"
#include "kvx/keccak/permutation.hpp"
#include "kvx/net/frame.hpp"
#include "kvx/net/protocol.hpp"
#include "kvx/obs/flight_recorder.hpp"
#include "kvx/sim/compiled_trace.hpp"
#include "workloads.hpp"

namespace kvxb {

using kvx::engine::Algo;
using kvx::engine::HashJob;
using kvx::sim::ExecBackend;

namespace {

constexpr u64 kLmul8Cycles = kPaperConfigs[1].model_cycles;

/// Keeps the golden permutation loop's result observable.
std::atomic<u64> g_sink{0};

kvx::core::VectorKeccakConfig accel(kvx::core::Arch arch, unsigned sn,
                                    ExecBackend backend) {
  kvx::core::VectorKeccakConfig c{arch, 5 * sn, 24};
  c.backend = backend;
  return c;
}

// --- keccak ------------------------------------------------------------------

struct Golden {
  double jobs_per_s = 0.0;
  double ns_per_perm = 0.0;
};

Golden measure_golden(const Workload& w, double seconds, Tracer& tracer,
                      Outcome& out) {
  CpuRotation cpus;
  Golden g;
  const JobSet& set = w.set;
  std::vector<double> pass_rate;  // jobs/s of each pass over the job set
  const u64 end = now_ns() + static_cast<u64>(seconds * 0.5e9);
  do {
    cpus.pin(pass_rate.size());
    auto span = tracer.scope("keccak.golden_pass", pass_rate.size());
    u64 ns = 0;
    for (usize i = 0; i < set.jobs.size(); ++i) {
      const u64 a = now_ns();
      const std::vector<u8> d = kvx::engine::host_reference_digest(set.jobs[i]);
      ns += now_ns() - a;
      if (d != set.expected[i]) out.fail("golden model is not deterministic");
    }
    pass_rate.push_back(static_cast<double>(set.jobs.size()) /
                        (static_cast<double>(ns) / 1e9));
  } while (now_ns() < end);
  g.jobs_per_s = best_twentieth(pass_rate, true);

  kvx::SplitMix64 rng(w.seed);
  kvx::keccak::State s = random_states(rng, 1)[0];
  std::vector<double> chunk_ns;  // ns per permutation of each 1024
  const u64 end2 = now_ns() + static_cast<u64>(seconds * 0.5e9);
  do {
    cpus.pin(chunk_ns.size());
    auto span = tracer.scope("keccak.permute_fast", chunk_ns.size());
    const u64 a = now_ns();
    for (int k = 0; k < 1024; ++k) kvx::keccak::permute_fast(s);
    chunk_ns.push_back(static_cast<double>(now_ns() - a) / 1024.0);
  } while (now_ns() < end2);
  g.ns_per_perm = best_twentieth(chunk_ns, false);
  g_sink.store(s.lane(0, 0), std::memory_order_relaxed);
  return g;
}

// --- sim -----------------------------------------------------------------------

/// Host ns per permutation of a permute() loop on one accelerator; the final
/// states are verified against the golden model.
double ns_per_perm(const kvx::core::VectorKeccakConfig& cfg, double seconds,
                   const char* label, u64 seed, Tracer& tracer, Outcome& out,
                   ExecBackend* landed) {
  kvx::core::VectorKeccak vk(cfg);
  if (landed != nullptr) *landed = vk.active_backend();
  const unsigned sn = cfg.sn();
  kvx::SplitMix64 rng(seed);
  std::vector<kvx::keccak::State> states = random_states(rng, sn);
  const std::vector<kvx::keccak::State> init = states;
  for (int i = 0; i < 200; ++i) vk.permute(states);
  std::vector<double> chunk_ns;  // ns per permutation of each 64 dispatches
  {
    CpuRotation cpus;
    const u64 end = now_ns() + static_cast<u64>(seconds * 1e9);
    do {
      cpus.pin(chunk_ns.size());
      auto span = tracer.scope("sim.permute", 64 * chunk_ns.size());
      const u64 a = now_ns();
      for (int k = 0; k < 64; ++k) vk.permute(states);
      chunk_ns.push_back(static_cast<double>(now_ns() - a) / (64.0 * sn));
    } while (now_ns() < end);
  }
  const u64 chain = 200 + 64 * chunk_ns.size();
  std::vector<u8> ok(sn, 0);
  parallel_for(sn, [&](usize i) {
    kvx::keccak::State s = init[i];
    for (u64 k = 0; k < chain; ++k) kvx::keccak::permute_fast(s);
    ok[i] = s == states[i] ? 1 : 0;
  });
  for (unsigned i = 0; i < sn; ++i) {
    out.attempted += chain;
    if (ok[i] == 0) {
      out.fail(std::string("sim replay ") + label +
                   ": final state differs from the golden model",
               chain);
    }
  }
  return best_twentieth(chunk_ns, false);
}

// --- core ----------------------------------------------------------------------

/// The workload's jobs grouped by the ParallelSha3 call that serves them.
struct CoreGroup {
  Algo algo;
  usize out_len;
  std::vector<u8> key;
  std::vector<usize> index;
  std::vector<std::vector<u8>> messages;
};

std::vector<CoreGroup> core_groups(const JobSet& set) {
  std::map<std::pair<int, usize>, CoreGroup> groups;
  for (usize i = 0; i < set.jobs.size(); ++i) {
    const HashJob& j = set.jobs[i];
    const auto k = std::make_pair(static_cast<int>(j.algo), j.out_len);
    auto it = groups.find(k);
    if (it == groups.end()) {
      it = groups.emplace(k, CoreGroup{j.algo, j.resolved_out_len(), j.key, {}, {}})
               .first;
    }
    it->second.index.push_back(i);
    it->second.messages.push_back(j.message);
  }
  std::vector<CoreGroup> out;
  for (auto& [k, g] : groups) out.push_back(std::move(g));
  return out;
}

std::vector<std::vector<u8>> core_call(kvx::core::ParallelSha3& ps,
                                       const CoreGroup& g) {
  switch (g.algo) {
    case Algo::kShake128:
    case Algo::kShake256:
      return ps.xof_batch(kvx::engine::base_function(g.algo), g.messages,
                          g.out_len);
    case Algo::kKmac128:
      return ps.kmac_batch(128, g.key, g.messages, g.out_len);
    case Algo::kKmac256:
      return ps.kmac_batch(256, g.key, g.messages, g.out_len);
    default:
      return ps.hash_batch(kvx::engine::base_function(g.algo), g.messages);
  }
}

struct CoreCost {
  double ns_per_job = 0.0;
  double ns_per_perm = 0.0;   ///< all core time per permutation
  double perms_per_job = 0.0;
  double batches_per_perm = 0.0;
};

CoreCost measure_core(const Workload& w, double seconds, Tracer& tracer,
                      Outcome& out) {
  const std::vector<CoreGroup> groups = core_groups(w.set);
  u64 golden_perms = 0;
  for (const HashJob& j : w.set.jobs) golden_perms += golden_permutations(j);
  kvx::core::ParallelSha3 ps(
      accel(kvx::core::Arch::k64Lmul8, w.sn, ExecBackend::kJit));
  CpuRotation cpus;
  std::vector<double> pass_ns;  // core time of each pass over the job set
  const u64 end = now_ns() + static_cast<u64>(seconds * 1e9);
  do {
    cpus.pin(pass_ns.size());
    u64 ns = 0;
    for (const CoreGroup& g : groups) {
      const u64 a = now_ns();
      std::vector<std::vector<u8>> outs;
      {
        auto span = tracer.scope("core.batch", g.index.front());
        outs = core_call(ps, g);
      }
      ns += now_ns() - a;
      auto span = tracer.scope("verify.core");
      for (usize k = 0; k < g.index.size(); ++k) {
        ++out.attempted;
        if (outs[k] != w.set.expected[g.index[k]]) {
          out.fail("core: digest differs from the golden model");
        }
      }
    }
    pass_ns.push_back(static_cast<double>(ns));
    if (pass_ns.size() == 1) {
      // The permutation count is a property of the inputs alone.
      out.invariant(ps.stats().permutations == golden_perms,
                    "core.perms_per_job: ParallelSha3 counted " +
                        std::to_string(ps.stats().permutations) +
                        " permutations, the golden sponge needs " +
                        std::to_string(golden_perms));
    }
  } while (now_ns() < end);
  const kvx::core::BatchStats& st = ps.stats();
  const double best_ns = best_twentieth(pass_ns, false);
  CoreCost c;
  c.ns_per_job = best_ns / static_cast<double>(w.set.jobs.size());
  c.ns_per_perm = best_ns / static_cast<double>(golden_perms);
  c.perms_per_job =
      static_cast<double>(golden_perms) / static_cast<double>(w.set.jobs.size());
  c.batches_per_perm = static_cast<double>(st.permutation_batches) /
                       static_cast<double>(st.permutations);
  return c;
}

// --- net codecs ----------------------------------------------------------------

void measure_codecs(const Workload& w, double seconds, Tracer& tracer,
                    Outcome& out, double& decode_ns, double& encode_ns) {
  std::vector<u8> stream;
  for (usize i = 0; i < w.set.jobs.size(); ++i) {
    const HashJob& j = w.set.jobs[i];
    kvx::net::Request req;
    req.id = i;
    req.op = kvx::net::Opcode::kHash;
    req.algo = j.algo;
    req.out_len = static_cast<u32>(j.out_len);
    req.key = j.key;
    req.message = j.message;
    kvx::net::append_frame(stream, kvx::net::encode_request(req));
  }
  CpuRotation cpus;
  std::vector<double> pass_ns;  // ns per request of each pass
  const u64 end = now_ns() + static_cast<u64>(seconds * 0.5e9);
  do {
    cpus.pin(pass_ns.size());
    auto span = tracer.scope("net.decode_replay", pass_ns.size());
    const u64 a = now_ns();
    kvx::net::FrameReader reader;
    std::vector<u8> payload;
    std::string err;
    usize frames = 0;
    bool ok = true;
    for (usize off = 0; off < stream.size(); off += 16384) {
      const usize n = std::min<usize>(16384, stream.size() - off);
      ok = ok && reader.feed(std::span<const u8>(stream.data() + off, n));
      while (reader.next(payload)) {
        const std::optional<kvx::net::Request> req =
            kvx::net::decode_request(payload, err);
        ok = ok && req.has_value() &&
             req->message.size() == w.set.jobs[frames].message.size();
        ++frames;
      }
    }
    pass_ns.push_back(static_cast<double>(now_ns() - a) /
                      static_cast<double>(w.set.jobs.size()));
    if (!ok || frames != w.set.jobs.size()) out.fail("net: codec replay failed");
  } while (now_ns() < end);
  decode_ns = best_twentieth(pass_ns, false);

  pass_ns.clear();
  std::vector<u8> wire;
  const u64 end2 = now_ns() + static_cast<u64>(seconds * 0.5e9);
  do {
    cpus.pin(pass_ns.size());
    auto span = tracer.scope("net.encode_replay", pass_ns.size());
    const u64 a = now_ns();
    for (usize i = 0; i < w.set.expected.size(); ++i) {
      kvx::net::append_frame(wire,
                             kvx::net::encode_response_ok(i, w.set.expected[i]));
      if (wire.size() > (usize{1} << 20)) wire.clear();
    }
    pass_ns.push_back(static_cast<double>(now_ns() - a) /
                      static_cast<double>(w.set.expected.size()));
  } while (now_ns() < end2);
  encode_ns = best_twentieth(pass_ns, false);
}

// --- obs -----------------------------------------------------------------------

/// Engine closed loop with the flight recorder alternately off and on;
/// returns the cost of recording in percent of throughput.
double recorder_overhead_pct(const Workload& w, double seconds, Tracer& tracer,
                             Outcome& out) {
  kvx::engine::BatchHashEngine eng(engine_config(w.sn));
  kvx::obs::FlightRecorder& rec = kvx::obs::FlightRecorder::global();
  constexpr int kPairs = 4;
  const double run_s = seconds / (2 * kPairs);
  const unsigned n_windows =
      std::max(1u, static_cast<unsigned>(run_s / kWindowS));
  std::vector<double> off, on;  // window rates
  for (int p = 0; p < kPairs; ++p) {
    for (const bool enabled : {p % 2 == 0, p % 2 != 0}) {
      rec.set_enabled(enabled);
      auto span = tracer.scope(enabled ? "obs.recorder_on" : "obs.recorder_off");
      const Windows r =
          run_closed_loop(eng, w, run_s, n_windows, tracer, out, nullptr);
      std::vector<double>& rates = enabled ? on : off;
      rates.insert(rates.end(), r.rate.begin(), r.rate.end());
    }
  }
  rec.set_enabled(true);
  return (best_twentieth(off, true) / best_twentieth(on, true) - 1.0) * 100.0;
}

}  // namespace

std::vector<u64> check_paper_cycles(unsigned sn, Outcome& out) {
  std::vector<u64> cycles;
  kvx::SplitMix64 rng(sn);
  for (const PaperConfig& pc : kPaperConfigs) {
    kvx::core::VectorKeccak vk(accel(pc.arch, sn, ExecBackend::kJit));
    std::vector<kvx::keccak::State> states = random_states(rng, sn);
    vk.permute(states);
    const u64 c = vk.last_timing().permutation_cycles;
    out.invariant(c == pc.model_cycles,
                  std::string("perm_cycles.") + pc.name + " = " +
                      std::to_string(c) + ", pinned " +
                      std::to_string(pc.model_cycles));
    cycles.push_back(c);
  }
  return cycles;
}

void measure_layers(const Workload& w, double seconds, double headline,
                    Tracer& tracer, Outcome& out, LayerCounters& counters) {
  auto root = tracer.scope("harness.layer_replays");
  const double unit = seconds / 10.0;

  // keccak: the golden model on the same jobs, one core.
  Golden g;
  {
    auto span = tracer.scope("harness.golden");
    g = measure_golden(w, unit, tracer, out);
  }
  out.add("keccak.golden_jobs_per_s", g.jobs_per_s, "1/s");
  out.add("keccak.golden_ns_per_perm", g.ns_per_perm, "ns");
  // Host time over host time: perm-paper compares permutations/s.
  const double golden_rate = w.name == "perm-paper" ? 1e9 / g.ns_per_perm
                                                    : g.jobs_per_s;
  out.add("keccak.engine_over_golden", headline / golden_rate, "ratio");
  std::fprintf(stderr,
               "  golden model, one core: %.0f jobs/s, %.1f ns/perm | "
               "workload %.0f/s = %.3fx golden\n",
               g.jobs_per_s, g.ns_per_perm, headline, headline / golden_rate);

  // sim: each tier forced on 64lmul8 at the workload's SN, plus the top
  // tier the 32-bit config reaches.
  double jit_ns = 0.0;
  {
    auto span = tracer.scope("harness.sim_tiers");
    struct Tier {
      const char* metric;
      kvx::core::Arch arch;
      ExecBackend backend;
    };
    const Tier tiers[] = {
        {"sim.ns_per_perm.jit", kvx::core::Arch::k64Lmul8, ExecBackend::kJit},
        {"sim.ns_per_perm.host-simd", kvx::core::Arch::k64Lmul8,
         ExecBackend::kHostSimd},
        {"sim.ns_per_perm.fused", kvx::core::Arch::k64Lmul8,
         ExecBackend::kFusedTrace},
        {"sim.ns_per_perm.32lmul8", kvx::core::Arch::k32Lmul8, ExecBackend::kJit},
    };
    for (const Tier& t : tiers) {
      ExecBackend landed = t.backend;
      const double ns = ns_per_perm(accel(t.arch, w.sn, t.backend), unit * 0.75,
                                    t.metric, w.seed, tracer, out, &landed);
      out.add(t.metric, ns, "ns");
      std::fprintf(stderr, "  %-26s %8.1f ns  (ran on %s)\n", t.metric, ns,
                   std::string(kvx::sim::backend_name(landed)).c_str());
      if (t.backend == ExecBackend::kJit && t.arch == kvx::core::Arch::k64Lmul8) {
        jit_ns = ns;
      }
    }
  }
  {
    // Construction cost by stage: trace-cache counter deltas around a cold
    // build, median of five.
    auto span = tracer.scope("harness.sim_setup");
    std::vector<double> compile, fuse, lower, emit;
    for (int i = 0; i < 5; ++i) {
      kvx::sim::TraceCache::global().clear();
      const kvx::sim::TraceCacheStats a = kvx::sim::TraceCache::global().stats();
      {
        auto s2 = tracer.scope("sim.construct");
        kvx::core::VectorKeccak vk(
            accel(kvx::core::Arch::k64Lmul8, w.sn, ExecBackend::kJit));
      }
      const kvx::sim::TraceCacheStats b = kvx::sim::TraceCache::global().stats();
      compile.push_back(static_cast<double>(b.compile_ns - a.compile_ns) / 1e6);
      fuse.push_back(static_cast<double>(b.fuse_ns - a.fuse_ns) / 1e6);
      lower.push_back(static_cast<double>(b.lower_ns - a.lower_ns) / 1e6);
      emit.push_back(static_cast<double>(b.jit_ns - a.jit_ns) / 1e6);
    }
    out.add("sim.setup_ms.compile", median(compile), "ms");
    out.add("sim.setup_ms.fuse", median(fuse), "ms");
    out.add("sim.setup_ms.lower", median(lower), "ms");
    out.add("sim.setup_ms.jit_emit", median(emit), "ms");
  }
  {
    // Simulated step attribution: exact, so two builds must agree.
    kvx::obs::StepCycleStats steps[2];
    for (kvx::obs::StepCycleStats& s : steps) {
      kvx::core::VectorKeccak vk(
          accel(kvx::core::Arch::k64Lmul8, w.sn, ExecBackend::kJit));
      kvx::SplitMix64 rng(w.seed);
      std::vector<kvx::keccak::State> states = random_states(rng, w.sn);
      vk.permute(states);
      s = vk.last_step_cycles();
    }
    out.invariant(steps[0] == steps[1], "sim.step_share: attribution differs "
                                        "between two identical builds");
    const double total = static_cast<double>(steps[0].total);
    out.add("sim.step_share.theta", static_cast<double>(steps[0].theta) / total,
            "frac");
    out.add("sim.step_share.rho_pi",
            static_cast<double>(steps[0].rho_pi) / total, "frac");
    out.add("sim.step_share.chi_iota",
            static_cast<double>(steps[0].chi_iota) / total, "frac");
  }
  {
    const std::vector<u64> cycles = check_paper_cycles(w.sn, out);
    for (usize i = 0; i < cycles.size(); ++i) {
      out.add(std::string("sim.perm_cycles.") + kPaperConfigs[i].name,
              static_cast<double>(cycles[i]), "cycles");
    }
  }

  // core: ParallelSha3 on the workload's jobs, one thread.
  {
    auto span = tracer.scope("harness.core");
    const CoreCost c = measure_core(w, unit, tracer, out);
    out.add("core.ns_per_job", c.ns_per_job, "ns");
    // Everything but the permutation dispatches themselves: stage-in,
    // stage-out and sponge bookkeeping, per permutation.
    out.add("core.sponge_ns_per_perm",
            c.ns_per_perm - c.batches_per_perm * jit_ns * w.sn, "ns");
    out.add("core.perms_per_job", c.perms_per_job, "count");
  }

  // engine: the workload's own engine where it drives one; otherwise (and
  // for the harness-side call costs of serve-open) a closed-loop replay.
  EngineCounters replay;
  if (!counters.engine.valid) {
    auto span = tracer.scope("harness.engine_replay");
    kvx::engine::BatchHashEngine eng(engine_config(w.sn));
    (void)run_closed_loop(eng, w, unit, 1, tracer, out, &replay);
  }
  const EngineCounters& calls = counters.engine.valid ? counters.engine : replay;
  const EngineCounters& eng = counters.net.valid ? counters.net.engine : calls;
  out.add("engine.submit_ns_per_job", calls.submit_ns_per_job, "ns");
  out.add("engine.collect_ns_per_job", calls.collect_ns_per_job, "ns");
  out.add("engine.jobs_per_collect", calls.jobs_per_collect, "count");
  {
    const kvx::engine::ShardStats a = eng.before.totals();
    const kvx::engine::ShardStats b = eng.after.totals();
    const double jobs = static_cast<double>(b.jobs - a.jobs);
    const double dispatches = static_cast<double>(b.dispatches - a.dispatches);
    const double host_ns = static_cast<double>(b.host_ns - a.host_ns);
    const double retire_p50_us =
        static_cast<double>(eng.after.latency.p50_ns) / 1e3;
    out.add("engine.retire_latency_us.p50", retire_p50_us, "us");
    out.add("engine.retire_latency_us.p99",
            static_cast<double>(eng.after.latency.p99_ns) / 1e3, "us");
    out.add("engine.queue_wait_us.p50",
            retire_p50_us - (dispatches > 0 ? host_ns / dispatches / 1e3 : 0.0),
            "us");
    out.add("engine.worker_busy_frac",
            host_ns / (static_cast<double>(eng.threads) * eng.wall_s * 1e9),
            "frac");
    double max_jobs = 0.0;
    for (usize s = 0; s < eng.after.shards.size(); ++s) {
      const u64 before =
          s < eng.before.shards.size() ? eng.before.shards[s].jobs : 0;
      max_jobs = std::max(max_jobs,
                          static_cast<double>(eng.after.shards[s].jobs - before));
    }
    const double shards = static_cast<double>(eng.after.shards.size());
    out.add("engine.shard_imbalance", jobs > 0 ? max_jobs / (jobs / shards) : 0.0,
            "ratio");
    out.add("engine.jobs_per_dispatch", dispatches > 0 ? jobs / dispatches : 0.0,
            "count");
    const double sim_cycles = static_cast<double>(b.sim_cycles - a.sim_cycles);
    out.add("engine.lane_fill",
            sim_cycles > 0
                ? static_cast<double>(b.permutations - a.permutations) *
                      static_cast<double>(kLmul8Cycles) /
                      (static_cast<double>(eng.sn) * sim_cycles)
                : 0.0,
            "frac");
    out.add("engine.queue_high_water",
            static_cast<double>(eng.after.queue_high_water), "count");
    out.add("engine.fallbacks", static_cast<double>(b.fallbacks - a.fallbacks),
            "count");
    out.add("engine.failed",
            static_cast<double>(eng.after.failed - eng.before.failed), "count");
  }

  // net: codecs replayed over the workload's jobs; server numbers from the
  // traced serve-open pass, or from a short open-loop probe of these jobs.
  {
    auto span = tracer.scope("harness.codecs");
    double decode_ns = 0.0, encode_ns = 0.0;
    measure_codecs(w, unit * 0.5, tracer, out, decode_ns, encode_ns);
    out.add("net.decode_ns_per_req", decode_ns, "ns");
    out.add("net.encode_ns_per_resp", encode_ns, "ns");
  }
  if (!counters.net.valid) {
    auto span = tracer.scope("harness.net_probe");
    u64 perms = 0;
    for (const HashJob& j : w.set.jobs) perms += golden_permutations(j);
    const double per_job =
        static_cast<double>(perms) / static_cast<double>(w.set.jobs.size());
    PhaseSpec spec;
    spec.rate = std::min(2000.0, 50000.0 / per_job);
    spec.warm_s = w.smoke ? 0.05 : 0.2;
    spec.measure_s = std::max(spec.warm_s, unit * 1.5 - spec.warm_s);
    spec.sn = w.sn;
    spec.seed = w.seed ^ 0x6E6574;
    (void)run_serve_phase(w.set, spec, tracer, out, counters.net);
  }
  NetCounters& net = counters.net;
  const double client_p50_us = net.windows.all.percentile(0.5) / 1e3;
  const double retire_p50_us =
      static_cast<double>(net.engine.after.latency.p50_ns) / 1e3;
  out.add("net.server_overhead_us.p50", client_p50_us - retire_p50_us, "us");
  out.add("net.squeeze_latency_us.p50",
          net.squeeze_latency.percentile(0.5) / 1e3, "us");
  out.add("net.squeeze_latency_us.p99",
          net.squeeze_latency.percentile(0.99) / 1e3, "us");
  out.add("net.scrape_ms", median(net.scrape_ms), "ms");
  out.add("net.backpressure_engagements",
          static_cast<double>(net.server.backpressure_engagements), "count");
  out.add("net.bad_requests", static_cast<double>(net.server.bad_requests),
          "count");
  out.add("net.protocol_errors", static_cast<double>(net.server.protocol_errors),
          "count");
  out.add("client.lag_us.p99", net.lag.percentile(0.99) / 1e3, "us");

  // obs: the always-on flight recorder's cost on this workload's jobs.
  {
    auto span = tracer.scope("harness.recorder");
    out.add("obs.recorder_overhead_pct",
            recorder_overhead_pct(w, unit * 2.0, tracer, out), "%");
  }
}

}  // namespace kvxb
