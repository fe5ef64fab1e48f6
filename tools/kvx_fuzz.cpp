// kvx-fuzz — differential fault-injection fuzzer for the batch engine.
//
//   kvx-fuzz [--seed N] [--jobs N] [--rate R] [--backend B] [--arch A]
//            [--postmortem DIR] [--quick] [-v]
//     --seed N     master seed for job streams and fault plans  (default 1)
//     --jobs N     jobs per engine configuration                (default 600)
//     --rate R     injected-fault probability per decision      (default 1e-3)
//     --backend B  restrict the matrix to one configured backend
//                  (interpreter/host-simd/jit; default: all three)
//     --arch A     accelerator architecture
//                  (64lmul1/64lmul8/32lmul8/64fused; default 64lmul8)
//     --postmortem DIR  write rate-capped post-mortem dumps to DIR on every
//                  demotion/job failure and arm the crash handler (same as
//                  exporting KVX_POSTMORTEM=DIR)
//     --quick      reduced matrix for CI smoke (SN=3, 2 threads, 120 jobs,
//                  rate 0.02) — still covers all three backends
//     -v           print one line per configuration
//
// Random job streams over all eight algorithms (SHA-3/SHAKE/KMAC) run
// through a BatchHashEngine of one architecture for every backend × SN ×
// thread-count
// combination with deterministic fault injection armed. Per configuration
// the harness checks the engine's fail-soft contract:
//   * every job that reports ok matches the host golden model bit-exactly
//     (faults must demote or fail, never corrupt silently);
//   * every failed job carries a non-empty error and an empty digest;
//   * EngineStats holds submitted == completed + failed exactly;
//   * the Prometheus counters (kvx_engine_jobs_submitted_total ==
//     jobs_completed_total + job_failures_total) hold the same invariant,
//     delta-checked because the registry is process-global.
//
// Exit codes: 0 all configurations pass, 1 any violation, 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "kvx/common/cli.hpp"
#include "kvx/common/error.hpp"
#include "kvx/common/rng.hpp"
#include "kvx/engine/batch_engine.hpp"
#include "kvx/obs/metrics.hpp"
#include "kvx/obs/postmortem.hpp"
#include "kvx/sim/exec_backend.hpp"
#include "kvx/sim/fault_injector.hpp"

namespace {

using namespace kvx;
using namespace kvx::engine;

constexpr int kExitOk = 0;
constexpr int kExitFail = 1;
constexpr int kExitUsage = 2;

constexpr Algo kAlgos[] = {
    Algo::kSha3_224, Algo::kSha3_256, Algo::kSha3_384, Algo::kSha3_512,
    Algo::kShake128, Algo::kShake256, Algo::kKmac128,  Algo::kKmac256,
};

/// Deterministic random job stream: all algorithms, message lengths that
/// exercise 1..3 sponge blocks, keys/customizations on the KMAC jobs.
std::vector<HashJob> make_jobs(u64 seed, usize count) {
  SplitMix64 rng(seed);
  std::vector<HashJob> jobs;
  jobs.reserve(count);
  for (usize n = 0; n < count; ++n) {
    HashJob job;
    job.algo = kAlgos[rng.below(sizeof kAlgos / sizeof kAlgos[0])];
    job.message.resize(1 + static_cast<usize>(rng.below(200)));
    for (u8& b : job.message) b = static_cast<u8>(rng.next());
    if (fixed_digest_bytes(job.algo) == 0) {
      job.out_len = 16 + static_cast<usize>(rng.below(48));
    }
    if (job.algo == Algo::kKmac128 || job.algo == Algo::kKmac256) {
      job.key.resize(16);
      for (u8& b : job.key) b = static_cast<u8>(rng.next());
      if (rng.below(2) == 0) job.customization = {'f', 'u', 'z', 'z'};
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

struct EngineCounterDeltas {
  obs::Counter& submitted;
  obs::Counter& completed;
  obs::Counter& failures;
  obs::Counter& fallbacks;
  u64 submitted0 = 0;
  u64 completed0 = 0;
  u64 failures0 = 0;
  u64 fallbacks0 = 0;

  EngineCounterDeltas()
      : submitted(obs::MetricsRegistry::global().counter(
            "kvx_engine_jobs_submitted_total")),
        completed(obs::MetricsRegistry::global().counter(
            "kvx_engine_jobs_completed_total")),
        failures(obs::MetricsRegistry::global().counter(
            "kvx_engine_job_failures_total")),
        fallbacks(obs::MetricsRegistry::global().counter(
            "kvx_engine_fallbacks_total")) {
    submitted0 = submitted.value();
    completed0 = completed.value();
    failures0 = failures.value();
    fallbacks0 = fallbacks.value();
  }
};

int usage() {
  std::fprintf(stderr,
               "usage: kvx-fuzz [--seed N] [--jobs N] [--rate R] "
               "[--backend B] [--arch A] [--postmortem DIR] [--quick] [-v]\n"
               "  backends: %s\n"
               "  archs: %s\n",
               std::string(sim::kBackendNamesHelp).c_str(),
               std::string(core::kArchNamesHelp).c_str());
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  u64 seed = 1;
  usize jobs_per_config = 600;
  double rate = 1e-3;
  bool quick = false;
  bool verbose = false;
  std::optional<sim::ExecBackend> only_backend;
  core::Arch arch = core::Arch::k64Lmul8;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_next = i + 1 < argc;
    if (a == "--seed" && has_next) {
      seed = cli::require_u64("kvx-fuzz", "--seed", argv[++i]);
    } else if (a == "--jobs" && has_next) {
      jobs_per_config = cli::require_usize("kvx-fuzz", "--jobs", argv[++i], 1,
                                           usize{1} << 24);
    } else if (a == "--rate" && has_next) {
      rate = cli::require_f64("kvx-fuzz", "--rate", argv[++i], 0.0, 1.0);
    } else if (a == "--backend" && has_next) {
      only_backend = sim::parse_backend(argv[++i]);
      if (!only_backend.has_value()) {
        std::fprintf(stderr, "kvx-fuzz: unknown backend '%s' (expected %s)\n",
                     argv[i], std::string(sim::kBackendNamesHelp).c_str());
        return kExitUsage;
      }
    } else if (a == "--arch" && has_next) {
      const auto parsed = core::parse_arch(argv[++i]);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "kvx-fuzz: unknown arch '%s' (expected %s)\n",
                     argv[i], std::string(core::kArchNamesHelp).c_str());
        return kExitUsage;
      }
      arch = *parsed;
    } else if (a == "--postmortem" && has_next) {
      // Same effect as exporting KVX_POSTMORTEM: auto dumps on demotions
      // and job failures, crash handler armed.
      obs::pm::set_dump_dir(argv[++i]);
      obs::pm::install_crash_handler();
    } else if (a == "--quick") {
      quick = true;
    } else if (a == "-v" || a == "--verbose") {
      verbose = true;
    } else if (a == "-h" || a == "--help") {
      return usage();
    } else {
      std::fprintf(stderr, "kvx-fuzz: unknown option '%s'\n", a.c_str());
      return kExitUsage;
    }
  }
  std::vector<sim::ExecBackend> backends = {sim::ExecBackend::kInterpreter,
                                            sim::ExecBackend::kHostSimd,
                                            sim::ExecBackend::kJit};
  if (only_backend.has_value()) backends = {*only_backend};
  std::vector<unsigned> sns = {1, 3, 6};
  std::vector<unsigned> threads = {1, 8};
  if (quick) {
    sns = {3};
    threads = {2};
    jobs_per_config = std::min<usize>(jobs_per_config, 120);
    rate = 0.02;
  }

  int violations = 0;
  u64 total_jobs = 0;
  u64 total_failed = 0;
  u64 total_fallbacks = 0;
  u64 config_idx = 0;
  const auto report = [&](const char* backend, unsigned sn, unsigned t,
                          const char* what, usize job_idx) {
    std::fprintf(stderr,
                 "kvx-fuzz: VIOLATION [backend=%s sn=%u threads=%u job=%zu]: "
                 "%s\n",
                 backend, sn, t, job_idx, what);
    ++violations;
  };

  for (const sim::ExecBackend backend : backends) {
    for (const unsigned sn : sns) {
      for (const unsigned t : threads) {
        ++config_idx;
        const std::string bname(sim::backend_name(backend));
        const std::vector<HashJob> jobs =
            make_jobs(seed * 0x9E3779B97F4A7C15ull + config_idx,
                      jobs_per_config);

        sim::FaultPlan plan;
        plan.seed = seed + config_idx;
        plan.rate = rate;

        EngineConfig cfg;
        cfg.threads = t;
        cfg.accel = {arch, 5 * sn, 24};
        cfg.accel.backend = backend;
        cfg.accel.fault_injector = std::make_shared<sim::FaultInjector>(plan);

        EngineCounterDeltas deltas;
        usize failed = 0;
        u64 fallbacks = 0;
        try {
          BatchHashEngine engine(cfg);
          engine.submit_all(jobs);
          engine.close();
          const std::vector<JobResult> results = engine.drain_results();
          const EngineStats st = engine.stats();

          for (usize i = 0; i < results.size(); ++i) {
            const JobResult& r = results[i];
            if (r.ok()) {
              if (r.digest != host_reference_digest(jobs[i])) {
                report(bname.c_str(), sn, t,
                       "ok job diverges from host golden model", i);
              }
            } else {
              ++failed;
              if (r.error.empty()) {
                report(bname.c_str(), sn, t, "failed job with empty error", i);
              }
              if (!r.digest.empty()) {
                report(bname.c_str(), sn, t,
                       "failed job carries a digest", i);
              }
            }
          }
          if (st.submitted != jobs.size() ||
              st.submitted != st.completed + st.failed ||
              st.failed != failed) {
            report(bname.c_str(), sn, t,
                   "EngineStats invariant submitted == completed + failed "
                   "broken",
                   0);
          }
          const u64 d_sub = deltas.submitted.value() - deltas.submitted0;
          const u64 d_com = deltas.completed.value() - deltas.completed0;
          const u64 d_fail = deltas.failures.value() - deltas.failures0;
          if (d_sub != jobs.size() || d_sub != d_com + d_fail ||
              d_fail != failed) {
            report(bname.c_str(), sn, t,
                   "Prometheus invariant jobs_submitted_total == "
                   "jobs_completed_total + job_failures_total broken",
                   0);
          }
          // Shard attribution: the process-global fallback counter must have
          // moved by exactly the per-shard attributed sum — a demotion that
          // bumps the registry but lands on no shard (or vice versa) means
          // the sharded scheduler's attribution diffing is broken.
          fallbacks = st.totals().fallbacks;
          u64 shard_fallbacks = 0;
          for (const ShardStats& sh : st.shards) shard_fallbacks += sh.fallbacks;
          const u64 d_fb = deltas.fallbacks.value() - deltas.fallbacks0;
          if (d_fb != fallbacks || shard_fallbacks != fallbacks) {
            report(bname.c_str(), sn, t,
                   "fallback shard attribution diverges from "
                   "kvx_engine_fallbacks_total",
                   0);
          }
        } catch (const Error& e) {
          report(bname.c_str(), sn, t, e.what(), 0);
          continue;
        }
        total_jobs += jobs.size();
        total_failed += failed;
        total_fallbacks += fallbacks;
        if (verbose) {
          std::fprintf(stderr,
                       "kvx-fuzz: backend=%s sn=%u threads=%u | %zu jobs | "
                       "%zu failed | %llu fallbacks\n",
                       bname.c_str(), sn, t, jobs.size(), failed,
                       static_cast<unsigned long long>(fallbacks));
        }
      }
    }
  }

  std::printf("kvx-fuzz: %s | %llu jobs over %llu configurations | %llu "
              "failed (per-job) | %llu backend fallbacks | %d violations\n",
              std::string(core::arch_name(arch)).c_str(),
              static_cast<unsigned long long>(total_jobs),
              static_cast<unsigned long long>(config_idx),
              static_cast<unsigned long long>(total_failed),
              static_cast<unsigned long long>(total_fallbacks), violations);
  return violations == 0 ? kExitOk : kExitFail;
}
