// kvx-batch — batch hashing CLI on the host-parallel engine.
//
//   kvx-batch [options] [file ...]
//     -a, --algo NAME    sha3-224|sha3-256|sha3-384|sha3-512|shake128|
//                        shake256|kmac128|kmac256        (default sha3-256)
//     -t, --threads N    worker shards                   (default 2)
//     -s, --sn N         Keccak states per shard: 1|3|6  (default 3)
//     --arch NAME        64lmul1|64lmul8|32lmul8|64fused (default 64lmul8)
//     --backend NAME     jit|host-simd|interpreter          (default jit)
//     -L, --out-len N    output bytes (required for shake/kmac)
//     --key HEX          KMAC key
//     --custom STR       KMAC customization string
//     --random N[:LEN]   hash N deterministic pseudo-random messages of LEN
//                        bytes (default 256) instead of reading files
//     --inject-faults S  deterministic fault injection, e.g.
//                        "seed=7,rate=1e-3" or "at=5,kinds=sim"; see
//                        kvx/sim/fault_injector.hpp for the full spec
//     --pin              pin worker threads to host CPUs (best-effort; a
//                        locality hint, silently ignored where refused)
//     --verify           cross-check every digest against the host model
//     --stats            print per-shard engine statistics, the backend that
//                        actually ran, compile time, fusion coverage, cache
//                        hits, jit emissions + trace-cache occupancy,
//                        throughput, per-step cycle attribution and
//                        p50/p99/p99.9/max job latency
//     --metrics-json F   write the metrics-registry JSON snapshot to F
//                        ("-" = stdout); see docs/observability.md
//     --trace-out F      write the flight recorder's event timeline to F
//                        as Chrome trace JSON (open in Perfetto or
//                        chrome://tracing)
//
// Files are hashed in submission order; "-" reads stdin. Output format
// matches sha3sum: "<hex digest>  <name>". Jobs fail individually: a failed
// job prints a FAILED line to stderr and the process exits 1, but every
// other job's digest is still printed.
//
// Exit codes: 0 success, 1 runtime failure (I/O, verify mismatch, engine or
// per-job failure), 2 usage error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "kvx/common/cli.hpp"
#include "kvx/common/error.hpp"
#include "kvx/common/hex.hpp"
#include "kvx/common/rng.hpp"
#include "kvx/engine/batch_engine.hpp"
#include "kvx/obs/flight_recorder.hpp"
#include "kvx/obs/metrics.hpp"
#include "kvx/sim/fault_injector.hpp"

namespace {

using namespace kvx;
using namespace kvx::engine;

// Exit-code convention (uniform across all error paths).
constexpr int kExitOk = 0;       ///< every job hashed (and verified)
constexpr int kExitRuntime = 1;  ///< I/O, verify, engine or per-job failure
constexpr int kExitUsage = 2;    ///< malformed command line

/// Write `text` plus a newline to `path`; reports the failure on stderr.
bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text << '\n';
  out.close();
  if (!out) {
    std::fprintf(stderr, "kvx-batch: cannot write '%s'\n", path.c_str());
    return false;
  }
  return true;
}

bool parse_algo(const std::string& name, Algo& out) {
  if (name == "sha3-224") out = Algo::kSha3_224;
  else if (name == "sha3-256") out = Algo::kSha3_256;
  else if (name == "sha3-384") out = Algo::kSha3_384;
  else if (name == "sha3-512") out = Algo::kSha3_512;
  else if (name == "shake128") out = Algo::kShake128;
  else if (name == "shake256") out = Algo::kShake256;
  else if (name == "kmac128") out = Algo::kKmac128;
  else if (name == "kmac256") out = Algo::kKmac256;
  else return false;
  return true;
}

std::vector<u8> read_all(std::istream& in) {
  std::vector<u8> data;
  char buf[4096];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    data.insert(data.end(), buf, buf + in.gcount());
  }
  return data;
}

int usage() {
  std::fprintf(stderr,
               "usage: kvx-batch [-a algo] [-t threads] [-s sn] [--arch name]\n"
               "                 [--backend name] [-L out-len]\n"
               "                 [--key hex] [--custom str] [--random N[:LEN]]\n"
               "                 [--inject-faults spec] [--pin] [--verify]\n"
               "                 [--stats]\n"
               "                 [--metrics-json file] [--trace-out file]\n"
               "                 [file ...]\n");
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  Algo algo = Algo::kSha3_256;
  EngineConfig cfg;
  cfg.threads = 2;
  unsigned sn = 3;
  core::Arch arch = core::Arch::k64Lmul8;
  // The jit is the CLI default, the tier kvx-hashd serves on: digests and
  // reported cycles are bit-identical to the interpreter, and it demotes to
  // host-simd (then the interpreter) wherever it cannot run.
  sim::ExecBackend backend = sim::ExecBackend::kJit;
  usize out_len = 0;
  std::vector<u8> key;
  std::vector<u8> customization;
  usize random_count = 0;
  usize random_len = 256;
  std::string fault_spec;
  bool verify = false;
  bool stats = false;
  std::string metrics_json_path;
  std::string trace_out_path;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_next = i + 1 < argc;
    if ((a == "-a" || a == "--algo") && has_next) {
      if (!parse_algo(argv[++i], algo)) {
        std::fprintf(stderr, "kvx-batch: unknown algorithm '%s'\n", argv[i]);
        return kExitUsage;
      }
    } else if ((a == "-t" || a == "--threads") && has_next) {
      // Checked parse: "--threads -1" and "--threads 12abc" are usage
      // errors, not a wrapped-unsigned thread count.
      cfg.threads = cli::require_unsigned("kvx-batch", "--threads",
                                          argv[++i], 1, 4096);
    } else if ((a == "-s" || a == "--sn") && has_next) {
      sn = cli::require_unsigned("kvx-batch", "--sn", argv[++i], 1, 6);
    } else if (a == "--arch" && has_next) {
      const auto parsed = core::parse_arch(argv[++i]);
      if (!parsed) {
        std::fprintf(stderr, "kvx-batch: unknown arch '%s' (accepted: %s)\n",
                     argv[i], std::string(core::kArchNamesHelp).c_str());
        return kExitUsage;
      }
      arch = *parsed;
    } else if (a == "--backend" && has_next) {
      const auto parsed = sim::parse_backend(argv[++i]);
      if (!parsed) {
        std::fprintf(stderr,
                     "kvx-batch: unknown backend '%s' (accepted: %s)\n",
                     argv[i], std::string(sim::kBackendNamesHelp).c_str());
        return kExitUsage;
      }
      backend = *parsed;
    } else if ((a == "-L" || a == "--out-len") && has_next) {
      out_len = cli::require_usize("kvx-batch", "--out-len", argv[++i], 1,
                                   usize{1} << 20);
    } else if (a == "--key" && has_next) {
      try {
        key = from_hex(argv[++i]);
      } catch (const Error& e) {
        std::fprintf(stderr, "kvx-batch: --key: %s\n", e.what());
        return kExitUsage;
      }
    } else if (a == "--custom" && has_next) {
      const std::string s = argv[++i];
      customization.assign(s.begin(), s.end());
    } else if (a == "--random" && has_next) {
      const std::string spec = argv[++i];
      const auto colon = spec.find(':');
      const std::string_view count_part =
          std::string_view(spec).substr(0, colon);
      random_count = cli::require_usize("kvx-batch", "--random", count_part,
                                        1, usize{1} << 24);
      if (colon != std::string::npos) {
        random_len = cli::require_usize(
            "kvx-batch", "--random LEN",
            std::string_view(spec).substr(colon + 1), 1, usize{1} << 24);
      }
    } else if (a == "--inject-faults" && has_next) {
      fault_spec = argv[++i];
    } else if (a == "--pin") {
      cfg.pin_workers = true;
    } else if (a == "--verify") {
      verify = true;
    } else if (a == "--stats") {
      stats = true;
    } else if (a == "--metrics-json" && has_next) {
      metrics_json_path = argv[++i];
    } else if (a == "--trace-out" && has_next) {
      trace_out_path = argv[++i];
    } else if (a == "-h" || a == "--help") {
      return usage();
    } else if (!a.empty() && a[0] == '-' && a != "-") {
      std::fprintf(stderr, "kvx-batch: unknown option '%s'\n", a.c_str());
      return kExitUsage;
    } else {
      files.push_back(a);
    }
  }
  if (sn != 1 && sn != 3 && sn != 6) {
    std::fprintf(stderr, "kvx-batch: --sn must be 1, 3 or 6\n");
    return kExitUsage;
  }

  // Assemble the job list (files, stdin, or a deterministic random load).
  std::vector<HashJob> jobs;
  std::vector<std::string> names;
  if (random_count > 0) {
    SplitMix64 rng(42);
    for (usize n = 0; n < random_count; ++n) {
      HashJob job;
      job.message.resize(random_len);
      for (u8& b : job.message) b = static_cast<u8>(rng.next());
      jobs.push_back(std::move(job));
      names.push_back("random-" + std::to_string(n));
    }
  } else if (files.empty()) {
    jobs.emplace_back();
    jobs.back().message = read_all(std::cin);
    names.emplace_back("-");
  } else {
    for (const std::string& f : files) {
      HashJob job;
      if (f == "-") {
        job.message = read_all(std::cin);
      } else {
        std::ifstream in(f, std::ios::binary);
        if (!in) {
          std::fprintf(stderr, "kvx-batch: cannot open '%s'\n", f.c_str());
          return kExitRuntime;
        }
        job.message = read_all(in);
      }
      jobs.push_back(std::move(job));
      names.push_back(f);
    }
  }
  for (HashJob& job : jobs) {
    job.algo = algo;
    job.out_len = out_len;
    job.key = key;
    job.customization = customization;
  }

  cfg.accel = {arch, 5 * sn, 24};
  cfg.accel.backend = backend;
  if (!fault_spec.empty()) {
    try {
      cfg.accel.fault_injector =
          std::make_shared<sim::FaultInjector>(sim::parse_fault_plan(fault_spec));
    } catch (const Error& e) {
      std::fprintf(stderr, "kvx-batch: --inject-faults: %s\n", e.what());
      return kExitUsage;
    }
  }
  bool any_failed = false;
  try {
    BatchHashEngine engine(cfg);
    engine.submit_all(jobs);
    const auto results = engine.drain_results();
    for (usize i = 0; i < jobs.size(); ++i) {
      if (!results[i].ok()) {
        std::fprintf(stderr, "kvx-batch: job '%s' FAILED: %s\n",
                     names[i].c_str(), results[i].error.c_str());
        any_failed = true;
        continue;
      }
      if (verify && results[i].digest != host_reference_digest(jobs[i])) {
        std::fprintf(stderr, "kvx-batch: VERIFY FAILED for '%s'\n",
                     names[i].c_str());
        return kExitRuntime;
      }
      std::printf("%s  %s\n", to_hex(results[i].digest).c_str(),
                  names[i].c_str());
    }
    if (stats) {
      const EngineStats st = engine.stats();
      const ShardStats t = st.totals();
      std::fprintf(stderr,
                   "engine: %u shards x SN=%u | jobs %llu | bytes %llu | "
                   "dispatches %llu | sim cycles %llu | queue high-water %zu\n",
                   engine.threads(), engine.lanes_per_shard(),
                   static_cast<unsigned long long>(t.jobs),
                   static_cast<unsigned long long>(t.bytes),
                   static_cast<unsigned long long>(t.dispatches),
                   static_cast<unsigned long long>(t.sim_cycles),
                   st.queue_high_water);
      std::fprintf(stderr,
                   "failures: %llu jobs failed | %llu backend fallbacks\n",
                   static_cast<unsigned long long>(st.failed),
                   static_cast<unsigned long long>(t.fallbacks));
      for (usize s = 0; s < st.shards.size(); ++s) {
        const ShardStats& sh = st.shards[s];
        std::fprintf(
            stderr,
            "  shard %zu: jobs %llu | dispatches %llu | failures %llu | "
            "fallbacks %llu | queue depth %zu\n",
            s, static_cast<unsigned long long>(sh.jobs),
            static_cast<unsigned long long>(sh.dispatches),
            static_cast<unsigned long long>(sh.failures),
            static_cast<unsigned long long>(sh.fallbacks),
            s < st.queue_shard_depths.size() ? st.queue_shard_depths[s] : 0);
      }
      const sim::TraceCacheStats tc = sim::TraceCache::global().stats();
      // `backend` is the tier dispatches start on; `effective` is the one
      // that completed the most recent dispatch (differs after a mid-chain
      // demotion). The host ISA is printed when host-simd actually ran.
      std::string effective = st.effective_backend;
      if (!st.host_simd_isa.empty()) {
        effective += " [" + st.host_simd_isa + "]";
      }
      std::fprintf(stderr,
                   "backend: %s | effective %s | compile %.2f ms | "
                   "trace compiles %llu (%.2f ms) | fusions %llu (%.2f ms) | "
                   "lowerings %llu (%.2f ms) | cache hits %llu | "
                   "rejected %llu | fusion coverage %.1f%% | "
                   "host-simd coverage %.1f%%\n",
                   st.backend.c_str(), effective.c_str(),
                   static_cast<double>(st.backend_compile_ns) / 1e6,
                   static_cast<unsigned long long>(tc.compiles),
                   static_cast<double>(tc.compile_ns) / 1e6,
                   static_cast<unsigned long long>(tc.fusions),
                   static_cast<double>(tc.fuse_ns) / 1e6,
                   static_cast<unsigned long long>(tc.lowerings),
                   static_cast<double>(tc.lower_ns) / 1e6,
                   static_cast<unsigned long long>(tc.hits),
                   static_cast<unsigned long long>(tc.failures),
                   100.0 * st.fusion_coverage, 100.0 * st.host_simd_coverage);
      std::fprintf(stderr,
                   "jit: %llu emissions (%.2f ms) | code %llu bytes | "
                   "cache: %llu entries, %llu resident bytes\n",
                   static_cast<unsigned long long>(tc.jit_compiles),
                   static_cast<double>(tc.jit_ns) / 1e6,
                   static_cast<unsigned long long>(st.jit_code_bytes),
                   static_cast<unsigned long long>(tc.entries),
                   static_cast<unsigned long long>(tc.resident_bytes));
      std::fprintf(stderr,
                   "latency: %llu jobs | p50 %.3f ms | p99 %.3f ms | "
                   "p99.9 %.3f ms | max %.3f ms\n",
                   static_cast<unsigned long long>(st.latency.count),
                   static_cast<double>(st.latency.p50_ns) / 1e6,
                   static_cast<double>(st.latency.p99_ns) / 1e6,
                   static_cast<double>(st.latency.p999_ns) / 1e6,
                   static_cast<double>(st.latency.max_ns) / 1e6);
      const ThroughputStats tp = st.throughput();
      std::fprintf(stderr,
                   "throughput: %.0f jobs/s | %.2f MB/s | %.0f perms/s | "
                   "%.0f sim cycles/s\n",
                   tp.jobs_per_sec, tp.mb_per_sec, tp.perms_per_sec,
                   tp.sim_cycles_per_sec);
      std::fprintf(stderr, "step cycles:\n%s",
                   format_step_cycles(t.step_cycles).c_str());
    }
    if (!metrics_json_path.empty()) {
      const std::string json = obs::MetricsRegistry::global().to_json();
      if (metrics_json_path == "-") {
        std::fwrite(json.data(), 1, json.size(), stdout);
        std::fputc('\n', stdout);
      } else if (!write_file(metrics_json_path, json)) {
        return kExitRuntime;
      }
    }
    // The flight recorder is always on, so the warm-up compiles are already
    // in its rings; --trace-out only exports them.
    if (!trace_out_path.empty() &&
        !write_file(trace_out_path,
                    obs::FlightRecorder::global().chrome_trace_json())) {
      return kExitRuntime;
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "kvx-batch: %s\n", e.what());
    return kExitRuntime;
  }
  return any_failed ? kExitRuntime : kExitOk;
}
