// kvx_bench — the repository's benchmark: four seeded workloads, each
// verified against the host golden model, printing end-to-end metrics
// (untraced) or per-layer metrics (traced) by name and unit.
//
//   kvx_bench                                   smoke: every workload, tiny
//   kvx_bench --workload NAME --seed N --seconds S --trace 0|1|FILE
//   kvx_bench --calibrate [--seed N]            derive the serve-open rates
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The human-readable report goes to standard error. A traced run
// (--trace 1, or --trace FILE to also write a Chrome trace) reruns the
// workload with harness-side spans and replays its jobs through every
// layer. The exit code is nonzero on any mismatch, failed job, missing
// response or broken invariant (pinned cycles, reproducible counts).
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.hpp"
#include "kvx/common/cli.hpp"
#include "workloads.hpp"

namespace {

using namespace kvxb;

constexpr u64 kTuningSeed = 1;
constexpr u64 kHeldOutSeed = 2;

/// Cold constructions behind setup_s: five groups of five visits to each
/// of four CPUs. Over ten runs, the median of the minima of groups of 24
/// spread 6.5–12.3% (per workload) where groups of 8 spread 7.2–15.0%.
constexpr usize kSetupGroup = 20;
constexpr usize kSetupGroups = 5;

/// Layers whose self time the traced pass reports as a share of its wall.
constexpr const char* kSelfLayers[] = {"sim",    "engine", "net",    "client",
                                       "wait",   "verify", "harness"};

double peak_rss_mb() {
  rusage ru{};
  (void)::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_self_times(const Tracer& tracer, u32 root, double wall_ms,
                      const char* title) {
  std::fprintf(stderr, "  self time, %s (%.1f ms, %llu spans dropped):\n",
               title, wall_ms,
               static_cast<unsigned long long>(tracer.dropped()));
  for (const Tracer::LayerTime& l : tracer.self_times(root)) {
    std::fprintf(stderr, "    %-10s %10.2f ms %6.1f%% %9llu spans\n",
                 l.layer.c_str(), l.self_ms, 100.0 * l.self_ms / wall_ms,
                 static_cast<unsigned long long>(l.spans));
  }
}

Outcome run_workload(const std::string& name, u64 seed, double seconds,
                     bool trace, const std::string& trace_out, bool smoke) {
  const Workload w = make_workload(name, seed, smoke);
  Outcome out;
  std::fprintf(stderr, "kvx_bench %s: seed %llu, %.1f s, %s\n", name.c_str(),
               static_cast<unsigned long long>(seed), seconds,
               trace ? "traced" : "untraced");
  out.invariant(HostSpeed::yardstick_is_keccak(),
                "the host-speed yardstick does not compute Keccak-f[1600]");
  if (!trace) {
    // Set-up: cold constructions (trace cache cleared), each on the next
    // CPU and followed by a yardstick probe there, in groups 50 ms apart;
    // the median over the groups of each group's fastest.
    std::vector<double> setups;
    HostSpeed setup_speed;
    {
      CpuRotation cpus;
      for (usize i = 0; i < (smoke ? 1 : kSetupGroups * kSetupGroup); ++i) {
        if (i > 0 && i % kSetupGroup == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        cpus.pin(i);
        setups.push_back(setup_once(w));
        setup_speed.probe();
      }
    }
    (void)check_paper_cycles(w.sn, out);
    Tracer off(false);
    const Headline h = measure(w, seconds, off, out, nullptr);
    // Host-time metrics at the nominal host speed (see HostSpeed).
    const double scale = h.speed.scale();
    const double setup_raw = median_of_best(setups, kSetupGroup, false);
    out.add("throughput_per_s", h.throughput * scale, "1/s");
    out.add("latency_p50_ms", h.p50_ms / scale, "ms");
    out.add("setup_s", setup_raw / setup_speed.scale(), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    std::fprintf(stderr,
                 "  host speed: yardstick %.0f perms/s over %zu probes "
                 "(nominal %.0f); raw throughput %.6g/s, raw p50 %.6g ms, "
                 "raw set-up %.6g s (yardstick %.0f perms/s)\n",
                 h.speed.rate(), h.speed.probes(), HostSpeed::kNominalPermsPerS,
                 h.throughput, h.p50_ms, setup_raw, setup_speed.rate());
    h.speed.print("workload");
    setup_speed.print("set-up");
    // p99 swings far beyond any usable bound from run to run on a shared
    // host, so it is reported here and as a per-layer metric, not gated.
    std::fprintf(stderr, "  latency p99 %.6g ms over %llu samples (raw)\n",
                 h.p99_ms, static_cast<unsigned long long>(h.samples));
    return out;
  }

  // Untraced and traced passes of the same workload: their headline gap is
  // the tracing overhead. End-to-end numbers come only from untraced runs.
  Tracer off(false);
  const Headline plain = measure(w, seconds * 0.25, off, out, nullptr);
  Tracer tracer(true);
  LayerCounters counters;
  const u64 t0 = now_ns();
  const u32 root = tracer.begin("harness.workload");
  const Headline traced = measure(w, seconds * 0.25, tracer, out, &counters);
  tracer.end(root);
  const double wall_ms = static_cast<double>(now_ns() - t0) / 1e6;
  out.add("host.yardstick_perms_per_s", plain.speed.rate(), "1/s");
  out.add("client.latency_p99_ms", plain.p99_ms, "ms");
  out.add("trace.overhead_pct",
          (plain.throughput * plain.speed.scale() /
               (traced.throughput * traced.speed.scale()) -
           1.0) * 100.0,
          "%");
  const std::vector<Tracer::LayerTime> self = tracer.self_times(root);
  for (const char* layer : kSelfLayers) {
    double ms = 0.0;
    for (const Tracer::LayerTime& l : self) {
      if (l.layer == layer) ms = l.self_ms;
    }
    out.add(std::string("trace.self_share.") + layer, ms / wall_ms, "frac");
  }
  measure_layers(w, seconds * 0.5, plain.throughput, tracer, out, counters);
  print_self_times(tracer, root, wall_ms, "traced workload pass");
  if (!trace_out.empty()) {
    if (!tracer.write_chrome(trace_out)) {
      out.invariant(false, "cannot write " + trace_out);
    } else {
      std::fprintf(stderr, "  wrote %zu spans to %s (%llu dropped)\n",
                   tracer.spans().size(), trace_out.c_str(),
                   static_cast<unsigned long long>(tracer.dropped()));
    }
  }
  return out;
}

void print_report(const Outcome& out) {
  for (const Metric& m : out.metrics) {
    std::fprintf(stderr, "  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "  attempted %llu, failed %llu, correct %s\n",
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed),
               out.correct ? "yes" : "NO");
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "  error: %s\n", e.c_str());
  }
}

void print_json(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (usize i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// The bare invocation: every workload, untraced and traced, tiny phases,
/// every verification on; writes nothing.
int smoke() {
  bool ok = true;
  for (const char* name :
       {"perm-paper", "kyber-xof", "bulk-16k", "serve-open"}) {
    for (const bool trace : {false, true}) {
      const Outcome out =
          run_workload(name, kTuningSeed, trace ? 0.3 : 0.15, trace, "", true);
      if (!out.correct) print_report(out);
      std::printf("smoke %-10s %-8s %s (attempted %llu, failed %llu)\n", name,
                  trace ? "traced" : "untraced", out.correct ? "ok" : "FAILED",
                  static_cast<unsigned long long>(out.attempted),
                  static_cast<unsigned long long>(out.failed));
      ok = ok && out.correct;
    }
  }
  return ok ? 0 : 1;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: kvx_bench [--workload perm-paper|kyber-xof|bulk-16k|"
               "serve-open --seed N --seconds S --trace 0|1|FILE]\n"
               "       kvx_bench --calibrate [--seed N]\n"
               "       kvx_bench            (smoke test of every workload)\n"
               "seeds: tuning %llu, held out %llu\n",
               static_cast<unsigned long long>(kTuningSeed),
               static_cast<unsigned long long>(kHeldOutSeed));
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) return smoke();
  std::string workload;
  u64 seed = kTuningSeed;
  double seconds = 10.0;
  bool trace = false;
  bool calibrate = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_next = i + 1 < argc;
    if (a == "--workload" && has_next) {
      workload = argv[++i];
    } else if (a == "--seed" && has_next) {
      seed = kvx::cli::require_u64("kvx_bench", "--seed", argv[++i]);
    } else if (a == "--seconds" && has_next) {
      seconds = static_cast<double>(
          kvx::cli::require_unsigned("kvx_bench", "--seconds", argv[++i], 1, 600));
    } else if (a == "--trace" && has_next) {
      const std::string v = argv[++i];
      trace = v != "0";
      if (v != "0" && v != "1") trace_out = v;
    } else if (a == "--calibrate") {
      calibrate = true;
    } else {
      usage();
    }
  }
  if (calibrate) return calibrate_serving(seed);
  if (!known_workload(workload)) usage();
  const Outcome out = run_workload(workload, seed, seconds, trace, trace_out, false);
  print_report(out);
  print_json(out);
  return out.correct ? 0 : 1;
}
