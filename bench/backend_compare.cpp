// Interpreter vs host-SIMD vs jit execution backend: host-throughput grid.
//
// Same engine workload run three times per (SN, threads) grid point, once
// per execution backend. The digests of every cell are verified against the
// host golden model AND across backends (the engine-level differential
// check). Emits BENCH_host_simd.json with the host-SIMD dispatch ISA and
// per-cell speedups over the interpreter, plus BENCH_jit.json with the
// native-emission ISA/code size and jit-over-host-simd speedups.
//
// Fast by default (CI runs every bench binary as a smoke test); pass
// --check to fail with exit 1 on any digest inequality, if the host-simd
// backend is slower than the interpreter in aggregate, or if the
// thread-scaling or flight-recorder gate fails (see below). The jit tier is
// gated on the isolated permutation-dispatch section instead of the engine
// aggregate (the engine grid measures scheduling on few-core hosts): jit
// perms/s must be >= KVX_JIT_MIN_SPEEDUP x host-simd at every SN >= 3. The
// default is hardware-aware — 1.0 when the host actually emits native code,
// gate disabled when the jit tier demotes (non-x86-64, scalar-only build).
//
// Thread-scaling section: the host-simd backend at SN=6 is rerun over
// threads {1,2,4,8} with a large submit_batch workload, and the 8-thread
// over 1-thread speedup is gated. The required minimum is hardware-aware —
// demanding 3x on an 8-hardware-thread host but only "no collapse" on a
// 1-core CI runner, where real speedup is physically impossible — and can
// be overridden via KVX_SCALING_MIN_SPEEDUP for noisy CI hosts. Results are
// written to BENCH_scaling.json (committed, like BENCH_host_simd.json).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "kvx/engine/batch_engine.hpp"
#include "kvx/keccak/sha3.hpp"
#include "kvx/obs/flight_recorder.hpp"
#include "kvx/sim/host_simd.hpp"

namespace {

using namespace kvx;
using Clock = std::chrono::steady_clock;

constexpr usize kJobs = 96;
constexpr usize kBytes = 200;  // 2 SHA3-256 rate blocks per job

struct Cell {
  unsigned sn = 0;
  unsigned threads = 0;
  double interp_mbs = 0;
  double hostsimd_mbs = 0;
  double jit_mbs = 0;
};

double run_once(sim::ExecBackend backend, unsigned sn, unsigned threads,
                std::span<const engine::HashJob> jobs,
                std::span<const std::vector<u8>> expected,
                double* fusion_coverage = nullptr,
                double* hostsimd_coverage = nullptr) {
  engine::EngineConfig cfg;
  cfg.threads = threads;
  cfg.accel = {core::Arch::k64Lmul8, 5 * sn, 24};
  cfg.accel.backend = backend;
  engine::BatchHashEngine eng(cfg);  // construction (and any trace compile)
                                     // excluded; compile time is reported
                                     // separately from the trace cache
  const auto t0 = Clock::now();
  eng.submit_all(jobs);
  const auto outs = eng.drain();
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  for (usize i = 0; i < jobs.size(); ++i) {
    if (outs[i] != expected[i]) {
      std::printf("DIGEST MISMATCH (backend=%s SN=%u threads=%u job=%zu)\n",
                  std::string(sim::backend_name(backend)).c_str(), sn, threads,
                  i);
      std::exit(1);
    }
  }
  if (fusion_coverage != nullptr) {
    *fusion_coverage = eng.stats().fusion_coverage;
  }
  if (hostsimd_coverage != nullptr) {
    *hostsimd_coverage = eng.stats().host_simd_coverage;
  }
  return s;
}

struct ScalingPoint {
  unsigned threads = 0;
  double mbs = 0;
  double speedup = 0;  ///< over the 1-thread row
};

/// Minimum required 8-over-1-thread host-simd speedup. Precedence: the
/// KVX_SCALING_MIN_SPEEDUP env var (CI noise / special hosts), else a
/// default scaled to what the host can physically deliver.
double scaling_min_speedup(const char** source) {
  if (const char* env = std::getenv("KVX_SCALING_MIN_SPEEDUP")) {
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end != env && v > 0.0) {
      *source = "env:KVX_SCALING_MIN_SPEEDUP";
      return v;
    }
    std::printf("ignoring malformed KVX_SCALING_MIN_SPEEDUP='%s'\n", env);
  }
  *source = "hardware_concurrency default";
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw >= 8) return 3.0;
  if (hw >= 4) return 2.0;
  if (hw >= 2) return 1.2;
  // Single-hardware-thread host: 8 workers cannot be faster than 1; gate
  // only that the sharded scheduler does not *collapse* under
  // oversubscription (the v1 mutex queue did).
  return 0.5;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }

  std::vector<engine::HashJob> jobs(kJobs);
  std::vector<std::vector<u8>> expected(kJobs);
  for (usize i = 0; i < kJobs; ++i) {
    const auto msg = bench::random_bytes(kBytes, /*seed=*/7100 + i);
    jobs[i] = {engine::Algo::kSha3_256, msg};
    expected[i] = keccak::hash(keccak::Sha3Function::kSha3_256, msg, 32);
  }
  const double mb = static_cast<double>(kJobs * kBytes) / 1e6;

  sim::TraceCache::global().clear();  // report this run's compiles only

  const std::string isa_name(
      sim::host_simd_isa_name(sim::host_simd_active_isa()));
  // Probe whether the jit tier actually emits on this host (it demotes to
  // host-simd on non-x86-64 hosts, scalar-only builds and KVX_JIT=OFF);
  // the jit gate and BENCH_jit.json report are keyed off this.
  bool jit_active = false;
  usize jit_code_bytes = 0;
  std::string jit_isa_name = "none";
  {
    core::VectorKeccakConfig jc{core::Arch::k64Lmul8, 5 * 6, 24};
    jc.backend = sim::ExecBackend::kJit;
    core::VectorKeccak jvk(jc);
    jit_active = jvk.active_backend() == sim::ExecBackend::kJit;
    jit_code_bytes = jvk.jit_code_bytes();
    if (jvk.jit_isa().has_value()) {
      jit_isa_name = std::string(sim::host_simd_isa_name(*jvk.jit_isa()));
    }
  }

  bench::header("Execution backend comparison — interpreter vs host-SIMD vs "
                "jit (SHA3-256, 96 x 200 B)");
  std::printf("host hardware threads: %u | host-simd dispatch ISA: %s | "
              "jit: %s\n\n",
              std::thread::hardware_concurrency(), isa_name.c_str(),
              jit_active ? jit_isa_name.c_str() : "demoted");
  std::printf("%-18s | interp MB/s | h-simd MB/s | jit MB/s | j/hs\n",
              "config");
  bench::rule();

  std::vector<Cell> cells;
  double interp_total_s = 0;
  double hostsimd_total_s = 0;
  double jit_total_s = 0;
  double coverage = 0;
  double hs_coverage = 0;
  for (const unsigned sn : {1u, 3u, 6u}) {
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      Cell c;
      c.sn = sn;
      c.threads = threads;
      const double is =
          run_once(sim::ExecBackend::kInterpreter, sn, threads, jobs, expected);
      const double hs = run_once(sim::ExecBackend::kHostSimd, sn, threads,
                                 jobs, expected, &coverage, &hs_coverage);
      const double js =
          run_once(sim::ExecBackend::kJit, sn, threads, jobs, expected);
      interp_total_s += is;
      hostsimd_total_s += hs;
      jit_total_s += js;
      c.interp_mbs = mb / is;
      c.hostsimd_mbs = mb / hs;
      c.jit_mbs = mb / js;
      cells.push_back(c);
      std::printf("SN=%u  %u thread%s  | %11.2f | %11.2f | %8.2f | %5.2fx\n",
                  sn, threads, threads == 1 ? " " : "s", c.interp_mbs,
                  c.hostsimd_mbs, c.jit_mbs, hs / js);
    }
    bench::rule();
  }
  const double n = static_cast<double>(cells.size());
  const double agg_interp = mb * n / interp_total_s;
  const double agg_hostsimd = mb * n / hostsimd_total_s;
  const double agg_jit = mb * n / jit_total_s;
  const sim::TraceCacheStats tc = sim::TraceCache::global().stats();
  std::printf("aggregate: interpreter %.2f MB/s, host-simd %.2f MB/s "
              "(%.2fx over the interpreter), jit %.2f MB/s (%.2fx over "
              "host-simd)\n",
              agg_interp, agg_hostsimd, interp_total_s / hostsimd_total_s,
              agg_jit, hostsimd_total_s / jit_total_s);
  std::printf("trace cache: %llu compiles (%.2f ms), %llu fusions (%.2f ms), "
              "%llu lowerings (%.2f ms), %llu jit emissions (%.2f ms), "
              "%llu hits, %llu rejected | fusion coverage %.1f%% | host-simd "
              "coverage %.1f%% | %llu entries, %llu resident bytes\n",
              static_cast<unsigned long long>(tc.compiles),
              static_cast<double>(tc.compile_ns) / 1e6,
              static_cast<unsigned long long>(tc.fusions),
              static_cast<double>(tc.fuse_ns) / 1e6,
              static_cast<unsigned long long>(tc.lowerings),
              static_cast<double>(tc.lower_ns) / 1e6,
              static_cast<unsigned long long>(tc.jit_compiles),
              static_cast<double>(tc.jit_ns) / 1e6,
              static_cast<unsigned long long>(tc.hits),
              static_cast<unsigned long long>(tc.failures), 100.0 * coverage,
              100.0 * hs_coverage,
              static_cast<unsigned long long>(tc.entries),
              static_cast<unsigned long long>(tc.resident_bytes));

  // --- thread scaling (host-simd, SN=6, bulk submit) -------------------------

  constexpr usize kScaleJobs = 4096;
  constexpr unsigned kScaleSn = 6;
  std::vector<engine::HashJob> scale_jobs(kScaleJobs);
  std::vector<std::vector<u8>> scale_expected(kScaleJobs);
  for (usize i = 0; i < kScaleJobs; ++i) {
    // Reuse the 96 distinct messages cyclically: digest checking stays a
    // table lookup while the submitted volume is large enough that
    // scheduling — not the accelerator — is what the cell measures.
    scale_jobs[i] = jobs[i % kJobs];
    scale_expected[i] = expected[i % kJobs];
  }
  bench::header("Thread scaling — host-simd backend, SN=6, bulk submit "
                "(4096 x 200 B)");
  std::printf("%-10s | MB/s      | speedup over 1 thread\n", "threads");
  bench::rule();
  std::vector<ScalingPoint> scaling;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    const double s = run_once(sim::ExecBackend::kHostSimd, kScaleSn, threads,
                              scale_jobs, scale_expected);
    ScalingPoint p;
    p.threads = threads;
    p.mbs = static_cast<double>(kScaleJobs * kBytes) / 1e6 / s;
    p.speedup = scaling.empty() ? 1.0 : p.mbs / scaling.front().mbs;
    scaling.push_back(p);
    std::printf("%-10u | %9.2f | %5.2fx\n", threads, p.mbs, p.speedup);
  }
  const char* gate_source = nullptr;
  const double min_speedup = scaling_min_speedup(&gate_source);
  const double speedup_8 = scaling.back().speedup;
  const bool scaling_ok = speedup_8 >= min_speedup;
  std::printf("8-thread speedup %.2fx, required >= %.2fx (%s): %s\n",
              speedup_8, min_speedup, gate_source,
              scaling_ok ? "ok" : "BELOW GATE");

  // --- flight-recorder overhead ------------------------------------------------
  //
  // The recorder is always-on by design, so its cost is gated, not assumed:
  // the single-threaded host-simd SN=6 workload runs with the recorder enabled
  // and disabled, interleaved best-of-3 (interleaving cancels thermal and
  // cache drift; best-of cancels scheduler noise). The enabled run must be
  // within KVX_FLIGHTREC_MAX_OVERHEAD (default 5%) of the disabled run.
  bench::header(
      "Flight-recorder overhead — host-simd backend, SN=6, 1 thread");
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  double best_on = 1e100;
  double best_off = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    recorder.set_enabled(true);
    best_on = std::min(best_on,
                       run_once(sim::ExecBackend::kHostSimd, kScaleSn, 1,
                                scale_jobs, scale_expected));
    recorder.set_enabled(false);
    best_off = std::min(best_off,
                        run_once(sim::ExecBackend::kHostSimd, kScaleSn, 1,
                                 scale_jobs, scale_expected));
  }
  recorder.set_enabled(true);
  double max_overhead = 0.05;
  const char* fr_gate_source = "default";
  if (const char* env = std::getenv("KVX_FLIGHTREC_MAX_OVERHEAD")) {
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end != env && v > 0.0) {
      max_overhead = v;
      fr_gate_source = "env:KVX_FLIGHTREC_MAX_OVERHEAD";
    } else {
      std::printf("ignoring malformed KVX_FLIGHTREC_MAX_OVERHEAD='%s'\n", env);
    }
  }
  const double overhead = best_on / best_off - 1.0;
  const bool flightrec_ok = overhead <= max_overhead;
  std::printf("recorder on  %7.2f MB/s (best of 3)\n",
              static_cast<double>(kScaleJobs * kBytes) / 1e6 / best_on);
  std::printf("recorder off %7.2f MB/s (best of 3)\n",
              static_cast<double>(kScaleJobs * kBytes) / 1e6 / best_off);
  std::printf("overhead %+.2f%%, allowed <= %.2f%% (%s): %s\n",
              overhead * 100.0, max_overhead * 100.0, fr_gate_source,
              flightrec_ok ? "ok" : "ABOVE GATE");
  std::FILE* ff = std::fopen("BENCH_flightrec.json", "w");
  if (ff != nullptr) {
    std::fprintf(ff, "{\n  \"bench\": \"backend_compare_flightrec\",\n");
    std::fprintf(ff, "  \"backend\": \"host-simd\",\n  \"sn\": %u,\n",
                 kScaleSn);
    std::fprintf(ff, "  \"jobs\": %zu,\n  \"bytes_per_job\": %zu,\n",
                 kScaleJobs, kBytes);
    std::fprintf(ff,
                 "  \"enabled_mbs\": %.3f,\n  \"disabled_mbs\": %.3f,\n",
                 static_cast<double>(kScaleJobs * kBytes) / 1e6 / best_on,
                 static_cast<double>(kScaleJobs * kBytes) / 1e6 / best_off);
    std::fprintf(ff, "  \"overhead\": %.4f,\n", overhead);
    std::fprintf(ff,
                 "  \"gate\": {\"max_overhead\": %.4f, \"source\": \"%s\", "
                 "\"pass\": %s}\n}\n",
                 max_overhead, fr_gate_source, flightrec_ok ? "true" : "false");
    std::fclose(ff);
    std::printf("wrote BENCH_flightrec.json\n");
  }

  // --- permutation dispatch: jit vs host-simd --------------------------------
  //
  // The engine grid above includes sponge bookkeeping, queueing and result
  // routing, which dilute the accelerator-dispatch speedup (most visibly on
  // few-core hosts where the scheduler is the bottleneck). This section
  // isolates the permute() dispatch itself, single-threaded.
  bench::header("Permutation dispatch — jit vs host-simd, single thread");
  std::printf("%-6s | h-simd perms/s | jit perms/s | j/hs\n", "SN");
  bench::rule();
  // jit-over-host-simd dispatch gate. Hardware-aware default: the emitted
  // code must never be slower than the plan walker it replaces (1.0) when
  // the host emits at all; on hosts where the jit tier demotes the two
  // columns measure the same code, so the gate is disabled (0.0).
  double min_jit_speedup = jit_active ? 1.0 : 0.0;
  const char* jit_gate_source =
      jit_active ? "default (jit active)" : "disabled (jit demoted)";
  if (const char* env = std::getenv("KVX_JIT_MIN_SPEEDUP")) {
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end != env && v >= 0.0) {
      min_jit_speedup = v;
      jit_gate_source = "env:KVX_JIT_MIN_SPEEDUP";
    } else {
      std::printf("ignoring malformed KVX_JIT_MIN_SPEEDUP='%s'\n", env);
    }
  }
  struct DispatchPoint {
    unsigned sn;
    double hostsimd_ps;
    double jit_ps;
  };
  std::vector<DispatchPoint> dispatch;
  bool jit_dispatch_ok = true;
  for (const unsigned sn : {1u, 3u, 6u, 8u}) {
    const auto perms_per_sec = [&](sim::ExecBackend backend) {
      core::VectorKeccakConfig c{core::Arch::k64Lmul8, 5 * sn, 24};
      c.backend = backend;
      core::VectorKeccak vk(c);
      std::vector<keccak::State> states(sn);
      for (usize s = 0; s < states.size(); ++s) {
        for (unsigned x = 0; x < 5; ++x) {
          for (unsigned y = 0; y < 5; ++y) {
            states[s].lane(x, y) = bench::random_lanes(1, 900 + s * 25)[0];
          }
        }
      }
      for (int w = 0; w < 50; ++w) vk.permute(states);  // warm
      constexpr int kIters = 2000;
      const auto t0 = Clock::now();
      for (int it = 0; it < kIters; ++it) vk.permute(states);
      const double s = std::chrono::duration<double>(Clock::now() - t0).count();
      return static_cast<double>(kIters) * sn / s;
    };
    DispatchPoint p{sn, perms_per_sec(sim::ExecBackend::kHostSimd),
                    perms_per_sec(sim::ExecBackend::kJit)};
    dispatch.push_back(p);
    const double jit_ratio = p.jit_ps / p.hostsimd_ps;
    // SN=1 barely exercises the packed runners (one state per group) and
    // its ratio is dominated by measurement noise: report it, gate SN>=3.
    if (sn >= 3 && jit_ratio < min_jit_speedup) jit_dispatch_ok = false;
    std::printf("SN=%-3u | %14.0f | %11.0f | %4.2fx\n", sn, p.hostsimd_ps,
                p.jit_ps, jit_ratio);
  }
  std::printf("jit dispatch speedup required >= %.2fx per SN>=3 (%s): %s\n",
              min_jit_speedup, jit_gate_source,
              jit_dispatch_ok ? "ok" : "BELOW GATE");

  // Host-SIMD-specific record: dispatch ISA, lowering coverage, per-cell
  // engine speedups over the interpreter, and the isolated
  // permutation-dispatch grid.
  std::FILE* hf = std::fopen("BENCH_host_simd.json", "w");
  if (hf != nullptr) {
    std::fprintf(hf, "{\n  \"bench\": \"backend_compare_host_simd\",\n");
    std::fprintf(hf, "  \"isa\": \"%s\",\n", isa_name.c_str());
    std::fprintf(hf, "  \"pack_width\": %u,\n",
                 sim::host_simd_pack_width(sim::host_simd_active_isa()));
    std::fprintf(hf, "  \"host_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(hf, "  \"jobs\": %zu,\n  \"bytes_per_job\": %zu,\n", kJobs,
                 kBytes);
    std::fprintf(hf, "  \"lowered_coverage\": %.4f,\n", hs_coverage);
    std::fprintf(hf, "  \"engine_grid\": [\n");
    for (usize i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      std::fprintf(hf,
                   "    {\"sn\": %u, \"threads\": %u, \"hostsimd_mbs\": %.3f, "
                   "\"interpreter_mbs\": %.3f, "
                   "\"speedup_over_interpreter\": %.3f}%s\n",
                   c.sn, c.threads, c.hostsimd_mbs, c.interp_mbs,
                   c.hostsimd_mbs / c.interp_mbs,
                   i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(hf, "  ],\n");
    std::fprintf(hf, "  \"dispatch_grid\": [\n");
    for (usize i = 0; i < dispatch.size(); ++i) {
      const DispatchPoint& p = dispatch[i];
      std::fprintf(hf,
                   "    {\"sn\": %u, \"hostsimd_perms_per_sec\": %.0f}%s\n",
                   p.sn, p.hostsimd_ps, i + 1 < dispatch.size() ? "," : "");
    }
    std::fprintf(hf, "  ],\n");
    std::fprintf(hf,
                 "  \"aggregate\": {\"hostsimd_mbs\": %.3f, "
                 "\"interpreter_mbs\": %.3f, \"speedup_over_interpreter\": "
                 "%.3f}\n}\n",
                 agg_hostsimd, agg_interp, interp_total_s / hostsimd_total_s);
    std::fclose(hf);
    std::printf("wrote BENCH_host_simd.json\n");
  }

  // Jit-specific record: emission ISA and code size, per-cell engine
  // speedups over the host-SIMD tier (the tier it compiles), and the
  // isolated permutation-dispatch grid with the jit gate verdict.
  std::FILE* jf = std::fopen("BENCH_jit.json", "w");
  if (jf != nullptr) {
    std::fprintf(jf, "{\n  \"bench\": \"backend_compare_jit\",\n");
    std::fprintf(jf, "  \"active\": %s,\n", jit_active ? "true" : "false");
    std::fprintf(jf, "  \"isa\": \"%s\",\n", jit_isa_name.c_str());
    std::fprintf(jf, "  \"code_bytes\": %zu,\n", jit_code_bytes);
    std::fprintf(jf, "  \"host_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(jf, "  \"jobs\": %zu,\n  \"bytes_per_job\": %zu,\n", kJobs,
                 kBytes);
    std::fprintf(jf, "  \"engine_grid\": [\n");
    for (usize i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      std::fprintf(jf,
                   "    {\"sn\": %u, \"threads\": %u, \"jit_mbs\": %.3f, "
                   "\"hostsimd_mbs\": %.3f, \"speedup_over_hostsimd\": "
                   "%.3f}%s\n",
                   c.sn, c.threads, c.jit_mbs, c.hostsimd_mbs,
                   c.jit_mbs / c.hostsimd_mbs, i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(jf, "  ],\n");
    std::fprintf(jf, "  \"dispatch_grid\": [\n");
    for (usize i = 0; i < dispatch.size(); ++i) {
      const DispatchPoint& p = dispatch[i];
      std::fprintf(jf,
                   "    {\"sn\": %u, \"hostsimd_perms_per_sec\": %.0f, "
                   "\"jit_perms_per_sec\": %.0f, "
                   "\"speedup_over_hostsimd\": %.3f}%s\n",
                   p.sn, p.hostsimd_ps, p.jit_ps, p.jit_ps / p.hostsimd_ps,
                   i + 1 < dispatch.size() ? "," : "");
    }
    std::fprintf(jf, "  ],\n");
    std::fprintf(jf,
                 "  \"aggregate\": {\"jit_mbs\": %.3f, \"hostsimd_mbs\": "
                 "%.3f, \"speedup_over_hostsimd\": %.3f},\n",
                 agg_jit, agg_hostsimd, hostsimd_total_s / jit_total_s);
    std::fprintf(jf,
                 "  \"emission\": {\"count\": %llu, \"ms\": %.3f},\n",
                 static_cast<unsigned long long>(tc.jit_compiles),
                 static_cast<double>(tc.jit_ns) / 1e6);
    std::fprintf(jf,
                 "  \"dispatch_gate\": {\"min_speedup\": %.3f, \"source\": "
                 "\"%s\", \"pass\": %s}\n}\n",
                 min_jit_speedup, jit_gate_source,
                 jit_dispatch_ok ? "true" : "false");
    std::fclose(jf);
    std::printf("wrote BENCH_jit.json\n");
  }

  std::FILE* sf = std::fopen("BENCH_scaling.json", "w");
  if (sf != nullptr) {
    std::fprintf(sf, "{\n  \"bench\": \"backend_compare_scaling\",\n");
    std::fprintf(sf, "  \"backend\": \"host-simd\",\n  \"sn\": %u,\n",
                 kScaleSn);
    std::fprintf(sf, "  \"jobs\": %zu,\n  \"bytes_per_job\": %zu,\n",
                 kScaleJobs, kBytes);
    std::fprintf(sf, "  \"host_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(sf, "  \"grid\": [\n");
    for (usize i = 0; i < scaling.size(); ++i) {
      const ScalingPoint& p = scaling[i];
      std::fprintf(sf,
                   "    {\"threads\": %u, \"mbs\": %.3f, \"speedup\": %.3f}%s\n",
                   p.threads, p.mbs, p.speedup,
                   i + 1 < scaling.size() ? "," : "");
    }
    std::fprintf(sf, "  ],\n");
    std::fprintf(sf,
                 "  \"gate\": {\"min_speedup\": %.3f, \"source\": \"%s\", "
                 "\"pass\": %s}\n}\n",
                 min_speedup, gate_source, scaling_ok ? "true" : "false");
    std::fclose(sf);
    std::printf("wrote BENCH_scaling.json\n");
  }

  if (check && agg_hostsimd < agg_interp) {
    std::printf("CHECK FAILED: host-simd backend slower than the interpreter "
                "in aggregate\n");
    return 1;
  }
  if (check && !scaling_ok) {
    std::printf("CHECK FAILED: 8-thread host-simd speedup %.2fx is below the "
                "%.2fx scaling gate (%s)\n",
                speedup_8, min_speedup, gate_source);
    return 1;
  }
  if (check && !jit_dispatch_ok) {
    std::printf("CHECK FAILED: jit permutation dispatch below the "
                "%.2fx gate (%s)\n",
                min_jit_speedup, jit_gate_source);
    return 1;
  }
  if (check && !flightrec_ok) {
    std::printf("CHECK FAILED: flight-recorder overhead %.2f%% above the "
                "%.2f%% gate (%s)\n",
                overhead * 100.0, max_overhead * 100.0, fr_gate_source);
    return 1;
  }
  return 0;
}
