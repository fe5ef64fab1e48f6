// kvx-hashd — the production hash service: an epoll event loop
// (kvx/net/server.hpp) in front of the BatchHashEngine, speaking the
// length-prefixed binary protocol of docs/server.md on one TCP port,
// with the Prometheus admin plane (GET /metrics, GET /healthz) on the
// same port.
//
//   kvx-hashd [--port N] [--bind ADDR] [--threads N] [--sn 1|3|6]
//             [--max-queue N] [--max-sessions N] [--inject-faults SPEC]
//             [--postmortem DIR]
//
//     --port N            TCP port (default 9877; 0 = ephemeral)
//     --bind ADDR         bind address          (default 127.0.0.1)
//     --threads N         engine worker shards  (default 4)
//     --sn N              Keccak lanes per shard (1, 3 or 6; default 3)
//     --max-queue N       engine queue bound; anchors the backpressure
//                         watermarks             (default 1024)
//     --max-sessions N    live streaming-XOF session cap (default 1024)
//     --inject-faults S   deterministic fault injection ("seed=7,rate=1e-3")
//                         — the fail-soft demo: faulted jobs demote or fail
//                         individually as kFailed responses, the service
//                         never aborts
//     --postmortem DIR    crash-dump directory (default $KVX_POSTMORTEM or .)
//
// The engine requests the jit tier (demoting by itself where native code
// is impossible). Prints "kvx-hashd: listening on ADDR:PORT (..., tier=T,
// isa=I)" on stdout once accepting (the line CI and kvx-loadgen wait for;
// T is the tier construction landed on), runs until SIGINT/SIGTERM, then shuts
// down gracefully: intake stops, queued jobs retire, and the fail-soft
// accounting invariant (submitted == completed + failed) is checked at
// rest — a violation makes the exit code nonzero.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "kvx/common/cli.hpp"
#include "kvx/common/error.hpp"
#include "kvx/net/server.hpp"
#include "kvx/obs/postmortem.hpp"
#include "kvx/sim/fault_injector.hpp"

namespace {

kvx::net::HashServer* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();  // one async-signal-safe write
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kvx;

  net::ServerConfig cfg;
  cfg.port = 9877;
  cfg.engine.threads = 4;
  cfg.engine.accel = {core::Arch::k64Lmul8, 15, 24};  // SN = 3
  // The fastest tier; the construction-time demotion chain lands hosts
  // without AVX2 or x86-64 on host-simd (and below) by itself.
  cfg.engine.accel.backend = sim::ExecBackend::kJit;
  cfg.engine.max_queue = 1024;
  std::string fault_spec;
  std::string dump_dir;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_next = i + 1 < argc;
    if (a == "--port" && has_next) {
      cfg.port = static_cast<u16>(
          cli::require_unsigned("kvx-hashd", "--port", argv[++i], 0, 65535));
    } else if (a == "--bind" && has_next) {
      cfg.bind_addr = argv[++i];
    } else if (a == "--threads" && has_next) {
      cfg.engine.threads =
          cli::require_unsigned("kvx-hashd", "--threads", argv[++i], 1, 4096);
    } else if (a == "--sn" && has_next) {
      const unsigned sn =
          cli::require_unsigned("kvx-hashd", "--sn", argv[++i], 1, 6);
      if (sn != 1 && sn != 3 && sn != 6) {
        std::fprintf(stderr, "kvx-hashd: --sn must be 1, 3 or 6\n");
        return 2;
      }
      cfg.engine.accel.ele_num = 5 * sn;
    } else if (a == "--max-queue" && has_next) {
      cfg.engine.max_queue = cli::require_usize("kvx-hashd", "--max-queue",
                                                argv[++i], 4, usize{1} << 20);
    } else if (a == "--max-sessions" && has_next) {
      cfg.max_sessions = cli::require_usize("kvx-hashd", "--max-sessions",
                                            argv[++i], 1, usize{1} << 20);
    } else if (a == "--inject-faults" && has_next) {
      fault_spec = argv[++i];
    } else if (a == "--postmortem" && has_next) {
      dump_dir = argv[++i];
    } else {
      std::fprintf(
          stderr,
          "usage: kvx-hashd [--port N] [--bind ADDR] [--threads N] "
          "[--sn 1|3|6] [--max-queue N] [--max-sessions N] "
          "[--inject-faults SPEC] [--postmortem DIR]\n");
      return 2;
    }
  }

  if (!fault_spec.empty()) {
    try {
      cfg.engine.accel.fault_injector = std::make_shared<sim::FaultInjector>(
          sim::parse_fault_plan(fault_spec));
    } catch (const Error& e) {
      std::fprintf(stderr, "kvx-hashd: --inject-faults: %s\n", e.what());
      return 2;
    }
  }

  // Crash forensics first: a fatal signal from here on leaves a .kvxdump
  // (flight recorder + metrics + shard stats) for kvx-doctor.
  if (dump_dir.empty()) {
    const char* env_dir = std::getenv("KVX_POSTMORTEM");
    dump_dir = env_dir != nullptr ? env_dir : ".";
  }
  obs::pm::set_dump_dir(dump_dir);
  obs::pm::install_crash_handler();

  try {
    net::HashServer server(cfg);
    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGPIPE, SIG_IGN);

    // The tier construction actually landed on, and the host ISA it runs
    // ("-" for tiers that use none).
    const engine::EngineStats boot = server.engine().stats();
    std::printf("kvx-hashd: listening on %s:%u (%u shards x SN=%u, "
                "max_queue=%zu, tier=%s, isa=%s)\n",
                cfg.bind_addr.c_str(), unsigned{server.port()},
                server.engine().threads(),
                server.engine().lanes_per_shard(), cfg.engine.max_queue,
                boot.effective_backend.c_str(),
                boot.host_simd_isa.empty() ? "-"
                                           : boot.host_simd_isa.c_str());
    std::fflush(stdout);  // the readiness line tools/CI wait for

    server.run();

    // Graceful shutdown: the loop has exited; stop intake and wait for
    // every queued job to retire, then check the fail-soft invariant at
    // rest.
    server.engine().close();
    std::vector<engine::JobResult> leftovers;
    server.engine().drain_batch(leftovers);
    const engine::EngineStats st = server.engine().stats();
    const net::ServerCounters& c = server.counters();
    std::printf(
        "kvx-hashd: shutdown — %llu submitted, %llu completed, %llu "
        "failed | %llu conns, %llu requests, %llu http, %llu "
        "backpressure engagements\n",
        static_cast<unsigned long long>(st.submitted),
        static_cast<unsigned long long>(st.completed),
        static_cast<unsigned long long>(st.failed),
        static_cast<unsigned long long>(c.accepted),
        static_cast<unsigned long long>(c.requests),
        static_cast<unsigned long long>(c.http_requests),
        static_cast<unsigned long long>(c.backpressure_engagements));
    g_server = nullptr;
    if (st.submitted != st.completed + st.failed) {
      std::fprintf(stderr,
                   "kvx-hashd: INVARIANT VIOLATION: submitted %llu != "
                   "completed %llu + failed %llu\n",
                   static_cast<unsigned long long>(st.submitted),
                   static_cast<unsigned long long>(st.completed),
                   static_cast<unsigned long long>(st.failed));
      return 1;
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "kvx-hashd: %s\n", e.what());
    return 1;
  }
}
