// kvx-loadgen — load generator and correctness checker for kvx-hashd.
//
//   kvx-loadgen [--host ADDR] [--port N] [--connections N] [--requests N]
//               [--window N] [--sessions N] [--squeezes N] [--max-msg N]
//               [--seed N] [--json FILE] [--check]
//
//     --host ADDR        server address            (default 127.0.0.1)
//     --port N           server port               (default 9877)
//     --connections N    parallel client conns     (default 4)
//     --requests N       HASH requests per conn    (default 1000)
//     --window N         pipelined requests/conn   (default 16)
//     --sessions N       streaming XOF sessions/conn (default 2)
//     --squeezes N       SQUEEZE requests/session  (default 4)
//     --max-msg N        max message bytes         (default 600)
//     --seed N           traffic RNG seed          (default 2026)
//     --json FILE        write the benchmark record (BENCH_server.json)
//     --check            SLO gate: exit 1 unless every digest verified,
//                        every response arrived and nothing mismatched
//
// Every OK digest is verified against the host golden model
// (engine::host_reference_digest) and every SQUEEZE against a local
// mirror sponge — the differential-testing discipline of the repo applied
// over the wire. Traffic is a mixed profile (70% SHA3-256, 15% SHAKE128,
// 15% KMAC256), pipelined `--window` deep
// per connection so the server's batching and backpressure paths actually
// engage. Reports p50/p99/p99.9 request latency and jobs/s.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "kvx/common/bits.hpp"
#include "kvx/common/cli.hpp"
#include "kvx/common/rng.hpp"
#include "kvx/engine/job.hpp"
#include "kvx/keccak/sha3.hpp"
#include "kvx/net/frame.hpp"
#include "kvx/net/protocol.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace {

using namespace kvx;

u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Options {
  std::string host = "127.0.0.1";
  u16 port = 9877;
  unsigned connections = 4;
  usize requests = 1000;
  usize window = 16;
  usize sessions = 2;
  usize squeezes = 4;
  usize max_msg = 600;
  u64 seed = 2026;
  std::string json_path;
  bool check = false;
};

/// Outcome of one worker connection.
struct WorkerResult {
  std::vector<u64> latencies_ns;
  usize ok = 0;
  usize failed = 0;       ///< kFailed responses (per-job engine errors)
  usize mismatches = 0;   ///< digests/squeezes differing from the mirror
  usize protocol_errors = 0;
  std::string fatal;      ///< connect/socket/framing failure, "" if none
};

#if defined(__unix__) || defined(__APPLE__)

/// Blocking client connection speaking the framed protocol.
class Client {
 public:
  bool connect_to(const std::string& host, u16 port, std::string& error) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      error = std::strerror(errno);
      return false;
    }
    const int one = 1;
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      error = "invalid address";
      return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      error = std::strerror(errno);
      return false;
    }
    return true;
  }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool send_request(const net::Request& req, std::string& error) {
    std::vector<u8> frame;
    net::append_frame(frame, net::encode_request(req));
    usize sent = 0;
    while (sent < frame.size()) {
      const ssize_t n =
          ::send(fd_, frame.data() + sent, frame.size() - sent, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        error = std::strerror(errno);
        return false;
      }
      sent += static_cast<usize>(n);
    }
    return true;
  }

  /// Block until one complete response arrives.
  std::optional<net::Response> recv_response(std::string& error) {
    std::vector<u8> payload;
    while (!reader_.next(payload)) {
      if (reader_.poisoned()) {
        error = reader_.error();
        return std::nullopt;
      }
      u8 buf[16 * 1024];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        error = std::strerror(errno);
        return std::nullopt;
      }
      if (n == 0) {
        error = "server closed the connection";
        return std::nullopt;
      }
      if (!reader_.feed(std::span<const u8>(buf, static_cast<usize>(n)))) {
        error = reader_.error();
        return std::nullopt;
      }
    }
    std::string decode_error;
    std::optional<net::Response> resp =
        net::decode_response(payload, decode_error);
    if (!resp) error = decode_error;
    return resp;
  }

 private:
  int fd_ = -1;
  net::FrameReader reader_;
};

engine::HashJob make_job(SplitMix64& rng, usize max_msg) {
  engine::HashJob job;
  const u64 pick = rng.below(100);
  job.message.resize(rng.below(static_cast<u64>(max_msg) + 1));
  for (u8& b : job.message) b = static_cast<u8>(rng.next());
  if (pick < 70) {
    job.algo = engine::Algo::kSha3_256;
  } else if (pick < 85) {
    job.algo = engine::Algo::kShake128;
    job.out_len = 64;
  } else {
    job.algo = engine::Algo::kKmac256;
    job.out_len = 32;
    job.key.assign(32, 0x4B);
  }
  return job;
}

/// Run the streaming-session phase: open, squeeze against a local mirror
/// sponge, close. Sequential (window 1) — sessions exercise correctness,
/// the HASH phase exercises load.
void run_sessions(Client& client, const Options& opt, SplitMix64& rng,
                  WorkerResult& result) {
  for (usize s = 0; s < opt.sessions; ++s) {
    std::vector<u8> message(rng.below(static_cast<u64>(opt.max_msg) + 1));
    for (u8& b : message) b = static_cast<u8>(rng.next());
    const bool wide = rng.below(2) == 0;

    net::Request open;
    open.id = 0xA0000000 + s;
    open.op = net::Opcode::kOpenSession;
    open.algo = wide ? engine::Algo::kShake256 : engine::Algo::kShake128;
    open.message = message;
    if (!client.send_request(open, result.fatal)) return;
    std::optional<net::Response> resp = client.recv_response(result.fatal);
    if (!resp) return;
    if (!resp->ok() || resp->body.size() != 8) {
      result.protocol_errors += 1;
      continue;
    }
    const u64 sid = load_le64(std::span<const u8, 8>(resp->body.data(), 8));

    keccak::Xof mirror(wide ? keccak::Sha3Function::kShake256
                            : keccak::Sha3Function::kShake128);
    mirror.absorb(message);

    for (usize q = 0; q < opt.squeezes; ++q) {
      net::Request sq;
      sq.id = open.id + 0x1000 + q;
      sq.op = net::Opcode::kSqueeze;
      sq.session_id = sid;
      sq.squeeze_len = static_cast<u32>(1 + rng.below(512));
      if (!client.send_request(sq, result.fatal)) return;
      resp = client.recv_response(result.fatal);
      if (!resp) return;
      if (!resp->ok()) {
        result.protocol_errors += 1;
        continue;
      }
      // The wire stream must equal a local sponge squeezed through the
      // same cut points — the protocol face of XOF determinism.
      if (resp->body != mirror.squeeze(sq.squeeze_len)) {
        result.mismatches += 1;
      } else {
        result.ok += 1;
      }
    }

    net::Request close;
    close.id = open.id + 0x2000;
    close.op = net::Opcode::kCloseSession;
    close.session_id = sid;
    if (!client.send_request(close, result.fatal)) return;
    resp = client.recv_response(result.fatal);
    if (!resp) return;
    if (!resp->ok()) result.protocol_errors += 1;
  }
}

WorkerResult run_worker(const Options& opt, unsigned index) {
  WorkerResult result;
  Client client;
  if (!client.connect_to(opt.host, opt.port, result.fatal)) return result;
  SplitMix64 rng(opt.seed * 1000003 + index);

  // Liveness probe first: a PING round-trip proves the framing path.
  net::Request ping;
  ping.op = net::Opcode::kPing;
  ping.id = 0xFF;
  if (!client.send_request(ping, result.fatal)) return result;
  if (!client.recv_response(result.fatal)) return result;

  run_sessions(client, opt, rng, result);
  if (!result.fatal.empty()) return result;

  // HASH phase: pipeline `window` requests deep; verify every digest
  // against the host golden model.
  std::unordered_map<u64, std::vector<u8>> expected;
  std::unordered_map<u64, u64> sent_ns;
  usize sent = 0;
  usize received = 0;
  result.latencies_ns.reserve(opt.requests);
  while (received < opt.requests) {
    while (sent < opt.requests && sent - received < opt.window) {
      engine::HashJob job = make_job(rng, opt.max_msg);
      net::Request req;
      req.id = sent;
      req.op = net::Opcode::kHash;
      req.algo = job.algo;
      req.out_len = static_cast<u32>(job.out_len);
      req.key = job.key;
      req.message = job.message;
      expected.emplace(req.id, engine::host_reference_digest(job));
      sent_ns[req.id] = now_ns();
      if (!client.send_request(req, result.fatal)) return result;
      ++sent;
    }
    const std::optional<net::Response> resp =
        client.recv_response(result.fatal);
    if (!resp) return result;
    ++received;
    const auto t_it = sent_ns.find(resp->id);
    const auto e_it = expected.find(resp->id);
    if (t_it == sent_ns.end() || e_it == expected.end()) {
      result.protocol_errors += 1;
      continue;
    }
    result.latencies_ns.push_back(now_ns() - t_it->second);
    if (resp->status == net::Status::kFailed) {
      // Per-job engine failure (expected traffic under fault injection);
      // the demotion path rides in the body.
      result.failed += 1;
    } else if (!resp->ok()) {
      result.protocol_errors += 1;
    } else if (resp->body != e_it->second) {
      result.mismatches += 1;
    } else {
      result.ok += 1;
    }
    sent_ns.erase(t_it);
    expected.erase(e_it);
  }
  return result;
}

#else

WorkerResult run_worker(const Options&, unsigned) {
  WorkerResult r;
  r.fatal = "kvx-loadgen requires a POSIX socket API";
  return r;
}

#endif

u64 percentile(const std::vector<u64>& sorted, double q) {
  if (sorted.empty()) return 0;
  const usize idx = static_cast<usize>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_next = i + 1 < argc;
    if (a == "--host" && has_next) {
      opt.host = argv[++i];
    } else if (a == "--port" && has_next) {
      opt.port = static_cast<u16>(
          cli::require_unsigned("kvx-loadgen", "--port", argv[++i], 1,
                                65535));
    } else if (a == "--connections" && has_next) {
      opt.connections = cli::require_unsigned("kvx-loadgen", "--connections",
                                              argv[++i], 1, 1024);
    } else if (a == "--requests" && has_next) {
      opt.requests = cli::require_usize("kvx-loadgen", "--requests",
                                        argv[++i], 1, usize{1} << 24);
    } else if (a == "--window" && has_next) {
      opt.window = cli::require_usize("kvx-loadgen", "--window", argv[++i],
                                      1, usize{1} << 16);
    } else if (a == "--sessions" && has_next) {
      opt.sessions = cli::require_usize("kvx-loadgen", "--sessions",
                                        argv[++i], 0, usize{1} << 16);
    } else if (a == "--squeezes" && has_next) {
      opt.squeezes = cli::require_usize("kvx-loadgen", "--squeezes",
                                        argv[++i], 1, usize{1} << 16);
    } else if (a == "--max-msg" && has_next) {
      opt.max_msg = cli::require_usize("kvx-loadgen", "--max-msg", argv[++i],
                                       0, usize{1} << 19);
    } else if (a == "--seed" && has_next) {
      opt.seed = cli::require_u64("kvx-loadgen", "--seed", argv[++i]);
    } else if (a == "--json" && has_next) {
      opt.json_path = argv[++i];
    } else if (a == "--check") {
      opt.check = true;
    } else {
      std::fprintf(
          stderr,
          "usage: kvx-loadgen [--host ADDR] [--port N] [--connections N] "
          "[--requests N] [--window N] [--sessions N] [--squeezes N] "
          "[--max-msg N] [--seed N] [--json FILE] [--check]\n");
      return 2;
    }
  }

  const u64 t0 = now_ns();
  std::vector<WorkerResult> results(opt.connections);
  {
    std::vector<std::thread> workers;
    workers.reserve(opt.connections);
    for (unsigned c = 0; c < opt.connections; ++c) {
      workers.emplace_back(
          [&results, &opt, c] { results[c] = run_worker(opt, c); });
    }
    for (std::thread& w : workers) w.join();
  }
  const u64 elapsed_ns = now_ns() - t0;

  std::vector<u64> latencies;
  usize ok = 0, failed = 0, mismatches = 0, protocol_errors = 0;
  usize fatal_conns = 0;
  for (const WorkerResult& r : results) {
    latencies.insert(latencies.end(), r.latencies_ns.begin(),
                     r.latencies_ns.end());
    ok += r.ok;
    failed += r.failed;
    mismatches += r.mismatches;
    protocol_errors += r.protocol_errors;
    if (!r.fatal.empty()) {
      ++fatal_conns;
      std::fprintf(stderr, "kvx-loadgen: connection failed: %s\n",
                   r.fatal.c_str());
    }
  }
  std::sort(latencies.begin(), latencies.end());
  const u64 p50 = percentile(latencies, 0.50);
  const u64 p99 = percentile(latencies, 0.99);
  const u64 p999 = percentile(latencies, 0.999);
  const double secs = static_cast<double>(elapsed_ns) / 1e9;
  const double jobs_per_sec =
      secs > 0.0 ? static_cast<double>(latencies.size()) / secs : 0.0;
  const usize expected_responses =
      opt.requests * opt.connections;

  std::printf(
      "kvx-loadgen: %u conns x %zu reqs (+%zu sessions x %zu squeezes) in "
      "%.2f s\n",
      opt.connections, opt.requests, opt.sessions, opt.squeezes, secs);
  std::printf(
      "  verified=%zu failed=%zu mismatches=%zu protocol_errors=%zu\n", ok,
      failed, mismatches, protocol_errors);
  std::printf("  throughput: %.0f jobs/s\n", jobs_per_sec);
  std::printf("  latency: p50=%.3f ms p99=%.3f ms p99.9=%.3f ms\n",
              static_cast<double>(p50) / 1e6,
              static_cast<double>(p99) / 1e6,
              static_cast<double>(p999) / 1e6);

  if (!opt.json_path.empty()) {
    std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "kvx-loadgen: cannot write %s\n",
                   opt.json_path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"server\",\n"
        "  \"connections\": %u,\n"
        "  \"requests_per_connection\": %zu,\n"
        "  \"responses\": %zu,\n"
        "  \"verified\": %zu,\n"
        "  \"failed\": %zu,\n"
        "  \"mismatches\": %zu,\n"
        "  \"protocol_errors\": %zu,\n"
        "  \"elapsed_ns\": %llu,\n"
        "  \"jobs_per_sec\": %.1f,\n"
        "  \"latency_ns\": {\"p50\": %llu, \"p99\": %llu, \"p999\": %llu}\n"
        "}\n",
        opt.connections, opt.requests, latencies.size(), ok, failed,
        mismatches, protocol_errors,
        static_cast<unsigned long long>(elapsed_ns), jobs_per_sec,
        static_cast<unsigned long long>(p50),
        static_cast<unsigned long long>(p99),
        static_cast<unsigned long long>(p999));
    std::fclose(f);
  }

  if (opt.check) {
    // The SLO gate CI runs: every connection survived, every response
    // arrived, nothing mismatched the golden model, no protocol errors.
    if (fatal_conns != 0 || mismatches != 0 || protocol_errors != 0 ||
        latencies.size() != expected_responses) {
      std::fprintf(stderr,
                   "kvx-loadgen: CHECK FAILED (fatal_conns=%zu "
                   "mismatches=%zu protocol_errors=%zu responses=%zu/%zu)\n",
                   fatal_conns, mismatches, protocol_errors,
                   latencies.size(), expected_responses);
      return 1;
    }
    std::printf("kvx-loadgen: CHECK OK\n");
  }
  return fatal_conns != 0 ? 1 : 0;
}
