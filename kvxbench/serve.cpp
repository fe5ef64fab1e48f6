// serve-open: an in-process net::HashServer driven over loopback TCP by
// one client thread — 2 binary connections and 1 admin connection.
//
// Open-loop phases send on a seeded Poisson schedule whatever the server
// does, and time each request from its *intended* send time, so a stall
// is charged to every request queued behind it. The closed-loop phase
// keeps a fixed window per connection and measures the saturation rate.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <thread>

#include "kvx/common/bits.hpp"
#include "kvx/keccak/sha3.hpp"
#include "kvx/net/frame.hpp"
#include "kvx/net/protocol.hpp"
#include "workloads.hpp"

namespace kvxb {

// Frozen from `kvx_bench --calibrate` on the tuning seed, server and client
// on one CPU (highest passing ladder rung 23k req/s); see
// kvxbench/README.md.
const ServeRates kServeRates{23000, 6000, 12000, 18000};

namespace {

constexpr unsigned kConns = 2;
constexpr unsigned kSessionsPerConn = 4;
constexpr double kSqueezeShare = 0.05;
constexpr usize kClosedWindow = 64;  ///< requests in flight per connection

struct Fd {
  int fd = -1;
  Fd() = default;
  explicit Fd(int f) : fd(f) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() { reset(); }
  void reset() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

int connect_loopback(u16 port, bool nonblock) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC |
                                       (nonblock ? SOCK_NONBLOCK : 0),
                          0);
  if (fd < 0) return -1;
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  // Blocking set-up calls give up instead of hanging the benchmark.
  const timeval limit{5, 0};
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof limit);
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &limit, sizeof limit);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 &&
      !(nonblock && errno == EINPROGRESS)) {
    ::close(fd);
    return -1;
  }
  return fd;
}

struct Conn {
  Fd sock;
  kvx::net::FrameReader reader;
  std::vector<u8> out;
  usize out_off = 0;
  usize outstanding = 0;
  std::vector<u64> session_ids;
  std::vector<std::unique_ptr<kvx::keccak::Xof>> mirrors;

  /// Write as much of `out` as the socket takes. False on a socket error.
  bool flush() {
    while (out_off < out.size()) {
      const ssize_t n = ::send(sock.fd, out.data() + out_off,
                               out.size() - out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return errno == EAGAIN || errno == EWOULDBLOCK;
      }
      out_off += static_cast<usize>(n);
    }
    out.clear();
    out_off = 0;
    return true;
  }

  /// Blocking request/response, used only while setting up sessions.
  std::optional<kvx::net::Response> call(const kvx::net::Request& req) {
    kvx::net::append_frame(out, kvx::net::encode_request(req));
    while (!out.empty()) {
      if (!flush()) return std::nullopt;
    }
    std::vector<u8> payload;
    while (!reader.next(payload)) {
      u8 buf[4096];
      const ssize_t n = ::recv(sock.fd, buf, sizeof buf, 0);
      if (n <= 0) return std::nullopt;
      if (!reader.feed(std::span<const u8>(buf, static_cast<usize>(n)))) {
        return std::nullopt;
      }
    }
    std::string err;
    return kvx::net::decode_response(payload, err);
  }
};

/// Requests in flight at most. They sit in a fixed ring (request id modulo
/// its size), so the client's memory does not grow with the throughput a
/// run reaches; a server that falls this far behind fails the run.
constexpr usize kMaxOutstanding = usize{1} << 15;
constexpr u64 kFree = ~u64{0};

/// One request in flight. A HASH checks against job `ref` of the set; a
/// SQUEEZE carries its expected output.
struct Pending {
  u64 id = kFree;
  u64 due_ns = 0;
  u32 ref = 0;
  bool squeeze = false;
  std::vector<u8> expected;
};

/// Non-blocking GET /metrics on a fresh admin connection (the server
/// answers with Connection: close).
struct Scrape {
  Fd sock;
  bool sent = false;
  u64 start_ns = 0;
  std::string buf;
};

}  // namespace

double run_serve_phase(const JobSet& set, const PhaseSpec& spec,
                       Tracer& tracer, Outcome& out, NetCounters& net) {
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  // Request templates: the frame of each job with a zero id, patched per
  // send, so the client's per-request cost is one copy.
  std::vector<std::vector<u8>> frames(set.jobs.size());
  for (usize i = 0; i < set.jobs.size(); ++i) {
    const kvx::engine::HashJob& job = set.jobs[i];
    kvx::net::Request req;
    req.op = kvx::net::Opcode::kHash;
    req.algo = job.algo;
    req.out_len = static_cast<u32>(job.out_len);
    req.key = job.key;
    req.customization = job.customization;
    req.message = job.message;
    kvx::net::append_frame(frames[i], kvx::net::encode_request(req));
  }

  kvx::net::ServerConfig cfg;
  cfg.engine = engine_config(spec.sn);
  cfg.engine.max_queue = 1024;
  // The whole phase runs on one CPU: the server's threads inherit the pin
  // they are started under and the client stays beside them, so the
  // yardstick probes the client takes time the CPU the server runs on.
  CpuRotation cpus;
  cpus.pin(spec.place);
  std::unique_ptr<kvx::net::HashServer> server;
  {
    auto span = tracer.scope("net.server_construct");
    server = std::make_unique<kvx::net::HashServer>(cfg);
  }
  std::exception_ptr loop_error;
  std::thread loop([&] {
    try {
      server->run();
    } catch (...) {
      loop_error = std::current_exception();
    }
  });
  struct LoopGuard {
    kvx::net::HashServer& server;
    std::thread& loop;
    void stop() {
      server.stop();
      if (loop.joinable()) loop.join();
    }
    ~LoopGuard() { stop(); }
  } guard{*server, loop};
  const u16 port = server->port();

  kvx::SplitMix64 rng(spec.seed);
  std::vector<Conn> conns(kConns);
  for (unsigned c = 0; c < kConns; ++c) {
    Conn& conn = conns[c];
    conn.sock.fd = connect_loopback(port, false);
    if (conn.sock.fd < 0) {
      out.fail("serve: connect failed");
      return 0.0;
    }
    for (unsigned s = 0; s < kSessionsPerConn; ++s) {
      const bool wide = rng.below(2) == 0;
      kvx::net::Request open;
      open.id = 0xFFFF0000u + c * kSessionsPerConn + s;
      open.op = kvx::net::Opcode::kOpenSession;
      open.algo = wide ? kvx::engine::Algo::kShake256
                       : kvx::engine::Algo::kShake128;
      open.message = random_message(rng, rng.below(601));
      const std::optional<kvx::net::Response> resp = conn.call(open);
      if (!resp || !resp->ok() || resp->body.size() != 8) {
        out.fail("serve: OPEN_SESSION failed");
        return 0.0;
      }
      conn.session_ids.push_back(kvx::load_le64(
          std::span<const u8, 8>(resp->body.data(), 8)));
      conn.mirrors.push_back(std::make_unique<kvx::keccak::Xof>(
          wide ? kvx::keccak::Sha3Function::kShake256
               : kvx::keccak::Sha3Function::kShake128));
      conn.mirrors.back()->absorb(open.message);
    }
    const int flags = ::fcntl(conn.sock.fd, F_GETFL, 0);
    (void)::fcntl(conn.sock.fd, F_SETFL, flags | O_NONBLOCK);
  }

  const bool open_loop = spec.rate > 0.0;
  const u64 warm_ns = static_cast<u64>(spec.warm_s * 1e9);
  const u64 end_ns = warm_ns + static_cast<u64>(spec.measure_s * 1e9);
  const u64 drain_ns = end_ns + 5'000'000'000ull;
  std::vector<Pending> pending(kMaxOutstanding);
  u64 in_flight = 0, served_in_window = 0;
  const usize n_windows = std::max<usize>(
      1, static_cast<usize>(std::lround(spec.measure_s / kWindowS)));
  const u64 window_ns = (end_ns - warm_ns) / n_windows;
  std::vector<Histogram> window_lat(n_windows);
  std::vector<u64> window_served(n_windows, 0);
  const auto window_of = [&](u64 t) {
    return std::min<usize>(n_windows - 1, (t - warm_ns) / window_ns);
  };
  bool backlog_taken = false;
  double next_arrival_ns = 0.0;
  const auto draw_gap = [&] {
    return -std::log(1.0 - unit_draw(rng)) / spec.rate * 1e9;
  };
  if (open_loop) next_arrival_ns = draw_gap();

  const auto enqueue = [&](u64 due, unsigned c) {
    Conn& conn = conns[c];
    const u64 id = net.sent;
    Pending& p = pending[id % kMaxOutstanding];
    ++out.attempted;
    if (p.id != kFree) {
      out.fail("serve: more than " + std::to_string(kMaxOutstanding) +
               " requests in flight");
      return false;
    }
    p.id = id;
    p.due_ns = due;
    p.squeeze = unit_draw(rng) < kSqueezeShare;
    if (p.squeeze) {
      const unsigned s = static_cast<unsigned>(rng.below(kSessionsPerConn));
      kvx::net::Request sq;
      sq.id = id;
      sq.op = kvx::net::Opcode::kSqueeze;
      sq.session_id = conn.session_ids[s];
      sq.squeeze_len = static_cast<u32>(1 + rng.below(512));
      p.expected = conn.mirrors[s]->squeeze(sq.squeeze_len);
      kvx::net::append_frame(conn.out, kvx::net::encode_request(sq));
    } else {
      p.ref = static_cast<u32>(rng.below(frames.size()));
      const std::vector<u8>& f = frames[p.ref];
      const usize at = conn.out.size();
      conn.out.insert(conn.out.end(), f.begin(), f.end());
      kvx::store_le64(std::span<u8, 8>(conn.out.data() + at + 4, 8), id);
    }
    ++conn.outstanding;
    ++in_flight;
    ++net.sent;
    return true;
  };

  const auto on_response = [&](Conn& conn, std::span<const u8> payload,
                               u64 now) {
    auto span = tracer.scope("net.decode_response");
    std::string err;
    const std::optional<kvx::net::Response> resp =
        kvx::net::decode_response(payload, err);
    if (resp) span.set_id(resp->id);
    if (!resp || pending[resp->id % kMaxOutstanding].id != resp->id) {
      out.fail("serve: undecodable or unexpected response: " + err);
      return;
    }
    Pending& p = pending[resp->id % kMaxOutstanding];
    p.id = kFree;
    --in_flight;
    --conn.outstanding;
    const std::vector<u8>& want = p.squeeze ? p.expected : set.expected[p.ref];
    const bool ok = resp->ok() && resp->body == want;
    std::vector<u8>().swap(p.expected);
    if (!ok) {
      out.fail(resp->ok() ? "serve: response differs from the golden model"
                          : "serve: error response: " + resp->error_text());
      return;
    }
    const bool measured = p.due_ns >= warm_ns && p.due_ns < end_ns;
    if (measured) {
      if (p.squeeze) {
        net.squeeze_latency.record(now - p.due_ns);
      } else {
        window_lat[window_of(p.due_ns)].record(now - p.due_ns);
      }
    }
    if (now >= warm_ns && now < end_ns) {
      ++served_in_window;
      ++window_served[window_of(now)];
    }
  };

  Scrape scrape;
  u64 next_scrape_ns = std::min<u64>(warm_ns, 500'000'000ull);
  const auto scrape_step = [&](short revents, u64 now) {
    if (!scrape.sent && (revents & (POLLOUT | POLLERR | POLLHUP)) != 0) {
      int so_error = 0;
      socklen_t len = sizeof so_error;
      (void)::getsockopt(scrape.sock.fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
      static constexpr char kGet[] =
          "GET /metrics HTTP/1.1\r\nHost: kvx\r\n\r\n";
      if (so_error != 0 ||
          ::send(scrape.sock.fd, kGet, sizeof kGet - 1, MSG_NOSIGNAL) !=
              static_cast<ssize_t>(sizeof kGet - 1)) {
        out.fail("serve: /metrics scrape could not be sent");
        scrape.sock.reset();
        return;
      }
      scrape.sent = true;
      return;
    }
    if ((revents & (POLLIN | POLLHUP)) == 0) return;
    char buf[16 * 1024];
    for (;;) {
      const ssize_t n = ::recv(scrape.sock.fd, buf, sizeof buf, 0);
      if (n > 0) {
        scrape.buf.append(buf, static_cast<usize>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      break;  // EOF or error: the response is complete
    }
    ++out.attempted;
    if (scrape.buf.rfind("HTTP/1.1 200", 0) != 0 ||
        scrape.buf.find("kvx_server_requests_total") == std::string::npos) {
      out.fail("serve: /metrics scrape returned no metrics");
    } else if (scrape.start_ns >= warm_ns) {
      net.scrape_ms.push_back(static_cast<double>(now - scrape.start_ns) / 1e6);
    }
    scrape.sock.reset();
    scrape.buf.clear();
  };

  net.engine.before = server->engine().stats();
  const u64 t0 = now_ns();
  u8 rbuf[64 * 1024];
  for (;;) {
    u64 now = now_ns() - t0;
    // Send everything due.
    if (open_loop) {
      while (next_arrival_ns <= static_cast<double>(now) &&
             next_arrival_ns < static_cast<double>(end_ns)) {
        const u64 due = static_cast<u64>(next_arrival_ns);
        (void)enqueue(due, static_cast<unsigned>(rng.below(kConns)));
        if (due >= warm_ns) net.lag.record(now - due);
        next_arrival_ns += draw_gap();
      }
    } else if (now < end_ns && spec.lone) {
      // The probe runs between requests, while none is in flight: with
      // the server busy on the same CPU it would time the server too.
      if (in_flight == 0) {
        if (spec.speed != nullptr) spec.speed->tick();
        (void)enqueue(now_ns() - t0, static_cast<unsigned>(net.sent % kConns));
      }
    } else if (now < end_ns) {
      for (unsigned c = 0; c < kConns; ++c) {
        while (conns[c].outstanding < kClosedWindow && enqueue(now, c)) {
        }
      }
    }
    for (Conn& conn : conns) {
      if (conn.out.empty()) continue;
      auto span = tracer.scope("client.send", net.sent);
      if (!conn.flush()) {
        out.fail("serve: send failed");
        return 0.0;
      }
    }
    if (now >= next_scrape_ns && scrape.sock.fd < 0 && now < end_ns) {
      scrape.sock.fd = connect_loopback(port, true);
      scrape.sent = false;
      scrape.start_ns = now;
      next_scrape_ns += 1'000'000'000ull;
      if (scrape.sock.fd < 0) out.fail("serve: admin connect failed");
    }
    if (!backlog_taken && now >= end_ns) {
      backlog_taken = true;
      net.backlog = in_flight;
      net.engine.after = server->engine().stats();
    }
    const bool sending_done =
        open_loop ? next_arrival_ns >= static_cast<double>(end_ns)
                  : now >= end_ns;
    if (sending_done && in_flight == 0 && scrape.sock.fd < 0) break;
    if (now >= drain_ns) {
      out.fail("serve: responses missing at the drain deadline", in_flight);
      break;
    }

    // Sleep until the next arrival or a response (closed loop and drain:
    // until responses arrive). The client shares its CPU with the server,
    // so it never spins; its timer slack is 1 ns.
    u64 wait_ns = 1'000'000;
    if (open_loop && !sending_done) {
      wait_ns = static_cast<u64>(
          std::max(0.0, next_arrival_ns - static_cast<double>(now)));
    }
    pollfd pfds[kConns + 1];
    for (unsigned c = 0; c < kConns; ++c) {
      pfds[c] = {conns[c].sock.fd,
                 static_cast<short>(POLLIN | (conns[c].out.empty() ? 0 : POLLOUT)),
                 0};
    }
    nfds_t nfds = kConns;
    if (scrape.sock.fd >= 0) {
      pfds[nfds++] = {scrape.sock.fd,
                      static_cast<short>(scrape.sent ? POLLIN : POLLOUT), 0};
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000ull),
                      static_cast<long>(wait_ns % 1'000'000'000ull)};
    int ready = 0;
    {
      auto span = tracer.scope("wait.poll");
      ready = ::ppoll(pfds, nfds, &ts, nullptr);
    }
    if (ready <= 0) continue;
    now = now_ns() - t0;
    for (unsigned c = 0; c < kConns; ++c) {
      if ((pfds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& conn = conns[c];
      // One span per drain of a connection, not per recv call, so that a
      // traced pass fits the span buffer; responses nest inside it.
      auto span = tracer.scope("client.recv", net.sent);
      for (;;) {
        const ssize_t n = ::recv(conn.sock.fd, rbuf, sizeof rbuf, 0);
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          out.fail("serve: server closed a connection", in_flight);
          return 0.0;
        }
        if (!conn.reader.feed(std::span<const u8>(rbuf, static_cast<usize>(n)))) {
          out.fail("serve: bad response framing: " + conn.reader.error());
          return 0.0;
        }
        std::vector<u8> payload;
        while (conn.reader.next(payload)) on_response(conn, payload, now);
      }
    }
    if (nfds > kConns) scrape_step(pfds[kConns].revents, now);
  }
  if (!backlog_taken) {
    net.engine.after = server->engine().stats();
  }
  guard.stop();  // counters are readable once the loop returned
  if (loop_error) std::rethrow_exception(loop_error);
  net.server = server->counters();
  if (spec.speed != nullptr) {
    // Saturation and open-loop phases probe only here, once the server has
    // stopped: beside a busy server a probe would time the server too, and
    // an open-loop send must not be held back.
    spec.speed->burst();
  }
  for (usize i = 0; i < n_windows; ++i) {
    net.windows.add(static_cast<double>(window_served[i]) /
                        (static_cast<double>(window_ns) / 1e9),
                    window_lat[i]);
  }
  net.engine.valid = true;
  net.engine.wall_s = spec.measure_s;
  net.engine.threads = server->engine().threads();
  net.engine.sn = spec.sn;
  net.valid = true;
  return static_cast<double>(served_in_window) / spec.measure_s;
}

int calibrate_serving(u64 seed) {
  const Workload w = make_workload("serve-open", seed, false);
  Tracer tracer(false);
  Outcome out;
  std::vector<double> sat;
  for (int i = 0; i < 3; ++i) {
    PhaseSpec spec;
    spec.measure_s = 3.0;
    spec.sn = w.sn;
    spec.seed = seed * 31 + static_cast<u64>(i);
    NetCounters net;
    sat.push_back(run_serve_phase(w.set, spec, tracer, out, net));
    std::printf("closed loop (window %zu x %u): %.0f req/s, p99 %.3f ms\n",
                kClosedWindow, kConns, sat.back(),
                net.windows.all.percentile(0.99) / 1e6);
  }
  // Closed-loop S overstates what an open loop sustains (a closed loop
  // slows its own arrivals), so the frozen rates derive from the highest
  // ladder rung that meets the latency limit without a growing backlog.
  const double s = median(sat);
  const auto k1 = [](double x) { return std::round(x / 1000.0) * 1000.0; };
  std::printf("closed-loop S = %.0f req/s\n", s);
  std::printf("%10s %9s %9s %9s %8s %6s\n", "rate/s", "p50 ms", "p99 ms",
              "lag99 us", "backlog", "meets");
  double max_rate = 0.0;
  for (double rate = 0.4 * s; rate <= 1.0 * s * 1.0001; rate *= 1.1) {
    PhaseSpec spec;
    spec.rate = k1(rate);
    spec.measure_s = 2.0;
    spec.sn = w.sn;
    spec.seed = seed * 131 + static_cast<u64>(rate);
    NetCounters net;
    Outcome rung;
    (void)run_serve_phase(w.set, spec, tracer, rung, net);
    const double p99 = net.windows.all.percentile(0.99) / 1e6;
    const bool meets = rung.correct && p99 <= kLatencyLimitMs &&
                       static_cast<double>(net.backlog) <=
                           0.01 * static_cast<double>(net.sent);
    if (meets) max_rate = spec.rate;
    std::printf("%10.0f %9.4f %9.4f %9.1f %8llu %6s\n", spec.rate,
                net.windows.all.percentile(0.5) / 1e6, p99,
                net.lag.percentile(0.99) / 1e3,
                static_cast<unsigned long long>(net.backlog),
                meets ? "yes" : "no");
  }
  std::printf("highest rung meeting p99 <= %.1f ms: %.0f req/s\n",
              kLatencyLimitMs, max_rate);
  std::printf("frozen rates: low %.0f, mid %.0f, high %.0f\n",
              k1(0.25 * max_rate), k1(0.5 * max_rate), k1(0.8 * max_rate));
  return out.correct ? 0 : 1;
}

}  // namespace kvxb
