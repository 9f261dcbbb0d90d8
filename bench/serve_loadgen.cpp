/// \file serve_loadgen.cpp
/// Open-loop load generator for the fusecu_serve TCP mode (src/net).
///
///   serve_loadgen --connect HOST:PORT [--connections N] [--threads T]
///                 [--requests N] [--qps TARGET] [--distinct N]
///                 [--retry-sheds] [--recv-timeout-ms MS] [--port-file FILE]
///                 [--bench-out BENCH_serve_loadgen.json]
///
/// Opens N connections spread over T client threads (default: one thread
/// per connection; with T < N each thread multiplexes its share of the
/// connections over one poll loop, so hundreds of connections don't need
/// hundreds of client threads).  `--requests` planning requests are split
/// across the connections and the pipelined responses read back.  With
/// --qps the sends are paced open-loop against the wall clock — a send
/// happens when its scheduled time arrives whether or not earlier responses
/// have come back, so a slow server grows queueing delay instead of
/// silently slowing the offered load (the coordinated-omission trap).
/// --qps 0 (default) sends as fast as the sockets accept.
///
/// Every request carries id "c<conn>-<seq>".  Responses on a connection
/// must come back exactly in the order the requests were sent (the server
/// contract, regardless of how many reactors serve the socket) — checked
/// against a per-connection FIFO of sent ids, so retried requests are
/// covered too; each mismatch counts as out_of_order, and requests still
/// unanswered when the stream ends (or --recv-timeout-ms passes with no
/// progress) count as lost.  The exit status is non-zero when anything was
/// lost or reordered, or when a connection could not be established; a
/// server that is not listening at all is detected by a pre-flight probe
/// connection and reported on stderr with exit status 2 before any load is
/// offered.
///
/// --retry-sheds makes the generator a well-behaved overload client: an
/// ok=false "overloaded" response is retried instead of being dropped,
/// with capped exponential backoff (base << attempt, capped at 1 s) plus
/// deterministic per-connection jitter (<= 25%, seeded by the connection
/// index — runs are reproducible).  The base is the shed's optional
/// `retry_after_ms` hint, or 1 ms when the shed carries none (fusecu_serve
/// sends none).  After 5 attempts the shed is accepted as final.  The
/// summary gains shed_retried= and sheds_with_hint=.
///
/// Output: one merged summary line with exact latency percentiles (sorted
/// send-to-response times, not histogram buckets), preceded by one line
/// per client thread so per-thread skew is visible:
///
///   thread 0: conns=4 responses=2500 p50=91 p95=204 p99=361
///   thread 1: conns=4 responses=2500 p50=94 p95=215 p99=377
///   serve_loadgen: requests=5000 responses=5000 achieved_qps=48210.7
///       errors=0 shed=0 shed_retried=0 sheds_with_hint=0 lost=0 out_of_order=0
///   latency_us: p50=92 p95=210 p99=368 max=1204
///
/// --bench-out records the merged numbers in the repo's perf-trajectory
/// format (CI archives BENCH_serve_loadgen.json).
///
/// Request shapes cycle through --distinct variants so the server's plan
/// cache sees a realistic hit/miss mix; "--distinct 1" measures the pure
/// cache-hit fast path.

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "net/socket.hpp"
#include "obs/obs_session.hpp"

using namespace fusecu;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t us_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start).count();
}

/// One connection's tallies; `latencies_us` is merged per-thread and then
/// globally after the threads join.
struct ConnResult {
  std::int64_t sent = 0;
  std::int64_t received = 0;
  std::int64_t errors = 0;  ///< ok=false responses that are not sheds
  std::int64_t shed = 0;    ///< ok=false "overloaded" responses
  std::int64_t shed_retried = 0;    ///< sheds re-sent under --retry-sheds
  std::int64_t sheds_with_hint = 0; ///< sheds carrying retry_after_ms
  std::int64_t out_of_order = 0;
  std::int64_t lost = 0;
  std::vector<std::int64_t> latencies_us;
  /// ok=true responses only: the *served* tail, not diluted by fast sheds
  /// (the metric the overload probe in EXPERIMENTS.md gates on).
  std::vector<std::int64_t> ok_latencies_us;
  std::string failure;  ///< non-empty = connection-level failure
};

/// One multiplexed connection: socket, schedule, framing buffers, tallies.
struct ConnState {
  int fd = -1;
  int index = 0;  ///< global connection index — the "c<conn>-" id prefix
  std::int64_t requests = 0;
  double interval_us = 0.0;
  double phase_us = 0.0;
  std::string outbuf;
  std::size_t outbuf_off = 0;
  std::string inbuf;
  /// FIFO of in-flight requests: per-conn responses come back in send
  /// order, so the front is always the one the next response answers.
  struct Sent {
    std::string id;
    std::int64_t send_us = 0;
  };
  std::deque<Sent> in_flight;
  std::int64_t originals_sent = 0;  ///< pacing counter; excludes retries
  std::int64_t completed = 0;       ///< final answers (a retried shed is not)
  /// A shed request waiting out its backoff before being re-sent.
  struct Retry {
    std::int64_t seq = 0;
    std::int64_t due_us = 0;
    int attempt = 0;  ///< 1 on the first retry
  };
  std::deque<Retry> retries;
  std::map<std::int64_t, int> retry_attempts;  ///< seq → re-sends so far
  std::uint64_t jitter_state = 0;  ///< per-conn LCG: deterministic backoff jitter
  bool sent_all_and_flushed = false;
  bool done = false;
  std::int64_t last_progress_us = 0;
  ConnResult result;
};

/// At most this many re-sends per shed request; past it the shed is final.
constexpr int kMaxShedRetries = 5;

/// "c<conn>-<seq>", the id of request \p seq on connection \p conn.
std::string request_id(int conn, std::int64_t seq) {
  return std::string("c").append(std::to_string(conn)).append("-").append(std::to_string(seq));
}

std::string make_request(int conn, std::int64_t seq, int distinct) {
  // A small shape family keyed off the request index: repeats within
  // `distinct` variants exercise the plan cache, the sizes stay cheap
  // enough that the pool is never the bottleneck under --qps 0.  The base
  // family has 6*6*6 = 216 combinations; past that, `--distinct N` perturbs
  // m so the family really holds N distinct shapes — a sustained cold
  // (cache-missing) flood for the overload probe in EXPERIMENTS.md.  Values
  // of --distinct up to 216 produce exactly the historical shapes.
  static const int kSizes[] = {128, 192, 256, 320, 384, 512};
  const std::int64_t v = distinct > 0 ? (seq % distinct) : seq;
  const int m = kSizes[v % 6] + static_cast<int>((v / 216) % 4096) * 4;
  const int k = kSizes[(v / 6) % 6];
  const int l = kSizes[(v / 36) % 6];
  std::string line = "{\"id\":\"" + request_id(conn, seq) +
                     "\",\"op\":\"matmul\",\"m\":" + std::to_string(m) +
                     ",\"k\":" + std::to_string(k) + ",\"l\":" + std::to_string(l) +
                     ",\"buffer\":\"512KB\"}\n";
  return line;
}

/// Pull `"key":"value"` out of a response line without a JSON parser — the
/// serializer always emits the id first and never escapes quotes in it.
std::string extract_string_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string::npos) return "";
  return line.substr(begin, end - begin);
}

/// `"key":123` → 123, or -1 when the key is absent / not a number.
std::int64_t extract_int_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return -1;
  std::size_t i = at + needle.size();
  std::int64_t value = 0;
  bool any = false;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
    value = value * 10 + (line[i] - '0');
    any = true;
    ++i;
  }
  return any ? value : -1;
}

/// Backoff before retry `attempt` of a shed whose response hinted
/// \p retry_after_ms (<= 0: no hint, 1 ms base): capped exponential
/// (base << (attempt-1), <= 1 s) plus deterministic per-connection jitter
/// of up to 25%.
std::int64_t backoff_us(ConnState& conn, std::int64_t retry_after_ms, int attempt) {
  const std::int64_t base_ms = retry_after_ms > 0 ? retry_after_ms : 1;
  const int shift = std::min(attempt - 1, 10);
  const std::int64_t delay_ms = std::min<std::int64_t>(base_ms << shift, 1000);
  conn.jitter_state = conn.jitter_state * 6364136223846793005ull + 1442695040888963407ull;
  const std::int64_t jitter_pct = static_cast<std::int64_t>((conn.jitter_state >> 33) % 26);
  return delay_ms * 1000 * (100 + jitter_pct) / 100;
}

void finish_conn(ConnState& conn) {
  conn.result.lost = conn.result.sent - conn.result.received;
  if (conn.fd >= 0) {
    close_fd(conn.fd);
    conn.fd = -1;
  }
  conn.done = true;
}

/// Schedule every request of \p conn that is due (all of them when
/// unpaced).  The recorded send time is the *scheduled* instant, not the
/// moment the bytes leave — open-loop latency charges the server for our
/// own scheduling slippage instead of hiding it (coordinated omission).
void schedule_due(ConnState& conn, std::int64_t now_us, Clock::time_point start, int distinct) {
  while (conn.originals_sent < conn.requests) {
    const std::int64_t due_us =
        conn.interval_us > 0.0
            ? static_cast<std::int64_t>(
                  conn.phase_us + conn.interval_us * static_cast<double>(conn.originals_sent))
            : 0;
    if (now_us < due_us) break;
    conn.outbuf += make_request(conn.index, conn.originals_sent, distinct);
    conn.in_flight.push_back({request_id(conn.index, conn.originals_sent),
                              conn.interval_us > 0.0 ? due_us : us_since(start)});
    ++conn.originals_sent;
    ++conn.result.sent;
  }
}

/// Re-send every shed whose backoff has elapsed.  The retry is byte-for-byte
/// the original request (same id, same shape), appended after everything
/// already queued — in_flight keeps the order contract intact.
void schedule_retries(ConnState& conn, std::int64_t now_us, Clock::time_point start,
                      int distinct) {
  for (std::size_t i = 0; i < conn.retries.size();) {
    if (conn.retries[i].due_us > now_us) {
      ++i;
      continue;
    }
    const ConnState::Retry retry = conn.retries[i];
    conn.retries.erase(conn.retries.begin() + static_cast<std::ptrdiff_t>(i));
    conn.outbuf += make_request(conn.index, retry.seq, distinct);
    conn.in_flight.push_back(
        {request_id(conn.index, retry.seq), us_since(start)});
    ++conn.result.sent;
    ++conn.result.shed_retried;
  }
}

/// Drain writable/readable events for \p conn; marks it done on EOF, error
/// or stall.  Returns nothing — all state lives in the ConnState.
void pump_conn(ConnState& conn, short revents, Clock::time_point start,
               std::int64_t recv_timeout_ms, bool retry_sheds) {
  if ((revents & POLLOUT) && conn.outbuf.size() > conn.outbuf_off) {
    const ssize_t wrote = ::send(conn.fd, conn.outbuf.data() + conn.outbuf_off,
                                 conn.outbuf.size() - conn.outbuf_off, MSG_NOSIGNAL);
    if (wrote > 0) {
      conn.outbuf_off += static_cast<std::size_t>(wrote);
      if (conn.outbuf_off == conn.outbuf.size()) {
        conn.outbuf.clear();
        conn.outbuf_off = 0;
      }
      conn.last_progress_us = us_since(start);
    } else if (wrote < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      conn.result.failure = std::string("send: ") + std::strerror(errno);
      finish_conn(conn);
      return;
    }
  }
  // Half-close: the server answers everything already on the wire and then
  // closes, turning "done" into a clean EOF instead of a timeout.  Under
  // --retry-sheds any outstanding response may still turn into a retry we
  // would have to write, so the write side stays open until nothing is in
  // flight or pending.
  const bool nothing_left_to_send =
      retry_sheds ? (conn.originals_sent == conn.requests && conn.outbuf.empty() &&
                     conn.retries.empty() && conn.in_flight.empty())
                  : (conn.originals_sent == conn.requests && conn.outbuf.empty());
  if (!conn.sent_all_and_flushed && nothing_left_to_send) {
    ::shutdown(conn.fd, SHUT_WR);
    conn.sent_all_and_flushed = true;
  }

  bool saw_eof = false;
  if (revents & (POLLIN | POLLHUP)) {
    char chunk[64 * 1024];
    while (true) {
      const ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (got > 0) {
        conn.inbuf.append(chunk, static_cast<std::size_t>(got));
        conn.last_progress_us = us_since(start);
        continue;
      }
      if (got == 0) saw_eof = true;
      if (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        conn.result.failure = std::string("recv: ") + std::strerror(errno);
        saw_eof = true;
      }
      break;
    }
  }

  std::size_t line_start = 0;
  std::size_t nl;
  while ((nl = conn.inbuf.find('\n', line_start)) != std::string::npos) {
    const std::string line = conn.inbuf.substr(line_start, nl - line_start);
    line_start = nl + 1;
    const std::int64_t recv_us = us_since(start);
    std::int64_t seq = -1;
    if (!conn.in_flight.empty()) {
      const ConnState::Sent& sent = conn.in_flight.front();
      conn.result.latencies_us.push_back(recv_us - sent.send_us);
      if (line.find("\"ok\":true") != std::string::npos) {
        conn.result.ok_latencies_us.push_back(recv_us - sent.send_us);
      }
      if (extract_string_field(line, "id") != sent.id) ++conn.result.out_of_order;
      const std::size_t dash = sent.id.find('-');
      if (dash != std::string::npos) seq = std::stoll(sent.id.substr(dash + 1));
      conn.in_flight.pop_front();
    } else {
      ++conn.result.out_of_order;  // a response nothing was waiting for
    }
    bool final_answer = true;
    if (line.find("\"ok\":false") != std::string::npos) {
      if (line.find("overloaded") != std::string::npos) {
        ++conn.result.shed;
        const std::int64_t hint_ms = extract_int_field(line, "retry_after_ms");
        if (hint_ms >= 0) ++conn.result.sheds_with_hint;
        if (retry_sheds && seq >= 0) {
          int& attempts = conn.retry_attempts[seq];
          if (attempts < kMaxShedRetries) {
            ++attempts;
            conn.retries.push_back(
                {seq, recv_us + backoff_us(conn, hint_ms, attempts), attempts});
            final_answer = false;
          }
        }
      } else {
        ++conn.result.errors;
      }
    }
    if (final_answer) ++conn.completed;
    ++conn.result.received;
  }
  if (line_start > 0) conn.inbuf.erase(0, line_start);

  if (conn.completed >= conn.requests || saw_eof) {
    finish_conn(conn);
    return;
  }
  if (recv_timeout_ms > 0 && !conn.in_flight.empty() &&
      us_since(start) - conn.last_progress_us > recv_timeout_ms * 1000) {
    conn.result.failure = "receive timeout: no progress for " + std::to_string(recv_timeout_ms) +
                          "ms with " + std::to_string(conn.in_flight.size()) +
                          " responses outstanding";
    finish_conn(conn);
  }
}

/// One client thread: connect and multiplex every ConnState assigned to it
/// over a single poll loop, preserving per-connection due-time pacing.
void run_worker(const std::string& host, std::uint16_t port, std::vector<ConnState*> conns,
                int distinct, std::int64_t recv_timeout_ms, bool retry_sheds) {
  for (ConnState* conn : conns) {
    std::string error;
    conn->fd = connect_tcp(host, port, error);
    if (conn->fd < 0) {
      conn->result.failure = "connect: " + error;
      conn->done = true;
      continue;
    }
    set_nonblocking(conn->fd);
  }
  const Clock::time_point start = Clock::now();

  std::vector<struct pollfd> pfds;
  std::vector<ConnState*> polled;
  while (true) {
    const std::int64_t now_us = us_since(start);
    pfds.clear();
    polled.clear();
    std::int64_t wait_ms = 50;
    for (ConnState* conn : conns) {
      if (conn->done) continue;
      schedule_due(*conn, now_us, start, distinct);
      if (retry_sheds) schedule_retries(*conn, now_us, start, distinct);
      short events = POLLIN;
      if (conn->outbuf.size() > conn->outbuf_off) events |= POLLOUT;
      pfds.push_back({conn->fd, events, 0});
      polled.push_back(conn);
      if (conn->originals_sent < conn->requests && conn->interval_us > 0.0) {
        // Round up: sleeping a hair past the due time costs sub-ms pacing
        // error, while rounding down would spin poll(0) and starve the
        // server of CPU on small machines.
        const std::int64_t next_due_us = static_cast<std::int64_t>(
            conn->phase_us + conn->interval_us * static_cast<double>(conn->originals_sent));
        wait_ms = std::min(wait_ms,
                           std::max<std::int64_t>(1, (next_due_us - now_us + 999) / 1000));
      } else if (conn->originals_sent < conn->requests) {
        wait_ms = 0;
      }
      for (const ConnState::Retry& retry : conn->retries) {
        wait_ms = std::min(wait_ms,
                           std::max<std::int64_t>(1, (retry.due_us - now_us + 999) / 1000));
      }
    }
    if (polled.empty()) break;

    const int n = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                         static_cast<int>(wait_ms));
    if (n < 0 && errno != EINTR) {
      for (ConnState* conn : polled) {
        conn->result.failure = std::string("poll: ") + std::strerror(errno);
        finish_conn(*conn);
      }
      break;
    }
    for (std::size_t i = 0; i < polled.size(); ++i) {
      if (!polled[i]->done) {
        pump_conn(*polled[i], n > 0 ? pfds[i].revents : 0, start, recv_timeout_ms, retry_sheds);
      }
    }
  }
  for (ConnState* conn : conns) {
    if (!conn->done) finish_conn(*conn);
  }
}

std::int64_t percentile_us(const std::vector<std::int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = q * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(rank);
  if (static_cast<double>(idx) < rank) ++idx;  // ceil
  if (idx > 0) --idx;                          // 1-based -> 0-based
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) {
  ObsSession obs(argc, argv);
  try {
    ArgParser args({"--retry-sheds"},
                   {"--connect", "--connections", "--threads", "--requests", "--qps",
                    "--distinct", "--recv-timeout-ms", "--port-file"});
    args.parse_or_exit(
        argc, argv,
        "usage: serve_loadgen --connect HOST:PORT [--connections N] [--threads T]\n"
        "                     [--requests N] [--qps TARGET] [--distinct N]\n"
        "                     [--retry-sheds] [--recv-timeout-ms MS] [--port-file FILE]\n"
        "                     [--bench-out FILE]\n");
    signal(SIGPIPE, SIG_IGN);

    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    if (auto connect = args.option("--connect")) {
      std::optional<HostPort> hp = parse_host_port(*connect);
      if (!hp) {
        std::cerr << "error: --connect expects HOST:PORT, got \"" << *connect << "\"\n";
        return 1;
      }
      if (!hp->host.empty()) host = hp->host;
      port = hp->port;
    }
    if (auto port_path = args.option("--port-file")) {
      std::ifstream port_file(*port_path);
      int file_port = 0;
      if (!(port_file >> file_port) || file_port <= 0 || file_port > 65535) {
        std::cerr << "error: cannot read a port number from " << *port_path << "\n";
        return 1;
      }
      port = static_cast<std::uint16_t>(file_port);
    }
    if (port == 0) {
      std::cerr << "error: need --connect HOST:PORT or --port-file FILE\n";
      return 1;
    }

    // Pre-flight probe: one throwaway connection before any thread starts.
    // A server that is not listening fails fast with an actionable message
    // instead of N workers each timing out with per-connection failures.
    {
      std::string probe_error;
      const int probe_fd = connect_tcp(host, port, probe_error);
      if (probe_fd < 0) {
        std::cerr << "serve_loadgen: cannot connect to " << host << ":" << port << ": "
                  << probe_error << "\n"
                  << "serve_loadgen: is fusecu_serve listening there? (start it with "
                     "--listen "
                  << host << ":" << port << ")\n";
        return 2;
      }
      close_fd(probe_fd);
    }

    const int connections = static_cast<int>(args.option_int("--connections", 4));
    const std::int64_t requests = args.option_int("--requests", 5000);
    const double qps = args.option("--qps") ? std::stod(*args.option("--qps")) : 0.0;
    const int distinct = static_cast<int>(args.option_int("--distinct", 64));
    const bool retry_sheds = args.has_flag("--retry-sheds");
    const std::int64_t recv_timeout_ms = args.option_int("--recv-timeout-ms", 10'000);
    if (connections <= 0 || requests <= 0) {
      std::cerr << "error: --connections and --requests must be positive\n";
      return 1;
    }
    // Default preserves the historical one-thread-per-connection behavior;
    // explicit --threads caps at one thread per connection.
    int threads = static_cast<int>(args.option_int("--threads", connections));
    if (threads <= 0) {
      std::cerr << "error: --threads must be positive\n";
      return 1;
    }
    threads = std::min(threads, connections);

    std::vector<ConnState> conns(static_cast<std::size_t>(connections));
    for (int c = 0; c < connections; ++c) {
      ConnState& conn = conns[static_cast<std::size_t>(c)];
      conn.index = c;
      // Spread the total: the first (requests % connections) conns take one
      // extra so every request is owned by exactly one connection.
      conn.requests = requests / connections + (c < requests % connections ? 1 : 0);
      // Open-loop schedule: request k on a connection is due at k / qps,
      // staggered a fraction of a period per connection so the fleet does
      // not fire in lockstep.
      const double per_conn_qps = qps / connections;
      conn.interval_us = per_conn_qps > 0.0 ? 1e6 / per_conn_qps : 0.0;
      conn.phase_us = conn.interval_us * c / std::max(1, c + 1);  // < one period, deterministic
      conn.jitter_state = static_cast<std::uint64_t>(c) * 2654435761ull + 0x9e3779b97f4a7c15ull;
    }
    // Round-robin assignment: thread t owns connections t, t+T, t+2T, ...
    std::vector<std::vector<ConnState*>> assigned(static_cast<std::size_t>(threads));
    for (int c = 0; c < connections; ++c) {
      assigned[static_cast<std::size_t>(c % threads)].push_back(
          &conns[static_cast<std::size_t>(c)]);
    }

    std::vector<std::thread> workers;
    const Clock::time_point start = Clock::now();
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back(run_worker, host, port, assigned[static_cast<std::size_t>(t)],
                           distinct, recv_timeout_ms, retry_sheds);
    }
    for (auto& w : workers) w.join();
    const double wall_s = static_cast<double>(us_since(start)) / 1e6;

    ConnResult total;
    std::vector<std::int64_t> latencies;
    std::vector<std::int64_t> ok_latencies;
    bool conn_failed = false;
    for (int t = 0; t < threads; ++t) {
      std::vector<std::int64_t> thread_lat;
      std::int64_t thread_responses = 0;
      for (const ConnState* conn : assigned[static_cast<std::size_t>(t)]) {
        const ConnResult& r = conn->result;
        total.sent += r.sent;
        total.received += r.received;
        total.errors += r.errors;
        total.shed += r.shed;
        total.shed_retried += r.shed_retried;
        total.sheds_with_hint += r.sheds_with_hint;
        total.out_of_order += r.out_of_order;
        total.lost += r.lost;
        thread_responses += r.received;
        thread_lat.insert(thread_lat.end(), r.latencies_us.begin(), r.latencies_us.end());
        ok_latencies.insert(ok_latencies.end(), r.ok_latencies_us.begin(),
                            r.ok_latencies_us.end());
        if (!r.failure.empty()) {
          conn_failed = true;
          std::cerr << "serve_loadgen: connection failure: " << r.failure << "\n";
        }
      }
      std::sort(thread_lat.begin(), thread_lat.end());
      std::cout << "thread " << t << ": conns=" << assigned[static_cast<std::size_t>(t)].size()
                << " responses=" << thread_responses
                << " p50=" << percentile_us(thread_lat, 0.50)
                << " p95=" << percentile_us(thread_lat, 0.95)
                << " p99=" << percentile_us(thread_lat, 0.99) << "\n";
      latencies.insert(latencies.end(), thread_lat.begin(), thread_lat.end());
    }
    std::sort(latencies.begin(), latencies.end());
    std::sort(ok_latencies.begin(), ok_latencies.end());
    const double achieved_qps = wall_s > 0.0 ? static_cast<double>(total.received) / wall_s : 0.0;
    const std::int64_t p50 = percentile_us(latencies, 0.50);
    const std::int64_t p95 = percentile_us(latencies, 0.95);
    const std::int64_t p99 = percentile_us(latencies, 0.99);
    const std::int64_t max_us = latencies.empty() ? 0 : latencies.back();
    const std::int64_t served_p50 = percentile_us(ok_latencies, 0.50);
    const std::int64_t served_p99 = percentile_us(ok_latencies, 0.99);

    std::cout << "serve_loadgen: requests=" << total.sent << " responses=" << total.received
              << " achieved_qps=" << achieved_qps << " errors=" << total.errors
              << " shed=" << total.shed << " shed_retried=" << total.shed_retried
              << " sheds_with_hint=" << total.sheds_with_hint << " lost=" << total.lost
              << " out_of_order=" << total.out_of_order << "\n";
    std::cout << "latency_us: p50=" << p50 << " p95=" << p95 << " p99=" << p99
              << " max=" << max_us << "\n";
    std::cout << "served_latency_us: p50=" << served_p50 << " p99=" << served_p99
              << " count=" << ok_latencies.size() << "\n";

    obs.record_bench_value("achieved_qps", achieved_qps);
    obs.record_bench_value("requests", static_cast<double>(total.sent));
    obs.record_bench_value("responses", static_cast<double>(total.received));
    obs.record_bench_value("errors", static_cast<double>(total.errors));
    obs.record_bench_value("shed", static_cast<double>(total.shed));
    obs.record_bench_value("shed_retried", static_cast<double>(total.shed_retried));
    obs.record_bench_value("sheds_with_hint", static_cast<double>(total.sheds_with_hint));
    obs.record_bench_value("lost", static_cast<double>(total.lost));
    obs.record_bench_value("out_of_order", static_cast<double>(total.out_of_order));
    obs.record_bench_value("p50_us", static_cast<double>(p50));
    obs.record_bench_value("p95_us", static_cast<double>(p95));
    obs.record_bench_value("p99_us", static_cast<double>(p99));
    obs.record_bench_value("served_p50_us", static_cast<double>(served_p50));
    obs.record_bench_value("served_p99_us", static_cast<double>(served_p99));
    obs.record_bench_value("served", static_cast<double>(ok_latencies.size()));

    if (conn_failed || total.lost > 0 || total.out_of_order > 0) return 1;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
