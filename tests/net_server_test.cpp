#include "net/server.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/json_parse.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "serve/plan_service.hpp"

/// NetServer: the TCP serving layer, exercised in-process (server on a
/// background thread, real sockets through the loopback).  The contracts
/// under test are the hostile-input ones from the issue — truncated line at
/// close, interleaved pipelined requests, oversized line, slow reader — plus
/// overload shedding past the per-turn planning budget, graceful drain, and
/// byte-identity of the socket path with serve_stream on the same request
/// stream.
///
/// The serving contracts are parameterized over the reactor count (1, 2
/// and 4, every reactor planning its own misses): sharding must be
/// invisible to every client.
/// So are the request ledger (one cache probe per well-formed request, every
/// response a request or a shed) and write batching (one flush per
/// connection per loop turn).
/// The multi-reactor-specific behaviors — accept distribution, the
/// cross-reactor drain barrier, writev coalescing — get their own tests
/// below the matrix.

namespace fusecu {
namespace {

std::string make_req(const std::string& id, int m, int k, int l) {
  return "{\"id\":\"" + id + "\",\"op\":\"matmul\",\"m\":" + std::to_string(m) +
         ",\"k\":" + std::to_string(k) + ",\"l\":" + std::to_string(l) +
         ",\"buffer\":\"512KB\"}\n";
}

/// \p prefix followed by the decimal \p n, the ids of a burst ("a7").
/// Appends: GCC 12 misreports `"a" + std::to_string(n)` under -Wrestrict.
std::string tag(std::string prefix, int n) { return prefix.append(std::to_string(n)); }

/// Server-under-test: PlanService + NetServer + the loop thread.
struct TestServer {
  PlanService service;
  NetServer server;
  std::thread loop;

  TestServer(ServeOptions serve_options, NetServerOptions net_options)
      : service(serve_options), server(service, net_options), loop([this] { server.run(); }) {}

  ~TestServer() { stop(); }

  void stop() {
    if (loop.joinable()) {
      server.request_drain();
      loop.join();
    }
  }
};

/// Blocking test client with poll-timed reads (no test may hang the suite).
class Client {
 public:
  explicit Client(std::uint16_t port) {
    std::string error;
    fd_ = connect_tcp("127.0.0.1", port, error);
    EXPECT_GE(fd_, 0) << error;
  }
  ~Client() {
    if (fd_ >= 0) close_fd(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }

  void send_all(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  void half_close() { ::shutdown(fd_, SHUT_WR); }

  /// Next '\n'-terminated line (without the newline); nullopt on EOF or
  /// timeout.
  std::optional<std::string> read_line(int timeout_ms = 10'000) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (true) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      if (eof_) return std::nullopt;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return std::nullopt;
      struct pollfd pfd = {fd_, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (pr < 0 && errno == EINTR) continue;
      if (pr <= 0) return std::nullopt;
      char chunk[16 * 1024];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buf_.append(chunk, static_cast<std::size_t>(n));
      } else if (n == 0) {
        eof_ = true;
      } else if (errno != EINTR && errno != EAGAIN) {
        eof_ = true;
      }
    }
  }

  std::vector<std::string> read_lines(int n, int timeout_ms = 10'000) {
    std::vector<std::string> lines;
    for (int i = 0; i < n; ++i) {
      auto line = read_line(timeout_ms);
      if (!line) break;
      lines.push_back(std::move(*line));
    }
    return lines;
  }

  /// True when the peer closes without sending more data.
  bool read_eof(int timeout_ms = 10'000) {
    const auto line = read_line(timeout_ms);
    EXPECT_FALSE(line.has_value()) << "unexpected extra line: " << *line;
    return eof_;
  }

 private:
  int fd_ = -1;
  std::string buf_;
  bool eof_ = false;
};

std::string id_of(const std::string& response_line) {
  const std::string needle = "\"id\":\"";
  const std::size_t at = response_line.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t end = response_line.find('"', at + needle.size());
  return response_line.substr(at + needle.size(), end - at - needle.size());
}

NetServerOptions loopback_options() {
  NetServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;
  return options;
}

/// Serving-contract matrix over the reactor count.
class NetServerAt : public ::testing::TestWithParam<int> {
 protected:
  NetServerOptions options() const {
    NetServerOptions o = loopback_options();
    o.reactors = GetParam();
    return o;
  }
};

INSTANTIATE_TEST_SUITE_P(Reactors, NetServerAt, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return tag("reactors", info.param);
                         });

TEST_P(NetServerAt, RoundTripMatchesServeStreamByteForByte) {
  // Mixed stream with repeats on one connection: every response must match
  // the stdin path on an identically configured fresh service byte for
  // byte, "cached" flag included.  Both answer each line in order on one
  // thread, so each distinct shape misses exactly once, on its first line.
  constexpr int kDistinctShapes = 3;
  std::string stream;
  for (int i = 0; i < 8; ++i) stream += make_req(tag("q", i), 256 + 64 * (i % 3), 192, 320);
  for (int i = 0; i < 8; ++i) stream += make_req(tag("q", 8 + i), 256 + 64 * (i % 3), 192, 320);

  const ServeOptions serve_options{.threads = 2};
  TestServer ts(serve_options, options());
  Client client(ts.server.port());
  ASSERT_TRUE(client.connected());
  client.send_all(stream);
  client.half_close();
  std::vector<std::string> tcp_lines = client.read_lines(16);
  ASSERT_EQ(tcp_lines.size(), 16u);
  EXPECT_TRUE(client.read_eof()) << "server closes once the half-closed stream is answered";
  ts.stop();

  PlanService reference(serve_options);
  std::istringstream in(stream);
  std::ostringstream out;
  ASSERT_EQ(reference.serve_stream(in, out, "<stdin>"), 16);
  std::istringstream ref_lines_in(out.str());
  std::string ref_line;
  int tcp_misses = 0;
  int ref_misses = 0;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(std::getline(ref_lines_in, ref_line));
    const std::string& tcp_line = tcp_lines[static_cast<std::size_t>(i)];
    EXPECT_EQ(tcp_line, ref_line) << "response " << i;
    tcp_misses += tcp_line.find("\"cached\":false") != std::string::npos ? 1 : 0;
    ref_misses += ref_line.find("\"cached\":false") != std::string::npos ? 1 : 0;
  }
  EXPECT_EQ(tcp_misses, kDistinctShapes);
  EXPECT_EQ(ref_misses, kDistinctShapes);
}

TEST_P(NetServerAt, PipelinedRequestsAnswerInOrderPerConnection) {
  TestServer ts(ServeOptions{.threads = 4}, options());
  Client a(ts.server.port());
  Client b(ts.server.port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());

  // Interleave two pipelined bursts; each connection's responses must come
  // back exactly in its own request order even though planning completes
  // out of order on the pool.
  std::string burst_a, burst_b;
  for (int i = 0; i < 40; ++i) {
    burst_a += make_req(tag("a", i), 64 + i, 64, 64);
    burst_b += make_req(tag("b", i), 64, 64 + i, 64);
  }
  a.send_all(burst_a);
  b.send_all(burst_b);

  std::vector<std::string> lines_a = a.read_lines(40);
  std::vector<std::string> lines_b = b.read_lines(40);
  ASSERT_EQ(lines_a.size(), 40u);
  ASSERT_EQ(lines_b.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(id_of(lines_a[static_cast<std::size_t>(i)]), tag("a", i));
    EXPECT_EQ(id_of(lines_b[static_cast<std::size_t>(i)]), tag("b", i));
  }
}

TEST_P(NetServerAt, TruncatedLineAtCloseIsServedLikeGetline) {
  TestServer ts(ServeOptions{.threads = 2}, options());
  Client client(ts.server.port());
  ASSERT_TRUE(client.connected());

  // One complete request, then one with no trailing newline before the
  // half-close: the tail is a request (std::getline semantics), so the
  // client still gets two responses and then EOF.
  std::string stream = make_req("full", 128, 128, 128);
  std::string tail = make_req("tail", 96, 96, 96);
  tail.pop_back();  // strip '\n'
  client.send_all(stream + tail);
  client.half_close();

  std::vector<std::string> lines = client.read_lines(2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(id_of(lines[0]), "full");
  EXPECT_EQ(id_of(lines[1]), "tail");
  EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos);
  EXPECT_TRUE(client.read_eof());

  // A truncated *malformed* tail gets an error response, and the server
  // survives for the next connection.
  Client broken(ts.server.port());
  ASSERT_TRUE(broken.connected());
  broken.send_all("{\"id\":\"cut\",\"op\":\"matmul\",\"m\":12");
  broken.half_close();
  std::vector<std::string> error_lines = broken.read_lines(1);
  ASSERT_EQ(error_lines.size(), 1u);
  EXPECT_NE(error_lines[0].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(error_lines[0].find("expected"), std::string::npos);
  EXPECT_TRUE(broken.read_eof());

  Client after(ts.server.port());
  ASSERT_TRUE(after.connected());
  after.send_all(make_req("alive", 64, 64, 64));
  auto line = after.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(id_of(*line), "alive");
}

TEST_P(NetServerAt, OversizedLineGetsStructuredErrorAndConnectionSurvives) {
  NetServerOptions net = options();
  net.max_line_bytes = 256;
  TestServer ts(ServeOptions{.threads = 2}, net);
  Client client(ts.server.port());
  ASSERT_TRUE(client.connected());

  const std::string huge(1024, 'x');
  client.send_all(huge + "\n" + make_req("next", 64, 64, 64));

  std::vector<std::string> lines = client.read_lines(2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[0].find("--max-line-bytes"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("256"), std::string::npos) << lines[0];
  EXPECT_EQ(id_of(lines[1]), "next") << "the connection keeps serving after the oversized line";
  EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos);
  ts.stop();
  EXPECT_EQ(ts.server.stats().oversized_lines, 1);
}

TEST_P(NetServerAt, SlowReaderIsBackpressuredNotDisconnected) {
  NetServerOptions net = options();
  net.write_high_water = 2048;  // tiny: a few responses fill it
  TestServer ts(ServeOptions{.threads = 2}, net);
  Client client(ts.server.port());
  ASSERT_TRUE(client.connected());

  // Send a burst without reading anything: the server's outbound buffer
  // crosses the high-water mark and its reads defer, but nothing is
  // dropped or disconnected.  Then read everything — in order.
  const int kBurst = 120;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) burst += make_req(tag("s", i), 64, 64, 64);
  client.send_all(burst);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));  // let the buffer fill

  std::vector<std::string> lines = client.read_lines(kBurst, 30'000);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kBurst));
  for (int i = 0; i < kBurst; ++i) {
    EXPECT_EQ(id_of(lines[static_cast<std::size_t>(i)]), tag("s", i));
  }
}

TEST_P(NetServerAt, OverloadShedsWithExplicitResponsesInOrder) {
  NetServerOptions net = options();
  net.queue_depth = 1;  // plan one miss per loop turn; a burst read in one turn sheds
  TestServer ts(ServeOptions{.threads = 1}, net);
  Client client(ts.server.port());
  ASSERT_TRUE(client.connected());

  const int kBurst = 100;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) burst += make_req(tag("o", i), 64 + i, 64, 64);
  client.send_all(burst);
  client.half_close();

  std::vector<std::string> lines = client.read_lines(kBurst);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kBurst))
      << "every request gets a response, shed or served";
  int ok = 0, shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    const std::string& line = lines[static_cast<std::size_t>(i)];
    EXPECT_EQ(id_of(line), tag("o", i)) << "shed responses keep id and order";
    if (line.find("\"ok\":true") != std::string::npos) {
      ++ok;
    } else if (line.find("overloaded") != std::string::npos) {
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1) << "a burst past queue_depth=1 must shed";
  EXPECT_TRUE(client.read_eof());

  // The next turn has a fresh budget: a lone request is planned.
  Client after(ts.server.port());
  ASSERT_TRUE(after.connected());
  after.send_all(make_req("recovered", 64, 64, 64));
  auto line = after.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("\"ok\":true"), std::string::npos);
  ts.stop();
  EXPECT_EQ(ts.server.stats().shed, shed);
}

TEST_P(NetServerAt, ShedAndParseErrorResponsesCarryTheParsersId) {
  // The reactor decodes every line once, and a shed response is labelled
  // with that decode's id: the last of duplicate "id" members, keys and
  // values unescaped.  A line the parser rejects is answered with id ""
  // even when an "id" member follows the error.  With queue_depth=1 the
  // burst's first miss spends the turn's budget, so every later miss in the
  // burst (one send, read in one turn) is shed.
  NetServerOptions net = options();
  net.queue_depth = 1;
  TestServer ts(ServeOptions{.threads = 1}, net);
  Client client(ts.server.port());
  ASSERT_TRUE(client.connected());

  const auto line_with = [](int m, const std::string& members) {
    return "{" + members + ",\"op\":\"matmul\",\"m\":" + std::to_string(m) +
           ",\"k\":64,\"l\":64,\"buffer\":\"512KB\"}";
  };
  struct Case {
    std::string line;
    std::string id;  ///< the id the response must carry
    bool shed;       ///< else a parse error
  };
  const std::vector<Case> cases = {
      {line_with(301, R"("id":"first","id":"last")"), "last", true},
      {line_with(302, R"("id":"first","\u0069\u0064":"escaped key")"), "escaped key", true},
      {line_with(303, R"("id":"q\"u\\o\/te\n\t")"), "q\"u\\o/te\n\t", true},
      {line_with(304, R"("id":"\u0041\u00e9\u20AC")"), "A\xC3\xA9\xE2\x82\xAC", true},
      {line_with(305, R"("note":"\"id\":\"fake\"")"), "", true},
      {line_with(306, R"("x":tru,"id":"a")"), "", false},
      {line_with(307, R"("x":[1,,2],"id":"a")"), "", false},
      {line_with(308, R"("x":{"y"},"id":"a")"), "", false},
  };
  std::string burst = line_with(300, R"("id":"head")") + "\n";  // planned
  for (const Case& c : cases) burst += c.line + "\n";
  client.send_all(burst);

  std::vector<std::string> lines = client.read_lines(static_cast<int>(cases.size()) + 1);
  ASSERT_EQ(lines.size(), cases.size() + 1);
  EXPECT_EQ(id_of(lines[0]), "head");
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const std::string& line = lines[i + 1];
    const JsonValuePtr doc = parse_json(line);
    EXPECT_EQ(doc->get("id")->as_string(), c.id) << c.line << "\n -> " << line;
    EXPECT_NE(line.find(c.shed ? "overloaded" : "expected"), std::string::npos)
        << c.line << "\n -> " << line;
    if (c.shed) {
      EXPECT_EQ(parse_plan_request(c.line).id, c.id) << c.line;
    }
  }
  ts.stop();
  EXPECT_EQ(ts.server.stats().shed, 5);
  EXPECT_EQ(ts.server.stats().parse_errors, 3);
}

TEST_P(NetServerAt, LedgerReconcilesAMixedPipelinedBurst) {
  // Each well-formed request makes exactly one counted cache probe,
  // whatever becomes of it — answered from the cache, planned, or shed;
  // malformed and oversized lines make none.  Every response is a counted
  // request or a shed.
  NetServerOptions net = options();
  net.queue_depth = 2;
  net.max_line_bytes = 512;
  TestServer ts(ServeOptions{.threads = 1}, net);
  MetricsRegistry& reg = MetricsRegistry::global();
  const CacheStats cache_before = ts.service.stats().combined();
  const std::int64_t requests_before = reg.counter("serve/requests").value();
  const std::int64_t shed_before = reg.counter("net/shed").value();
  const std::int64_t responses_before = reg.counter("net/responses").value();

  Client client(ts.server.port());
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 3; ++i) {  // one at a time: a turn reading all three would shed one
    client.send_all(make_req(tag("warm", i), 96 + i, 64, 64));
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    ASSERT_NE(line->find("\"ok\":true"), std::string::npos) << *line;
  }

  int well_formed = 3;
  std::string burst;
  for (int i = 0; i < 24; ++i) {
    burst += i % 2 == 0 ? make_req(tag("hit", i), 96 + i % 3, 64, 64)
                        : make_req(tag("miss", i), 200 + i, 64, 64);
    ++well_formed;
    if (i == 8) burst += R"({"id":"bad","m":)" "\n";
    if (i == 16) burst += std::string(1024, 'x') + "\n";
  }
  client.send_all(burst);
  const int burst_lines = 24 + 2;
  std::vector<std::string> lines = client.read_lines(burst_lines);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(burst_lines));
  int shed = 0;
  int cached = 0;
  for (const std::string& line : lines) {
    shed += line.find("overloaded") != std::string::npos ? 1 : 0;
    cached += line.find("\"cached\":true") != std::string::npos ? 1 : 0;
  }
  EXPECT_GE(shed, 1) << "twelve misses past queue_depth=2 must shed";
  EXPECT_EQ(cached, 12) << "every repeat of a warm shape is a hit, even behind sheds";
  ts.stop();

  const CacheStats cache = ts.service.stats().combined();
  const std::int64_t lookups = cache.hits + cache.misses - cache_before.hits - cache_before.misses;
  EXPECT_EQ(lookups, well_formed);
  EXPECT_EQ(cache.hits - cache_before.hits, cached);
  const std::int64_t requests = reg.counter("serve/requests").value() - requests_before;
  const std::int64_t sheds = reg.counter("net/shed").value() - shed_before;
  const std::int64_t responses = reg.counter("net/responses").value() - responses_before;
  EXPECT_EQ(sheds, shed);
  EXPECT_EQ(responses, 3 + burst_lines);
  EXPECT_EQ(requests + sheds, responses);
}

TEST_P(NetServerAt, AllHitBurstLeavesInBatchedWrites) {
  // Responses are written once per connection per loop turn: a pipelined
  // burst of cache hits read in one turn leaves in a handful of gathered
  // writes, not one write per response.
  TestServer ts(ServeOptions{.threads = 2}, options());
  MetricsRegistry& reg = MetricsRegistry::global();
  const auto total = [&](const char* name) {
    std::int64_t sum = 0;
    for (int r = 0; r < GetParam(); ++r) {
      sum += reg.counter("net/reactor." + std::to_string(r) + "/" + name).value();
    }
    return sum;
  };
  const std::int64_t writes_before = total("write_calls") + total("writev_calls");
  const std::int64_t slots_before = total("writev_slots");

  Client client(ts.server.port());
  ASSERT_TRUE(client.connected());
  client.send_all(make_req("warm", 64, 64, 64));
  ASSERT_TRUE(client.read_line().has_value());
  constexpr int kBurst = 64;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) burst += make_req(tag("h", i), 64, 64, 64);
  client.send_all(burst);  // one send(): the reactor reads the whole burst in one turn
  std::vector<std::string> lines = client.read_lines(kBurst);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kBurst));
  for (int i = 0; i < kBurst; ++i) {
    EXPECT_EQ(id_of(lines[static_cast<std::size_t>(i)]), tag("h", i));
    EXPECT_NE(lines[static_cast<std::size_t>(i)].find("\"cached\":true"), std::string::npos);
  }
  ts.stop();

  const std::int64_t writes = total("write_calls") + total("writev_calls") - writes_before;
  const std::int64_t slots = total("writev_slots") - slots_before;
  ASSERT_GT(writes, 0);
  EXPECT_GE(static_cast<double>(slots) / static_cast<double>(writes), 4.0)
      << slots << " responses in " << writes << " writes";
}

TEST_P(NetServerAt, GracefulDrainFinishesInFlightThenCloses) {
  TestServer ts(ServeOptions{.threads = 2}, options());
  Client client(ts.server.port());
  ASSERT_TRUE(client.connected());

  std::string burst;
  for (int i = 0; i < 30; ++i) burst += make_req(tag("g", i), 64 + i, 64, 64);
  client.send_all(burst);
  ts.server.request_drain();
  ts.loop.join();

  // Whatever the server had read before the drain is answered — an exact
  // in-order prefix g0..g(n-1) — then the connection is closed.
  std::vector<std::string> lines;
  while (auto line = client.read_line(5000)) lines.push_back(std::move(*line));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(id_of(lines[i]), tag("g", i));
  }
  EXPECT_LE(lines.size(), 30u);
  const NetServer::Stats stats = ts.server.stats();
  EXPECT_EQ(stats.responses, static_cast<std::int64_t>(lines.size()));
  EXPECT_EQ(stats.closed, stats.accepted);
}

TEST_P(NetServerAt, GracefulDrainDuringShedStormAnswersDecodedPrefixInOrder) {
  // A drain request landing in the middle of an active shed storm
  // (queue_depth=1, several pipelined clients) must still answer every
  // decoded request exactly once — shed or served, strictly in
  // per-connection order — and close every connection, on every reactor
  // topology.
  NetServerOptions net = options();
  net.queue_depth = 1;
  TestServer ts(ServeOptions{.threads = 1}, net);

  constexpr int kClients = 3;
  constexpr int kBurst = 40;
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(ts.server.port()));
    ASSERT_TRUE(clients.back()->connected());
    std::string burst;
    for (int i = 0; i < kBurst; ++i) {
      burst += make_req(tag(tag("b", c) + "-", i), 64 + i, 64, 64);
    }
    clients.back()->send_all(burst);
  }
  // One response per client proves its burst is decoded — and with depth 1
  // the sheds read in the same turn are already slotted — so the storm is
  // live when the drain lands.
  for (auto& client : clients) ASSERT_TRUE(client->read_line().has_value());
  ts.server.request_drain();
  ts.loop.join();

  std::int64_t total = kClients;  // the first line already read per client
  int shed_seen = 0;
  for (int c = 0; c < kClients; ++c) {
    Client& client = *clients[static_cast<std::size_t>(c)];
    std::vector<std::string> lines;
    while (auto line = client.read_line(5000)) lines.push_back(std::move(*line));
    for (std::size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(id_of(lines[i]), tag(tag("b", c) + "-", i + 1))
          << "client " << c << " line " << i;
      if (lines[i].find("overloaded") != std::string::npos) ++shed_seen;
    }
    EXPECT_TRUE(client.read_eof(5000)) << "client " << c;
    total += static_cast<std::int64_t>(lines.size());
  }
  const NetServer::Stats stats = ts.server.stats();
  EXPECT_GE(shed_seen, 1) << "a pipelined storm past queue_depth=1 must shed";
  EXPECT_GE(stats.shed, shed_seen);
  EXPECT_EQ(stats.responses, total) << "every decoded request answered exactly once";
  EXPECT_EQ(stats.accepted, stats.closed) << "drain must close every stormed connection";
}

TEST_P(NetServerAt, DrainWithIdleConnectionReturnsPromptly) {
  TestServer ts(ServeOptions{.threads = 2}, options());
  Client idle(ts.server.port());
  ASSERT_TRUE(idle.connected());
  // Ensure the loop has accepted before draining.
  idle.send_all(make_req("warm", 64, 64, 64));
  ASSERT_TRUE(idle.read_line().has_value());

  ts.server.request_drain();
  ts.loop.join();
  EXPECT_TRUE(idle.read_eof()) << "drain closes idle connections";
}

TEST_P(NetServerAt, MaxConnsDefersAcceptUntilASlotFrees) {
  NetServerOptions net = options();
  net.max_conns = 1;
  TestServer ts(ServeOptions{.threads = 2}, net);

  auto first = std::make_unique<Client>(ts.server.port());
  ASSERT_TRUE(first->connected());
  first->send_all(make_req("one", 64, 64, 64));
  ASSERT_TRUE(first->read_line().has_value());

  // The second connect lands in a listen backlog; the server only accepts
  // it once the first connection goes away.  When another reactor closed
  // it, the freed capacity is noticed on reactor 0's next poll turn (the
  // loop re-checks listener interest at least once a second).
  Client second(ts.server.port());
  ASSERT_TRUE(second.connected());
  second.send_all(make_req("two", 96, 96, 96));
  auto quick = second.read_line(300);
  EXPECT_FALSE(quick.has_value()) << "must not be served while the slot is taken";

  first.reset();  // closes the first connection
  auto line = second.read_line(10'000);
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(id_of(*line), "two");
}

TEST_P(NetServerAt, IdleTimeoutClosesQuietConnections) {
  NetServerOptions net = options();
  net.idle_timeout_ms = 100;
  TestServer ts(ServeOptions{.threads = 2}, net);
  Client client(ts.server.port());
  ASSERT_TRUE(client.connected());
  client.send_all(make_req("ping", 64, 64, 64));
  ASSERT_TRUE(client.read_line().has_value());

  EXPECT_TRUE(client.read_eof(10'000)) << "a quiet connection is closed at idle_timeout_ms";
  ts.stop();
  EXPECT_EQ(ts.server.stats().idle_closed, 1);
}

TEST_P(NetServerAt, IdleTimeoutSparesActiveConnections) {
  // A request every quarter timeout for four timeouts: every idle check in
  // that span finds the connection active and leaves it open.  The wide
  // margin keeps a slow round trip on a loaded host from closing it.
  constexpr int kTimeoutMs = 400;
  constexpr int kGapMs = kTimeoutMs / 4;
  constexpr int kGaps = 16;
  NetServerOptions net = options();
  net.idle_timeout_ms = kTimeoutMs;
  TestServer ts(ServeOptions{.threads = 2}, net);
  Client client(ts.server.port());
  ASSERT_TRUE(client.connected());
  for (int i = 0; i <= kGaps; ++i) {
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(kGapMs));
    client.send_all(make_req(tag("tick", i), 64, 64, 64));
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "request " << i << " after " << i * kGapMs << " ms";
    EXPECT_EQ(id_of(*line), tag("tick", i));
  }
  ts.stop();
  EXPECT_EQ(ts.server.stats().idle_closed, 0);
  EXPECT_EQ(ts.server.stats().responses, kGaps + 1);
}

// --- The per-turn planning budget -------------------------------------------

TEST(NetServerTurnBudget, CachedShapeWithReorderedFieldsIsServedAfterTheBudgetIsSpent) {
  // The budget asks the plan cache, not the request bytes: a cached shape
  // with its members in another order is the same key, so it is a hit and
  // is answered even after the turn's budget is spent.
  NetServerOptions net = loopback_options();
  net.reactors = 1;
  net.queue_depth = 1;
  TestServer ts(ServeOptions{.threads = 1}, net);
  Client client(ts.server.port());
  ASSERT_TRUE(client.connected());
  client.send_all(make_req("warm", 64, 64, 64));
  const auto warm = client.read_line();
  ASSERT_TRUE(warm.has_value());
  ASSERT_NE(warm->find("\"ok\":true"), std::string::npos) << *warm;

  // One send, read in one turn: the first miss spends the budget.
  client.send_all(make_req("miss-0", 72, 64, 64) + make_req("miss-1", 80, 64, 64) +
                  R"({"buffer":"512KB","l":64,"k":64,"m":64,"op":"matmul","id":"reordered"})"
                  "\n");
  const std::vector<std::string> lines = client.read_lines(3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(id_of(lines[0]), "miss-0");
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  EXPECT_EQ(id_of(lines[1]), "miss-1");
  EXPECT_NE(lines[1].find("overloaded"), std::string::npos) << lines[1];
  EXPECT_EQ(id_of(lines[2]), "reordered");
  EXPECT_NE(lines[2].find("\"ok\":true"), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("\"cached\":true"), std::string::npos) << lines[2];
  ts.stop();
  EXPECT_EQ(ts.server.stats().shed, 1);
}

// --- Multi-reactor topology -----------------------------------------------

TEST(NetServerReactors, ReactorCountBelowOneIsRejected) {
  PlanService service(ServeOptions{.threads = 1});
  for (int reactors : {0, -1}) {
    NetServerOptions net = loopback_options();
    net.reactors = reactors;
    EXPECT_THROW({ NetServer server(service, net); }, std::invalid_argument)
        << "reactors " << reactors;
  }
}

TEST(NetServerReactors, HandoffRoundRobinSpreadsConnectionsEvenly) {
  NetServerOptions net = loopback_options();
  net.reactors = 2;
  TestServer ts(ServeOptions{.threads = 2}, net);
  ASSERT_EQ(ts.server.reactor_count(), 2);

  for (int i = 0; i < 64; ++i) {
    Client c(ts.server.port());
    ASSERT_TRUE(c.connected());
    c.send_all(make_req(tag("rr", i), 64, 64, 64));
    ASSERT_TRUE(c.read_line().has_value()) << "connection " << i;
  }
  ts.stop();
  const NetServer::Stats r0 = ts.server.reactor_stats(0);
  const NetServer::Stats r1 = ts.server.reactor_stats(1);
  EXPECT_EQ(r0.accepted + r1.accepted, 64);
  EXPECT_EQ(r0.accepted, 32) << "handoff accept is strict round-robin";
  EXPECT_EQ(r1.accepted, 32);
  EXPECT_EQ(r0.closed + r1.closed, 64);
  EXPECT_EQ(r0.responses + r1.responses, 64);
}

TEST(NetServerReactors, GracefulDrainBarriersAcrossReactors) {
  // Connections pinned to both reactors (handoff round-robin is
  // deterministic), all with responses still in flight: one drain request
  // must finish every connection's admitted prefix in order, close
  // everything on both shards, and only then return from run().
  NetServerOptions net = loopback_options();
  net.reactors = 2;
  TestServer ts(ServeOptions{.threads = 2}, net);

  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < 4; ++c) {
    clients.push_back(std::make_unique<Client>(ts.server.port()));
    ASSERT_TRUE(clients.back()->connected());
    // One answered request pins the connection to its reactor before the
    // drain races the burst.
    clients.back()->send_all(make_req(tag("warm", c), 64, 64, 64));
    ASSERT_TRUE(clients.back()->read_line().has_value());
  }
  for (int c = 0; c < 4; ++c) {
    std::string burst;
    for (int i = 0; i < 20; ++i) {
      burst += make_req(tag(tag("c", c) + "-", i), 64 + i, 64, 64);
    }
    clients[static_cast<std::size_t>(c)]->send_all(burst);
  }
  ts.server.request_drain();
  ts.loop.join();

  std::int64_t total_lines = 0;
  for (int c = 0; c < 4; ++c) {
    Client& client = *clients[static_cast<std::size_t>(c)];
    std::vector<std::string> lines;
    while (auto line = client.read_line(5000)) lines.push_back(std::move(*line));
    // The admitted prefix may legitimately be empty when the drain wins the
    // race against the burst; what matters is order and the close.
    for (std::size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(id_of(lines[i]), tag(tag("c", c) + "-", i))
          << "client " << c << " line " << i;
    }
    EXPECT_TRUE(client.read_eof(5000)) << "client " << c;
    total_lines += static_cast<std::int64_t>(lines.size());
  }
  const NetServer::Stats stats = ts.server.stats();
  EXPECT_EQ(stats.accepted, 4);
  EXPECT_EQ(stats.closed, 4) << "the drain barrier must close every shard's connections";
  EXPECT_EQ(stats.responses, total_lines + 4);  // + the 4 warmup responses
  EXPECT_EQ(ts.server.reactor_stats(0).accepted, 2);
  EXPECT_EQ(ts.server.reactor_stats(1).accepted, 2);
}

// --- Writev coalescing ----------------------------------------------------

TEST(NetServerReactors, PipelinedBurstCoalescesResponsesIntoFewWritevs) {
  // The burst opens with a cache miss, planned in place, and 63 warm cache
  // hits follow it.  The reactor reads the whole burst in one turn, so all
  // 64 slots are done when the turn's flush runs: the backlog must leave
  // in gathered writev batches, ceil(64/16) syscalls instead of 64 single
  // writes.  Order must survive the batching.
  NetServerOptions net = loopback_options();
  net.reactors = 1;  // counters land on net/reactor.0/*
  net.queue_depth = 256;
  TestServer ts(ServeOptions{.threads = 2}, net);

  {
    Client warm(ts.server.port());
    ASSERT_TRUE(warm.connected());
    warm.send_all(make_req("warm", 64, 64, 64));
    ASSERT_TRUE(warm.read_line().has_value());
  }

  MetricsRegistry& reg = MetricsRegistry::global();
  const std::int64_t flushes_before = reg.counter("net/reactor.0/write_calls").value() +
                                      reg.counter("net/reactor.0/writev_calls").value();
  const std::int64_t writev_before = reg.counter("net/reactor.0/writev_calls").value();
  const std::int64_t slots_before = reg.counter("net/reactor.0/writev_slots").value();

  const int kBurst = 64;
  Client client(ts.server.port());
  ASSERT_TRUE(client.connected());
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    char id[8];
    std::snprintf(id, sizeof(id), "c%02d", i);
    // One miss, then warm hits.
    burst += i == 0 ? make_req(id, 96, 64, 96) : make_req(id, 64, 64, 64);
  }
  client.send_all(burst);
  client.half_close();

  std::vector<std::string> lines = client.read_lines(kBurst, 60'000);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kBurst));
  for (int i = 0; i < kBurst; ++i) {
    char id[8];
    std::snprintf(id, sizeof(id), "c%02d", i);
    EXPECT_EQ(id_of(lines[static_cast<std::size_t>(i)]), id);
  }
  EXPECT_TRUE(client.read_eof());
  ts.stop();

  const std::int64_t flushes = reg.counter("net/reactor.0/write_calls").value() +
                               reg.counter("net/reactor.0/writev_calls").value() - flushes_before;
  const std::int64_t writevs = reg.counter("net/reactor.0/writev_calls").value() - writev_before;
  const std::int64_t slots = reg.counter("net/reactor.0/writev_slots").value() - slots_before;
  EXPECT_GE(slots, 64) << "every response slot must pass through the gather path";
  EXPECT_GE(writevs, 1) << "at least one flush must gather multiple slots";
  // ceil(64/kWritevBatchSlots) = 4 gathered flushes, plus slack for
  // partial writes.
  EXPECT_LE(flushes, 12) << "a 64-response backlog must not take ~64 write syscalls";
}

// Fault-injection seams (common/fault.hpp): the loop must treat injected
// EINTR exactly like kernel EINTR — retry, not close — and an injected
// mid-response ECONNRESET/EPIPE must reap only the victim connection.
// Plans are armed before the server starts and disarmed after it stopped,
// per the fault.hpp threading contract.  These stay at the default single
// reactor: fault events are invocation-indexed, so a deterministic schedule
// needs a single reactor thread issuing the syscalls.

TEST(NetServer, InjectedReadEintrAndShortReadAreRetriedTransparently) {
  fault::FaultPlan plan;
  plan.seed = 42;
  // The first two recv() invocations return EINTR, the third is capped to a
  // single byte: the read path must retry through all of it.
  plan.events.push_back({fault::Kind::kReadEintr, 0, 0});
  plan.events.push_back({fault::Kind::kReadEintr, 1, 0});
  plan.events.push_back({fault::Kind::kShortRead, 2, 1});
  fault::ScopedFaultPlan armed(plan);
  {
    TestServer ts(ServeOptions{.threads = 2}, loopback_options());
    Client client(ts.server.port());
    ASSERT_TRUE(client.connected());
    std::string stream;
    for (int i = 0; i < 3; ++i) stream += make_req(tag("e", i), 64 + i, 64, 64);
    client.send_all(stream);
    client.half_close();
    std::vector<std::string> lines = client.read_lines(3);
    ASSERT_EQ(lines.size(), 3u);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(id_of(lines[static_cast<std::size_t>(i)]), tag("e", i));
      EXPECT_NE(lines[static_cast<std::size_t>(i)].find("\"ok\":true"), std::string::npos);
    }
    EXPECT_TRUE(client.read_eof());
    ts.stop();
  }
  EXPECT_EQ(fault::fired_count(fault::Kind::kReadEintr), 2);
  EXPECT_EQ(fault::fired_count(fault::Kind::kShortRead), 1);
}

TEST(NetServer, InjectedWriteEintrAndShortWriteAreRetriedTransparently) {
  fault::FaultPlan plan;
  plan.seed = 43;
  plan.events.push_back({fault::Kind::kWriteEintr, 0, 0});
  plan.events.push_back({fault::Kind::kShortWrite, 1, 5});
  plan.events.push_back({fault::Kind::kWriteEintr, 2, 0});
  fault::ScopedFaultPlan armed(plan);
  {
    TestServer ts(ServeOptions{.threads = 2}, loopback_options());
    Client client(ts.server.port());
    ASSERT_TRUE(client.connected());
    client.send_all(make_req("w0", 64, 64, 64) + make_req("w1", 65, 64, 64));
    client.half_close();
    std::vector<std::string> lines = client.read_lines(2);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(id_of(lines[0]), "w0");
    EXPECT_EQ(id_of(lines[1]), "w1");
    EXPECT_TRUE(client.read_eof());
    ts.stop();
  }
  EXPECT_EQ(fault::fired_count(fault::Kind::kWriteEintr), 2);
  EXPECT_EQ(fault::fired_count(fault::Kind::kShortWrite), 1);
}

TEST(NetServer, InjectedMidResponseResetReapsOnlyTheVictimConnection) {
  fault::FaultPlan plan;
  plan.seed = 44;
  // First send is capped to 10 bytes; the retry (cumulative bytes >= 10)
  // fails with EPIPE mid-response, killing the victim connection.
  plan.events.push_back({fault::Kind::kShortWrite, 0, 10});
  plan.events.push_back({fault::Kind::kWriteReset, 10, 0});
  fault::ScopedFaultPlan armed(plan);
  {
    TestServer ts(ServeOptions{.threads = 2}, loopback_options());
    Client victim(ts.server.port());
    ASSERT_TRUE(victim.connected());
    victim.send_all(make_req("victim", 64, 64, 64));
    // 10 bytes of response arrive, never a complete line, then the close.
    EXPECT_TRUE(victim.read_eof()) << "the poisoned connection must be reaped";

    // The write-fault schedule is exhausted; a fresh connection on the same
    // server is unaffected.
    Client survivor(ts.server.port());
    ASSERT_TRUE(survivor.connected());
    survivor.send_all(make_req("survivor", 96, 96, 96));
    auto line = survivor.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(id_of(*line), "survivor");
    EXPECT_NE(line->find("\"ok\":true"), std::string::npos);
    ts.stop();
    const NetServer::Stats stats = ts.server.stats();
    EXPECT_EQ(stats.accepted, 2);
    EXPECT_EQ(stats.closed, 2);
  }
  EXPECT_EQ(fault::fired_count(fault::Kind::kWriteReset), 1);
}

TEST(NetServer, InjectedEmfileAcceptIsRetriedOnNextReadiness) {
  fault::FaultPlan plan;
  plan.seed = 45;
  plan.events.push_back({fault::Kind::kAcceptEmfile, 0, 0});
  fault::ScopedFaultPlan armed(plan);
  {
    TestServer ts(ServeOptions{.threads = 2}, loopback_options());
    // The first accept attempt fails with EMFILE; the listener stays
    // registered (level-triggered), so the connection is accepted on the
    // next loop turn instead of being lost.
    Client client(ts.server.port());
    ASSERT_TRUE(client.connected());
    client.send_all(make_req("late", 64, 64, 64));
    auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(id_of(*line), "late");
    ts.stop();
  }
  EXPECT_EQ(fault::fired_count(fault::Kind::kAcceptEmfile), 1);
}

}  // namespace
}  // namespace fusecu
