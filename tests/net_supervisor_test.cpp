#include "net/supervisor.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "serve/plan_service.hpp"

/// Supervisor + watchdog cancellation (PR 10).  The unit half drives the
/// Supervisor with synthetic heartbeat atomics: a frozen epoch on an
/// eligible source is a stall, reported once per episode and re-armed when
/// the heartbeat resumes; ineligible (idle) sources are never stalled.  The
/// e2e half arms real fault plans against a served loopback socket: a
/// worker hang past 2x the budget must produce an in-order ok=false
/// "timed_out" cancellation without leaking the slot, a reactor-loop stall
/// must be detected without disturbing service, and a sustained
/// pool-stall storm must push the adaptive admission controller into
/// brownout — cache misses shed with a retry_after_ms hint, cache hits
/// still served, whatever order their fields come in — and out again once
/// the standing delay recovers.

namespace fusecu {
namespace {

using Clock = std::chrono::steady_clock;

std::string make_req(const std::string& id, int m, int k, int l) {
  return "{\"id\":\"" + id + "\",\"op\":\"matmul\",\"m\":" + std::to_string(m) +
         ",\"k\":" + std::to_string(k) + ",\"l\":" + std::to_string(l) +
         ",\"buffer\":\"512KB\"}\n";
}

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

  void send_all(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  std::optional<std::string> read_line(int timeout_ms = 10'000) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (true) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      if (eof_) return std::nullopt;
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
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

 private:
  int fd_ = -1;
  std::string buf_;
  bool eof_ = false;
};

fault::FaultEvent event(fault::Kind kind, std::uint64_t at, std::uint64_t arg = 0) {
  fault::FaultEvent e;
  e.kind = kind;
  e.at = at;
  e.arg = arg;
  return e;
}

bool wait_until(const std::function<bool()>& pred, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

// ---------------------------------------------------------------------------
// Supervisor unit: synthetic heartbeats.

TEST(Supervisor, FrozenEligibleHeartbeatIsStalledOncePerEpisode) {
  std::atomic<std::uint64_t> epoch{7};
  std::atomic<bool> busy{true};
  Supervisor supervisor({{"worker.0", &epoch, &busy}}, /*watchdog_ms=*/50);
  supervisor.start();
  // Frozen past the budget: exactly one report, not one per sample.
  ASSERT_TRUE(wait_until([&] { return supervisor.stalls_detected() == 1; }, 5'000));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(supervisor.stalls_detected(), 1) << "a continuing stall must not re-report";

  // The heartbeat resumes -> the source re-arms -> a second freeze is a new
  // episode.
  epoch.fetch_add(1);
  ASSERT_TRUE(wait_until([&] { return supervisor.stalls_detected() == 2; }, 5'000));
  supervisor.stop();
}

TEST(Supervisor, IneligibleSourceIsNeverStalled) {
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<bool> busy{false};  // idle worker: a frozen epoch is fine
  Supervisor supervisor({{"worker.0", &epoch, &busy}}, /*watchdog_ms=*/40);
  supervisor.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_EQ(supervisor.stalls_detected(), 0);
  supervisor.stop();
}

TEST(Supervisor, AdvancingHeartbeatIsNeverStalled) {
  std::atomic<std::uint64_t> epoch{0};
  Supervisor supervisor({{"loop.0", &epoch, nullptr}}, /*watchdog_ms=*/40);
  supervisor.start();
  const auto until = Clock::now() + std::chrono::milliseconds(250);
  while (Clock::now() < until) {
    epoch.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(supervisor.stalls_detected(), 0);
  supervisor.stop();
}

TEST(Supervisor, ZeroBudgetDisablesSupervision) {
  std::atomic<std::uint64_t> epoch{0};
  Supervisor supervisor({{"loop.0", &epoch, nullptr}}, /*watchdog_ms=*/0);
  supervisor.start();  // no-op: no thread
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(supervisor.stalls_detected(), 0);
  supervisor.stop();
}

// ---------------------------------------------------------------------------
// E2E: watchdog cancellation of a hung pool task.

TEST(Watchdog, HungPoolTaskIsCancelledInOrderWithoutLeakingTheSlot) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const std::int64_t cancelled_before = reg.counter("net/watchdog/cancelled").value();

  fault::FaultPlan plan;
  // Pool invocation 0 hangs 400ms; the guard fires at 2 x 50ms = 100ms.
  plan.events.push_back(event(fault::Kind::kWorkerHang, 0, 400'000));
  fault::ScopedFaultPlan armed(plan);

  NetServerOptions net;
  net.host = "127.0.0.1";
  net.port = 0;
  net.reactors = 1;
  net.watchdog_ms = 50;
  NetServer::Stats stats;
  {
    TestServer ts(ServeOptions{.threads = 2}, net);
    Client a(ts.server.port());
    Client b(ts.server.port());
    a.send_all(make_req("hung-0", 64, 64, 64) + make_req("hung-1", 96, 64, 96));
    b.send_all(make_req("other", 128, 64, 128));

    // The hung request's slot is answered by the watchdog, in order, well
    // before the 400ms hang resolves; the pipelined request behind it and
    // the other connection are served normally.
    const auto first = a.read_line();
    ASSERT_TRUE(first.has_value());
    EXPECT_NE(first->find("\"id\":\"hung-0\""), std::string::npos) << *first;
    EXPECT_NE(first->find("\"ok\":false"), std::string::npos) << *first;
    EXPECT_NE(first->find("timed_out"), std::string::npos) << *first;
    const auto second = a.read_line();
    ASSERT_TRUE(second.has_value());
    EXPECT_NE(second->find("\"id\":\"hung-1\""), std::string::npos) << *second;
    EXPECT_NE(second->find("\"ok\":true"), std::string::npos) << *second;
    const auto other = b.read_line();
    ASSERT_TRUE(other.has_value());
    EXPECT_NE(other->find("\"ok\":true"), std::string::npos) << *other;

    // The worker is visibly hung far past the budget: the supervisor must
    // have reported the heartbeat stall.
    EXPECT_GE(ts.server.supervisor().stalls_detected(), 1);

    ts.stop();
    stats = ts.server.stats();
  }
  EXPECT_EQ(stats.timed_out, 1);
  EXPECT_EQ(stats.accepted, stats.closed) << "the cancelled slot must not leak its connection";
  EXPECT_EQ(reg.counter("net/watchdog/cancelled").value(), cancelled_before + 1);
}

TEST(Watchdog, ReactorLoopStallIsDetectedAndServiceSurvives) {
  fault::FaultPlan plan;
  // An early loop turn stalls 300ms against a 50ms budget.
  plan.events.push_back(event(fault::Kind::kReactorStall, 2, 300'000));
  fault::ScopedFaultPlan armed(plan);

  NetServerOptions net;
  net.host = "127.0.0.1";
  net.port = 0;
  net.reactors = 1;
  net.watchdog_ms = 50;
  TestServer ts(ServeOptions{.threads = 2}, net);
  ASSERT_TRUE(wait_until(
      [&] { return fault::fired_count(fault::Kind::kReactorStall) > 0; }, 5'000));
  ASSERT_TRUE(wait_until([&] { return ts.server.supervisor().stalls_detected() >= 1; }, 5'000));

  // The loop resumed: requests still round-trip.
  Client client(ts.server.port());
  client.send_all(make_req("after-stall", 64, 64, 64));
  const auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("\"ok\":true"), std::string::npos) << *line;
}

// ---------------------------------------------------------------------------
// E2E: brownout under a sustained pool-stall storm.

/// Every one of the first 20 pool dequeues stalls the (single) worker 50ms:
/// the standing queue delay quickly exceeds the 1ms target.
fault::FaultPlan storm_stalls() {
  fault::FaultPlan plan;
  for (std::uint64_t i = 0; i < 20; ++i) {
    plan.events.push_back(event(fault::Kind::kPoolStall, i, 50'000));
  }
  return plan;
}

NetServerOptions brownout_options() {
  NetServerOptions net;
  net.host = "127.0.0.1";
  net.port = 0;
  net.reactors = 1;
  net.queue_depth = 128;  // depth never trips: only brownout sheds here
  net.target_delay_ms = 1;
  return net;
}

/// 25 pipelined copies of the 64^3 shape.  All of them miss (none has
/// finished when the burst is read), so all queue behind the stalls; the
/// first to finish caches the shape before the brownout begins.
std::string storm_burst() {
  std::string burst;
  for (int i = 0; i < 25; ++i) burst += make_req("w" + std::to_string(i), 64, 64, 64);
  return burst;
}

TEST(Brownout, ColdShapesShedWithHintWarmShapesServeThenRecovers) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const std::int64_t entries_before = reg.counter("serve/brownout_entries").value();
  fault::ScopedFaultPlan armed(storm_stalls());
  NetServer::Stats stats;
  {
    TestServer ts(ServeOptions{.threads = 1}, brownout_options());
    Client storm(ts.server.port());
    storm.send_all(storm_burst());
    ASSERT_TRUE(wait_until([&] { return ts.server.admission().overloaded(); }, 10'000))
        << "the standing 50ms queue delay never tripped the 1ms target";

    // Cold shape (a cache miss, queued work ahead of it): shed immediately
    // with the backoff hint.
    Client probe(ts.server.port());
    probe.send_all(make_req("cold", 192, 96, 192));
    const auto shed = probe.read_line();
    ASSERT_TRUE(shed.has_value());
    EXPECT_NE(shed->find("\"ok\":false"), std::string::npos) << *shed;
    EXPECT_NE(shed->find("overloaded"), std::string::npos) << *shed;
    EXPECT_NE(shed->find("brownout"), std::string::npos) << *shed;
    EXPECT_NE(shed->find("\"retry_after_ms\":"), std::string::npos) << *shed;

    // Warm shape (the storm's, already cached): answered from the cache by
    // the reactor even in brownout, without queueing behind the storm.
    probe.send_all(make_req("warm", 64, 64, 64));
    const auto served = probe.read_line();
    ASSERT_TRUE(served.has_value());
    EXPECT_NE(served->find("\"id\":\"warm\""), std::string::npos) << *served;
    EXPECT_NE(served->find("\"ok\":true"), std::string::npos) << *served;
    EXPECT_NE(served->find("\"cached\":true"), std::string::npos) << *served;

    // Recovery: once the stalls are exhausted fresh requests dequeue
    // immediately, and an interval of near-zero standing delay clears the
    // brownout with hysteresis.  Hits never reach the pool, so the probes
    // are fresh shapes: brownout sheds them while the storm is still queued
    // and admits one once nothing of the reactor's is in flight.
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    int recover_seq = 0;
    while (ts.server.admission().overloaded() && Clock::now() < deadline) {
      probe.send_all(make_req("r" + std::to_string(recover_seq), 80 + recover_seq, 64, 64));
      ++recover_seq;
      ASSERT_TRUE(probe.read_line(30'000).has_value());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_FALSE(ts.server.admission().overloaded()) << "brownout never cleared";

    ts.stop();
    stats = ts.server.stats();
  }
  EXPECT_GE(stats.shed, 1);
  EXPECT_GE(reg.counter("serve/brownout_entries").value(), entries_before + 1);
}

TEST(Brownout, CachedShapeWithReorderedFieldsIsServedFromTheCache) {
  // Brownout asks the plan cache, not the request bytes: the storm's shape
  // with its members in another order is the same key, so it is a hit and
  // is never shed.
  fault::ScopedFaultPlan armed(storm_stalls());
  TestServer ts(ServeOptions{.threads = 1}, brownout_options());
  Client storm(ts.server.port());
  storm.send_all(storm_burst());
  ASSERT_TRUE(wait_until([&] { return ts.server.admission().overloaded(); }, 10'000))
      << "the standing 50ms queue delay never tripped the 1ms target";

  Client probe(ts.server.port());
  probe.send_all(R"({"buffer":"512KB","l":64,"k":64,"m":64,"op":"matmul","id":"reordered"})"
                 "\n");
  const auto line = probe.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("\"id\":\"reordered\""), std::string::npos) << *line;
  EXPECT_NE(line->find("\"ok\":true"), std::string::npos) << *line;
  EXPECT_NE(line->find("\"cached\":true"), std::string::npos) << *line;
  EXPECT_TRUE(ts.server.admission().overloaded()) << "the hit must be answered inside the brownout";
}

}  // namespace
}  // namespace fusecu
