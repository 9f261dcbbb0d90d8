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
#include "serve/plan_service.hpp"

/// Supervisor and the watchdog.  The unit half drives the Supervisor with
/// synthetic heartbeat atomics: a frozen epoch on an eligible source is a
/// stall, reported once per episode and re-armed when the heartbeat
/// resumes; ineligible (idle) sources are never stalled.  The e2e half arms
/// real fault plans against a served loopback socket: a plan that hangs on
/// its reactor must be reported as a reactor stall while every request is
/// still answered in order, and a reactor-loop stall must be detected
/// without disturbing service.

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
// E2E: a hung plan stalls the reactor that plans it.

TEST(Watchdog, HungPlanIsReportedAsAReactorStallAndAnsweredInOrder) {
  fault::FaultPlan plan;
  // The first planned miss hangs its reactor 400ms against a 50ms budget.
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

    // Nothing cancels the hung plan: once it finishes, its slot, the
    // pipelined request behind it and the other connection are all served.
    for (const char* id : {"hung-0", "hung-1"}) {
      const auto line = a.read_line();
      ASSERT_TRUE(line.has_value()) << id;
      EXPECT_NE(line->find(std::string("\"id\":\"") + id + "\""), std::string::npos) << *line;
      EXPECT_NE(line->find("\"ok\":true"), std::string::npos) << *line;
    }
    const auto other = b.read_line();
    ASSERT_TRUE(other.has_value());
    EXPECT_NE(other->find("\"id\":\"other\""), std::string::npos) << *other;
    EXPECT_NE(other->find("\"ok\":true"), std::string::npos) << *other;

    // The reactor was visibly wedged far past the budget.
    EXPECT_GE(fault::fired_count(fault::Kind::kWorkerHang), 1);
    EXPECT_GE(ts.server.supervisor().stalls_detected(), 1);

    ts.stop();
    stats = ts.server.stats();
  }
  EXPECT_EQ(stats.accepted, stats.closed) << "every connection must be closed on drain";
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

}  // namespace
}  // namespace fusecu
