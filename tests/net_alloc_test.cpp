#include <gtest/gtest.h>
#ifdef FUSECU_ALLOC_BACKTRACE
#include <execinfo.h>
#endif
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "serve/plan_service.hpp"

/// Zero-allocation contract of the reactor hot path (net/reactor.hpp):
/// once warmed up, steady-state request handling on the reactor thread
/// performs no heap allocations on either of its two paths —
///
///   * a cache hit: read, decode, key, probe, splice the response into its
///     slot, write;
///   * a cache miss: read, decode, key, probe, admit, post to the pool,
///     receive the completion, write.
///
/// Verified the only way that can't rot: a replaced global operator new
/// counts allocations made by one registered thread while armed, and each
/// armed window covers a full pipelined request burst on the loop thread —
/// one of cached shapes, one of never-seen shapes.
///
/// This test gets its own binary because replacing ::operator new is
/// process-global; keep it out of the TSan job (the sanitizer interposes
/// its own allocator and the count would measure the tool, not the code).

namespace {

std::atomic<bool> g_armed{false};
std::atomic<unsigned long> g_monitored{0};
std::atomic<long> g_allocs{0};

inline void note_alloc() {
  if (g_armed.load(std::memory_order_relaxed) &&
      g_monitored.load(std::memory_order_relaxed) ==
          reinterpret_cast<unsigned long>(pthread_self())) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
#ifdef FUSECU_ALLOC_BACKTRACE
    void* frames[32];
    const int n = backtrace(frames, 32);
    backtrace_symbols_fd(frames, n, 2);
    std::fprintf(stderr, "---- end alloc backtrace ----\n");
#endif
  }
}

inline void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n ? n : 1);
  if (p != nullptr) note_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace fusecu {
namespace {

/// Minimal blocking loopback client (mirrors net_server_test's, kept local
/// because this binary must stay dependency-light around the new hooks).
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

  void send_all(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  /// Reads until \p n newline-terminated lines arrived (or 30s passed).
  int read_lines(int n) {
    int seen = 0;
    std::string buf;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (seen < n && std::chrono::steady_clock::now() < deadline) {
      struct pollfd pfd = {fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 1000) <= 0) continue;
      char chunk[16 * 1024];
      const ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (r <= 0) {
        if (r < 0 && (errno == EINTR || errno == EAGAIN)) continue;
        break;
      }
      for (ssize_t i = 0; i < r; ++i) {
        if (chunk[i] == '\n') ++seen;
      }
    }
    return seen;
  }

 private:
  int fd_ = -1;
};

/// \p n requests, of the 96^3 shape when \p first_m is 0, else of the
/// distinct shapes (first_m + i, 96, 96).
std::string burst(int n, int first_m = 0) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    // Fixed-width ids: every warmup/armed burst reuses identical request
    // and response byte lengths, so recycled buffer capacities line up.
    char id[8];
    std::snprintf(id, sizeof(id), "r%02d", i);
    const int m = first_m == 0 ? 96 : first_m + i;
    out += "{\"id\":\"" + std::string(id) + "\",\"op\":\"matmul\",\"m\":" + std::to_string(m) +
           ",\"k\":96,\"l\":96,\"buffer\":\"512KB\"}\n";
  }
  return out;
}

TEST(NetAlloc, CountingHookObservesAllocationsOnTheMonitoredThread) {
  // Hook self-check: a trivially-passing zero count must mean "no
  // allocations", not "the replaced operator new never linked in".
  g_monitored.store(reinterpret_cast<unsigned long>(pthread_self()), std::memory_order_relaxed);
  g_allocs.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
  // Direct operator-new call: a new-expression could legally elide the
  // allocation; this cannot.
  void* raw = ::operator new(32);
  g_armed.store(false, std::memory_order_relaxed);
  ::operator delete(raw);
  EXPECT_GE(g_allocs.load(std::memory_order_relaxed), 1)
      << "the counting operator new is not in effect; the zero-alloc assertion below is vacuous";
}

TEST(NetAlloc, SteadyStateReactorThreadMakesZeroHeapAllocations) {
  // Armed before the server starts (fault.hpp threading contract): pool
  // invocations 0 and 1 are the first two warmup requests, so both
  // workers sleep 50 ms at the top of warmup pass 1 and nothing can
  // complete until the decode loop has admitted the whole burst.
  fault::FaultPlan stall;
  stall.events.push_back({fault::Kind::kPoolStall, 0, 50'000});
  stall.events.push_back({fault::Kind::kPoolStall, 1, 50'000});
  fault::ScopedFaultPlan scoped_plan(stall);

  PlanService service(ServeOptions{.threads = 2});
  NetServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;
  // Reactor 0 always runs on the thread that calls run(), so at
  // reactors=1 the whole hot path is on the thread registered with the
  // counting hook.
  options.reactors = 1;
  options.idle_timeout_ms = 0;   // keep the timer wheel empty (cascades may allocate)
  options.request_timeout_ms = 0;
  NetServer server(service, options);
  std::thread loop([&] {
    g_monitored.store(reinterpret_cast<unsigned long>(pthread_self()), std::memory_order_relaxed);
    server.run();
  });

  constexpr int kBurst = 32;
  const std::string requests = burst(kBurst);
  Client client(server.port());

  // Warmup pass 1 runs with both pool workers stalled (the plan armed
  // above).  Every request of the cold burst misses the cache, so the
  // decode loop acquires its full kBurst-node working set from the arena
  // before any completion can recycle a node.  Without the
  // stall, how deep a burst dips into the never-touched (capacity-zero)
  // tail of the LIFO free list depends on pool/reactor interleaving, and
  // first-touch of a virgin node is a legitimate one-time warmup
  // allocation, not a steady-state one.  With depth kBurst warmed, LIFO
  // order guarantees any later burst with <= kBurst requests outstanding
  // only ever pops warm nodes.  Pass 2 (the stall events are one-shot and
  // spent) is all cache hits: it settles the hit path's reused buffers
  // (decoder, pending ring, response slots) at their steady-state capacity.
  client.send_all(requests);
  ASSERT_EQ(client.read_lines(kBurst), kBurst) << "stalled warmup pass";
  client.send_all(requests);
  ASSERT_EQ(client.read_lines(kBurst), kBurst) << "settle warmup pass";

  // Armed pass 3: cache hits, answered on the reactor.
  g_allocs.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
  client.send_all(requests);
  ASSERT_EQ(client.read_lines(kBurst), kBurst);
  g_armed.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0)
      << "the reactor thread allocated on the steady-state hit path";

  // Armed pass 4: never-seen shapes, so every request misses and takes the
  // pool round trip through nodes pass 1 warmed.  Two-digit extents keep
  // every line the warm burst's length, as the fixed-width ids do.
  const std::string cold = burst(kBurst, 10);
  g_allocs.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
  client.send_all(cold);
  ASSERT_EQ(client.read_lines(kBurst), kBurst);
  g_armed.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0)
      << "the reactor thread allocated on the steady-state miss path";

  server.request_drain();
  loop.join();
  EXPECT_EQ(server.stats().responses, 4 * kBurst);
  EXPECT_EQ(service.stats().combined().misses, 2 * kBurst)
      << "pass 1 and pass 4 miss; passes 2 and 3 are all hits";
}

}  // namespace
}  // namespace fusecu
