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

#include "net/server.hpp"
#include "net/socket.hpp"
#include "serve/plan_service.hpp"

/// Allocation contract of the reactor hot path (net/reactor.hpp): once
/// warmed up, steady-state request handling on the reactor thread
///
///   * makes no heap allocation on a cache hit: read, decode, key, probe,
///     splice the response into its slot, write;
///   * makes exactly the allocations of planning itself on a cache miss:
///     read, decode, key, probe, plan, write.  Planning inserts into the
///     cache, so it allocates; the reactor adds nothing of its own to that.
///
/// Verified the only way that can't rot: a replaced global operator new
/// counts allocations made by one registered thread while armed, and each
/// armed window covers a full pipelined request burst on the loop thread —
/// whole bursts of cached shapes, repeated with pauses while idle checks
/// run, and one of never-seen shapes.  The miss count is compared with
/// PlanService::answer_line run over the same lines on the test thread,
/// against an identically warmed service.
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

/// \p n requests, of the 960^3 shape when \p first_m is 0, else of the
/// distinct shapes (first_m + i, 96, 96).  The 960^3 lines and responses
/// are longer than any of the others', so the buffers the warm bursts grow
/// never grow again.
std::string burst(int n, int first_m = 0) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    // Fixed-width ids: every warmup/armed burst reuses identical id
    // lengths, so recycled buffer capacities line up.
    char id[8];
    std::snprintf(id, sizeof(id), "r%02d", i);
    const std::string m = std::to_string(first_m == 0 ? 960 : first_m + i);
    const std::string kl = first_m == 0 ? "960" : "96";
    out += "{\"id\":\"" + std::string(id) + "\",\"op\":\"matmul\",\"m\":" + m + ",\"k\":" + kl +
           ",\"l\":" + kl + ",\"buffer\":\"512KB\"}\n";
  }
  return out;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl = text.find('\n'); nl != std::string::npos; nl = text.find('\n', start)) {
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
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

/// Runs \p lines through the line core on the calling thread, as a reactor
/// does: answer_line, planning every miss in place, into a reused request
/// and response.
void serve_lines(PlanService& service, const std::vector<std::string>& lines,
                 KeyedRequest& keyed, std::string& response) {
  static const std::string source = "<core>";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const int lineno = static_cast<int>(i) + 1;
    service.answer_line(lines[i], source, lineno, keyed, response, /*plan_miss=*/true);
  }
}

TEST(NetAlloc, SteadyStateReactorThreadMakesZeroHeapAllocations) {
  constexpr int kBurst = 32;
  const std::string requests = burst(kBurst);
  const std::string cold = burst(kBurst, 10);
  const std::vector<std::string> warm_lines = lines_of(requests);
  const std::vector<std::string> cold_lines = lines_of(cold);
  KeyedRequest keyed;
  std::string response;
  {
    // Process-wide state the planners create on first use (a metric
    // family's counter for a buffer class or rule not seen before) is paid
    // here, by a service of its own, so neither measured side below pays it.
    PlanService primer(ServeOptions{.threads = 2});
    serve_lines(primer, warm_lines, keyed, response);
    serve_lines(primer, cold_lines, keyed, response);
  }

  PlanService service(ServeOptions{.threads = 2});
  // Miss counts are process totals: the primer's are already in.
  const std::int64_t misses_before = service.stats().combined().misses;
  NetServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;
  // Reactor 0 always runs on the thread that calls run(), so at
  // reactors=1 the whole hot path is on the thread registered with the
  // counting hook.
  options.reactors = 1;
  // Idle checks run at most one timeout apart, so the armed hit pass below,
  // whose pauses alone add up to more than one timeout, sees at least one.
  constexpr int kIdleTimeoutMs = 400;
  constexpr int kArmedBursts = 6;
  constexpr int kPauseMs = kIdleTimeoutMs / 4;
  options.idle_timeout_ms = kIdleTimeoutMs;
  NetServer server(service, options);
  std::thread loop([&] {
    g_monitored.store(reinterpret_cast<unsigned long>(pthread_self()), std::memory_order_relaxed);
    server.run();
  });
  Client client(server.port());

  // Two warmup passes of one cached shape: the first plans it once and
  // answers the rest from the cache, the second settles the reused buffers
  // (decoder, pending ring, response slots) at their steady-state capacity.
  for (int pass = 0; pass < 2; ++pass) {
    client.send_all(requests);
    ASSERT_EQ(client.read_lines(kBurst), kBurst) << "warmup pass " << pass;
  }

  // Armed hit pass: whole bursts of cache hits, each read in one turn and
  // flushed in two writev batches, answered on the reactor.  The pauses
  // between bursts stay well under the idle timeout, so every idle check
  // that runs in the pass finds the connection active.
  g_allocs.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
  for (int i = 0; i < kArmedBursts; ++i) {
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(kPauseMs));
    client.send_all(requests);
    ASSERT_EQ(client.read_lines(kBurst), kBurst) << "armed burst " << i;
  }
  g_armed.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0)
      << "the reactor thread allocated on the steady-state hit path";

  // Armed pass 4: never-seen shapes, so every request misses and is planned
  // on the reactor.  Two-digit extents keep every line the same length, as
  // the fixed-width ids do.
  g_allocs.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
  client.send_all(cold);
  ASSERT_EQ(client.read_lines(kBurst), kBurst);
  g_armed.store(false, std::memory_order_relaxed);
  const long reactor_miss_allocs = g_allocs.load(std::memory_order_relaxed);

  server.request_drain();
  loop.join();
  EXPECT_EQ(server.stats().responses, (3 + kArmedBursts) * kBurst);
  EXPECT_EQ(server.stats().idle_closed, 0);
  EXPECT_EQ(service.stats().combined().misses - misses_before, 1 + kBurst)
      << "the first warm request and every pass-4 request miss; the rest hit";

  // The same passes through the line core on this thread, against an
  // identically warmed service.
  PlanService reference(ServeOptions{.threads = 2});
  for (int pass = 0; pass < 2 + kArmedBursts; ++pass) {
    serve_lines(reference, warm_lines, keyed, response);
  }
  g_monitored.store(reinterpret_cast<unsigned long>(pthread_self()), std::memory_order_relaxed);
  g_allocs.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
  serve_lines(reference, cold_lines, keyed, response);
  g_armed.store(false, std::memory_order_relaxed);
  const long core_miss_allocs = g_allocs.load(std::memory_order_relaxed);

  EXPECT_GT(core_miss_allocs, 0) << "planning a miss inserts into the cache";
  EXPECT_EQ(reactor_miss_allocs, core_miss_allocs)
      << "the reactor thread allocated on the steady-state miss path beyond planning";
}

/// \p n lines of never-repeating shapes from \p first: matmuls when
/// \p fused is false, fused pairs otherwise.  Fixed-width ids and extents
/// keep every line, key and response the same length.
std::vector<std::string> cold_lines(int first, int n, bool fused) {
  std::vector<std::string> lines;
  for (int i = first; i < first + n; ++i) {
    char line[160];
    if (fused) {
      std::snprintf(line, sizeof(line),
                    "{\"id\":\"f%06d\",\"op\":\"fused_pair\",\"m\":%d,\"k\":%d,\"l\":64,"
                    "\"n\":64,\"buffer_elems\":4096}",
                    i, 1000 + i % 1000, 1000 + i / 1000);
    } else {
      std::snprintf(line, sizeof(line),
                    "{\"id\":\"m%06d\",\"op\":\"matmul\",\"m\":%d,\"k\":%d,\"l\":9999,"
                    "\"buffer_elems\":65536}",
                    i, 1000 + i % 1000, 1000 + i / 1000);
    }
    lines.emplace_back(line);
  }
  return lines;
}

/// Mean allocations of one steady-state cold miss through answer_line, on
/// a small cache that has been evicting for several times its capacity: a
/// miss plans, renders its answer block, inserts it under a new key and
/// evicts the least recently used entry.
double allocations_per_cold_miss(bool fused) {
  constexpr int kFill = 4000;
  constexpr int kMeasured = 1000;
  PlanService service(ServeOptions{.threads = 1, .cache_bytes = 256 * 1024});
  KeyedRequest keyed;
  std::string response;
  serve_lines(service, cold_lines(0, kFill, fused), keyed, response);
  const PlanService::Stats filled = service.stats();
  EXPECT_GT((fused ? filled.fused : filled.intra).evictions, kFill / 2)
      << "the cache must already evict";

  const std::vector<std::string> measured = cold_lines(kFill, kMeasured, fused);
  const std::int64_t misses = service.stats().combined().misses;
  g_monitored.store(reinterpret_cast<unsigned long>(pthread_self()), std::memory_order_relaxed);
  g_allocs.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
  serve_lines(service, measured, keyed, response);
  g_armed.store(false, std::memory_order_relaxed);
  EXPECT_EQ(service.stats().combined().misses - misses, kMeasured) << "every line misses";
  return static_cast<double>(g_allocs.load(std::memory_order_relaxed)) / kMeasured;
}

TEST(NetAlloc, ColdMatmulMissMakesAtMostThreeAllocations) {
  // The answer block and the entry's key; a TensorOp or a typed result on
  // this path would cost more than the slack.
  EXPECT_LE(allocations_per_cold_miss(/*fused=*/false), 3.0);
}

TEST(NetAlloc, ColdFusedMissMakesAtMostThreeAllocations) {
  EXPECT_LE(allocations_per_cold_miss(/*fused=*/true), 3.0);
}

}  // namespace
}  // namespace fusecu
