#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "net/supervisor.hpp"
#include "serve/plan_service.hpp"

/// \file server.hpp
/// TCP serving layer for the plan service: N sharded single-threaded event
/// loops (net/reactor.hpp) speaking the same length-delimited JSONL
/// protocol as the stdin path.
///
/// Threading model.  Each reactor thread owns its connections and poller.
/// It decodes every line it reads, probes the plan cache once,
/// answers a hit itself and plans a miss in place, so every request is
/// answered in the loop turn that read it; TCP parallelism comes from the
/// reactor count.
/// `request_drain()` is the only other entry point and is async-signal-safe
/// (an atomic bump plus one write(2) per reactor drain pipe), so it can be
/// called straight from SIGINT/SIGTERM handlers.
///
/// Accept distribution.  Reactor 0 owns the single listener and
/// round-robins accepted fds to every reactor (itself included) through
/// their inboxes, so connection k lands on reactor k mod N.  `max_conns`
/// caps the live connections of all reactors together.  Reactor 0 always
/// runs on the thread that calls run(); reactors 1..N-1 get their own
/// threads.
///
/// Overload.  `queue_depth` is a per-reactor, per-loop-turn planning
/// budget for cache misses: once a reactor has planned `queue_depth`
/// misses in one turn, every further miss decoded in that turn is *shed*
/// (an immediate ok=false "overloaded" response in its response slot) and
/// the reactor reads no more bytes until the next turn, so the kernel's TCP
/// flow control pushes back on clients.  A hit is answered from the cache
/// and is never shed, and the clients of one reactor that together keep
/// at most `queue_depth` requests outstanding are never shed.  A connection whose unwritten responses
/// pass `write_high_water` (a slow or stalled reader) also has its reads
/// deferred, bounding per-connection memory.
///
/// Supervision.  With `watchdog_ms > 0` a Supervisor thread samples each
/// reactor's loop heartbeat; a loop whose epoch stands still past the
/// budget while it runs is *stalled* (`net/watchdog/stalls`, structured
/// log, flight-recorder dump).  A plan that hangs stalls its reactor and is
/// reported this way.  See net/supervisor.hpp.
///
/// Ordering.  Each connection keeps a ring of response slots in request
/// order; a response (hit, planned, shed, or parse error) is written only
/// when every earlier slot on that connection has been written, so
/// pipelined clients get responses exactly in request order.  Each loop
/// turn flushes every connection with new responses once: contiguous
/// completed slots leave in a single writev (see
/// Reactor::kWritevBatchSlots).
///
/// Idle connections: a connection with no traffic and nothing pending for
/// `idle_timeout_ms` is closed by its reactor's idle sweep (see
/// net/reactor.hpp).
///
/// Graceful drain: after request_drain() every reactor stops accepting,
/// stops reading, flushes each connection's outbound bytes (every decoded
/// request is already answered), then its loop exits; run() joins all
/// reactor threads, so returning from run() is the cross-reactor barrier —
/// no connection on any reactor is left with unwritten responses.  A
/// second request_drain() (e.g. a second Ctrl-C) hard-stops: connections
/// are torn down immediately.

namespace fusecu {

struct NetServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 binds a free port (see NetServer::port())
  int max_conns = 256;     ///< accept pauses at this many live connections
  int queue_depth = 128;   ///< misses each reactor plans per loop turn
  std::int64_t idle_timeout_ms = 60'000;  ///< 0 = never close idle conns
  std::int64_t watchdog_ms = 0;           ///< heartbeat budget; 0 = no supervision
  std::size_t max_line_bytes = 1 << 20;   ///< shared with ServeOptions
  std::size_t write_high_water = 1 << 20; ///< slow-reader read deferral

  /// Number of reactor shards (at least 1; the constructor throws
  /// std::invalid_argument below that).  Reactor 0 runs on the run()
  /// caller's thread, the other N-1 on their own threads.
  int reactors = 1;
};

class NetServer {
 public:
  /// Binds and listens immediately; throws std::runtime_error when the
  /// address cannot be bound and std::invalid_argument when
  /// `options.reactors < 1`.  \p service must outlive the server.
  NetServer(PlanService& service, NetServerOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound address (resolves a port-0 request to the real port).
  const HostPort& bound() const { return bound_; }
  std::uint16_t port() const { return bound_.port; }

  /// Serve until a requested drain completes on every reactor.  Starts
  /// reactors 1..N-1 on their own threads, runs reactor 0 on this thread,
  /// then joins the others (the drain barrier).  Call from exactly one
  /// thread.
  void run();

  /// Begin graceful drain (second call hard-stops).  Thread-safe and
  /// async-signal-safe.
  void request_drain();

  /// Monotonic since-construction counters summed across reactors,
  /// readable from any thread.
  using Stats = NetStats;
  Stats stats() const;

  int reactor_count() const { return static_cast<int>(reactors_.size()); }
  /// One reactor's own counters (tests assert accept distribution here).
  Stats reactor_stats(int index) const;

  /// The watchdog (never null; inert when watchdog_ms == 0).  Tests read
  /// stalls_detected() through this.
  const Supervisor& supervisor() const { return *supervisor_; }

 private:
  PlanService& service_;
  NetServerOptions options_;
  HostPort bound_;

  std::atomic<int> total_conns_{0};
  std::atomic<int> drain_requests_{0};

  std::unique_ptr<Supervisor> supervisor_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  /// Reactor drain-pipe write ends, fixed after construction so the signal
  /// handler path never touches reactors_ state.
  std::vector<int> drain_fds_;
};

}  // namespace fusecu
