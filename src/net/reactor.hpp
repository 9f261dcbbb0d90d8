#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ring_buffer.hpp"
#include "net/poller.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "serve/line_decoder.hpp"
#include "serve/plan_service.hpp"

/// \file reactor.hpp
/// One shard of the TCP serving layer: a single-threaded event loop that
/// owns its poller and connection table.  NetServer
/// (net/server.hpp) instantiates N of these — one per `--reactors` — and
/// they never share mutable state except
///
///   * the process-global metrics counters (atomics),
///   * the plan service and its cache (reactors that race on one shape both
///     plan it; the second insert counts one serve/duplicate_plans),
///   * the server-wide live-connection count (an atomic, used by the
///     acceptor to enforce --max-conns),
///   * the server-wide drain-request counter (an atomic bumped by
///     request_drain; each reactor also owns a drain pipe so the signal
///     handler can wake every loop),
///   * the fd-passing inbox of each reactor (mutex + wakeup pipe).
///
/// Accept distribution: reactor 0 owns the single listener and
/// round-robins accepted fds to all reactors (itself included) through
/// their inboxes.
///
/// Idle connections: a connection with nothing pending that has been
/// silent for `idle_timeout_ms` is closed.  There is no timer per
/// connection.  The reactor keeps one time, the next idle check; a turn
/// that reaches it scans the connections once, closes the idle ones and
/// sets the next check to the earliest surviving deadline (at least 10 ms
/// ahead, so a connection whose responses are stuck unwritten past its
/// deadline cannot make the sweep spin).
///
/// Request path.  The reactor runs the whole line core on every line it
/// reads: PlanService::answer_line decodes, keys and makes one counted
/// cache probe, and on a miss plans the request in place, all under one
/// span root.  Every response slot is therefore done in the loop turn that
/// read its line.
///
/// Per-turn planning budget.  A reactor plans at most `queue_depth`
/// misses per loop turn.  A further miss decoded in the same turn is shed
/// into its slot with an ok=false "overloaded" response, and the reactor
/// reads no more bytes in that turn; hits and malformed lines are still
/// answered.  The poller is level-triggered, so the next turn reads the
/// waiting sockets again, and TCP flow control pushes back on clients
/// meanwhile.
///
/// Hot-path allocation discipline.  On a hit, steady-state request
/// handling on the reactor thread performs **zero heap allocations**; on a
/// miss it makes only the allocations of planning itself (asserted by
/// tests/net_alloc_test.cpp).  The line decodes into a reused KeyedRequest
/// (its key reserved to the longest key a request can spell, its id
/// keeping its capacity) and its response is written into the slot's
/// recycled string.  Response slots live in capacity-preserving rings, and
/// every scratch buffer (iovec gather list, handoff swap vector, decoded
/// line, dirty list) is a reused member; the idle sweep only walks the
/// connection table.  Paths that are *not* steady state — accept, close,
/// overload shedding, malformed and oversized lines — may allocate.
///
/// Write path: every response — a hit, a planned miss, a shed, a parse
/// error, an oversized line — only fills its slot and puts its connection
/// on the per-turn dirty list.  Once per loop turn, after the events and
/// the inbox, run() flushes each dirty connection once: one writev gathers
/// its unwritten slots in order (up to kWritevBatchSlots), so a pipelined
/// burst of K responses leaves in about ceil(K/slots) syscalls instead of
/// K.

namespace fusecu {

/// Monotonic serving counters: one reactor's view, or a sum across
/// reactors (NetServer::stats()).
struct NetStats {
  std::int64_t accepted = 0;
  std::int64_t closed = 0;
  std::int64_t responses = 0;       ///< response lines fully written
  std::int64_t requests = 0;        ///< request lines decoded (incl. shed)
  std::int64_t shed = 0;            ///< overload responses
  std::int64_t parse_errors = 0;
  std::int64_t oversized_lines = 0;
  std::int64_t idle_closed = 0;

  NetStats& operator+=(const NetStats& o) {
    accepted += o.accepted;
    closed += o.closed;
    responses += o.responses;
    requests += o.requests;
    shed += o.shed;
    parse_errors += o.parse_errors;
    oversized_lines += o.oversized_lines;
    idle_closed += o.idle_closed;
    return *this;
  }
};

/// Per-reactor configuration, resolved by NetServer from NetServerOptions.
struct ReactorConfig {
  int index = 0;
  int listener_fd = -1;      ///< owned by the reactor; >= 0 only on the acceptor
  int max_conns_total = 256; ///< global cap (the acceptor's pause threshold)
  int queue_depth = 128;     ///< misses planned per loop turn (the planning budget)
  std::int64_t idle_timeout_ms = 60'000;
  /// Watchdog budget (--watchdog-ms); > 0 keeps the loop heartbeat the
  /// Supervisor samples beating well inside the budget.  0 = off.
  std::int64_t watchdog_ms = 0;
  std::size_t max_line_bytes = 1 << 20;
  std::size_t write_high_water = 1 << 20;
  std::chrono::steady_clock::time_point epoch{};
  std::atomic<int>* total_conns = nullptr;
  std::atomic<int>* drain_requests = nullptr;
};

class Reactor {
 public:
  /// Max response slots gathered into one writev.
  static constexpr std::size_t kWritevBatchSlots = 16;

  Reactor(PlanService& service, const ReactorConfig& config);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// All reactors in index order (used by the handoff acceptor for
  /// round-robin).  Must be called before run().
  void set_peers(std::vector<Reactor*> peers);

  /// Event loop; returns once a requested drain completes on this reactor.
  /// Each turn: the idle sweep when due, poll, the events, the inbox, then
  /// one flush per dirty connection.
  void run();

  /// Write end of this reactor's drain pipe (NetServer::request_drain
  /// writes one byte here; async-signal-safe).
  int drain_fd() const { return drain_w_; }

  NetStats stats_snapshot() const;

  /// Loop heartbeat for the Supervisor: the epoch bumps once per loop turn,
  /// and `live` is true only while run() is executing (a drained reactor is
  /// never flagged as stalled).  Stable addresses for the reactor lifetime.
  const std::atomic<std::uint64_t>& loop_epoch() const { return loop_epoch_; }
  const std::atomic<bool>& loop_live() const { return loop_live_; }

 private:
  /// The handoff-fd inbox: the acceptor reactor's thread posts accepted
  /// fds here and wakes this loop through the wakeup pipe.
  struct HandoffInbox {
    std::mutex mu;
    std::vector<int> fds;
    int wakeup_w = -1;  ///< owned write end of the wakeup pipe; -1 = shut down

    /// Queue \p fd for adoption; false once shut down (the caller closes
    /// the fd).
    bool post(int fd);
    /// Close the wakeup pipe and every fd never adopted.
    void shutdown();
  };

  /// One response slot, answered in the turn that read its line; slots
  /// leave the ring only in order, and only once fully written.  Ring reuse
  /// keeps json capacity across requests.
  struct Pending {
    std::size_t written_bytes = 0;
    std::string json;  ///< response line including trailing '\n'
  };

  struct Conn {
    int fd = -1;
    std::string peer;  ///< "host:port", the ParseError source label
    LineDecoder decoder;
    RingBuffer<Pending> pending;
    std::size_t queued_bytes = 0;  ///< response bytes not yet written
    int lineno = 0;
    bool read_eof = false;
    bool dirty = false;  ///< on dirty_: has a new response to flush this turn
    std::int64_t last_activity_ms = 0;

    explicit Conn(std::size_t max_line_bytes) : decoder(max_line_bytes) {}
  };

  std::int64_t now_ms() const;

  void on_accept();
  bool accept_has_room() const;
  void adopt_conn(int fd);
  void on_readable(Conn& conn);
  void on_writable(Conn& conn);
  void handle_line(Conn& conn, const LineDecoder::DecodedLine& line);
  /// True once this turn has planned queue_depth misses.
  bool budget_spent() const { return planned_this_turn_ >= config_.queue_depth; }
  /// The next response slot (json untouched).
  Pending& push_slot(Conn& conn);
  /// \p slot's json is its response line: frame it and queue its
  /// connection for this turn's flush.
  void mark_done(Conn& conn, Pending& slot);
  /// Flush every connection on dirty_ once, then clear it.
  void flush_dirty();
  bool has_writable(const Conn& conn) const;
  /// Writes what the socket accepts (one writev per gathered batch);
  /// returns false when the connection died (and was closed) mid-write.
  bool try_write(Conn& conn);
  void pop_written(Conn& conn);
  void update_interest(Conn& conn);
  void update_listener_interest();
  void maybe_close(Conn& conn);
  void close_conn(Conn& conn, const char* reason);
  /// Adopt the fds handed off since the last turn.
  void process_inbox();
  /// Close every idle connection with nothing pending; set the next check.
  void close_idle(std::int64_t now);
  void begin_drain();
  void hard_stop();

  Conn* conn_by_fd(int fd);

  PlanService& service_;
  ReactorConfig config_;

  Poller poller_;

  int listener_fd_ = -1;
  bool listener_paused_ = false;
  int wakeup_r_ = -1;
  int drain_r_ = -1;
  int drain_w_ = -1;
  HandoffInbox inbox_;
  std::vector<Reactor*> peers_;
  std::size_t rr_next_ = 0;

  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  /// now_ms() at which the next idle sweep runs; max() = none due.
  std::int64_t next_idle_check_ms_ = std::numeric_limits<std::int64_t>::max();

  int planned_this_turn_ = 0;  ///< misses planned since the top of this turn
  bool draining_ = false;
  bool done_ = false;
  int drain_requests_seen_ = 0;

  /// Supervisor heartbeat (see loop_epoch()/loop_live()).
  std::atomic<std::uint64_t> loop_epoch_{0};
  std::atomic<bool> loop_live_{false};

  // Reused scratch: cleared, never shrunk, so steady-state turns don't
  // allocate.
  std::vector<PollEvent> events_;
  std::vector<struct iovec> iovs_;
  std::vector<std::uint32_t> iov_slots_;
  std::vector<int> handoff_scratch_;
  LineDecoder::DecodedLine line_scratch_;
  KeyedRequest keyed_scratch_;  ///< the line being served
  std::vector<int> dirty_;  ///< fds of connections with responses to flush this turn

  // Hot-path obs counters cached once (MetricsRegistry hands out stable
  // references).  Global counters are shared by all reactors; the
  // net/reactor.N/* family is per reactor.
  Counter& bytes_in_counter_;
  Counter& bytes_out_counter_;
  Counter& responses_counter_;
  Counter& accepted_counter_;
  Counter& closed_counter_;
  Counter& shed_counter_;
  Counter& parse_errors_counter_;
  Counter& oversized_counter_;
  Counter& idle_closed_counter_;
  Counter& read_calls_;
  Counter& write_calls_;   ///< single-slot flushes (1-iovec gathers)
  Counter& writev_calls_;  ///< coalesced flushes (2+ iovec gathers)
  Counter& writev_slots_;  ///< response slots offered across all flushes
  Counter& accept_calls_;
  Counter& epoll_waits_;
  Gauge& writev_mean_batch_;
  Gauge& conns_gauge_;

  // Stats: loop-thread writers, any-thread readers.
  struct AtomicStats {
    std::atomic<std::int64_t> accepted{0};
    std::atomic<std::int64_t> closed{0};
    std::atomic<std::int64_t> responses{0};
    std::atomic<std::int64_t> requests{0};
    std::atomic<std::int64_t> shed{0};
    std::atomic<std::int64_t> parse_errors{0};
    std::atomic<std::int64_t> oversized_lines{0};
    std::atomic<std::int64_t> idle_closed{0};
  };
  AtomicStats stats_;
};

}  // namespace fusecu
