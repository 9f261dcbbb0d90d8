#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ring_buffer.hpp"
#include "net/poller.hpp"
#include "net/socket.hpp"
#include "net/timer_wheel.hpp"
#include "obs/metrics.hpp"
#include "serve/line_decoder.hpp"
#include "serve/plan_service.hpp"

/// \file reactor.hpp
/// One shard of the TCP serving layer: a single-threaded event loop that
/// owns its poller, timer wheel, deadline queue, connection table and
/// completion queue.  NetServer (net/server.hpp) instantiates N of these —
/// one per `--reactors` — and they never share mutable state except
///
///   * the process-global metrics counters (atomics),
///   * the server-wide live-connection count (an atomic, used by the
///     accept paths to enforce --max-conns),
///   * the server-wide drain-request counter (an atomic bumped by
///     request_drain; each reactor also owns a drain pipe so the signal
///     handler can wake every loop),
///   * in handoff accept mode, the fd-passing inbox of each peer reactor
///     (mutex + wakeup pipe, same channel the pool completions use).
///
/// Accept distribution: in REUSEPORT mode every reactor owns a listening
/// socket bound to the same address and the kernel spreads incoming
/// connections across them.  In handoff mode (the fallback, and the
/// deterministic mode tests use) reactor 0 owns the single listener and
/// round-robins accepted fds to all reactors through their inboxes.
///
/// Request path.  The reactor runs step 1 of the line core
/// (PlanService::begin_line) on every line it reads: decode, key, one
/// counted cache probe.  A cache hit is answered right there — the escaped
/// id spliced onto the cached body, in the connection's next response slot
/// — and so is a malformed line.  Only a miss meets admission (the depth
/// bound, then brownout) and, if admitted, goes to the pool carrying its
/// decoded request and key; the pool runs step 2 (finish_line) and posts
/// the response back through the completion inbox.
///
/// Hot-path allocation discipline.  Steady-state request handling on the
/// reactor thread performs **zero heap allocations** on both paths
/// (asserted by tests/net_alloc_test.cpp).  A hit decodes into a reused
/// KeyedRequest (its key reserved to the longest key a request can spell,
/// its id keeping its capacity) and splices its response into the slot's
/// recycled string.  A miss swaps that KeyedRequest into a pre-allocated
/// request arena node (pool jobs are raw-pointer posts), and its completion
/// moves into the slot.  Response slots live in capacity-preserving rings,
/// per-request deadlines ride a FIFO ring instead of per-request timer-wheel
/// closures, and every scratch buffer (iovec gather list, completion swap
/// vectors, decoded line, dirty list) is a reused member.  Paths that are
/// *not* steady state — accept, close, overload shedding, deadline expiry,
/// malformed and oversized lines — may allocate.
///
/// Write path: every response — a hit, a pool completion, a shed, a parse
/// error, an oversized line, a deadline or watchdog answer — only marks
/// its slot done and puts its connection on the per-turn dirty list.  Once
/// per loop turn, after the events and the inbox, run() flushes each dirty
/// connection once: one writev gathers its contiguous prefix of done slots
/// (up to kWritevBatchSlots), so a pipelined burst of K responses leaves
/// in about ceil(K/slots) syscalls instead of K.

namespace fusecu {

class AdmissionController;

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
  std::int64_t deadline_expired = 0;
  std::int64_t idle_closed = 0;
  std::int64_t timed_out = 0;       ///< requests cancelled by the hang guard

  NetStats& operator+=(const NetStats& o) {
    accepted += o.accepted;
    closed += o.closed;
    responses += o.responses;
    requests += o.requests;
    shed += o.shed;
    parse_errors += o.parse_errors;
    oversized_lines += o.oversized_lines;
    deadline_expired += o.deadline_expired;
    idle_closed += o.idle_closed;
    timed_out += o.timed_out;
    return *this;
  }
};

struct ReactorShared;

/// One pooled TCP request (a cache miss), arena-allocated so the reactor's
/// submit path never touches the heap: the reactor fills the fields
/// (swapping in its decoded KeyedRequest, so both keep their capacity),
/// posts run_on_pool to the worker pool, and the worker returns the slot
/// after posting its completion.
/// `owner` keeps the reactor's shared state alive until the worker is done
/// with it — a worker finishing after a hard-stopped server posts into a
/// shut-down queue instead of freed memory.
struct NetRequest {
  std::shared_ptr<ReactorShared> owner;
  PlanService* service = nullptr;
  AdmissionController* admission = nullptr;  ///< queue-delay sink; may be null
  std::uint64_t conn_id = 0;
  std::uint64_t seq = 0;
  std::int64_t enqueue_us = 0;
  KeyedRequest keyed;  ///< decoded and keyed on the reactor

  /// Pool trampoline: record the queue delay, plan + serialize via
  /// PlanService::finish_line, post the completion, release the arena slot.
  static void run_on_pool(void* arg);
};

/// The cross-thread half of a reactor: completion queue, handoff-fd inbox,
/// wakeup pipe write end, and the request arena.  Held by shared_ptr from
/// the reactor and from every in-flight NetRequest.
struct ReactorShared {
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::string json;  ///< full response line, trailing '\n' included
  };

  std::mutex mu;
  std::vector<Completion> items;
  std::vector<int> handoff_fds;
  int wakeup_w = -1;  ///< owned write end of the wakeup pipe; -1 = shut down

  /// Request arena: deque for address stability, free list for O(1)
  /// recycling.  Pre-sized to queue_depth (the admission bound), so
  /// acquire() only grows it if admission accounting is ever wrong.
  std::deque<NetRequest> arena;
  std::vector<NetRequest*> free_list;

  void post(std::uint64_t conn_id, std::uint64_t seq, std::string&& json);
  /// Queue an accepted fd for adoption; false once shut down (the caller
  /// closes the fd).
  bool post_fd(int fd);
  NetRequest* acquire(const std::shared_ptr<ReactorShared>& self);
  void release(NetRequest* req);
  void shutdown();
};

/// Per-reactor configuration, resolved by NetServer from NetServerOptions.
struct ReactorConfig {
  int index = 0;
  int listener_fd = -1;      ///< owned by the reactor; -1 = handoff receiver
  bool acceptor = false;     ///< handoff mode: accept + round-robin to peers
  int conn_limit = 256;      ///< local accept-pause threshold (reuseport)
  int max_conns_total = 256; ///< global cap (handoff acceptor's threshold)
  int queue_depth = 128;     ///< per-reactor high-water mark of misses in flight
  std::int64_t request_timeout_ms = 0;
  std::int64_t idle_timeout_ms = 60'000;
  /// Watchdog budget (--watchdog-ms); > 0 arms the per-request hang guard
  /// (cancel at 2x the budget) and the loop heartbeat sampled by the
  /// Supervisor.  0 = off.
  std::int64_t watchdog_ms = 0;
  std::size_t max_line_bytes = 1 << 20;
  std::size_t write_high_water = 1 << 20;
  std::chrono::steady_clock::time_point epoch{};
  std::atomic<int>* total_conns = nullptr;
  std::atomic<int>* drain_requests = nullptr;
  /// Adaptive admission (--target-delay-ms), owned by NetServer and shared
  /// by all reactors; nullptr or disabled = fixed-depth shed only.  Like
  /// queue_depth it governs cache misses only: a hit never waits on the pool.
  AdmissionController* admission = nullptr;
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
  /// Each turn: due deadlines, poll, the events, the inbox, then one flush
  /// per dirty connection.
  void run();

  /// Write end of this reactor's drain pipe (NetServer::request_drain
  /// writes one byte here; async-signal-safe).
  int drain_fd() const { return drain_w_; }

  NetStats stats_snapshot() const;

  const std::shared_ptr<ReactorShared>& shared() { return shared_; }

  /// Loop heartbeat for the Supervisor: the epoch bumps once per loop turn,
  /// and `live` is true only while run() is executing (a drained reactor is
  /// never flagged as stalled).  Stable addresses for the reactor lifetime.
  const std::atomic<std::uint64_t>& loop_epoch() const { return loop_epoch_; }
  const std::atomic<bool>& loop_live() const { return loop_live_; }

 private:
  /// One response slot; slots leave the ring only in order, and only once
  /// fully written.  Ring reuse keeps json/request_id capacity across
  /// requests.
  struct Pending {
    std::uint64_t seq = 0;
    std::string request_id;  ///< for deadline / hang-guard error responses
    bool done = false;
    std::size_t written_bytes = 0;
    std::string json;  ///< response line including trailing '\n'
  };

  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    std::string peer;  ///< "host:port", the ParseError source label
    LineDecoder decoder;
    RingBuffer<Pending> pending;
    std::size_t queued_bytes = 0;  ///< completed-response bytes not yet written
    int lineno = 0;
    bool read_eof = false;
    bool dirty = false;  ///< on dirty_: has a newly done slot to flush this turn
    std::int64_t last_activity_ms = 0;
    TimerWheel::TimerId idle_timer = 0;

    explicit Conn(std::size_t max_line_bytes) : decoder(max_line_bytes) {}
  };

  /// FIFO deadline entry: all deadlines share request_timeout_ms, so
  /// arming order == expiry order and a ring replaces per-request timers.
  struct Deadline {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::int64_t deadline_ms = 0;
  };

  std::int64_t now_ms() const;

  void on_accept();
  bool accept_has_room() const;
  void adopt_conn(int fd);
  void on_readable(Conn& conn);
  void on_writable(Conn& conn);
  void handle_line(Conn& conn, const LineDecoder::DecodedLine& line);
  /// Admit a missed request to the pool, or shed it into \p slot.
  void admit_miss(Conn& conn, Pending& slot);
  /// The next response slot, not yet done (seq assigned, json untouched).
  Pending& push_slot(Conn& conn);
  /// \p slot's json is its response line: frame it, mark it done and
  /// queue its connection for this turn's flush.
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
  /// Swap in and apply completions and handed-off fds.
  void process_inbox();
  void fire_due_deadlines(std::int64_t now);
  void on_deadline(std::uint64_t conn_id, std::uint64_t seq);
  void fire_due_hang_guards(std::int64_t now);
  void on_hang_guard(std::uint64_t conn_id, std::uint64_t seq);
  void on_idle(std::uint64_t conn_id);
  void pause_reads();
  void resume_reads();
  void begin_drain();
  void hard_stop();

  Conn* conn_by_fd(int fd);
  Conn* find_conn(std::uint64_t conn_id);

  PlanService& service_;
  ReactorConfig config_;

  Poller poller_;
  TimerWheel wheel_;

  int listener_fd_ = -1;
  bool listener_paused_ = false;
  int wakeup_r_ = -1;
  int drain_r_ = -1;
  int drain_w_ = -1;
  std::shared_ptr<ReactorShared> shared_;
  std::vector<Reactor*> peers_;
  std::size_t rr_next_ = 0;

  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  std::unordered_map<std::uint64_t, Conn*> conns_by_id_;
  std::uint64_t next_conn_id_ = 1;
  std::uint64_t next_seq_ = 1;

  int inflight_ = 0;  ///< posted to the pool, completion not yet seen
  bool reads_paused_ = false;
  bool draining_ = false;
  bool done_ = false;
  int drain_requests_seen_ = 0;

  RingBuffer<Deadline> deadlines_;
  /// Hang guard: one FIFO entry per admitted request when --watchdog-ms is
  /// armed, due 2x the budget after admission.  Firing answers the ordered
  /// slot with ok=false "timed_out" on the loop thread — the slot is never
  /// leaked even if the pool worker hangs forever.  inflight_ is NOT
  /// decremented here; the (late) pool completion decrements it and its
  /// result is dropped because the slot is already done.
  RingBuffer<Deadline> hang_guard_;

  /// Supervisor heartbeat (see loop_epoch()/loop_live()).
  std::atomic<std::uint64_t> loop_epoch_{0};
  std::atomic<bool> loop_live_{false};

  // Reused scratch: cleared, never shrunk, so steady-state turns don't
  // allocate.
  std::vector<PollEvent> events_;
  std::vector<struct iovec> iovs_;
  std::vector<std::uint32_t> iov_slots_;
  std::vector<ReactorShared::Completion> completions_scratch_;
  std::vector<int> handoff_scratch_;
  LineDecoder::DecodedLine line_scratch_;
  KeyedRequest keyed_scratch_;        ///< the line being served; swapped into the arena on a miss
  std::vector<std::uint64_t> dirty_;  ///< connections with responses to flush this turn

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
  Counter& deadline_counter_;
  Counter& idle_closed_counter_;
  Counter& watchdog_cancelled_counter_;
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
    std::atomic<std::int64_t> deadline_expired{0};
    std::atomic<std::int64_t> idle_closed{0};
    std::atomic<std::int64_t> timed_out{0};
  };
  AtomicStats stats_;
};

}  // namespace fusecu
