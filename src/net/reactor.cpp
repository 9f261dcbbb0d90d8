#include "net/reactor.hpp"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <thread>

#include "common/fault.hpp"
#include "obs/log.hpp"
#include "obs/span.hpp"
#include "serve/admission.hpp"
#include "serve/plan_request.hpp"

namespace fusecu {

namespace {

/// 64 KiB read chunks, at most 256 KiB per connection per loop turn so one
/// firehose client cannot starve the rest.
constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::size_t kReadBudget = 256 * 1024;

bool make_pipe(int fds[2]) {
  if (::pipe(fds) != 0) return false;
  return set_nonblocking(fds[0]) && set_nonblocking(fds[1]);
}

void drain_pipe_bytes(int fd) {
  char buf[256];
  while (::read(fd, buf, sizeof(buf)) > 0) {
  }
}

std::string reactor_metric(int index, const char* name) {
  return "net/reactor." + std::to_string(index) + "/" + name;
}

}  // namespace

void ReactorShared::post(std::uint64_t conn_id, std::uint64_t seq, std::string&& json) {
  std::lock_guard<std::mutex> lock(mu);
  if (wakeup_w < 0) return;  // reactor already gone; drop the response
  const bool was_empty = items.empty() && handoff_fds.empty();
  Completion item;
  item.conn_id = conn_id;
  item.seq = seq;
  item.json = std::move(json);
  items.push_back(std::move(item));
  if (was_empty) {
    const char byte = 0;
    // Nonblocking; EAGAIN means the loop already has a wakeup pending.
    [[maybe_unused]] ssize_t n = ::write(wakeup_w, &byte, 1);
  }
}

bool ReactorShared::post_fd(int fd) {
  std::lock_guard<std::mutex> lock(mu);
  if (wakeup_w < 0) return false;
  const bool was_empty = items.empty() && handoff_fds.empty();
  handoff_fds.push_back(fd);
  if (was_empty) {
    const char byte = 0;
    [[maybe_unused]] ssize_t n = ::write(wakeup_w, &byte, 1);
  }
  return true;
}

NetRequest* ReactorShared::acquire(const std::shared_ptr<ReactorShared>& self) {
  std::lock_guard<std::mutex> lock(mu);
  NetRequest* req;
  if (free_list.empty()) {
    // Only reachable if admission ever outruns the queue_depth-sized
    // pre-fill; deque nodes are address-stable so older pointers survive.
    arena.emplace_back();
    req = &arena.back();
  } else {
    req = free_list.back();
    free_list.pop_back();
  }
  req->owner = self;
  return req;
}

void ReactorShared::release(NetRequest* req) {
  std::lock_guard<std::mutex> lock(mu);
  free_list.push_back(req);
}

void ReactorShared::shutdown() {
  std::lock_guard<std::mutex> lock(mu);
  if (wakeup_w >= 0) close_fd(wakeup_w);
  wakeup_w = -1;
  items.clear();
  for (int fd : handoff_fds) close_fd(fd);
  handoff_fds.clear();
}

void NetRequest::run_on_pool(void* arg) {
  NetRequest* req = static_cast<NetRequest*>(arg);
  if (req->admission != nullptr && req->enqueue_us > 0) {
    // Queue delay = admission (reactor) to dequeue (here, before the plan
    // work or any injected stall) — the CoDel standing-delay signal.
    const std::int64_t dequeue_us = span_clock_us();
    req->admission->record(dequeue_us - req->enqueue_us, dequeue_us);
  }
  std::string json;
  req->service->finish_line(req->keyed, req->enqueue_us, json);
  // Keep the shared state alive past release(): after release the slot may
  // be re-acquired and overwritten by the reactor at any moment.
  std::shared_ptr<ReactorShared> owner = std::move(req->owner);
  const std::uint64_t conn_id = req->conn_id;
  const std::uint64_t seq = req->seq;
  owner->release(req);
  owner->post(conn_id, seq, std::move(json));
}

Reactor::Reactor(PlanService& service, const ReactorConfig& config)
    : service_(service),
      config_(config),
      listener_fd_(config.listener_fd),
      bytes_in_counter_(MetricsRegistry::global().counter("net/bytes_in")),
      bytes_out_counter_(MetricsRegistry::global().counter("net/bytes_out")),
      responses_counter_(MetricsRegistry::global().counter("net/responses")),
      accepted_counter_(MetricsRegistry::global().counter("net/accepted")),
      closed_counter_(MetricsRegistry::global().counter("net/closed")),
      shed_counter_(MetricsRegistry::global().counter("net/shed")),
      parse_errors_counter_(MetricsRegistry::global().counter("net/parse_errors")),
      oversized_counter_(MetricsRegistry::global().counter("net/oversized_lines")),
      deadline_counter_(MetricsRegistry::global().counter("net/deadline_expired")),
      idle_closed_counter_(MetricsRegistry::global().counter("net/idle_closed")),
      watchdog_cancelled_counter_(MetricsRegistry::global().counter("net/watchdog/cancelled")),
      read_calls_(MetricsRegistry::global().counter(reactor_metric(config.index, "read_calls"))),
      write_calls_(MetricsRegistry::global().counter(reactor_metric(config.index, "write_calls"))),
      writev_calls_(
          MetricsRegistry::global().counter(reactor_metric(config.index, "writev_calls"))),
      writev_slots_(
          MetricsRegistry::global().counter(reactor_metric(config.index, "writev_slots"))),
      accept_calls_(
          MetricsRegistry::global().counter(reactor_metric(config.index, "accept_calls"))),
      epoll_waits_(MetricsRegistry::global().counter(reactor_metric(config.index, "epoll_waits"))),
      writev_mean_batch_(
          MetricsRegistry::global().gauge(reactor_metric(config.index, "writev_mean_batch"))),
      conns_gauge_(MetricsRegistry::global().gauge("net/conns")) {
  int wakeup[2];
  int drain[2];
  if (!make_pipe(wakeup) || !make_pipe(drain)) {
    if (listener_fd_ >= 0) close_fd(listener_fd_);
    throw std::runtime_error("cannot create event-loop pipes");
  }
  wakeup_r_ = wakeup[0];
  drain_r_ = drain[0];
  drain_w_ = drain[1];
  shared_ = std::make_shared<ReactorShared>();
  shared_->wakeup_w = wakeup[1];
  // Pre-fill the request arena to the admission bound so steady-state
  // acquire() never allocates.
  for (int i = 0; i < config_.queue_depth; ++i) {
    shared_->arena.emplace_back();
    shared_->free_list.push_back(&shared_->arena.back());
  }
  shared_->items.reserve(static_cast<std::size_t>(config_.queue_depth));
  completions_scratch_.reserve(static_cast<std::size_t>(config_.queue_depth));
  iovs_.reserve(kWritevBatchSlots);
  iov_slots_.reserve(kWritevBatchSlots);
  dirty_.reserve(64);

  if (listener_fd_ >= 0) poller_.add(listener_fd_, /*want_read=*/true, /*want_write=*/false);
  poller_.add(wakeup_r_, true, false);
  poller_.add(drain_r_, true, false);
}

Reactor::~Reactor() {
  for (auto& [fd, conn] : conns_) close_fd(fd);
  conns_.clear();
  conns_by_id_.clear();
  if (listener_fd_ >= 0) close_fd(listener_fd_);
  close_fd(wakeup_r_);
  close_fd(drain_r_);
  close_fd(drain_w_);
  shared_->shutdown();
}

void Reactor::set_peers(std::vector<Reactor*> peers) { peers_ = std::move(peers); }

std::int64_t Reactor::now_ms() const {
  // Injected clock skew shifts the loop's view of time forward (never
  // backward), driving the timer wheel through multi-revolution jumps; a
  // disarmed injector contributes one relaxed load and zero skew.
  const std::int64_t skew = fault::armed() ? fault::clock_skew_ms() : 0;
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - config_.epoch)
             .count() +
         skew;
}

void Reactor::run() {
  loop_live_.store(true, std::memory_order_release);
  while (!done_) {
    loop_epoch_.fetch_add(1, std::memory_order_relaxed);
    if (fault::armed()) {
      // Injected reactor stall: the whole loop turn freezes, heartbeat
      // included — exactly what the Supervisor is meant to notice.
      const std::uint64_t stall_us = fault::on_loop_turn();
      if (stall_us > 0) std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
    }
    const std::int64_t now = now_ms();
    std::int64_t timeout = wheel_.advance(now);
    fire_due_deadlines(now);
    fire_due_hang_guards(now);
    if (!deadlines_.empty()) {
      // The deadline ring is FIFO (all deadlines share request_timeout_ms),
      // so the front entry bounds the poll timeout.
      const std::int64_t until = deadlines_.front().deadline_ms - now;
      const std::int64_t clamped = until < 1 ? 1 : until;
      timeout = timeout < 0 ? clamped : std::min(timeout, clamped);
    }
    if (!hang_guard_.empty()) {
      // Same FIFO argument: every guard is armed 2x watchdog_ms out.
      const std::int64_t until = hang_guard_.front().deadline_ms - now;
      const std::int64_t clamped = until < 1 ? 1 : until;
      timeout = timeout < 0 ? clamped : std::min(timeout, clamped);
    }
    // Under a watchdog the idle cap shrinks so the loop heartbeat always
    // beats well inside the missed-beat budget.
    const std::int64_t idle_cap =
        config_.watchdog_ms > 0 ? std::max<std::int64_t>(1, config_.watchdog_ms / 2) : 1000;
    // Deadline and watchdog answers made above wait for this turn's flush,
    // so the poll must not block them.
    if (!dirty_.empty()) timeout = 0;
    poller_.wait(events_, static_cast<int>(std::min<std::int64_t>(
                              timeout < 0 ? idle_cap : timeout, idle_cap)));
    epoll_waits_.add();
    for (const PollEvent& ev : events_) {
      if (ev.fd == wakeup_r_) {
        drain_pipe_bytes(wakeup_r_);
      } else if (ev.fd == drain_r_) {
        drain_pipe_bytes(drain_r_);
      } else if (listener_fd_ >= 0 && ev.fd == listener_fd_) {
        on_accept();
      } else {
        // A handler may close the connection; re-resolve before each use.
        if (ev.readable || ev.hangup) {
          if (Conn* conn = conn_by_fd(ev.fd)) on_readable(*conn);
        }
        if (ev.writable) {
          if (Conn* conn = conn_by_fd(ev.fd)) on_writable(*conn);
        }
      }
    }
    process_inbox();
    flush_dirty();
    const int drains = config_.drain_requests->load(std::memory_order_relaxed);
    if (drains > drain_requests_seen_) {
      drain_requests_seen_ = drains;
      if (!draining_) {
        begin_drain();
      } else {
        hard_stop();
      }
    }
    // Re-check every turn: a peer reactor closing a connection may have
    // freed global accept capacity (there is no cross-reactor nudge; worst
    // case the listener resumes one poll timeout later).
    update_listener_interest();
    conns_gauge_.set(static_cast<double>(config_.total_conns->load(std::memory_order_relaxed)));
    if (draining_ && conns_.empty() && inflight_ == 0) done_ = true;
  }
  conns_gauge_.set(static_cast<double>(config_.total_conns->load(std::memory_order_relaxed)));
  loop_live_.store(false, std::memory_order_release);
}

Reactor::Conn* Reactor::conn_by_fd(int fd) {
  auto it = conns_.find(fd);
  return it == conns_.end() ? nullptr : it->second.get();
}

Reactor::Conn* Reactor::find_conn(std::uint64_t conn_id) {
  auto it = conns_by_id_.find(conn_id);
  return it == conns_by_id_.end() ? nullptr : it->second;
}

bool Reactor::accept_has_room() const {
  if (config_.total_conns->load(std::memory_order_relaxed) >= config_.max_conns_total) {
    return false;
  }
  if (config_.acceptor) return true;  // handoff: only the global cap applies
  // REUSEPORT: each reactor also enforces its share of --max-conns (the
  // kernel keeps hashing new connections to a paused listener's backlog;
  // they wait there until this reactor has room again).
  return static_cast<int>(conns_.size()) < config_.conn_limit;
}

void Reactor::on_accept() {
  while (accept_has_room()) {
    const int fd = sys_accept(listener_fd_);
    accept_calls_.add();
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN: drained.  EMFILE and friends: log and retry on the next
      // readiness notification rather than dying.
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        log_warn("net", "accept failed", {{"errno", std::to_string(errno)}});
      }
      break;
    }
    if (config_.acceptor && peers_.size() > 1) {
      // Handoff mode: round-robin accepted fds across all reactors
      // (including this one) through their inboxes.
      Reactor* target = peers_[rr_next_];
      rr_next_ = (rr_next_ + 1) % peers_.size();
      if (target == this) {
        adopt_conn(fd);
      } else if (!target->shared_->post_fd(fd)) {
        close_fd(fd);  // peer already shut down
      }
    } else {
      adopt_conn(fd);
    }
  }
  update_listener_interest();
}

void Reactor::adopt_conn(int fd) {
  if (!set_nonblocking(fd)) {
    close_fd(fd);
    return;
  }
  set_tcp_nodelay(fd);
  auto conn = std::make_unique<Conn>(config_.max_line_bytes);
  conn->fd = fd;
  conn->id = next_conn_id_++;
  conn->peer = peer_name(fd);
  conn->last_activity_ms = now_ms();
  if (config_.idle_timeout_ms > 0) {
    const std::uint64_t conn_id = conn->id;
    conn->idle_timer = wheel_.schedule(conn->last_activity_ms, config_.idle_timeout_ms,
                                       [this, conn_id] { on_idle(conn_id); });
  }
  poller_.add(fd, /*want_read=*/!reads_paused_ && !draining_, /*want_write=*/false);
  Conn* raw = conn.get();
  conns_by_id_[conn->id] = raw;
  conns_.emplace(fd, std::move(conn));
  config_.total_conns->fetch_add(1, std::memory_order_relaxed);
  stats_.accepted.fetch_add(1, std::memory_order_relaxed);
  accepted_counter_.add();
  if (draining_) {
    // Handed off just before the drain began: nothing will be read, close
    // as soon as (immediately) there is nothing to write.
    update_interest(*raw);
    maybe_close(*raw);
  }
}

void Reactor::update_listener_interest() {
  if (listener_fd_ < 0) return;
  const bool want = accept_has_room();
  if (want != !listener_paused_) {
    poller_.set(listener_fd_, want, false);
    listener_paused_ = !want;
  }
}

void Reactor::on_readable(Conn& conn) {
  char buf[kReadChunk];
  std::size_t budget = kReadBudget;
  const int fd = conn.fd;
  while (budget > 0) {
    const ssize_t n = sys_recv(fd, buf, std::min(sizeof(buf), budget));
    read_calls_.add();
    if (n > 0) {
      budget -= static_cast<std::size_t>(n);
      conn.last_activity_ms = now_ms();
      bytes_in_counter_.add(n);
      conn.decoder.feed(buf, static_cast<std::size_t>(n));
      while (conn.decoder.next(line_scratch_)) handle_line(conn, line_scratch_);
      // Deferred reads: past either high-water mark, leave the rest of the
      // socket buffer to the kernel so TCP flow control pushes back.
      if (reads_paused_ || conn.queued_bytes >= config_.write_high_water) break;
      continue;
    }
    if (n == 0) {
      conn.read_eof = true;
      // Same contract as the stdin stream: a final newline-less partial
      // line is still one request (half-closed clients read its response).
      if (conn.decoder.finish(line_scratch_)) handle_line(conn, line_scratch_);
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_conn(conn, "read error");
    return;
  }
  if (conn.dirty) return;  // this turn's flush settles interest and close
  update_interest(conn);
  maybe_close(conn);
}

void Reactor::handle_line(Conn& conn, const LineDecoder::DecodedLine& line) {
  ++conn.lineno;
  if (line.oversized) {
    stats_.oversized_lines.fetch_add(1, std::memory_order_relaxed);
    stats_.requests.fetch_add(1, std::memory_order_relaxed);
    oversized_counter_.add();
    Pending& slot = push_slot(conn);
    service_.reject_oversized_line(conn.peer, conn.lineno, config_.max_line_bytes, slot.json);
    mark_done(conn, slot);
    return;
  }
  if (line.text.find_first_not_of(" \t\r") == std::string::npos) return;
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  Pending& slot = push_slot(conn);
  switch (service_.begin_line(line.text, conn.peer, conn.lineno, keyed_scratch_, slot.json)) {
    case LineOutcome::kMalformed:
      stats_.parse_errors.fetch_add(1, std::memory_order_relaxed);
      parse_errors_counter_.add();
      mark_done(conn, slot);
      return;
    case LineOutcome::kHit:
      mark_done(conn, slot);
      return;
    case LineOutcome::kMiss:
      admit_miss(conn, slot);
      return;
  }
}

void Reactor::admit_miss(Conn& conn, Pending& slot) {
  AdmissionController* admission =
      config_.admission != nullptr && config_.admission->enabled() ? config_.admission : nullptr;
  // Two shed triggers, checked in order: the hard depth bound (the pool
  // queue stays bounded no matter what), then brownout — adaptive admission
  // says the standing queue delay is past target, so misses are shed while
  // hits, answered above from the cache, keep flowing.  Brownout still
  // admits a miss when none of this reactor's is in flight: its dequeue is
  // the fresh queue-delay sample that lets the brownout end, which hits can
  // never provide.  A request already admitted is never shed retroactively
  // by either trigger.
  std::string message;
  if (inflight_ >= config_.queue_depth) {
    message = "overloaded: admission queue full (queue-depth " +
              std::to_string(config_.queue_depth) + ")";
  } else if (admission != nullptr && admission->overloaded() && inflight_ > 0) {
    message = "overloaded: brownout, cold request shed (target-delay-ms " +
              std::to_string(admission->target_delay_ms()) + ")";
  }
  const std::string& id = keyed_scratch_.request.id;
  if (!message.empty()) {
    // Past the high-water mark reads are already deferred; lines that were
    // decoded before the pause took effect are shed, keeping the pool
    // queue bounded.  The response still occupies its ordered slot.
    stats_.shed.fetch_add(1, std::memory_order_relaxed);
    shed_counter_.add();
    slot.json = admission != nullptr
                    ? overload_response_json(id, message, admission->retry_after_ms())
                    : error_response(id, message).to_json();
    mark_done(conn, slot);
    return;
  }
  // slot.request_id is only meaningful (and only assigned) when deadlines
  // or the hang guard are armed.
  if (config_.request_timeout_ms > 0 || config_.watchdog_ms > 0) slot.request_id.assign(id);
  if (config_.request_timeout_ms > 0) {
    Deadline& deadline = deadlines_.push_slot();
    deadline.conn_id = conn.id;
    deadline.seq = slot.seq;
    deadline.deadline_ms = now_ms() + config_.request_timeout_ms;
  }
  if (config_.watchdog_ms > 0) {
    // Hard per-request deadline at 2x the watchdog budget: the Supervisor
    // flags a stall at 1x, the hang guard cancels at 2x.
    Deadline& guard = hang_guard_.push_slot();
    guard.conn_id = conn.id;
    guard.seq = slot.seq;
    guard.deadline_ms = now_ms() + 2 * config_.watchdog_ms;
  }
  ++inflight_;
  NetRequest* req = shared_->acquire(shared_);
  req->service = &service_;
  req->admission = admission;
  req->conn_id = conn.id;
  req->seq = slot.seq;
  req->enqueue_us = span_clock_us();
  std::swap(req->keyed, keyed_scratch_);  // keyed_scratch_ inherits the node's capacity
  service_.pool().post(&NetRequest::run_on_pool, req);
  if (inflight_ >= config_.queue_depth && !reads_paused_) pause_reads();
}

Reactor::Pending& Reactor::push_slot(Conn& conn) {
  Pending& slot = conn.pending.push_slot();
  slot.seq = next_seq_++;
  slot.done = false;
  slot.written_bytes = 0;
  return slot;
}

void Reactor::mark_done(Conn& conn, Pending& slot) {
  slot.json.push_back('\n');  // Pending.json carries its own framing
  slot.done = true;
  slot.written_bytes = 0;
  conn.queued_bytes += slot.json.size();
  if (conn.dirty) return;
  conn.dirty = true;
  dirty_.push_back(conn.id);
}

void Reactor::flush_dirty() {
  for (std::uint64_t id : dirty_) {
    Conn* conn = find_conn(id);
    if (conn == nullptr) continue;  // closed after it was marked
    conn->dirty = false;
    if (has_writable(*conn) && !try_write(*conn)) continue;  // died mid-write
    update_interest(*conn);
    maybe_close(*conn);
  }
  dirty_.clear();
}

bool Reactor::has_writable(const Conn& conn) const {
  if (conn.pending.empty()) return false;
  if (fault::test_bug() == fault::TestBug::kReorderResponses) {
    for (std::size_t i = 0; i < conn.pending.size(); ++i) {
      const Pending& slot = conn.pending[i];
      if (slot.done && slot.written_bytes < slot.json.size()) return true;
    }
    return false;
  }
  const Pending& front = conn.pending.front();
  return front.done && front.written_bytes < front.json.size();
}

bool Reactor::try_write(Conn& conn) {
  const bool reorder_bug = fault::test_bug() == fault::TestBug::kReorderResponses;
  while (true) {
    // Gather the contiguous done prefix (the chaos reorder bug instead
    // gathers *any* done slot, which the harness must catch).
    iovs_.clear();
    iov_slots_.clear();
    std::size_t gathered = 0;
    const std::size_t depth = conn.pending.size();
    for (std::size_t i = 0; i < depth && iovs_.size() < kWritevBatchSlots; ++i) {
      Pending& slot = conn.pending[i];
      if (!slot.done) {
        if (reorder_bug) continue;
        break;
      }
      if (slot.written_bytes >= slot.json.size()) continue;  // done earlier (bug mode)
      struct iovec io;
      io.iov_base = const_cast<char*>(slot.json.data()) + slot.written_bytes;
      io.iov_len = slot.json.size() - slot.written_bytes;
      iovs_.push_back(io);
      iov_slots_.push_back(static_cast<std::uint32_t>(i));
      gathered += io.iov_len;
    }
    if (iovs_.empty()) break;
    const ssize_t n = sys_writev(conn.fd, iovs_.data(), static_cast<int>(iovs_.size()));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(conn, "write error");
      return false;
    }
    (iovs_.size() > 1 ? writev_calls_ : write_calls_).add();
    writev_slots_.add(static_cast<std::int64_t>(iovs_.size()));
    const std::int64_t flushes = write_calls_.value() + writev_calls_.value();
    writev_mean_batch_.set(static_cast<double>(writev_slots_.value()) /
                           static_cast<double>(flushes));
    bytes_out_counter_.add(n);
    conn.queued_bytes -= static_cast<std::size_t>(n);
    // Distribute the written bytes over the gathered slots in order.
    std::size_t left = static_cast<std::size_t>(n);
    for (std::size_t j = 0; j < iov_slots_.size() && left > 0; ++j) {
      Pending& slot = conn.pending[iov_slots_[j]];
      const std::size_t take = std::min(left, slot.json.size() - slot.written_bytes);
      slot.written_bytes += take;
      left -= take;
    }
    pop_written(conn);
    // Partial write: loop once more — the retry either makes progress or
    // sees EAGAIN (matching the old write-until-EAGAIN behavior).
  }
  pop_written(conn);
  return true;
}

void Reactor::pop_written(Conn& conn) {
  std::int64_t popped = 0;
  while (!conn.pending.empty()) {
    const Pending& front = conn.pending.front();
    if (!front.done || front.written_bytes < front.json.size()) break;
    conn.pending.pop_front();
    ++popped;
  }
  if (popped > 0) {
    // A response counts once it has fully left the server (slots pop only
    // when written; order is the ring order).
    stats_.responses.fetch_add(popped, std::memory_order_relaxed);
    responses_counter_.add(popped);
  }
}

void Reactor::on_writable(Conn& conn) {
  if (!try_write(conn)) return;
  update_interest(conn);
  maybe_close(conn);
}

void Reactor::update_interest(Conn& conn) {
  const bool want_read = !conn.read_eof && !draining_ && !reads_paused_ &&
                         conn.queued_bytes < config_.write_high_water;
  const bool want_write = has_writable(conn);
  poller_.set(conn.fd, want_read, want_write);
}

void Reactor::maybe_close(Conn& conn) {
  // An empty ring means every response was fully written (slots pop only
  // once written), so there is no separate outbuf check anymore.
  if ((conn.read_eof || draining_) && conn.pending.empty()) {
    close_conn(conn, conn.read_eof ? "eof" : "drain");
  }
}

void Reactor::close_conn(Conn& conn, const char* reason) {
  poller_.remove(conn.fd);
  close_fd(conn.fd);
  if (conn.idle_timer != 0) wheel_.cancel(conn.idle_timer);
  // Completions for still-pending slots arrive later; process_inbox drops
  // them when find_conn fails (inflight_ still decrements there).  Stale
  // deadline-ring entries are skipped the same way.
  log_debug("net", "connection closed", {{"peer", conn.peer}, {"reason", reason}});
  stats_.closed.fetch_add(1, std::memory_order_relaxed);
  closed_counter_.add();
  config_.total_conns->fetch_sub(1, std::memory_order_relaxed);
  conns_by_id_.erase(conn.id);
  conns_.erase(conn.fd);  // destroys conn; no member access past this line
  update_listener_interest();
}

void Reactor::process_inbox() {
  completions_scratch_.clear();
  handoff_scratch_.clear();
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    completions_scratch_.swap(shared_->items);
    handoff_scratch_.swap(shared_->handoff_fds);
  }
  for (int fd : handoff_scratch_) adopt_conn(fd);
  for (ReactorShared::Completion& item : completions_scratch_) {
    --inflight_;
    Conn* conn = find_conn(item.conn_id);
    if (conn == nullptr) continue;  // closed while the pool was planning
    const std::size_t depth = conn->pending.size();
    for (std::size_t i = 0; i < depth; ++i) {
      Pending& slot = conn->pending[i];
      if (slot.seq != item.seq) continue;
      if (slot.done) break;  // deadline answered first; drop the pool result
      slot.json = std::move(item.json);
      mark_done(*conn, slot);
      break;
    }
  }
  if (reads_paused_ && inflight_ <= config_.queue_depth / 2) resume_reads();
}

void Reactor::fire_due_deadlines(std::int64_t now) {
  while (!deadlines_.empty() && deadlines_.front().deadline_ms <= now) {
    const Deadline due = deadlines_.front();
    deadlines_.pop_front();
    on_deadline(due.conn_id, due.seq);
  }
}

void Reactor::on_deadline(std::uint64_t conn_id, std::uint64_t seq) {
  Conn* conn = find_conn(conn_id);
  if (conn == nullptr) return;
  const std::size_t depth = conn->pending.size();
  for (std::size_t i = 0; i < depth; ++i) {
    Pending& slot = conn->pending[i];
    if (slot.seq != seq) continue;
    if (slot.done) return;  // completed (or already expired) — nothing to do
    slot.json = error_response(slot.request_id,
                               "deadline exceeded after " +
                                   std::to_string(config_.request_timeout_ms) + "ms")
                    .to_json();
    mark_done(*conn, slot);
    stats_.deadline_expired.fetch_add(1, std::memory_order_relaxed);
    deadline_counter_.add();
    return;
  }
  // Slot already popped: the pool answered and the response was written.
}

void Reactor::fire_due_hang_guards(std::int64_t now) {
  while (!hang_guard_.empty() && hang_guard_.front().deadline_ms <= now) {
    const Deadline due = hang_guard_.front();
    hang_guard_.pop_front();
    on_hang_guard(due.conn_id, due.seq);
  }
}

void Reactor::on_hang_guard(std::uint64_t conn_id, std::uint64_t seq) {
  Conn* conn = find_conn(conn_id);
  if (conn == nullptr) return;
  const std::size_t depth = conn->pending.size();
  for (std::size_t i = 0; i < depth; ++i) {
    Pending& slot = conn->pending[i];
    if (slot.seq != seq) continue;
    if (slot.done) return;  // pool answered (or a deadline did) — stale guard
    // Cancel: the ordered slot is answered right now on the loop thread, so
    // a worker hung inside this request can never leak the slot or stall
    // the connection's response order.  inflight_ stays up — the worker's
    // eventual completion decrements it and is dropped at slot.done above.
    slot.json = error_response(slot.request_id,
                               "timed_out: cancelled by watchdog after " +
                                   std::to_string(2 * config_.watchdog_ms) +
                                   "ms (watchdog-ms " + std::to_string(config_.watchdog_ms) + ")")
                    .to_json();
    mark_done(*conn, slot);
    stats_.timed_out.fetch_add(1, std::memory_order_relaxed);
    watchdog_cancelled_counter_.add();
    log_warn("net", "watchdog: request cancelled past hard deadline",
             {{"reactor", std::to_string(config_.index)},
              {"peer", conn->peer},
              {"id", slot.request_id},
              {"budget_ms", std::to_string(config_.watchdog_ms)}});
    return;
  }
  // Slot already popped: the response left the server before the guard fired.
}

void Reactor::on_idle(std::uint64_t conn_id) {
  Conn* conn = find_conn(conn_id);
  if (conn == nullptr) return;
  conn->idle_timer = 0;
  const std::int64_t idle_for = now_ms() - conn->last_activity_ms;
  if (idle_for >= config_.idle_timeout_ms && conn->pending.empty()) {
    stats_.idle_closed.fetch_add(1, std::memory_order_relaxed);
    idle_closed_counter_.add();
    close_conn(*conn, "idle timeout");
    return;
  }
  const std::int64_t remaining = std::max<std::int64_t>(config_.idle_timeout_ms - idle_for, 1);
  conn->idle_timer = wheel_.schedule(now_ms(), remaining, [this, conn_id] { on_idle(conn_id); });
}

void Reactor::pause_reads() {
  reads_paused_ = true;
  for (auto& [fd, conn] : conns_) update_interest(*conn);
}

void Reactor::resume_reads() {
  reads_paused_ = false;
  for (auto& [fd, conn] : conns_) update_interest(*conn);
}

void Reactor::begin_drain() {
  draining_ = true;
  log_info("net", "drain requested",
           {{"reactor", std::to_string(config_.index)},
            {"conns", std::to_string(conns_.size())},
            {"inflight", std::to_string(inflight_)}});
  if (listener_fd_ >= 0) {
    poller_.remove(listener_fd_);
    close_fd(listener_fd_);
    listener_fd_ = -1;
  }
  // Stop reading everywhere; close whatever has nothing left to say.
  // Iterate over a snapshot: maybe_close erases from conns_.
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) ids.push_back(conn->id);
  for (std::uint64_t id : ids) {
    if (Conn* conn = find_conn(id)) {
      update_interest(*conn);
      maybe_close(*conn);
    }
  }
}

void Reactor::hard_stop() {
  log_warn("net", "hard stop: abandoning in-flight work",
           {{"reactor", std::to_string(config_.index)},
            {"conns", std::to_string(conns_.size())},
            {"inflight", std::to_string(inflight_)}});
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) ids.push_back(conn->id);
  for (std::uint64_t id : ids) {
    if (Conn* conn = find_conn(id)) close_conn(*conn, "hard stop");
  }
  done_ = true;
}

NetStats Reactor::stats_snapshot() const {
  NetStats s;
  s.accepted = stats_.accepted.load(std::memory_order_relaxed);
  s.closed = stats_.closed.load(std::memory_order_relaxed);
  s.responses = stats_.responses.load(std::memory_order_relaxed);
  s.requests = stats_.requests.load(std::memory_order_relaxed);
  s.shed = stats_.shed.load(std::memory_order_relaxed);
  s.parse_errors = stats_.parse_errors.load(std::memory_order_relaxed);
  s.oversized_lines = stats_.oversized_lines.load(std::memory_order_relaxed);
  s.deadline_expired = stats_.deadline_expired.load(std::memory_order_relaxed);
  s.idle_closed = stats_.idle_closed.load(std::memory_order_relaxed);
  s.timed_out = stats_.timed_out.load(std::memory_order_relaxed);
  return s;
}

}  // namespace fusecu
