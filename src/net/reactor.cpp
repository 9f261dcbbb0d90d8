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
#include "serve/plan_request.hpp"

namespace fusecu {

namespace {

/// 64 KiB read chunks, at most 256 KiB per connection per loop turn so one
/// firehose client cannot starve the rest.
constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::size_t kReadBudget = 256 * 1024;
/// Floor on the gap between two idle sweeps.
constexpr std::int64_t kMinIdleCheckMs = 10;

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

bool Reactor::HandoffInbox::post(int fd) {
  std::lock_guard<std::mutex> lock(mu);
  if (wakeup_w < 0) return false;
  const bool was_empty = fds.empty();
  fds.push_back(fd);
  if (was_empty) {
    const char byte = 0;
    // Nonblocking; EAGAIN means the loop already has a wakeup pending.
    [[maybe_unused]] ssize_t n = ::write(wakeup_w, &byte, 1);
  }
  return true;
}

void Reactor::HandoffInbox::shutdown() {
  std::lock_guard<std::mutex> lock(mu);
  if (wakeup_w >= 0) close_fd(wakeup_w);
  wakeup_w = -1;
  for (int fd : fds) close_fd(fd);
  fds.clear();
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
      idle_closed_counter_(MetricsRegistry::global().counter("net/idle_closed")),
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
  inbox_.wakeup_w = wakeup[1];
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
  if (listener_fd_ >= 0) close_fd(listener_fd_);
  close_fd(wakeup_r_);
  close_fd(drain_r_);
  close_fd(drain_w_);
  inbox_.shutdown();
}

void Reactor::set_peers(std::vector<Reactor*> peers) { peers_ = std::move(peers); }

std::int64_t Reactor::now_ms() const {
  // Injected clock skew shifts the loop's view of time forward (never
  // backward), so idle deadlines come due early; a disarmed injector
  // contributes one relaxed load and zero skew.
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
    planned_this_turn_ = 0;
    if (fault::armed()) {
      // Injected reactor stall: the whole loop turn freezes, heartbeat
      // included — exactly what the Supervisor is meant to notice.
      const std::uint64_t stall_us = fault::on_loop_turn();
      if (stall_us > 0) std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
    }
    const std::int64_t now = now_ms();
    if (now >= next_idle_check_ms_) close_idle(now);
    // Under a watchdog the idle cap shrinks so the loop heartbeat always
    // beats well inside the missed-beat budget.
    const std::int64_t idle_cap =
        config_.watchdog_ms > 0 ? std::max<std::int64_t>(1, config_.watchdog_ms / 2) : 1000;
    poller_.wait(events_, static_cast<int>(std::min(idle_cap, next_idle_check_ms_ - now)));
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
    if (draining_ && conns_.empty()) done_ = true;
  }
  conns_gauge_.set(static_cast<double>(config_.total_conns->load(std::memory_order_relaxed)));
  loop_live_.store(false, std::memory_order_release);
}

Reactor::Conn* Reactor::conn_by_fd(int fd) {
  auto it = conns_.find(fd);
  return it == conns_.end() ? nullptr : it->second.get();
}

bool Reactor::accept_has_room() const {
  return config_.total_conns->load(std::memory_order_relaxed) < config_.max_conns_total;
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
    // Round-robin accepted fds across all reactors (including this one)
    // through their inboxes.
    Reactor* target = peers_[rr_next_];
    rr_next_ = (rr_next_ + 1) % peers_.size();
    if (target == this) {
      adopt_conn(fd);
    } else if (!target->inbox_.post(fd)) {
      close_fd(fd);  // peer already shut down
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
  conn->peer = peer_name(fd);
  conn->last_activity_ms = now_ms();
  if (config_.idle_timeout_ms > 0) {
    next_idle_check_ms_ =
        std::min(next_idle_check_ms_, conn->last_activity_ms + config_.idle_timeout_ms);
  }
  poller_.add(fd, /*want_read=*/!draining_, /*want_write=*/false);
  Conn* raw = conn.get();
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
  // A spent planning budget reads nothing more this turn; the level-
  // triggered poller reports the socket again next turn.
  if (budget_spent()) return;
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
      // Deferred reads: with the turn's planning budget spent, or past the
      // write high-water mark, leave the rest of the socket buffer to the
      // kernel so TCP flow control pushes back.
      if (budget_spent() || conn.queued_bytes >= config_.write_high_water) break;
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
  const bool may_plan = !budget_spent();
  switch (service_.answer_line(line.text, conn.peer, conn.lineno, keyed_scratch_, slot.json,
                               may_plan)) {
    case LineOutcome::kMalformed:
      stats_.parse_errors.fetch_add(1, std::memory_order_relaxed);
      parse_errors_counter_.add();
      break;
    case LineOutcome::kHit:
      break;
    case LineOutcome::kMiss:
      if (may_plan) {
        ++planned_this_turn_;
      } else {
        // The response still occupies its ordered slot.
        stats_.shed.fetch_add(1, std::memory_order_relaxed);
        shed_counter_.add();
        slot.json.clear();
        append_error_response(slot.json, keyed_scratch_.request.id,
                              "overloaded: planning budget spent (queue-depth " +
                                  std::to_string(config_.queue_depth) + ")");
      }
      break;
  }
  mark_done(conn, slot);
}

Reactor::Pending& Reactor::push_slot(Conn& conn) {
  Pending& slot = conn.pending.push_slot();
  slot.written_bytes = 0;
  return slot;
}

void Reactor::mark_done(Conn& conn, Pending& slot) {
  slot.json.push_back('\n');  // Pending.json carries its own framing
  conn.queued_bytes += slot.json.size();
  if (conn.dirty) return;
  conn.dirty = true;
  dirty_.push_back(conn.fd);
}

void Reactor::flush_dirty() {
  for (int fd : dirty_) {
    // A connection closed after it was marked is gone, or its fd already
    // belongs to a connection adopted since, which is not dirty.
    Conn* conn = conn_by_fd(fd);
    if (conn == nullptr || !conn->dirty) continue;
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
      if (slot.written_bytes < slot.json.size()) return true;
    }
    return false;
  }
  const Pending& front = conn.pending.front();
  return front.written_bytes < front.json.size();
}

bool Reactor::try_write(Conn& conn) {
  const bool reorder_bug = fault::test_bug() == fault::TestBug::kReorderResponses;
  while (true) {
    // Gather the slots in order (the chaos reorder bug instead gathers
    // them back to front, which the harness must catch).
    iovs_.clear();
    iov_slots_.clear();
    std::size_t gathered = 0;
    const std::size_t depth = conn.pending.size();
    for (std::size_t n = 0; n < depth && iovs_.size() < kWritevBatchSlots; ++n) {
      const std::size_t i = reorder_bug ? depth - 1 - n : n;
      Pending& slot = conn.pending[i];
      if (slot.written_bytes >= slot.json.size()) continue;  // written earlier (bug mode)
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
    if (front.written_bytes < front.json.size()) break;
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
  const bool want_read =
      !conn.read_eof && !draining_ && conn.queued_bytes < config_.write_high_water;
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
  log_debug("net", "connection closed", {{"peer", conn.peer}, {"reason", reason}});
  stats_.closed.fetch_add(1, std::memory_order_relaxed);
  closed_counter_.add();
  config_.total_conns->fetch_sub(1, std::memory_order_relaxed);
  conns_.erase(conn.fd);  // destroys conn; no member access past this line
  update_listener_interest();
}

void Reactor::process_inbox() {
  handoff_scratch_.clear();
  {
    std::lock_guard<std::mutex> lock(inbox_.mu);
    handoff_scratch_.swap(inbox_.fds);
  }
  for (int fd : handoff_scratch_) adopt_conn(fd);
}

void Reactor::close_idle(std::int64_t now) {
  std::int64_t next = std::numeric_limits<std::int64_t>::max();
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn& conn = *it->second;
    ++it;  // close_conn erases conn's entry only
    const std::int64_t deadline = conn.last_activity_ms + config_.idle_timeout_ms;
    if (deadline <= now && conn.pending.empty()) {
      stats_.idle_closed.fetch_add(1, std::memory_order_relaxed);
      idle_closed_counter_.add();
      close_conn(conn, "idle timeout");
    } else {
      next = std::min(next, deadline);
    }
  }
  next_idle_check_ms_ = conns_.empty() ? next : std::max(next, now + kMinIdleCheckMs);
}

void Reactor::begin_drain() {
  draining_ = true;
  log_info("net", "drain requested",
           {{"reactor", std::to_string(config_.index)},
            {"conns", std::to_string(conns_.size())}});
  if (listener_fd_ >= 0) {
    poller_.remove(listener_fd_);
    close_fd(listener_fd_);
    listener_fd_ = -1;
  }
  // Stop reading everywhere; close whatever has nothing left to say.
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn& conn = *it->second;
    ++it;  // maybe_close erases conn's entry only
    update_interest(conn);
    maybe_close(conn);
  }
}

void Reactor::hard_stop() {
  log_warn("net", "hard stop: closing connections with unwritten responses",
           {{"reactor", std::to_string(config_.index)},
            {"conns", std::to_string(conns_.size())}});
  while (!conns_.empty()) close_conn(*conns_.begin()->second, "hard stop");
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
  s.idle_closed = stats_.idle_closed.load(std::memory_order_relaxed);
  return s;
}

}  // namespace fusecu
