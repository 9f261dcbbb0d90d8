#pragma once

#include <map>
#include <vector>

/// \file poller.hpp
/// Readiness notification for the net/ event loop: a thin wrapper over
/// Linux epoll.
///
/// Level-triggered: the loop re-arms interest explicitly via set(), which
/// keeps the deferred-read backpressure logic trivial — "stop reading" is
/// just dropping the read bit until the queue drains.

namespace fusecu {

struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  /// Peer hung up or the socket errored; the loop treats either as "read
  /// until EOF/error and close".
  bool hangup = false;
};

class Poller {
 public:
  /// Throws std::runtime_error when epoll_create1 fails.
  Poller();
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Register \p fd with the given interest set.
  void add(int fd, bool want_read, bool want_write);
  /// Change interest for a registered fd.
  void set(int fd, bool want_read, bool want_write);
  /// Deregister (call before closing the fd).
  void remove(int fd);

  /// Block up to \p timeout_ms (-1 = forever) and fill \p out with ready
  /// fds.  Returns the number of events (0 on timeout); EINTR reports as 0.
  int wait(std::vector<PollEvent>& out, int timeout_ms);

  int size() const { return static_cast<int>(interest_.size()); }

 private:
  int epoll_fd_ = -1;
  /// fd -> (want_read, want_write), kept so set() skips the epoll_ctl when
  /// the interest is unchanged (the reactor calls it on every flush) and
  /// for size().
  std::map<int, std::pair<bool, bool>> interest_;
};

}  // namespace fusecu
