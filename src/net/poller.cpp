#include "net/poller.hpp"

#include <sys/epoll.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/fault.hpp"
#include "net/socket.hpp"

namespace fusecu {

namespace {

std::uint32_t epoll_mask(bool want_read, bool want_write) {
  std::uint32_t events = 0;
  if (want_read) events |= EPOLLIN;
  if (want_write) events |= EPOLLOUT;
  // EPOLLHUP/EPOLLERR are always reported regardless of the mask.
  return events;
}

}  // namespace

Poller::Poller() : epoll_fd_(epoll_create1(EPOLL_CLOEXEC)) {
  if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1 failed");
}

Poller::~Poller() { close_fd(epoll_fd_); }

void Poller::add(int fd, bool want_read, bool want_write) {
  interest_[fd] = {want_read, want_write};
  epoll_event ev = {};
  ev.events = epoll_mask(want_read, want_write);
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    interest_.erase(fd);
    throw std::runtime_error("epoll_ctl(ADD) failed for fd " + std::to_string(fd));
  }
}

void Poller::set(int fd, bool want_read, bool want_write) {
  auto it = interest_.find(fd);
  if (it == interest_.end()) return;
  if (it->second == std::make_pair(want_read, want_write)) return;
  it->second = {want_read, want_write};
  epoll_event ev = {};
  ev.events = epoll_mask(want_read, want_write);
  ev.data.fd = fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void Poller::remove(int fd) {
  if (interest_.erase(fd) == 0) return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

int Poller::wait(std::vector<PollEvent>& out, int timeout_ms) {
  out.clear();
  // Injected spurious wakeup: report "nothing ready" without blocking — the
  // loop must tolerate poll returning early with no events (real kernels do
  // this); disarmed cost is one relaxed load.
  if (fault::armed() && fault::on_poll()) return 0;
  epoll_event events[128];
  const int n = epoll_wait(epoll_fd_, events, 128, timeout_ms);
  if (n <= 0) return 0;  // timeout or EINTR
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    PollEvent ev;
    ev.fd = events[i].data.fd;
    ev.readable = (events[i].events & EPOLLIN) != 0;
    ev.writable = (events[i].events & EPOLLOUT) != 0;
    ev.hangup = (events[i].events & (EPOLLHUP | EPOLLERR)) != 0;
    out.push_back(ev);
  }
  return n;
}

}  // namespace fusecu
