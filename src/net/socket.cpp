#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/fault.hpp"

namespace fusecu {

std::optional<HostPort> parse_host_port(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos) return std::nullopt;
  const std::string port_text = text.substr(colon + 1);
  if (port_text.empty() || port_text.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || port > 65535) return std::nullopt;
  HostPort hp;
  hp.host = text.substr(0, colon);
  hp.port = static_cast<std::uint16_t>(port);
  return hp;
}

namespace {

/// Resolve host:port to one IPv4/IPv6 sockaddr via getaddrinfo.  \p passive
/// selects AI_PASSIVE (bind) semantics; an empty host means loopback for
/// connects and the wildcard for binds.
struct Resolved {
  sockaddr_storage addr = {};
  socklen_t len = 0;
  int family = AF_UNSPEC;
};

bool resolve(const std::string& host, std::uint16_t port, bool passive, Resolved& out,
             std::string& error) {
  addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
  const std::string service = std::to_string(port);
  addrinfo* result = nullptr;
  const int rc = getaddrinfo(host.empty() ? nullptr : host.c_str(), service.c_str(), &hints,
                             &result);
  if (rc != 0) {
    error = "cannot resolve \"" + host + "\": " + gai_strerror(rc);
    return false;
  }
  std::memcpy(&out.addr, result->ai_addr, result->ai_addrlen);
  out.len = static_cast<socklen_t>(result->ai_addrlen);
  out.family = result->ai_family;
  freeaddrinfo(result);
  return true;
}

std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

HostPort name_of(const sockaddr_storage& addr) {
  char host[NI_MAXHOST] = "";
  char serv[NI_MAXSERV] = "";
  HostPort hp;
  if (getnameinfo(reinterpret_cast<const sockaddr*>(&addr), sizeof(addr), host, sizeof(host),
                  serv, sizeof(serv), NI_NUMERICHOST | NI_NUMERICSERV) == 0) {
    hp.host = host;
    hp.port = static_cast<std::uint16_t>(std::strtoul(serv, nullptr, 10));
  }
  return hp;
}

}  // namespace

int listen_tcp(const std::string& host, std::uint16_t port, std::string& error) {
  Resolved r;
  if (!resolve(host, port, /*passive=*/true, r, error)) return -1;
  const int fd = ::socket(r.family, SOCK_STREAM, 0);
  if (fd < 0) {
    error = errno_message("socket");
    return -1;
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&r.addr), r.len) != 0) {
    error = errno_message("bind");
    close_fd(fd);
    return -1;
  }
  if (::listen(fd, 128) != 0) {
    error = errno_message("listen");
    close_fd(fd);
    return -1;
  }
  if (!set_nonblocking(fd)) {
    error = errno_message("fcntl(O_NONBLOCK)");
    close_fd(fd);
    return -1;
  }
  return fd;
}

int connect_tcp(const std::string& host, std::uint16_t port, std::string& error) {
  Resolved r;
  if (!resolve(host, port, /*passive=*/false, r, error)) return -1;
  const int fd = ::socket(r.family, SOCK_STREAM, 0);
  if (fd < 0) {
    error = errno_message("socket");
    return -1;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&r.addr), r.len);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    error = errno_message("connect");
    close_fd(fd);
    return -1;
  }
  set_tcp_nodelay(fd);
  return fd;
}

HostPort local_host_port(int fd) {
  sockaddr_storage addr = {};
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return {};
  return name_of(addr);
}

std::string peer_name(int fd) {
  sockaddr_storage addr = {};
  socklen_t len = sizeof(addr);
  if (getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return "?";
  const HostPort hp = name_of(addr);
  return hp.host + ":" + std::to_string(hp.port);
}

bool set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_tcp_nodelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void close_fd(int fd) {
  int rc;
  do {
    rc = ::close(fd);
  } while (rc != 0 && errno == EINTR);
}

ssize_t sys_recv(int fd, void* buf, std::size_t len) {
  if (!fault::armed()) return ::recv(fd, buf, len, 0);
  const fault::IoFault injected = fault::on_read(len);
  if (injected.error != 0) {
    errno = injected.error;
    return -1;
  }
  if (injected.cap != 0) len = std::min<std::size_t>(len, injected.cap);
  const ssize_t n = ::recv(fd, buf, len, 0);
  if (n > 0) fault::note_read_bytes(static_cast<std::size_t>(n));
  return n;
}

ssize_t sys_send(int fd, const void* buf, std::size_t len) {
  if (!fault::armed()) return ::send(fd, buf, len, MSG_NOSIGNAL);
  const fault::IoFault injected = fault::on_write(len);
  if (injected.error != 0) {
    errno = injected.error;
    return -1;
  }
  if (injected.cap != 0) len = std::min<std::size_t>(len, injected.cap);
  const ssize_t n = ::send(fd, buf, len, MSG_NOSIGNAL);
  if (n > 0) fault::note_write_bytes(static_cast<std::size_t>(n));
  return n;
}

namespace {

/// Scatter-gather write via sendmsg so MSG_NOSIGNAL applies: a client dead
/// mid-batch must surface as EPIPE on this connection, not SIGPIPE for the
/// process (plain writev has no per-call signal suppression).
ssize_t gather_send(int fd, const struct iovec* iov, int iovcnt) {
  struct msghdr msg = {};
  msg.msg_iov = const_cast<struct iovec*>(iov);
  msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
  return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

}  // namespace

ssize_t sys_writev(int fd, const struct iovec* iov, int iovcnt) {
  if (!fault::armed()) return gather_send(fd, iov, iovcnt);
  std::size_t total = 0;
  for (int i = 0; i < iovcnt; ++i) total += iov[i].iov_len;
  const fault::IoFault injected = fault::on_write(total);
  if (injected.error != 0) {
    errno = injected.error;
    return -1;
  }
  // A short-write cap trims the gather list: keep whole iovecs while they
  // fit, shorten the first one that crosses the cap, drop the rest.  Fault
  // mode is test-only, so the scratch vector's allocation is fine here.
  std::vector<struct iovec> capped;
  if (injected.cap != 0 && injected.cap < total) {
    std::size_t left = injected.cap;
    for (int i = 0; i < iovcnt && left > 0; ++i) {
      struct iovec v = iov[i];
      v.iov_len = std::min<std::size_t>(v.iov_len, left);
      left -= v.iov_len;
      capped.push_back(v);
    }
    iov = capped.data();
    iovcnt = static_cast<int>(capped.size());
  }
  const ssize_t n = gather_send(fd, iov, iovcnt);
  if (n > 0) fault::note_write_bytes(static_cast<std::size_t>(n));
  return n;
}

int sys_accept(int listener_fd) {
  if (fault::armed()) {
    if (const int error = fault::on_accept()) {
      errno = error;
      return -1;
    }
  }
  return ::accept(listener_fd, nullptr, nullptr);
}

}  // namespace fusecu
