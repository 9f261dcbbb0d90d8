#pragma once

#include <sys/types.h>
#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

/// \file socket.hpp
/// Thin POSIX TCP helpers shared by the server event loop (net/server.hpp),
/// the load generator (bench/serve_loadgen.cpp) and the socket tests.
/// Everything returns explicit error strings instead of throwing — the
/// event loop treats per-connection failures as connection closures, never
/// as process errors.

namespace fusecu {

/// "HOST:PORT" split; HOST may be empty (":0" binds the wildcard port on
/// the default host).  Returns nullopt on junk (missing colon, non-numeric
/// or out-of-range port).
struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};
std::optional<HostPort> parse_host_port(const std::string& text);

/// Create a listening TCP socket on \p host:\p port (port 0 picks a free
/// one), SO_REUSEADDR set, non-blocking, backlog 128.  Returns the fd, or
/// -1 with \p error filled.
int listen_tcp(const std::string& host, std::uint16_t port, std::string& error);

/// Blocking connect to \p host:\p port.  Returns the fd, or -1 with
/// \p error filled.
int connect_tcp(const std::string& host, std::uint16_t port, std::string& error);

/// The locally bound "host:port" of \p fd (resolves a port-0 bind).
HostPort local_host_port(int fd);

/// The peer's "host:port" (logging label for accepted connections).
std::string peer_name(int fd);

/// O_NONBLOCK on; returns false on fcntl failure.
bool set_nonblocking(int fd);

/// TCP_NODELAY on (response lines are small; Nagle would add 40ms stalls
/// to pipelined request/response traffic).  Best-effort.
void set_tcp_nodelay(int fd);

/// close(2) retrying on EINTR.
void close_fd(int fd);

/// Fault-aware syscall shims (the injection seam the event loop reads and
/// writes through — see common/fault.hpp).  With no fault plan armed each
/// is the bare syscall behind one relaxed atomic load; with a plan armed
/// they can return short transfers, EINTR, ECONNRESET/EPIPE at scheduled
/// byte offsets, or deferred/EMFILE accepts, without touching the kernel
/// for the injected failures.  Only the server side calls these — test
/// clients and the load generator use the raw syscalls, so injected faults
/// always land on the code under test.
ssize_t sys_recv(int fd, void* buf, std::size_t len);
ssize_t sys_send(int fd, const void* buf, std::size_t len);
/// writev(2) gathering \p iovcnt buffers.  Injected write faults apply to
/// the *total* gathered length: a short-write cap trims the iovec list (a
/// partially covered buffer is shortened, later ones dropped), so the same
/// byte-offset fault schedules that drive sys_send resets also land
/// mid-batch on the coalesced write path.
ssize_t sys_writev(int fd, const struct iovec* iov, int iovcnt);
/// accept(2) with nullptr addr; returns the fd or -1 with errno set.
int sys_accept(int listener_fd);

}  // namespace fusecu
