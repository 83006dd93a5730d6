#include "clo/util/net.hpp"

#include <arpa/inet.h>
#include <csignal>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>

namespace clo::util::net {

void ignore_sigpipe() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction sa {};
    sa.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &sa, nullptr);
  });
}

int listen_localhost(int port, int backlog, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, backlog) < 0) {
    ::close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    *bound_port = ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                                &len) == 0
                      ? ntohs(bound.sin_port)
                      : -1;
  }
  return fd;
}

int connect_localhost(int port, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (timeout_ms < 0) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  // Bounded connect: go non-blocking, start the handshake, poll for
  // writability, then confirm via SO_ERROR and restore blocking mode.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    if (!wait_writable(fd, timeout_ms)) {
      ::close(fd);
      return -1;
    }
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      ::close(fd);
      return -1;
    }
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

namespace {

bool wait_for_events(int fd, short events, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  for (;;) {
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready > 0) return (pfd.revents & (events | POLLHUP | POLLERR)) != 0;
    if (ready == 0) return false;  // timeout
    if (errno != EINTR) return false;
  }
}

/// Deadline helper turning an end-to-end budget into per-poll timeouts:
/// <0 passes through (wait forever), otherwise each call returns the
/// milliseconds left (clamped at 0 so an expired budget still gets one
/// non-blocking poll — data already buffered is not a timeout).
class DeadlineMs {
 public:
  explicit DeadlineMs(int timeout_ms) : unbounded_(timeout_ms < 0) {
    if (!unbounded_) {
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
    }
  }
  int remaining() const {
    if (unbounded_) return -1;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline_ - std::chrono::steady_clock::now())
                          .count();
    return left > 0 ? static_cast<int>(left) : 0;
  }
  bool expired() const { return !unbounded_ && remaining() == 0; }

 private:
  bool unbounded_;
  std::chrono::steady_clock::time_point deadline_;
};

}  // namespace

bool wait_readable(int fd, int timeout_ms) {
  return wait_for_events(fd, POLLIN, timeout_ms);
}

bool wait_writable(int fd, int timeout_ms) {
  return wait_for_events(fd, POLLOUT, timeout_ms);
}

bool send_all(int fd, const char* data, std::size_t len, int timeout_ms) {
  const DeadlineMs deadline(timeout_ms);
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Kernel buffer full: wait (within the budget) for drain room.
        if (deadline.expired()) return false;
        if (!wait_writable(fd, deadline.remaining())) return false;
        continue;
      }
      return false;
    }
    if (n == 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool recv_line(int fd, std::string* line, int timeout_ms,
               std::size_t max_len) {
  const DeadlineMs deadline(timeout_ms);
  line->clear();
  char buf[4096];
  for (;;) {
    if (!wait_readable(fd, deadline.remaining())) return false;
    const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (deadline.expired()) return false;
        continue;  // spurious poll wakeup — wait again within the budget
      }
      return false;
    }
    if (n == 0) return false;  // EOF before a complete line
    // Append the chunk whole: growing the line a byte at a time would
    // leave a caller that keeps it with up to twice the capacity it needs.
    const std::size_t got = static_cast<std::size_t>(n);
    const char* newline =
        static_cast<const char*>(std::memchr(buf, '\n', got));
    const std::size_t take =
        newline != nullptr ? static_cast<std::size_t>(newline - buf) : got;
    if (line->size() + take > max_len) return false;
    line->append(buf, take);
    // A line-delimited protocol: anything after the newline belongs to the
    // next request, but our callers strictly alternate request/response on
    // one connection, so trailing bytes here would be a protocol violation;
    // they are dropped.
    if (newline != nullptr) return true;
  }
}

}  // namespace clo::util::net
