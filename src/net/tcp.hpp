// POSIX TCP implementation of Channel — used by the runnable examples to
// show the middleware working over real sockets, exactly as the proxy
// deployment in the paper would.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.hpp"
#include "net/channel.hpp"

namespace pg::net {

/// Connects to host:port. Blocking.
Result<ChannelPtr> tcp_connect(const std::string& host, std::uint16_t port);

/// Listening socket bound to 127.0.0.1:port (port 0 picks a free port).
class TcpListener {
 public:
  static Result<TcpListener> bind(std::uint16_t port);

  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;
  ~TcpListener();

  /// Accepts one connection. Blocking on a blocking listener fd; on a
  /// non-blocking one (reactor registration) returns kUnavailable when no
  /// connection is pending.
  Result<ChannelPtr> accept();

  std::uint16_t port() const { return port_; }
  /// The listening socket's fd, for reactor registration (the reactor sets
  /// it non-blocking and invokes the accept callback on readiness).
  int native_fd() const { return fd_.load(std::memory_order_acquire); }
  /// Safe while another thread is blocked in accept(): that call wakes
  /// with an error.
  void close();

 private:
  TcpListener(int fd, std::uint16_t port) : fd_(fd), port_(port) {}

  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

}  // namespace pg::net
