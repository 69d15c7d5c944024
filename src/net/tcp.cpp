#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>

#include "net/reactor.hpp"

namespace pg::net {

namespace {

/// Event-mode send-queue bound: a writer whose peer stalls waits for the
/// queue to drain below it instead of growing the queue without limit
/// (slow-peer backpressure). Reactor I/O threads never wait; what they
/// write past the bound is bounded by the data plane's sender windows.
constexpr std::size_t kMaxQueuedWriteBytes = 4 * 1024 * 1024;

Status errno_status(const char* what) {
  return error(ErrorCode::kUnavailable,
               std::string(what) + ": " + std::strerror(errno));
}

class TcpChannel final : public Channel {
 public:
  explicit TcpChannel(int fd) : fd_(fd) {}
  ~TcpChannel() override {
    close();
    const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
    if (fd >= 0) ::close(fd);
  }

  Result<std::size_t> read(std::uint8_t* buf, std::size_t max) override {
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0) return std::size_t{0};
    for (;;) {
      const ssize_t n = ::recv(fd, buf, max, 0);
      if (n >= 0) {
        stats_.bytes_received.fetch_add(static_cast<std::uint64_t>(n),
                                        std::memory_order_relaxed);
        stats_.reads.fetch_add(1, std::memory_order_relaxed);
        return static_cast<std::size_t>(n);
      }
      if (errno == EINTR) continue;
      return errno_status("recv");
    }
  }

  Status write(BytesView data) override {
    if (!event_mode_) return write_blocking(data);
    return write_queued(data);
  }

  void close() override {
    {
      std::lock_guard<std::mutex> lock(wq_mutex_);
      if (!closed_) {
        closed_ = true;
        wq_.clear();
        wq_offset_ = 0;
        queued_bytes_.store(0, std::memory_order_relaxed);
      }
    }
    wq_cv_.notify_all();
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd >= 0) {
      // shutdown() makes blocked/epoll readers observe EOF. In event mode
      // the fd stays open until destruction so a concurrent reactor thread
      // can never race a kernel fd-number reuse; in blocking mode the fd is
      // released immediately, matching the original behavior.
      ::shutdown(fd, SHUT_RDWR);
      if (!event_mode_) {
        if (fd_.exchange(-1, std::memory_order_acq_rel) >= 0) ::close(fd);
      }
    }
  }

  const ChannelStats& stats() const override { return stats_; }

  // ---- event-driven extension ----------------------------------------

  bool enter_event_mode(std::function<void()> on_want_write) override {
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0) return false;
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
      return false;
    {
      std::lock_guard<std::mutex> lock(wq_mutex_);
      on_want_write_ = std::move(on_want_write);
    }
    event_mode_ = true;
    return true;
  }

  int event_fd() const override {
    return event_mode_ ? fd_.load(std::memory_order_acquire) : -1;
  }

  Result<TryReadResult> try_read(std::uint8_t* buf, std::size_t max) override {
    TryReadResult result;
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0) {
      result.eof = true;
      return result;
    }
    for (;;) {
      const ssize_t n = ::recv(fd, buf, max, 0);
      if (n > 0) {
        result.n = static_cast<std::size_t>(n);
        stats_.bytes_received.fetch_add(result.n, std::memory_order_relaxed);
        stats_.reads.fetch_add(1, std::memory_order_relaxed);
        return result;
      }
      if (n == 0) {
        result.eof = true;
        return result;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        result.would_block = true;
        return result;
      }
      return errno_status("recv");
    }
  }

  bool flush_pending_writes() override {
    std::unique_lock<std::mutex> lock(wq_mutex_);
    const int fd = fd_.load(std::memory_order_acquire);
    while (!wq_.empty()) {
      Bytes& front = wq_.front();
      while (wq_offset_ < front.size()) {
        const ssize_t n =
            fd < 0 ? -1
                   : ::send(fd, front.data() + wq_offset_,
                            front.size() - wq_offset_, MSG_NOSIGNAL);
        if (n >= 0) {
          wq_offset_ += static_cast<std::size_t>(n);
          queued_bytes_.fetch_sub(static_cast<std::size_t>(n),
                                  std::memory_order_relaxed);
          continue;
        }
        if (errno == EINTR && fd >= 0) continue;
        if ((errno == EAGAIN || errno == EWOULDBLOCK) && fd >= 0) {
          lock.unlock();
          wq_cv_.notify_all();  // partial drain may unblock a waiter
          return false;         // keep watching writability
        }
        // Hard error: the stream is dead; readers will observe it too.
        closed_ = true;
        wq_.clear();
        wq_offset_ = 0;
        queued_bytes_.store(0, std::memory_order_relaxed);
        lock.unlock();
        wq_cv_.notify_all();
        return true;
      }
      wq_.pop_front();
      wq_offset_ = 0;
    }
    lock.unlock();
    wq_cv_.notify_all();
    return true;
  }

  std::size_t queued_write_bytes() const override {
    return queued_bytes_.load(std::memory_order_relaxed);
  }

  void pace_writes_externally() override {
    external_pacing_.store(true, std::memory_order_release);
  }

  void wait_writable() override { (void)wait_for_space(); }

 private:
  Status write_blocking(BytesView data) {
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0) return error(ErrorCode::kUnavailable, "channel closed");
    std::size_t done = 0;
    while (done < data.size()) {
      const ssize_t n =
          ::send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return errno_status("send");
      }
      done += static_cast<std::size_t>(n);
    }
    stats_.bytes_sent.fetch_add(data.size(), std::memory_order_relaxed);
    stats_.writes.fetch_add(1, std::memory_order_relaxed);
    return Status::ok();
  }

  Status write_queued(BytesView data) {
    std::unique_lock<std::mutex> lock(wq_mutex_);
    if (closed_) return error(ErrorCode::kUnavailable, "channel closed");
    std::size_t done = 0;
    const int fd = fd_.load(std::memory_order_acquire);
    if (wq_.empty()) {
      // Fast path: the queue is empty, so ordering allows sending straight
      // from the caller's buffer until the socket pushes back.
      while (done < data.size()) {
        const ssize_t n = ::send(fd, data.data() + done, data.size() - done,
                                 MSG_NOSIGNAL);
        if (n >= 0) {
          done += static_cast<std::size_t>(n);
          continue;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return errno_status("send");
      }
    }
    if (done < data.size()) {
      // Queue the remainder; the reactor drains it on EPOLLOUT.
      const std::size_t queued = data.size() - done;
      wq_.emplace_back(data.begin() + static_cast<std::ptrdiff_t>(done),
                       data.end());
      queued_bytes_.fetch_add(queued, std::memory_order_relaxed);
      stats_.queued_writes.fetch_add(1, std::memory_order_relaxed);
      const bool first = wq_.size() == 1;
      std::function<void()> want_write = first ? on_want_write_ : nullptr;
      lock.unlock();
      if (want_write) want_write();
      // Bounded queue: unless the writers pace themselves, block this one
      // until the reactor drains below the bound or the channel dies.
      if (!external_pacing_.load(std::memory_order_acquire) &&
          !wait_for_space())
        return error(ErrorCode::kUnavailable, "channel closed");
    }
    stats_.bytes_sent.fetch_add(data.size(), std::memory_order_relaxed);
    stats_.writes.fetch_add(1, std::memory_order_relaxed);
    return Status::ok();
  }

  /// Blocks a writer that is not a reactor I/O thread while the queue is
  /// over its bound, until it drains to half the bound or the channel
  /// dies. False when the channel died during the wait.
  bool wait_for_space() {
    if (Reactor::on_io_thread()) return true;
    std::unique_lock<std::mutex> lock(wq_mutex_);
    if (queued_bytes_.load(std::memory_order_relaxed) <= kMaxQueuedWriteBytes)
      return true;
    stats_.backpressure_waits.fetch_add(1, std::memory_order_relaxed);
    wq_cv_.wait(lock, [this] {
      return closed_ || queued_bytes_.load(std::memory_order_relaxed) <=
                            kMaxQueuedWriteBytes / 2;
    });
    return !closed_;
  }

  std::atomic<int> fd_;
  std::atomic<bool> event_mode_{false};
  std::atomic<bool> external_pacing_{false};
  ChannelStats stats_;

  // Event-mode send queue (guarded by wq_mutex_ unless noted).
  std::mutex wq_mutex_;
  std::condition_variable wq_cv_;
  std::deque<Bytes> wq_;
  std::size_t wq_offset_ = 0;  // sent prefix of wq_.front()
  std::atomic<std::size_t> queued_bytes_{0};
  bool closed_ = false;
  std::function<void()> on_want_write_;
};

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Result<ChannelPtr> tcp_connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return error(ErrorCode::kInvalidArgument, "bad IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = errno_status("connect");
    ::close(fd);
    return s;
  }
  set_nodelay(fd);
  return ChannelPtr(new TcpChannel(fd));
}

Result<TcpListener> TcpListener::bind(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");

  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = errno_status("bind");
    ::close(fd);
    return s;
  }
  if (::listen(fd, 1024) != 0) {
    const Status s = errno_status("listen");
    ::close(fd);
    return s;
  }

  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const Status s = errno_status("getsockname");
    ::close(fd);
    return s;
  }
  return TcpListener(fd, ntohs(addr.sin_port));
}

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_.exchange(-1)), port_(other.port_) {}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_.store(other.fd_.exchange(-1));
    port_ = other.port_;
  }
  return *this;
}

TcpListener::~TcpListener() { close(); }

Result<ChannelPtr> TcpListener::accept() {
  for (;;) {
    const int listen_fd = fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) return error(ErrorCode::kUnavailable, "listener closed");
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      // Accepted sockets always start in blocking mode, even when the
      // listener fd was made non-blocking for reactor registration.
      const int flags = ::fcntl(fd, F_GETFL, 0);
      if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
      set_nodelay(fd);
      return ChannelPtr(new TcpChannel(fd));
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return error(ErrorCode::kUnavailable, "no pending connection");
    return errno_status("accept");
  }
}

void TcpListener::close() {
  // Claim the fd first, so a concurrent accept() never reads a stale one
  // and two closers never close it twice.
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // shutdown() wakes any thread blocked in accept() (plain close() does
    // not, on Linux); it returns ENOTCONN on listeners, which is fine.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace pg::net
