#include "serve/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

namespace snaple::serve {

const char* to_string(TransportKind kind) noexcept {
  switch (kind) {
    case TransportKind::kInProcess:
      return "mem";
    case TransportKind::kUnixSocket:
      return "uds";
    case TransportKind::kTcp:
      return "tcp";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------------
// In-process transport: two byte queues under one mutex.
// ---------------------------------------------------------------------

/// Shared state of one in-process link. One mutex for both directions
/// keeps close() trivially race-free; the queues are only contended by
/// the two ends, and the serving tier already serializes each end.
struct InProcessLink {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::uint8_t> to_server;  // client writes, server reads
  std::deque<std::uint8_t> to_client;  // server writes, client reads
  bool server_closed = false;
  bool client_closed = false;
};

class InProcessChannel final : public ByteChannel {
 public:
  InProcessChannel(std::shared_ptr<InProcessLink> link, bool is_server)
      : link_(std::move(link)), is_server_(is_server) {}

  ~InProcessChannel() override { close(); }

  void send(const void* data, std::size_t len) override {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    {
      std::lock_guard<std::mutex> lock(link_->mu);
      if (my_closed() || peer_closed()) {
        throw TransportError("send on closed in-process channel");
      }
      auto& queue = is_server_ ? link_->to_client : link_->to_server;
      queue.insert(queue.end(), bytes, bytes + len);
    }
    link_->cv.notify_all();
    bytes_sent_.fetch_add(len, std::memory_order_relaxed);
  }

  void recv(void* data, std::size_t len) override {
    auto* bytes = static_cast<std::uint8_t*>(data);
    std::unique_lock<std::mutex> lock(link_->mu);
    auto& queue = is_server_ ? link_->to_server : link_->to_client;
    std::size_t got = 0;
    while (got < len) {
      // Drain whatever is queued first: bytes sent before the peer
      // closed must still be readable, mirroring socket EOF semantics.
      while (got < len && !queue.empty()) {
        bytes[got++] = queue.front();
        queue.pop_front();
      }
      if (got == len) break;
      if (my_closed() || peer_closed()) {
        bytes_received_.fetch_add(got, std::memory_order_relaxed);
        throw TransportError("in-process channel closed mid-message");
      }
      if (timeout_.count() == 0) {
        link_->cv.wait(lock);
      } else if (link_->cv.wait_for(lock, timeout_) ==
                     std::cv_status::timeout &&
                 queue.empty() && !my_closed() && !peer_closed()) {
        // The deadline clock restarts whenever bytes arrive: only a
        // wait that expired with nothing new to read is a timeout.
        bytes_received_.fetch_add(got, std::memory_order_relaxed);
        throw TransportTimeout("in-process recv timed out");
      }
    }
    bytes_received_.fetch_add(got, std::memory_order_relaxed);
  }

  void set_recv_timeout(std::chrono::milliseconds timeout) override {
    std::lock_guard<std::mutex> lock(link_->mu);
    timeout_ = timeout;
  }

  void close() override {
    {
      std::lock_guard<std::mutex> lock(link_->mu);
      (is_server_ ? link_->server_closed : link_->client_closed) = true;
    }
    link_->cv.notify_all();
  }

 private:
  [[nodiscard]] bool my_closed() const {
    return is_server_ ? link_->server_closed : link_->client_closed;
  }
  [[nodiscard]] bool peer_closed() const {
    return is_server_ ? link_->client_closed : link_->server_closed;
  }

  std::shared_ptr<InProcessLink> link_;
  bool is_server_;
  std::chrono::milliseconds timeout_{0};  // guarded by link_->mu
};

// ---------------------------------------------------------------------
// Socket transport — one implementation for unix-domain socketpairs and
// TCP connections: both are SOCK_STREAM fds, differing only in how the
// fd was produced (socketpair vs listen/accept/connect).
// ---------------------------------------------------------------------

/// Read-ahead buffer per socket end: one recv(2) of up to this many
/// bytes serves every small read that follows until it runs dry — a
/// wire frame's op byte, length and payload in one syscall.
constexpr std::size_t kReadAheadBytes = 4096;

class SocketChannel final : public ByteChannel {
 public:
  explicit SocketChannel(int fd) : fd_(fd) {}

  ~SocketChannel() override {
    close();
    // The fd itself is released only here, after any thread blocked in
    // recv() has been woken by the shutdown(2) in close() — closing the
    // fd under a concurrent read would let the kernel reuse the number.
    ::close(fd_);
  }

  void send(const void* data, std::size_t len) override {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    std::size_t sent = 0;
    while (sent < len) {
      // MSG_NOSIGNAL: a closed peer must surface as TransportError, not
      // a process-killing SIGPIPE.
      const ssize_t n =
          ::send(fd_, bytes + sent, len - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        bytes_sent_.fetch_add(sent, std::memory_order_relaxed);
        throw TransportError(std::string("socket send failed: ") +
                             std::strerror(errno));
      }
      sent += static_cast<std::size_t>(n);
    }
    bytes_sent_.fetch_add(sent, std::memory_order_relaxed);
  }

  void recv(void* data, std::size_t len) override {
    auto* bytes = static_cast<std::uint8_t*>(data);
    // Read-ahead bytes first: they arrived before anything still queued
    // in the socket.
    std::size_t got = std::min(len, ahead_end_ - ahead_pos_);
    if (got != 0) std::memcpy(bytes, ahead_.data() + ahead_pos_, got);
    ahead_pos_ += got;
    while (got < len) {
      // The read-ahead buffer is empty here. A read at least its size
      // goes straight into the caller's memory; a smaller one refills
      // the buffer with whatever the socket holds, so the rest of this
      // frame (and often the next one) costs no further syscall.
      const bool direct = len - got >= ahead_.size();
      std::uint8_t* dst = direct ? bytes + got : ahead_.data();
      const std::size_t room = direct ? len - got : ahead_.size();
      const ssize_t n = ::recv(fd_, dst, room, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          // SO_RCVTIMEO elapsed with no data (set_recv_timeout).
          bytes_received_.fetch_add(got, std::memory_order_relaxed);
          throw TransportTimeout("socket recv timed out");
        }
        bytes_received_.fetch_add(got, std::memory_order_relaxed);
        throw TransportError(std::string("socket recv failed: ") +
                             std::strerror(errno));
      }
      if (n == 0) {
        bytes_received_.fetch_add(got, std::memory_order_relaxed);
        throw TransportError("socket closed by peer");
      }
      const auto filled = static_cast<std::size_t>(n);
      if (direct) {
        got += filled;
        continue;
      }
      const std::size_t take = std::min(filled, len - got);
      std::memcpy(bytes + got, ahead_.data(), take);
      got += take;
      ahead_pos_ = take;
      ahead_end_ = filled;
    }
    bytes_received_.fetch_add(got, std::memory_order_relaxed);
  }

  void set_recv_timeout(std::chrono::milliseconds timeout) override {
    struct timeval tv;
    tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
    if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
      throw TransportError(std::string("setsockopt(SO_RCVTIMEO) failed: ") +
                           std::strerror(errno));
    }
  }

  void close() override {
    // shutdown, not close: wakes a peer OR a local thread blocked in
    // recv on this very fd, while keeping the fd number reserved until
    // the destructor runs.
    ::shutdown(fd_, SHUT_RDWR);
  }

 private:
  int fd_;
  // Read-ahead buffer, touched only by the (one) receiving thread:
  // ahead_[ahead_pos_, ahead_end_) holds received bytes not yet handed
  // to a caller.
  std::array<std::uint8_t, kReadAheadBytes> ahead_;
  std::size_t ahead_pos_ = 0;
  std::size_t ahead_end_ = 0;
};

/// TCP_NODELAY on a connected TCP socket: the serving tier exchanges
/// small framed request/response messages, so Nagle coalescing would
/// only serialize round trips.
void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

// ---------------------------------------------------------------------
// TCP listener + connector.
// ---------------------------------------------------------------------

TcpListener::TcpListener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw TransportError(std::string("tcp socket failed: ") +
                         std::strerror(errno));
  }
  // SO_REUSEADDR: a restarted shard server must rebind its port without
  // waiting out TIME_WAIT from the previous incarnation's links.
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw TransportError("tcp bind to port " + std::to_string(port) +
                         " failed: " + err);
  }
  if (::listen(fd_, SOMAXCONN) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw TransportError("tcp listen failed: " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw TransportError("tcp getsockname failed: " + err);
  }
  port_ = ntohs(bound.sin_port);
}

TcpListener::~TcpListener() {
  close();
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<ByteChannel> TcpListener::accept() {
  for (;;) {
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      throw TransportError(std::string("tcp accept failed: ") +
                           std::strerror(errno));
    }
    set_nodelay(conn);
    return std::make_unique<SocketChannel>(conn);
  }
}

void TcpListener::close() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

std::unique_ptr<ByteChannel> tcp_connect(const std::string& host,
                                         std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw TransportError("tcp connect: '" + host +
                         "' is not a valid IPv4 address");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw TransportError(std::string("tcp socket failed: ") +
                         std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw TransportError("tcp connect to " + host + ":" +
                         std::to_string(port) + " failed: " + err);
  }
  set_nodelay(fd);
  return std::make_unique<SocketChannel>(fd);
}

ChannelPair make_channel_pair(TransportKind kind) {
  if (kind == TransportKind::kInProcess) {
    auto link = std::make_shared<InProcessLink>();
    return {std::make_unique<InProcessChannel>(link, /*is_server=*/true),
            std::make_unique<InProcessChannel>(link, /*is_server=*/false)};
  }
  if (kind == TransportKind::kTcp) {
    // A throwaway ephemeral listener per pair: connect() completes via
    // the kernel backlog, so connect-then-accept on one thread is safe.
    TcpListener listener(0);
    auto client = tcp_connect("127.0.0.1", listener.port());
    auto server = listener.accept();
    return {std::move(server), std::move(client)};
  }
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw TransportError(std::string("socketpair failed: ") +
                         std::strerror(errno));
  }
  return {std::make_unique<SocketChannel>(fds[0]),
          std::make_unique<SocketChannel>(fds[1])};
}

}  // namespace snaple::serve
