// Byte transports of the sharded serving tier.
//
// A serving cluster is a set of shard servers plus a router, each end of
// every link talking through the one interface below: send all the bytes
// or throw, receive exactly the requested bytes or throw. Three
// implementations share it:
//
//   * InProcessChannel — a mutex+condvar byte queue pair. Zero syscalls,
//     so tests and benchmarks can isolate protocol/routing cost from
//     kernel socket cost, and the bit-identity tests run anywhere.
//   * UnixSocketChannel — a real SOCK_STREAM unix-domain socketpair. The
//     bytes cross the kernel exactly as they would between shard
//     *processes*; only the fork is simulated away. Proves the wire
//     protocol survives short reads/writes and real EOF semantics.
//   * TCP — a real AF_INET loopback connection (TcpListener +
//     tcp_connect below), the transport that crosses actual machine
//     boundaries: SO_REUSEADDR on the listener, TCP_NODELAY on both
//     ends (the wire protocol is request/response, so Nagle batching
//     only adds latency), same all-or-throw contract.
//
// Both ends count bytes (atomic, readable concurrently), which is how
// ServeStats attributes network volume to queries vs remote row fetches.
// They count bytes handed to callers, not bytes pulled off the socket.
//
// Read-ahead: a socket end keeps a 4 KiB buffer that one recv(2) fills
// with whatever the kernel holds; later reads are served from it until
// it runs dry, and a read at least the buffer's size goes straight into
// the caller's memory. A wire frame's three reads (serve/wire.hpp: op
// byte, length, payload) therefore cost about one syscall, and
// back-to-back messages queued before the reader wakes come out of one
// fill. The contract below is unchanged by it: all-or-throw, deadlines
// (a recv that consumed nothing may be retried), and queued bytes
// readable after the peer closed, buffered ones included.
//
// Decorators: read-ahead lives below this interface, so a ByteChannel
// that wraps another (the benchmark's TracingChannel) sees exactly the
// calls the wire layer makes — one send() per message, a 1-byte recv
// opening each message and no other 1-byte recv — and stitches traced
// runs on those invariants (serve/wire.hpp keeps them).
//
// Close semantics: close() wakes any blocked peer, whose next recv()
// throws TransportError — the cluster's shutdown signal (there is no
// in-band "shutdown" message; EOF is the shutdown message, exactly as a
// died process would present).
//
// Recv deadlines: set_recv_timeout() arms an optional per-recv deadline
// so a peer that is alive-but-silent (stuck, partitioned) surfaces as
// TransportTimeout instead of blocking the caller forever — the router
// uses it to keep drain threads from wedging on a dead shard. A timeout
// does NOT close the channel: a recv that timed out after consuming
// zero bytes may simply be retried (how an idle drain thread keeps
// waiting); one that consumed partial bytes leaves the stream desynced,
// and the caller must treat the link as dead.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

namespace snaple::serve {

/// Thrown on torn writes, truncated reads and reads/writes after the
/// peer closed. Catching it at a server loop's top level IS the clean
/// shutdown path.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by recv() when an armed recv deadline elapses with no
/// progress (set_recv_timeout). A TransportError subclass, so code that
/// only knows "the link failed" stays correct; code that can retry (an
/// idle drain thread) catches this type first.
class TransportTimeout : public TransportError {
 public:
  using TransportError::TransportError;
};

/// Which concrete transport a cluster's links use.
enum class TransportKind {
  kInProcess,   // mutex+condvar byte queues, no syscalls
  kUnixSocket,  // AF_UNIX SOCK_STREAM socketpair through the kernel
  kTcp,         // AF_INET SOCK_STREAM over loopback/network
};

[[nodiscard]] const char* to_string(TransportKind kind) noexcept;

/// One end of a bidirectional, ordered, reliable byte stream.
/// send/recv are all-or-throw: partial transfers never escape (short
/// socket writes are retried internally). Channels are full duplex: ONE
/// sender plus ONE receiver may use the same end concurrently (how the
/// router pipelines — a submission side writes while the drain thread
/// reads), but concurrent senders (or receivers) on one end must be
/// serialized by the caller, as router.hpp's send mutex does. Distinct
/// ends are independent.
class ByteChannel {
 public:
  virtual ~ByteChannel() = default;

  /// Sends exactly `len` bytes, or throws TransportError (peer closed,
  /// socket error).
  virtual void send(const void* data, std::size_t len) = 0;

  /// Receives exactly `len` bytes into `data`, or throws TransportError
  /// (EOF before `len` bytes, socket error, channel closed) /
  /// TransportTimeout (armed deadline elapsed with no progress).
  virtual void recv(void* data, std::size_t len) = 0;

  /// Arms a deadline for subsequent recv() calls: if no bytes arrive
  /// within `timeout`, recv throws TransportTimeout. Zero disarms
  /// (the default — recv blocks indefinitely). Call from the receiving
  /// thread's side only, before or between recvs.
  virtual void set_recv_timeout(std::chrono::milliseconds timeout) = 0;

  /// Closes this end: the peer's blocked/next recv() throws, as does any
  /// further send/recv here. Idempotent, safe to call from another
  /// thread while the owner blocks in recv (that is the point).
  virtual void close() = 0;

  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_received() const noexcept {
    return bytes_received_.load(std::memory_order_relaxed);
  }

 protected:
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
};

/// The two connected ends of one link. Hand `server` to the shard's
/// connection thread, keep `client` on the caller side.
struct ChannelPair {
  std::unique_ptr<ByteChannel> server;
  std::unique_ptr<ByteChannel> client;
};

/// Connected pair of the requested kind. kUnixSocket throws
/// TransportError if socketpair(2) fails (fd exhaustion); kTcp builds a
/// real loopback connection through a throwaway ephemeral listener.
[[nodiscard]] ChannelPair make_channel_pair(TransportKind kind);

/// A listening TCP endpoint — the server half of a genuine
/// multi-machine link. Binds 127.0.0.1:`port` (port 0 = kernel-chosen
/// ephemeral, read back via port()) with SO_REUSEADDR, listens, and
/// hands each accepted connection out as a ByteChannel with TCP_NODELAY
/// already set. ServingCluster pairs every cluster link through one
/// listener, which is exactly the accept loop a real shard process
/// would run.
class TcpListener {
 public:
  /// Throws TransportError if socket/bind/listen fails (port in use).
  explicit TcpListener(std::uint16_t port = 0);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// The bound port (the ephemeral port when constructed with 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Blocks until a connection arrives; throws TransportError if the
  /// listener was close()d or accept(2) fails.
  [[nodiscard]] std::unique_ptr<ByteChannel> accept();

  /// Stops accepting: a blocked accept() (and every later one) throws.
  /// Idempotent; the destructor calls it.
  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Connects to a TcpListener (or any TCP endpoint speaking the wire
/// protocol) and returns the client channel, TCP_NODELAY set. Throws
/// TransportError on resolution/connection failure.
[[nodiscard]] std::unique_ptr<ByteChannel> tcp_connect(
    const std::string& host, std::uint16_t port);

}  // namespace snaple::serve
