// TracingChannel — a ByteChannel decorator that timestamps every call
// into the wrapped transport, so the benchmark can see the serving tier's
// layers from outside without touching src/serve/.
//
// What it relies on (serve/wire.hpp, serve/router.cpp):
//   * every request and every response leaves in exactly ONE send();
//   * every message is read starting with a 1-byte recv (the op byte on
//     the serving side, the status byte on the requesting side), and no
//     other field of any message is a single byte.
// So on either end the i-th send is the i-th message out, and a 1-byte
// recv opens the next message in. Messages on one link are answered in
// order, which stitches the two ends: the i-th request sent on a link's
// client end is the i-th message its server end reads, and the i-th
// response that server sends is the i-th message the client end reads.
//
// The trace context is thread-local. A generator thread stores its request
// id there before calling into the router, so client-end sends carry it;
// a serving thread's end stores (link, message index) when a request
// arrives, so the peer fetches that thread makes while handling it carry
// their parent. Stitching happens after the run (traced.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "harness.hpp"
#include "serve/transport.hpp"

namespace e2e {

struct TraceContext {
  std::uint64_t request = 0;  // generator request id (0 = none)
  int link = -1;              // serving side: link of the request in hand
  std::uint32_t index = 0;    // ... and its message index on that link
};
[[nodiscard]] TraceContext& trace_context() noexcept;

/// One message sent: the send() call's interval and the sender's context.
struct SendRecord {
  Nanos begin = 0;
  Nanos end = 0;
  std::uint64_t bytes = 0;
  TraceContext context;
};

/// One message received: from the return of its opening 1-byte recv (the
/// moment its first byte was in hand) to the return of its last recv.
struct RecvRecord {
  Nanos first = 0;
  Nanos last = 0;
  std::uint64_t bytes = 0;
  std::uint32_t calls = 0;
};

/// Everything one end of one link saw. Written by that end's (one)
/// sending and (one) receiving thread; read once the traffic has stopped.
class LinkLog {
 public:
  /// `link` is the id stored into the trace context when this end reads a
  /// request (serving ends); -1 leaves the context alone (client ends).
  explicit LinkLog(int link = -1) : link_(link) {}

  void on_send(Nanos begin, Nanos end, std::uint64_t bytes);
  void on_recv(Nanos end, std::uint64_t bytes, bool opens_message);

  [[nodiscard]] std::vector<SendRecord> sends() const;
  [[nodiscard]] std::vector<RecvRecord> received() const;
  [[nodiscard]] std::uint64_t send_calls() const;
  [[nodiscard]] std::uint64_t recv_calls() const;
  [[nodiscard]] std::uint64_t bytes_sent() const;
  [[nodiscard]] std::uint64_t bytes_received() const;

 private:
  const int link_;
  mutable std::mutex mu_;
  std::vector<SendRecord> sends_;
  std::vector<RecvRecord> received_;
  std::uint64_t send_calls_ = 0;
  std::uint64_t recv_calls_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

class TracingChannel final : public snaple::serve::ByteChannel {
 public:
  TracingChannel(std::unique_ptr<snaple::serve::ByteChannel> inner,
                 std::shared_ptr<LinkLog> log);

  void send(const void* data, std::size_t len) override;
  void recv(void* data, std::size_t len) override;
  void set_recv_timeout(std::chrono::milliseconds timeout) override;
  void close() override;

  [[nodiscard]] const snaple::serve::ByteChannel& inner() const noexcept {
    return *inner_;
  }

 private:
  std::unique_ptr<snaple::serve::ByteChannel> inner_;
  std::shared_ptr<LinkLog> log_;
};

}  // namespace e2e
