// Shared wire-protocol plumbing of the serving tier — the opcodes, the
// frame format and the one decoder both router.cpp (query plane) and
// update_router.cpp (update plane) speak. The protocol itself is
// documented in serve/router.hpp; everything here is internal to the
// serve/ translation units and the wire tests.
//
// Every message is one frame:
//
//   u8 op-or-status | u32 payload_len | payload_len bytes of payload
//
// assembled in one buffer and shipped with a single send(), and read
// back with three recvs: the op/status byte alone (read_op), the length,
// then the whole payload into one buffer (read_payload).
// SocketChannel's read-ahead (transport.hpp) serves all three from about
// one syscall. The payload is decoded by Reader, which checks every read
// and every peer-supplied count against the bytes left BEFORE anything
// is allocated: a corrupt or truncated payload is a CheckError — never
// an out-of-bounds read or an unbounded allocation — and because the
// frame was read whole, the link stays in sync for the next message. A
// length over kMaxPayload is a TransportError instead (the receiver
// refuses to buffer it, and nothing after it can be trusted), and
// seal_frame refuses to build such a frame.
//
// Invariants the benchmark's TracingChannel stitches traced runs on
// (bench/e2e/src/tracing_channel.hpp), kept by construction here:
//   * every message leaves in exactly one send();
//   * every message is read starting with a 1-byte recv (read_op);
//   * no other recv is exactly 1 byte long: the length field is 4 bytes,
//     an empty payload costs no recv, and every non-empty payload shape
//     starts with a u32 or u64 field, so none is 1 byte long.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "serve/row_cache.hpp"
#include "serve/transport.hpp"
#include "util/check.hpp"

namespace snaple::serve::wire {

inline constexpr std::uint8_t kOpTopk = 1;
inline constexpr std::uint8_t kOpFetch = 2;
inline constexpr std::uint8_t kOpBatch = 3;
inline constexpr std::uint8_t kOpUpdate = 4;
inline constexpr std::uint8_t kOpBarrier = 5;
inline constexpr std::uint8_t kOpRemove = 6;
inline constexpr std::uint8_t kStatusOk = 0;
inline constexpr std::uint8_t kStatusError = 1;

/// The largest payload a frame may carry (64 MiB).
inline constexpr std::size_t kMaxPayload = std::size_t{64} << 20;
/// op/status byte + u32 payload length.
inline constexpr std::size_t kHeaderBytes = 1 + sizeof(std::uint32_t);

using Scored = std::vector<std::pair<VertexId, float>>;

template <typename T>
void put(std::vector<std::uint8_t>& buf, const T& value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  buf.insert(buf.end(), p, p + sizeof(T));
}

template <typename T>
void put_span(std::vector<std::uint8_t>& buf, std::span<const T> values) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(values.data());
  buf.insert(buf.end(), p, p + values.size_bytes());
}

/// Starts a frame in `frame` (cleared first): the op or status byte and
/// a length placeholder that seal_frame fills in.
inline void begin_frame(std::vector<std::uint8_t>& frame, std::uint8_t op) {
  frame.clear();
  put<std::uint8_t>(frame, op);
  put<std::uint32_t>(frame, 0);
}

/// Writes the payload length into a frame begun by begin_frame.
/// CheckError if the payload exceeds kMaxPayload.
inline void seal_frame(std::vector<std::uint8_t>& frame) {
  const std::size_t len = frame.size() - kHeaderBytes;
  SNAPLE_CHECK_MSG(len <= kMaxPayload,
                   "wire payload of " + std::to_string(len) +
                       " bytes exceeds the " + std::to_string(kMaxPayload) +
                       "-byte frame cap");
  const auto len32 = static_cast<std::uint32_t>(len);
  std::memcpy(frame.data() + 1, &len32, sizeof(len32));
}

/// Reads the op or status byte that opens a frame — alone, as a 1-byte
/// recv.
inline std::uint8_t read_op(ByteChannel& ch) {
  std::uint8_t op = 0;
  ch.recv(&op, 1);
  return op;
}

/// Reads the rest of a frame: the u32 length, then the whole payload
/// into `buf` (grown as needed, never shrunk). Returns the payload.
/// TransportError if the length exceeds kMaxPayload: such a frame
/// cannot be skipped, so the link is as good as desynced.
inline std::span<const std::uint8_t> read_payload(
    ByteChannel& ch, std::vector<std::uint8_t>& buf) {
  std::uint32_t len = 0;
  ch.recv(&len, sizeof(len));
  if (len > kMaxPayload) {
    throw TransportError("wire frame claims " + std::to_string(len) +
                         " payload bytes, over the " +
                         std::to_string(kMaxPayload) + "-byte cap");
  }
  if (buf.size() < len) buf.resize(len);
  if (len != 0) ch.recv(buf.data(), len);
  return {buf.data(), len};
}

/// Bounds-checked decoder over one frame's payload. Every read throws
/// CheckError when fewer bytes remain than it needs; counts are checked
/// against the bytes left before the caller sizes anything by them.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) noexcept
      : bytes_(bytes) {}

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }

  /// The next `len` bytes, consumed.
  [[nodiscard]] std::span<const std::uint8_t> take(std::size_t len) {
    SNAPLE_CHECK_MSG(len <= remaining(),
                     "truncated wire payload: " + std::to_string(len) +
                         " bytes needed, " + std::to_string(remaining()) +
                         " left");
    const auto out = bytes_.subspan(pos_, len);
    pos_ += len;
    return out;
  }

  template <typename T>
  [[nodiscard]] T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    std::memcpy(&value, take(sizeof(T)).data(), sizeof(T));
    return value;
  }

  /// A u32 count of elements `elem_bytes` long each, checked to fit in
  /// the bytes left.
  [[nodiscard]] std::uint32_t get_count(std::size_t elem_bytes) {
    const auto count = get<std::uint32_t>();
    SNAPLE_CHECK_MSG(count <= remaining() / elem_bytes,
                     "wire count " + std::to_string(count) + " × " +
                         std::to_string(elem_bytes) + " bytes overruns the " +
                         std::to_string(remaining()) + " bytes left");
    return count;
  }

  /// Appends `count` raw Ts to `out` (the count is checked first).
  template <typename T>
  void get_array(std::vector<T>& out, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    SNAPLE_CHECK_MSG(count <= remaining() / sizeof(T),
                     "wire array of " + std::to_string(count) +
                         " elements overruns the payload");
    const auto bytes = take(count * sizeof(T));
    const std::size_t old = out.size();
    out.resize(old + count);
    if (count != 0) std::memcpy(out.data() + old, bytes.data(), bytes.size());
  }

  /// CheckError unless the whole payload was consumed: trailing bytes
  /// mean the two ends disagree on the message's shape.
  void expect_end() const {
    SNAPLE_CHECK_MSG(remaining() == 0,
                     std::to_string(remaining()) +
                         " trailing bytes after a wire payload");
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Rewrites `frame` as a sealed error response: u32 len | message
/// (clipped to fit the frame cap).
inline void put_error(std::vector<std::uint8_t>& frame,
                      const std::string& message) {
  const std::size_t len =
      std::min(message.size(), kMaxPayload - sizeof(std::uint32_t));
  begin_frame(frame, kStatusError);
  put<std::uint32_t>(frame, static_cast<std::uint32_t>(len));
  frame.insert(frame.end(), message.begin(),
               message.begin() + static_cast<std::ptrdiff_t>(len));
  seal_frame(frame);
}

/// Decodes a whole error payload into its message.
inline std::string read_error(Reader& in) {
  const auto bytes = in.take(in.get_count(1));
  in.expect_end();
  return {bytes.begin(), bytes.end()};
}

/// Opens a response payload: returns on kStatusOk; otherwise throws
/// CheckError carrying the peer's error message (or naming an unknown
/// status), so a shard-side failure surfaces on this side of the wire
/// exactly like a local check.
inline void throw_if_error(std::uint8_t status, Reader& in) {
  if (status == kStatusOk) return;
  if (status == kStatusError) throw CheckError(read_error(in));
  throw CheckError("unknown wire status " + std::to_string(status));
}

/// One topk answer in the shared ok-payload shape
/// (u32 count | ids | raw f32 scores) — op 1's whole payload, op 3's
/// per-query chunk.
inline void put_scored(std::vector<std::uint8_t>& buf, const Scored& result) {
  put<std::uint32_t>(buf, static_cast<std::uint32_t>(result.size()));
  for (const auto& [id, score] : result) put<std::uint32_t>(buf, id);
  for (const auto& [id, score] : result) put<float>(buf, score);
}

inline Scored read_scored(Reader& in) {
  const std::uint32_t count = in.get_count(sizeof(VertexId) + sizeof(float));
  const auto ids = in.take(count * sizeof(VertexId));
  const auto scores = in.take(count * sizeof(float));
  Scored out(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::memcpy(&out[i].first, ids.data() + i * sizeof(VertexId),
                sizeof(VertexId));
    std::memcpy(&out[i].second, scores.data() + i * sizeof(float),
                sizeof(float));
  }
  return out;
}

/// One fetched row in the op-2 ok-payload shape: u64 version
/// | u32 sims_len | ids | scores | u32 hop2_len | ids | scores.
inline void put_row(std::vector<std::uint8_t>& buf, std::uint64_t version,
                    std::span<const VertexId> sims_ids,
                    std::span<const float> sims_scores,
                    std::span<const VertexId> hop2_ids,
                    std::span<const float> hop2_scores) {
  put<std::uint64_t>(buf, version);
  put<std::uint32_t>(buf, static_cast<std::uint32_t>(sims_ids.size()));
  put_span(buf, sims_ids);
  put_span(buf, sims_scores);
  put<std::uint32_t>(buf, static_cast<std::uint32_t>(hop2_ids.size()));
  put_span(buf, hop2_ids);
  put_span(buf, hop2_scores);
}

/// Decodes one put_row record into `row`; returns the row's version.
inline std::uint64_t read_row(Reader& in, HotRow& row) {
  constexpr std::size_t kEntry = sizeof(VertexId) + sizeof(float);
  const auto version = in.get<std::uint64_t>();
  const std::uint32_t sims = in.get_count(kEntry);
  in.get_array(row.sims_ids, sims);
  in.get_array(row.sims_scores, sims);
  const std::uint32_t hop2 = in.get_count(kEntry);
  in.get_array(row.hop2_ids, hop2);
  in.get_array(row.hop2_scores, hop2);
  return version;
}

}  // namespace snaple::serve::wire
