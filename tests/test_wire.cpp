// Wire protocol robustness: length-prefixed frames and the
// bounds-checked decoder (serve/wire.hpp).
//
// Every payload shape the serving tier speaks — the op 1–6 requests and
// every ok/error response — is decoded by the same wire:: calls the
// shard server and the routers make, then truncated at every byte
// offset: each cut must be a CheckError, never an out-of-bounds read
// (the ASan job runs this suite, and every cut lives in a heap buffer of
// exactly its length). A peer-supplied count must be checked before
// anything is sized by it, a header over the frame cap is a
// TransportError, and a running ShardServer answers a malformed payload
// or an unknown opcode with an error response and keeps the link in
// sync — on every transport.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/predictor.hpp"
#include "core/query_engine.hpp"
#include "graph/gen/datasets.hpp"
#include "serve/live_shard.hpp"
#include "serve/router.hpp"
#include "serve/transport.hpp"
#include "serve/wire.hpp"

namespace {
// The largest single operator-new request since the last reset: proves
// a decoder refused a huge count before allocating by it.
std::atomic<std::size_t> largest_alloc{0};
}  // namespace

// A malloc-backed replacement pair; GCC cannot see that the two match.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  std::size_t seen = largest_alloc.load(std::memory_order_relaxed);
  while (size > seen && !largest_alloc.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace snaple {
namespace {

namespace wire = serve::wire;
using serve::ByteChannel;
using serve::TransportError;
using serve::TransportKind;
using Bytes = std::vector<std::uint8_t>;
using Scored = std::vector<std::pair<VertexId, float>>;

constexpr TransportKind kTransports[] = {TransportKind::kInProcess,
                                         TransportKind::kUnixSocket,
                                         TransportKind::kTcp};

/// One payload shape: a valid payload and the decode sequence its
/// receiver runs (ending in expect_end, as every receiver does).
struct Shape {
  std::string name;
  Bytes payload;
  std::function<void(wire::Reader&)> decode;
};

Bytes scored_payload(const Scored& result) {
  Bytes b;
  wire::put_scored(b, result);
  return b;
}

std::vector<Shape> every_shape() {
  const Scored three = {{4, 0.5f}, {9, 0.25f}, {17, 0.125f}};
  const std::vector<VertexId> ids = {3, 8, 21};
  const std::vector<Edge> edges = {{1, 2}, {5, 3}};
  std::vector<Shape> out;

  {  // op 1 topk: u32 u | u64 k
    Bytes b;
    wire::put<std::uint32_t>(b, 7);
    wire::put<std::uint64_t>(b, 5);
    out.push_back({"op1 topk request", b, [](wire::Reader& in) {
                     (void)in.get<std::uint32_t>();
                     (void)in.get<std::uint64_t>();
                     in.expect_end();
                   }});
  }
  {  // op 2 fetch: u32 count | ids
    Bytes b;
    wire::put<std::uint32_t>(b, static_cast<std::uint32_t>(ids.size()));
    wire::put_span<VertexId>(b, ids);
    out.push_back({"op2 fetch request", b, [](wire::Reader& in) {
                     std::vector<VertexId> got;
                     in.get_array(got, in.get_count(sizeof(VertexId)));
                     in.expect_end();
                   }});
  }
  {  // op 3 batch: u64 k | u32 count | ids
    Bytes b;
    wire::put<std::uint64_t>(b, 3);
    wire::put<std::uint32_t>(b, static_cast<std::uint32_t>(ids.size()));
    wire::put_span<VertexId>(b, ids);
    out.push_back({"op3 batch request", b, [](wire::Reader& in) {
                     (void)in.get<std::uint64_t>();
                     std::vector<VertexId> got;
                     in.get_array(got, in.get_count(sizeof(VertexId)));
                     in.expect_end();
                   }});
  }
  for (const char* name : {"op4 update request", "op6 remove request"}) {
    Bytes b;
    wire::put<std::uint32_t>(b, static_cast<std::uint32_t>(edges.size()));
    wire::put_span<Edge>(b, edges);
    out.push_back({name, b, [](wire::Reader& in) {
                     std::vector<Edge> got;
                     in.get_array(got, in.get_count(sizeof(Edge)));
                     in.expect_end();
                   }});
  }
  // op 5 barrier: the empty payload has no offset to cut at; its
  // over-long forms are covered by the trailing-byte check below.
  out.push_back({"op5 barrier request", {}, [](wire::Reader& in) {
                   in.expect_end();
                 }});

  {  // error: u32 len | message
    Bytes frame;
    wire::put_error(frame, "vertex 12 routed to the wrong shard");
    out.push_back({"error response",
                   Bytes(frame.begin() + wire::kHeaderBytes, frame.end()),
                   [](wire::Reader& in) { (void)wire::read_error(in); }});
  }
  out.push_back({"topk ok", scored_payload(three), [](wire::Reader& in) {
                   (void)wire::read_scored(in);
                   in.expect_end();
                 }});
  out.push_back({"empty topk ok", scored_payload({}), [](wire::Reader& in) {
                   (void)wire::read_scored(in);
                   in.expect_end();
                 }});
  {  // batch ok: per query, a topk ok payload
    Bytes b = scored_payload(three);
    const Bytes second = scored_payload({{2, 1.0f}});
    b.insert(b.end(), second.begin(), second.end());
    out.push_back({"batch ok", b, [](wire::Reader& in) {
                     for (int q = 0; q < 2; ++q) (void)wire::read_scored(in);
                     in.expect_end();
                   }});
  }
  {  // fetch ok: per id, u64 version | sims | hop2
    const std::vector<VertexId> sims_ids = {2, 6};
    const std::vector<float> sims_scores = {0.5f, 0.75f};
    const std::vector<VertexId> hop2_ids = {11};
    const std::vector<float> hop2_scores = {0.3f};
    Bytes b;
    wire::put_row(b, 4, sims_ids, sims_scores, hop2_ids, hop2_scores);
    wire::put_row(b, 0, sims_ids, sims_scores, {}, {});
    out.push_back({"fetch ok", b, [](wire::Reader& in) {
                     for (int r = 0; r < 2; ++r) {
                       serve::HotRow row;
                       (void)wire::read_row(in, row);
                     }
                     in.expect_end();
                   }});
  }
  {  // update/remove ok: 4 × u64
    Bytes b;
    for (std::uint64_t v : {9u, 1u, 2u, 3u}) wire::put<std::uint64_t>(b, v);
    out.push_back({"update ok", b, [](wire::Reader& in) {
                     for (int i = 0; i < 4; ++i) (void)in.get<std::uint64_t>();
                     in.expect_end();
                   }});
  }
  {  // barrier ok: u64 version
    Bytes b;
    wire::put<std::uint64_t>(b, 9);
    out.push_back({"barrier ok", b, [](wire::Reader& in) {
                     (void)in.get<std::uint64_t>();
                     in.expect_end();
                   }});
  }
  return out;
}

/// Decodes a heap copy of exactly `bytes` — so a read past the end is a
/// heap overflow ASan reports, not a silent read of the next byte.
void decode_copy(const Shape& shape, std::span<const std::uint8_t> bytes) {
  const auto copy = std::make_unique<std::uint8_t[]>(bytes.size());
  std::copy(bytes.begin(), bytes.end(), copy.get());
  wire::Reader in({copy.get(), bytes.size()});
  shape.decode(in);
}

// ---------- the decoder ----------

TEST(WireReader, EveryShapeDecodesWhole) {
  for (const Shape& shape : every_shape()) {
    EXPECT_NO_THROW(decode_copy(shape, shape.payload)) << shape.name;
  }
}

TEST(WireReader, TruncationAtEveryOffsetIsCheckError) {
  for (const Shape& shape : every_shape()) {
    for (std::size_t cut = 0; cut < shape.payload.size(); ++cut) {
      EXPECT_THROW(decode_copy(shape, {shape.payload.data(), cut}),
                   CheckError)
          << shape.name << " cut at " << cut << " of "
          << shape.payload.size();
    }
  }
}

TEST(WireReader, TrailingBytesAreCheckError) {
  for (const Shape& shape : every_shape()) {
    for (const std::size_t extra : {1u, 4u}) {
      Bytes longer = shape.payload;
      longer.resize(longer.size() + extra, 0xab);
      EXPECT_THROW(decode_copy(shape, longer), CheckError)
          << shape.name << " + " << extra;
    }
  }
}

TEST(WireReader, HugeCountFailsBeforeAllocating) {
  // A 16-byte payload whose count field says 0xFFFFFFFF, at the count's
  // position for every count-bearing shape: the decoder must refuse the
  // count against the bytes left, allocating nothing near its size.
  struct Case {
    const char* name;
    std::size_t count_at;
    std::function<void(wire::Reader&)> decode;
  };
  const std::vector<Case> cases = {
      {"ids", 0,
       [](wire::Reader& in) {
         std::vector<VertexId> ids;
         in.get_array(ids, in.get_count(sizeof(VertexId)));
       }},
      {"batch ids", 8,
       [](wire::Reader& in) {
         (void)in.get<std::uint64_t>();
         std::vector<VertexId> ids;
         in.get_array(ids, in.get_count(sizeof(VertexId)));
       }},
      {"edges", 0,
       [](wire::Reader& in) {
         std::vector<Edge> edges;
         in.get_array(edges, in.get_count(sizeof(Edge)));
       }},
      {"scored", 0, [](wire::Reader& in) { (void)wire::read_scored(in); }},
      {"row sims", 8,
       [](wire::Reader& in) {
         serve::HotRow row;
         (void)wire::read_row(in, row);
       }},
      {"error message", 0,
       [](wire::Reader& in) { (void)wire::read_error(in); }},
      {"count", 0,
       [](wire::Reader& in) { (void)in.get_count(sizeof(VertexId)); }},
      {"raw array", 0,
       [](wire::Reader& in) {
         std::vector<std::uint64_t> values;
         in.get_array(values, std::numeric_limits<std::uint32_t>::max());
       }},
  };
  for (const Case& c : cases) {
    Bytes payload(16, 0);
    const std::uint32_t huge = 0xFFFFFFFFu;
    std::memcpy(payload.data() + c.count_at, &huge, sizeof(huge));
    wire::Reader in(payload);
    largest_alloc.store(0, std::memory_order_relaxed);
    EXPECT_THROW(c.decode(in), CheckError) << c.name;
    // The error message itself allocates a little; 16 GiB it does not.
    EXPECT_LT(largest_alloc.load(std::memory_order_relaxed), 4096u)
        << c.name;
  }
}

TEST(WireFrames, SealRefusesAPayloadOverTheCap) {
  Bytes frame;
  wire::begin_frame(frame, wire::kOpFetch);
  frame.resize(wire::kHeaderBytes + wire::kMaxPayload);
  EXPECT_NO_THROW(wire::seal_frame(frame));  // exactly the cap is fine
  frame.push_back(0);
  EXPECT_THROW(wire::seal_frame(frame), CheckError);
}

TEST(WireFrames, HeaderOverTheCapIsTransportErrorNotBadAlloc) {
  for (const auto kind : kTransports) {
    for (const std::uint32_t len :
         {static_cast<std::uint32_t>(wire::kMaxPayload + 1), 0xFFFFFFFFu}) {
      auto pair = serve::make_channel_pair(kind);
      Bytes header;
      wire::put<std::uint8_t>(header, wire::kOpFetch);
      wire::put<std::uint32_t>(header, len);
      pair.client->send(header.data(), header.size());
      EXPECT_EQ(wire::read_op(*pair.server), wire::kOpFetch);
      Bytes buf;
      largest_alloc.store(0, std::memory_order_relaxed);
      EXPECT_THROW((void)wire::read_payload(*pair.server, buf),
                   TransportError)
          << serve::to_string(kind) << " len " << len;
      EXPECT_TRUE(buf.empty());
      EXPECT_LT(largest_alloc.load(std::memory_order_relaxed), 4096u);
    }
  }
}

TEST(WireFrames, FrameCutShortByCloseIsTransportError) {
  for (const auto kind : kTransports) {
    auto pair = serve::make_channel_pair(kind);
    Bytes frame;
    wire::begin_frame(frame, wire::kOpFetch);
    wire::put<std::uint32_t>(frame, 2);
    wire::put<std::uint32_t>(frame, 7);
    wire::put<std::uint32_t>(frame, 9);
    wire::seal_frame(frame);
    // Everything but the last 3 bytes, then the sender goes away.
    pair.client->send(frame.data(), frame.size() - 3);
    pair.client->close();
    EXPECT_EQ(wire::read_op(*pair.server), wire::kOpFetch);
    Bytes buf;
    EXPECT_THROW((void)wire::read_payload(*pair.server, buf), TransportError)
        << serve::to_string(kind);
  }
}

// ---------- a running shard server ----------

/// A single live shard serving the whole model: every op 1–6 is valid
/// on it, so an error response can only come from the payload.
struct LiveServer {
  std::shared_ptr<const CsrGraph> graph;
  std::shared_ptr<const PredictorModel> model;
  std::unique_ptr<serve::ShardServer> server;

  LiveServer() {
    graph = std::make_shared<const CsrGraph>(
        gen::make_dataset("gowalla", 0.02, 3));
    model = std::make_shared<const PredictorModel>(
        LinkPredictor(SnapleConfig{}).fit(*graph));
    const gas::VertexRange all{0, model->num_vertices()};
    server = std::make_unique<serve::ShardServer>(
        std::make_shared<serve::LiveShard>(model, graph, all),
        std::vector<gas::VertexRange>{all});
  }

  /// A fresh frontend link to the server; returns the client end.
  std::unique_ptr<ByteChannel> connect(TransportKind kind) {
    auto pair = serve::make_channel_pair(kind);
    server->serve(std::move(pair.server));
    return std::move(pair.client);
  }
};

/// Sends one frame and reads the response frame: (status, payload).
std::pair<std::uint8_t, Bytes> round_trip(ByteChannel& ch, std::uint8_t op,
                                          const Bytes& payload) {
  Bytes frame;
  wire::begin_frame(frame, op);
  frame.insert(frame.end(), payload.begin(), payload.end());
  wire::seal_frame(frame);
  ch.send(frame.data(), frame.size());
  const std::uint8_t status = wire::read_op(ch);
  Bytes buf;
  const auto got = wire::read_payload(ch, buf);
  return {status, Bytes(got.begin(), got.end())};
}

Scored topk_over(ByteChannel& ch, VertexId u) {
  Bytes req;
  wire::put<std::uint32_t>(req, u);
  wire::put<std::uint64_t>(req, 0);
  const auto [status, payload] = round_trip(ch, wire::kOpTopk, req);
  wire::Reader in(payload);
  wire::throw_if_error(status, in);
  Scored out = wire::read_scored(in);
  in.expect_end();
  return out;
}

TEST(WireServer, MalformedPayloadsAndUnknownOpsGetErrorsAndTheLinkSurvives) {
  LiveServer live;
  const QueryEngine engine(live.model);
  const VertexId n = live.model->num_vertices();

  std::vector<std::pair<std::uint8_t, Bytes>> bad;
  {  // op 1 one byte short, and one byte long
    Bytes b;
    wire::put<std::uint32_t>(b, 0);
    b.resize(b.size() + sizeof(std::uint64_t) - 1);
    bad.emplace_back(wire::kOpTopk, b);
    b.resize(b.size() + 2);
    bad.emplace_back(wire::kOpTopk, b);
  }
  {  // op 2 with a count of 0xFFFFFFFF over 12 bytes
    Bytes b;
    wire::put<std::uint32_t>(b, 0xFFFFFFFFu);
    b.resize(b.size() + 12);
    bad.emplace_back(wire::kOpFetch, b);
  }
  {  // op 3 claiming 5 users, carrying 2
    Bytes b;
    wire::put<std::uint64_t>(b, 0);
    wire::put<std::uint32_t>(b, 5);
    wire::put<std::uint32_t>(b, 0);
    wire::put<std::uint32_t>(b, 1);
    bad.emplace_back(wire::kOpBatch, b);
  }
  {  // op 4 claiming 2 edges, carrying 1.5
    Bytes b;
    wire::put<std::uint32_t>(b, 2);
    wire::put<std::uint32_t>(b, 0);
    wire::put<std::uint32_t>(b, 1);
    wire::put<std::uint32_t>(b, 2);
    bad.emplace_back(wire::kOpUpdate, b);
  }
  {  // op 5 takes no payload
    Bytes b;
    wire::put<std::uint32_t>(b, 0);
    bad.emplace_back(wire::kOpBarrier, b);
  }
  {  // op 6 with 2 trailing bytes after a valid edge list
    Bytes b;
    wire::put<std::uint32_t>(b, 1);
    wire::put<std::uint32_t>(b, 0);
    wire::put<std::uint32_t>(b, 1);
    b.resize(b.size() + 2);
    bad.emplace_back(wire::kOpRemove, b);
  }
  for (const std::uint8_t op : {0, 7, 42, 255}) {
    bad.emplace_back(op, Bytes{});
    bad.emplace_back(op, Bytes(9, 0x5a));
  }

  std::uint64_t errors = 0;
  for (const auto kind : kTransports) {
    auto ch = live.connect(kind);
    for (const auto& [op, payload] : bad) {
      const auto [status, reply] = round_trip(*ch, op, payload);
      ++errors;
      EXPECT_EQ(status, wire::kStatusError)
          << serve::to_string(kind) << " op " << int{op};
      wire::Reader in(reply);
      EXPECT_FALSE(wire::read_error(in).empty());
      EXPECT_EQ(live.server->stats().errors, errors)
          << serve::to_string(kind) << " op " << int{op};
      // The same link, in sync, answers like the engine.
      const VertexId u = static_cast<VertexId>((errors * 37) % n);
      EXPECT_EQ(topk_over(*ch, u), engine.topk(u))
          << serve::to_string(kind) << " after op " << int{op};
    }
    // Nothing malformed was applied: the live shard is still at version 0.
    const auto [status, reply] = round_trip(*ch, wire::kOpBarrier, {});
    wire::Reader in(reply);
    wire::throw_if_error(status, in);
    EXPECT_EQ(in.get<std::uint64_t>(), 0u);
    in.expect_end();
  }
}

TEST(WireServer, OversizedOrCutFramesDropOnlyTheirLink) {
  LiveServer live;
  const QueryEngine engine(live.model);
  for (const auto kind : kTransports) {
    const std::uint64_t errors = live.server->stats().errors;
    {  // a header over the cap: the server drops the link, uncounted
      auto ch = live.connect(kind);
      Bytes header;
      wire::put<std::uint8_t>(header, wire::kOpTopk);
      wire::put<std::uint32_t>(header, 0xFFFFFFFFu);
      ch->send(header.data(), header.size());
      EXPECT_THROW((void)wire::read_op(*ch), TransportError)
          << serve::to_string(kind);
    }
    {  // a frame cut short by close(): the serving thread exits cleanly
      auto ch = live.connect(kind);
      Bytes frame;
      wire::begin_frame(frame, wire::kOpTopk);
      wire::put<std::uint32_t>(frame, 1);
      wire::put<std::uint64_t>(frame, 0);
      wire::seal_frame(frame);
      ch->send(frame.data(), frame.size() - 4);
      ch->close();
    }
    EXPECT_EQ(live.server->stats().errors, errors);
    // The server itself is unharmed: a fresh link serves.
    auto ch = live.connect(kind);
    EXPECT_EQ(topk_over(*ch, 5), engine.topk(5)) << serve::to_string(kind);
  }
}

// ---------- the invariants a ByteChannel decorator relies on ----------

/// Records the length of every send and recv on the wrapped end.
class CallLog final : public ByteChannel {
 public:
  explicit CallLog(std::unique_ptr<ByteChannel> inner)
      : inner_(std::move(inner)) {}
  void send(const void* data, std::size_t len) override {
    inner_->send(data, len);
    sends.push_back(len);
  }
  void recv(void* data, std::size_t len) override {
    inner_->recv(data, len);
    recvs.push_back(len);
  }
  void set_recv_timeout(std::chrono::milliseconds timeout) override {
    inner_->set_recv_timeout(timeout);
  }
  void close() override { inner_->close(); }

  std::vector<std::size_t> sends;  // touched by one thread at a time here
  std::vector<std::size_t> recvs;

 private:
  std::unique_ptr<ByteChannel> inner_;
};

TEST(WireFrames, OneSendPerMessageAndALoneOpByteOpensEachRead) {
  // The benchmark's TracingChannel stitches traced runs on exactly this:
  // each message is one send(), each is read as a 1-byte recv followed by
  // the 4-byte length and the payload, and no other recv is 1 byte long.
  LiveServer live;
  for (const auto kind : kTransports) {
    auto pair = serve::make_channel_pair(kind);
    live.server->serve(std::move(pair.server));
    CallLog log(std::move(pair.client));
    (void)topk_over(log, 3);
    (void)round_trip(log, wire::kOpBarrier, {});
    (void)round_trip(log, 99, {});  // an error response reads the same way
    ASSERT_EQ(log.sends.size(), 3u);
    ASSERT_EQ(log.recvs.size(), 9u) << serve::to_string(kind);
    for (std::size_t m = 0; m < 3; ++m) {
      EXPECT_EQ(log.recvs[3 * m], 1u);
      EXPECT_EQ(log.recvs[3 * m + 1], sizeof(std::uint32_t));
      EXPECT_GT(log.recvs[3 * m + 2], 1u);
    }
  }
}

}  // namespace
}  // namespace snaple
