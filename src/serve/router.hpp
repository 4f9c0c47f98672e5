// Query routing over shard servers — the serving tier's network layer.
//
// Topology: N ShardServers (one ModelShard each, a thread per inbound
// connection) and one QueryRouter holding a small connection pool to
// every shard. In remote-fetch mode each shard additionally holds a
// client link to every other shard, so a query's non-resident neighbor
// rows are fetched shard→shard (one batched request per owning shard —
// the "explicit remote fetch, counted" of the cost model), never routed
// back through the frontend. A per-shard hot-row cache
// (serve/row_cache.hpp) short-circuits repeat fetches of the same rows:
// the fetch path consults it first and inserts what it fetched, keyed
// by (vertex, row_version) so nothing stale ever serves.
//
// Wire protocol (host byte order — shard links never cross machines of
// different architecture in this simulated tier; scores travel as raw
// f32 bytes, which is what keeps the sharded answers bit-identical).
// Every message, request or response, is one frame (serve/wire.hpp):
//
//   frame    := u8 op-or-status | u32 payload_len | payload
//
// sent with ONE send() and read as the op/status byte alone, the length,
// then the whole payload, which a bounds-checked wire::Reader decodes.
// payload_len is capped at wire::kMaxPayload (64 MiB): a header that
// claims more is a TransportError (the link cannot be trusted past it),
// and a sender refuses to build such a frame (CheckError). Every count
// inside a payload is checked against the bytes left before anything is
// allocated, and a payload must be consumed exactly.
//
//   request payloads, by op:
//     op 1 (topk):       u32 u | u64 k
//     op 2 (fetch_rows): u32 count | count × u32 id   (ids ascending,
//                        every id owned by the receiving shard)
//     op 3 (topk_batch): u64 k | u32 count | count × u32 u  (every u
//                        owned by the receiving shard; ONE wire message
//                        answers the whole sub-batch, and the server
//                        resolves the union of the batch's missing rows
//                        with at most one peer fetch per owning shard)
//     op 4 (update):     u32 count | count × (u32 src | u32 dst) —
//                        update-plane only (serve/update_router.hpp);
//                        static shards answer with an error
//     op 5 (barrier):    empty — update-plane only
//     op 6 (remove):     u32 count | count × (u32 src | u32 dst) —
//                        update-plane only; tombstones the batch
//                        instead of inserting it
//   response status: 0 = ok, 1 = error
//     error payload: u32 len | len bytes of message — the router/fetcher
//       rethrows it as CheckError, so a misrouted or out-of-range query
//       surfaces to the caller exactly like QueryEngine's own check.
//       A malformed request payload or an unknown opcode is answered the
//       same way (counted in ShardStats::errors): the frame was read
//       whole, so the link stays in sync and keeps serving.
//       An op-3 batch fails or succeeds as a whole (the router vets
//       ranges before submitting, so a batch error means a misroute).
//     topk ok:   u32 count | count × u32 id | count × f32 score
//     batch ok:  per query, in request order, the topk ok payload
//     fetch ok:  per requested id, in request order:
//               u64 version (the OWNER's current version of the row —
//                 the fetching shard caches under this key, so skewed
//                 local version views can never pin a stale row)
//             | u32 sims_len | sims_len × u32 id | sims_len × f32 score
//             | u32 hop2_len | hop2_len × u32 id | hop2_len × f32 score
//     update ok: u64 version | u64 gamma_rows | u64 sims_rows
//              | u64 hop2_rows   (this shard's owned stale rows refreshed)
//     barrier ok: u64 version
//
// Overlapped peer fetches: a query (or op-3 batch) whose missing rows
// span several owners locks those peer links in ascending shard order
// (so concurrent fetchers cannot deadlock), sends every owner's op-2
// request, then drains every response — the fetch costs the slowest
// round trip, not the sum. Every sent request is drained even after an
// error response or a bad payload, so no link is left holding an unread
// answer; the first error is rethrown once all are in. A transport
// failure on a peer link closes that link (its stream may be torn).
//
// Pipelining: the router no longer runs lockstep request/response round
// trips. Each pooled connection pairs a submission side (requests are
// enqueued and written under a send mutex — wire order IS queue order)
// with a dedicated drain thread that reads responses in order and
// completes the matching futures. Concurrent callers on one connection
// therefore overlap their round trips instead of serializing on them,
// and topk_async lets a single caller keep many requests in flight.
//
// Shutdown: closing a link's client end makes the serving thread's next
// recv throw TransportError, which IS the clean exit (transport.hpp).
// Router-side, the same close wakes the drain threads, which fail any
// in-flight futures with TransportError and exit. ServingCluster tears
// down router connections first, peer links after, so no thread is ever
// mid-fetch on a dead peer during normal teardown.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "gas/partition.hpp"
#include "serve/live_shard.hpp"
#include "serve/model_shard.hpp"
#include "serve/row_cache.hpp"
#include "serve/transport.hpp"
#include "serve/update_router.hpp"

namespace snaple::serve {

namespace wire {
class Reader;
}  // namespace wire

/// Per-shard serving counters, readable while the cluster serves.
struct ShardStats {
  std::uint64_t queries = 0;        // topk answers produced (incl. errors)
  std::uint64_t batch_requests = 0;  // op-3 messages handled
  std::uint64_t errors = 0;         // error responses sent
  std::uint64_t remote_fetch_requests = 0;  // batched peer fetches issued
  std::uint64_t remote_rows = 0;    // rows pulled over peer links
  std::uint64_t cache_hits = 0;     // fetch-path rows served from cache
  std::uint64_t cache_misses = 0;   // fetch-path cache lookups that missed
  std::uint64_t frontend_bytes_in = 0;   // router→shard request bytes
  std::uint64_t frontend_bytes_out = 0;  // shard→router response bytes
  std::uint64_t peer_bytes_out = 0;  // this shard's outgoing fetch bytes
  std::uint64_t peer_bytes_in = 0;   // fetched row bytes received
  std::uint64_t replica_count = 0;   // co-located rows (0 in fetch mode)
  std::uint64_t replica_bytes = 0;
  // Update plane (all zero on a static shard):
  std::uint64_t update_batches = 0;  // op-4 messages applied
  std::uint64_t update_edges = 0;    // edges inserted by them
  std::uint64_t remove_batches = 0;  // op-6 messages applied
  std::uint64_t remove_edges = 0;    // edges tombstoned by them
  std::uint64_t gamma_republished = 0;  // owned stale rows refreshed
  std::uint64_t sims_republished = 0;
  std::uint64_t hop2_republished = 0;
  std::uint64_t overlay_bytes = 0;   // live-shard bytes beyond the base
};

/// One shard process stand-in: serves the wire protocol over any number
/// of inbound links, each on its own thread, answering topk for owned
/// vertices (resolving missing neighbor rows from its cache or peers
/// first) and fetch_rows for peers. serve()/connect_peer() are
/// setup-time only; the serving threads themselves are concurrency-safe
/// afterwards.
///
/// Backends: a STATIC shard (ModelShard — immutable rows, ops 1/2/3) or
/// a LIVE shard (LiveShard — versioned RCU rows, additionally ops 4/5,
/// the update plane). The wire protocol and every query-path invariant
/// are identical either way; live fetch responses simply carry real
/// (bumping) versions where static ones carry the frozen table's.
class ShardServer {
 public:
  /// Static backend. `ranges` is the full cluster layout (for owner
  /// lookup on fetches). `cache` (may be null) backs the remote-fetch
  /// fast path; lookups are keyed with `row_versions` (null = every row
  /// at version 0).
  ShardServer(ModelShard shard, std::vector<gas::VertexRange> ranges,
              std::shared_ptr<RowCache> cache = nullptr,
              std::shared_ptr<const std::vector<std::uint64_t>>
                  row_versions = nullptr);
  /// Live backend: rows and versions come from `live`, which op-4
  /// batches mutate in place — no freeze, no re-shard.
  ShardServer(std::shared_ptr<LiveShard> live,
              std::vector<gas::VertexRange> ranges,
              std::shared_ptr<RowCache> cache = nullptr);
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Starts a serving thread reading requests off `channel` until EOF.
  /// frontend=false marks a peer-facing link (fetch traffic); its bytes
  /// are excluded from the frontend counters, because the requesting
  /// shard already counts them on its side of the same link.
  void serve(std::unique_ptr<ByteChannel> channel, bool frontend = true);

  /// Registers the client end of a link to peer shard `shard_index`
  /// (required before serving any vertex with missing rows).
  void connect_peer(std::size_t shard_index,
                    std::unique_ptr<ByteChannel> channel);

  /// The static backend (CheckError on a live server) / the live
  /// backend (null on a static server).
  [[nodiscard]] const ModelShard& shard() const;
  [[nodiscard]] const std::shared_ptr<LiveShard>& live() const noexcept {
    return live_;
  }

  /// Closes every link and joins the serving threads. Idempotent; the
  /// destructor calls it.
  void shutdown();

  [[nodiscard]] ShardStats stats() const;

 private:
  struct Connection {
    std::unique_ptr<ByteChannel> channel;
    std::thread thread;
    bool frontend = true;
  };
  struct PeerLink {
    std::unique_ptr<ByteChannel> channel;
    std::mutex mu;  // one fetch in flight per link at a time
  };
  /// The non-resident rows of one (batch of) queries, overlay-shaped
  /// for ModelShard::topk. `pins` keeps every backing HotRow alive for
  /// the fold (cache hits stay valid even if evicted concurrently).
  struct ResolvedRows {
    RowOverlay overlay;
    std::vector<std::shared_ptr<const HotRow>> pins;
    /// Live backend only: the users' sims rows as read when their
    /// missing sets were computed, index-aligned with the users span
    /// passed to collect_rows — the fold must run over exactly these
    /// (a writer may republish a root row mid-query). Empty on static
    /// shards, whose rows cannot move.
    std::vector<PredictorModel::SimsView> roots;
  };

  /// One fetched row with the version its OWNER reported — the cache
  /// key that keeps skewed local views from pinning stale rows.
  struct FetchedRow {
    std::uint64_t version = 0;
    std::shared_ptr<const HotRow> row;
  };

  /// Reads frames off `ch` until EOF, answering each with one frame.
  void serve_loop(ByteChannel& ch);
  /// Decodes one request payload and appends the ok payload to `out`;
  /// throws CheckError (→ an error response) on a malformed payload, an
  /// unknown op or a failed check.
  void handle(std::uint8_t op, wire::Reader& in,
              std::vector<std::uint8_t>& out);
  void handle_topk(wire::Reader& in, std::vector<std::uint8_t>& out);
  void handle_topk_batch(wire::Reader& in, std::vector<std::uint8_t>& out);
  void handle_fetch(wire::Reader& in, std::vector<std::uint8_t>& out);
  void handle_barrier(wire::Reader& in, std::vector<std::uint8_t>& out);
  /// Ops 4 and 6: read the edge list, apply it to the live backend
  /// under update_mu_, reply with the version + owned stale-row refresh
  /// counts.
  void handle_edge_batch(wire::Reader& in, std::vector<std::uint8_t>& out,
                         bool remove);

  // Backend dispatch (static ModelShard vs live LiveShard).
  [[nodiscard]] bool owns(VertexId u) const;
  [[nodiscard]] const gas::VertexRange& range() const;
  [[nodiscard]] VertexId num_vertices() const;
  [[nodiscard]] std::vector<VertexId> missing_rows(
      VertexId u, PredictorModel::SimsView* root = nullptr) const;
  [[nodiscard]] std::vector<std::pair<VertexId, float>> topk(
      VertexId u, std::size_t k, const RowOverlay* overlay,
      const PredictorModel::SimsView* root = nullptr) const;

  /// Resolves the union of the users' missing rows: cache first (keyed
  /// by row version), then one batched peer fetch per owning shard for
  /// the remainder; fetched rows are inserted into the cache on the way
  /// through, under the version the owner reported.
  [[nodiscard]] ResolvedRows collect_rows(std::span<const VertexId> users);
  /// One batched fetch per owning shard of `missing` (sorted), all sent
  /// before any response is read; returns rows parallel to `missing`.
  /// Error responses and peer transport failures surface as CheckError
  /// (the query fails, the frontend link survives).
  [[nodiscard]] std::vector<FetchedRow> fetch_remote(
      const std::vector<VertexId>& missing);
  /// This shard's current view of v's version: the live table (bumping)
  /// or the static table (frozen; null = all zero).
  [[nodiscard]] std::uint64_t row_version(VertexId v) const {
    if (live_ != nullptr) return live_->row_version(v);
    return row_versions_ == nullptr ? 0 : (*row_versions_)[v];
  }

  std::optional<ModelShard> shard_;   // exactly one backend is set
  std::shared_ptr<LiveShard> live_;
  std::vector<gas::VertexRange> ranges_;
  std::shared_ptr<RowCache> cache_;  // null = no fetch-path cache
  std::shared_ptr<const std::vector<std::uint64_t>> row_versions_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::vector<std::unique_ptr<PeerLink>> peers_;  // index = shard, null self
  std::mutex update_mu_;  // serializes op-4/op-5 application
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> batch_requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> remote_fetch_requests_{0};
  std::atomic<std::uint64_t> remote_rows_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> update_batches_{0};
  std::atomic<std::uint64_t> update_edges_{0};
  std::atomic<std::uint64_t> remove_batches_{0};
  std::atomic<std::uint64_t> remove_edges_{0};
  std::atomic<std::uint64_t> gamma_republished_{0};
  std::atomic<std::uint64_t> sims_republished_{0};
  std::atomic<std::uint64_t> hop2_republished_{0};
  std::atomic<bool> down_{false};
};

/// Router-side submission counters.
struct RouterStats {
  std::uint64_t requests = 0;        // wire messages submitted
  std::uint64_t batch_requests = 0;  // op-3 messages among them
  std::uint64_t batched_queries = 0; // queries carried by those batches
  std::uint64_t max_inflight = 0;    // deepest per-connection pipeline seen
};

/// The client side: owns a connection pool per shard, routes topk(u) to
/// u's owner by range lookup and speaks the wire protocol. All
/// submission calls are safe for concurrent callers — each pick a
/// pooled connection round-robin, enqueue under that connection's send
/// mutex and are completed by its drain thread, so requests pipeline
/// instead of serializing on lockstep round trips.
class QueryRouter {
 public:
  using Scored = std::vector<std::pair<VertexId, float>>;

  /// `recv_timeout` > 0 arms a response deadline on every connection: a
  /// shard that stays silent that long WITH requests in flight is
  /// declared dead (its futures fail with TransportError) instead of
  /// wedging the drain thread forever. Idle timeouts are just retried —
  /// silence with nothing in flight is the normal state.
  QueryRouter(std::vector<gas::VertexRange> ranges,
              std::vector<std::vector<std::unique_ptr<ByteChannel>>>
                  connections_per_shard,
              std::chrono::milliseconds recv_timeout =
                  std::chrono::milliseconds{0});
  ~QueryRouter();

  QueryRouter(const QueryRouter&) = delete;
  QueryRouter& operator=(const QueryRouter&) = delete;

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return ranges_.back().end;
  }
  [[nodiscard]] std::size_t num_shards() const noexcept {
    return ranges_.size();
  }
  [[nodiscard]] std::size_t shard_of(VertexId u) const {
    return gas::range_owner(ranges_, u);
  }

  /// Top-k of u served by u's shard — bit-identical to
  /// QueryEngine::topk(u, k) on the unsharded model. k = 0 means the
  /// model's configured k. Shard-side failures (misroute, bad vertex)
  /// arrive as CheckError; a dead link as TransportError.
  [[nodiscard]] Scored topk(VertexId u, std::size_t k = 0);

  /// Pipelined submission: enqueues the request and returns immediately;
  /// the connection's drain thread completes the future (value, or the
  /// same CheckError/TransportError topk would throw). Submitting before
  /// waiting is how one caller overlaps many round trips.
  [[nodiscard]] std::future<Scored> topk_async(VertexId u,
                                               std::size_t k = 0);

  /// topk for a batch of users: ONE wire message per owning shard
  /// (op 3), submitted to every shard before any response is awaited.
  /// out[i] corresponds to users[i]; duplicates are fine. Bit-identical
  /// to per-query topk. Validates every id up front (CheckError, nothing
  /// submitted on a bad id).
  [[nodiscard]] std::vector<Scored> topk_batch(
      std::span<const VertexId> users, std::size_t k = 0);

  /// Closes every pooled connection (signals the shards' serving
  /// threads to exit), fails in-flight futures with TransportError and
  /// joins the drain threads. Idempotent; the destructor calls it.
  void close();

  [[nodiscard]] RouterStats stats() const;
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept;
  [[nodiscard]] std::uint64_t bytes_received() const noexcept;

 private:
  /// One submitted-but-unanswered request: how many topk payloads its
  /// response carries, and the promise the drain thread completes.
  struct Pending {
    std::size_t count = 1;
    std::variant<std::promise<Scored>, std::promise<std::vector<Scored>>>
        result;
  };
  struct Connection {
    std::unique_ptr<ByteChannel> channel;
    std::mutex send_mu;   // serializes enqueue+write (wire order = queue order)
    std::mutex queue_mu;  // guards inflight + dead
    std::deque<Pending> inflight;
    bool dead = false;  // drain thread exited; submissions must throw
    std::thread drain;
  };

  /// Enqueues `pending` on a round-robin connection of `shard` and
  /// writes `req`; on a write failure the connection is declared dead
  /// and every queued future fails.
  void submit(std::size_t shard, const std::vector<std::uint8_t>& req,
              Pending pending);
  void drain_loop(Connection& conn);
  static void fail(Pending& pending, const std::exception_ptr& err);

  std::vector<gas::VertexRange> ranges_;
  std::vector<std::vector<std::unique_ptr<Connection>>> pools_;
  std::unique_ptr<std::atomic<std::size_t>[]> round_robin_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> batch_requests_{0};
  std::atomic<std::uint64_t> batched_queries_{0};
  std::atomic<std::uint64_t> max_inflight_{0};
  std::atomic<bool> closed_{false};
};

/// Cluster assembly options.
struct ServeOptions {
  std::size_t num_shards = 2;
  TransportKind transport = TransportKind::kInProcess;
  /// true: co-locate out-of-range neighbor rows at build time (queries
  /// always shard-local). false: fetch them from the owning shard per
  /// query, over shard↔shard links.
  bool colocate = true;
  /// Router connections pooled per shard (each gets a serving thread).
  std::size_t connections_per_shard = 1;
  /// Hot-row cache budget PER SHARD for the remote-fetch path, in bytes
  /// (0 = no cache; irrelevant in colocate mode, which never fetches).
  /// Each shard gets its own RowCache, dropped with the cluster — a
  /// re-shard starts cold.
  std::size_t cache_bytes = 0;
  /// Install ONE existing cache on every shard instead, and keep it
  /// across cluster generations (the warm-restart pattern: rows
  /// untouched by an update keep hitting, republished rows miss on
  /// their bumped version key). Takes precedence over cache_bytes.
  std::shared_ptr<RowCache> shared_cache;
  /// Per-vertex row versions of the served model (null = all rows at
  /// version 0 — right for any freshly fit or loaded model). For a
  /// model produced by DynamicModel::freeze(), pass its row_version
  /// counters so cache keys distinguish republished rows.
  std::shared_ptr<const std::vector<std::uint64_t>> row_versions;
  /// TCP transport only: the port the cluster's one listener binds on
  /// 127.0.0.1 (0 = kernel-chosen ephemeral). Every cluster link —
  /// router pool, peer mesh, update links — is accepted through it,
  /// exactly the accept loop a real shard deployment would run.
  std::uint16_t tcp_port = 0;
  /// Router-side response deadline in ms (0 = none): see QueryRouter.
  std::uint32_t recv_timeout_ms = 0;
};

/// Everything wired: plans byte-balanced ranges, builds the shards,
/// starts the servers, connects peer links (fetch mode) and a router
/// pool. The process-boundary discipline is real — after construction,
/// every query crosses the chosen byte transport; only fork(2) is
/// simulated away. (The hot-row cache is per shard, matching what a
/// shard process could hold in local memory — shards never read each
/// other's caches.)
class ServingCluster {
 public:
  /// Static cluster: immutable rows, query plane only.
  ServingCluster(const PredictorModel& model, const ServeOptions& options);
  /// LIVE cluster: each shard backs its range with a LiveShard over
  /// (model, graph) — the graph the model was fit on, with
  /// PartitionStrategy::kEdgeLocal — and an UpdateRouter fans insert
  /// batches to every shard over dedicated links. Requires
  /// colocate=false (replicated rows cannot be kept fresh; fetched rows
  /// can, via versions). Queries keep flowing during updates; after
  /// update_router().barrier(), every answer is bit-identical to a
  /// refit on the union graph.
  ServingCluster(std::shared_ptr<const PredictorModel> model,
                 std::shared_ptr<const CsrGraph> graph,
                 const ServeOptions& options);
  ~ServingCluster();

  ServingCluster(const ServingCluster&) = delete;
  ServingCluster& operator=(const ServingCluster&) = delete;

  [[nodiscard]] QueryRouter& router() noexcept { return *router_; }
  /// The write plane (CheckError on a static cluster).
  [[nodiscard]] UpdateRouter& update_router();
  [[nodiscard]] bool live() const noexcept {
    return update_router_ != nullptr;
  }
  [[nodiscard]] const std::vector<gas::VertexRange>& ranges()
      const noexcept {
    return ranges_;
  }
  [[nodiscard]] const ServeOptions& options() const noexcept {
    return options_;
  }
  /// Per-shard counters, index-aligned with ranges().
  [[nodiscard]] std::vector<ShardStats> stats() const;
  /// Aggregate hot-row cache counters (distinct caches summed once;
  /// all-zero when the cluster runs cacheless).
  [[nodiscard]] RowCacheStats cache_stats() const;

 private:
  /// Shared tail of both ctors: peer mesh (fetch mode), router pool,
  /// update links (live mode). Servers must already be constructed.
  void assemble();
  /// One connected link of options_.transport — through the cluster's
  /// single TCP listener when the transport is kTcp.
  [[nodiscard]] ChannelPair make_link();
  void build_caches();

  ServeOptions options_;
  std::vector<gas::VertexRange> ranges_;
  std::unique_ptr<TcpListener> listener_;  // kTcp only
  std::vector<std::shared_ptr<RowCache>> caches_;  // distinct caches only
  std::vector<std::unique_ptr<ShardServer>> servers_;
  std::unique_ptr<QueryRouter> router_;
  std::unique_ptr<UpdateRouter> update_router_;  // live clusters only
};

}  // namespace snaple::serve
