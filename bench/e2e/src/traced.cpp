// The traced run: the same pipeline, taken apart so every layer can be
// timed from outside. The fit runs as its public pieces; the serving
// cluster is assembled from public serve/ parts with a TracingChannel on
// every link; the update plane's stages are replayed directly on
// benchmark-owned objects. Before any number is trusted, the run proves
// the pieces behave exactly like the assembled product.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <span>
#include <thread>

#include "bench.hpp"
#include "core/dynamic_model.hpp"
#include "core/query_engine.hpp"
#include "core/row_recompute.hpp"
#include "core/snaple_program.hpp"
#include "gas/shard.hpp"
#include "graph/io.hpp"
#include "graph/overlay_graph.hpp"
#include "tracing_channel.hpp"
#include "util/stats.hpp"

namespace e2e {

using snaple::serve::ByteChannel;
using snaple::serve::LiveShard;
using snaple::serve::QueryRouter;
using snaple::serve::RowCache;
using snaple::serve::ShardServer;
using snaple::serve::UpdateRouter;

namespace {

constexpr std::size_t kTracedFitReps = 3;
/// The traced run's churn lasts this share of an untraced run's.
constexpr double kTracedChurnShare = 0.5;
constexpr std::size_t kReplayUsers = 2000;
constexpr std::size_t kFloorRoundTrips = 2000;
constexpr std::size_t kTraceMaxRoots = 3000;
constexpr int kPeerLinkBase = 100;
constexpr int kUpdateLinkBase = 200;

/// A per-layer percentile: q when the sample supports it, else the
/// highest percentile that keeps ten samples beyond it (the artifact's
/// counts give the sample sizes); 0 for an empty sample — that layer did
/// no such work in this run.
double pct(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  if (const auto exact = reported_percentile(v, q)) return *exact;
  const double n = static_cast<double>(v.size());
  return snaple::percentile(std::move(v), std::max(0.5, 1.0 - kTailSamples / n));
}

/// Both logged ends of one link.
struct Link {
  std::shared_ptr<LinkLog> client;
  std::shared_ptr<LinkLog> server;
};

struct LinkedPair {
  std::unique_ptr<ByteChannel> server;
  std::unique_ptr<ByteChannel> client;
  Link logs;
};

/// A TCP loopback link with both ends traced; the serving end stamps
/// `id` into the trace context of the thread that reads a request.
LinkedPair traced_link(int id) {
  auto pair = snaple::serve::make_channel_pair(snaple::serve::TransportKind::kTcp);
  LinkedPair out;
  out.logs.client = std::make_shared<LinkLog>();
  out.logs.server = std::make_shared<LinkLog>(id);
  out.client = std::make_unique<TracingChannel>(std::move(pair.client),
                                                out.logs.client);
  out.server = std::make_unique<TracingChannel>(std::move(pair.server),
                                                out.logs.server);
  return out;
}

/// The live cluster assembled from public parts, in the order and shape
/// ServingCluster uses, with every link traced.
class TracedCluster {
 public:
  TracedCluster(const std::shared_ptr<const PredictorModel>& model,
                const std::shared_ptr<const CsrGraph>& graph,
                std::size_t cache_bytes)
      : ranges(snaple::serve::plan_shard_ranges(*model, kShards)) {
    for (std::size_t s = 0; s < kShards; ++s) {
      const Nanos t0 = now_ns();
      live.push_back(std::make_shared<LiveShard>(model, graph, ranges[s]));
      build_s += to_s(now_ns() - t0);
      caches.push_back(std::make_shared<RowCache>(cache_bytes));
      servers.push_back(
          std::make_unique<ShardServer>(live[s], ranges, caches[s]));
    }
    peer_links.resize(kShards);
    for (std::size_t i = 0; i < kShards; ++i) {
      peer_links[i].resize(kShards);
      for (std::size_t j = 0; j < kShards; ++j) {
        if (i == j) continue;
        LinkedPair link = traced_link(kPeerLinkBase + static_cast<int>(i * kShards + j));
        servers[j]->serve(std::move(link.server), /*frontend=*/false);
        servers[i]->connect_peer(j, std::move(link.client));
        peer_links[i][j] = link.logs;
      }
    }
    std::vector<std::vector<std::unique_ptr<ByteChannel>>> pools(kShards);
    for (std::size_t s = 0; s < kShards; ++s) {
      LinkedPair link = traced_link(static_cast<int>(s));
      servers[s]->serve(std::move(link.server));
      pools[s].push_back(std::move(link.client));
      router_links.push_back(link.logs);
    }
    router = std::make_unique<QueryRouter>(
        ranges, std::move(pools), std::chrono::milliseconds(kRecvTimeoutMs));
    std::vector<std::unique_ptr<ByteChannel>> links;
    for (std::size_t s = 0; s < kShards; ++s) {
      LinkedPair link = traced_link(kUpdateLinkBase + static_cast<int>(s));
      servers[s]->serve(std::move(link.server), /*frontend=*/false);
      links.push_back(std::move(link.client));
      update_links.push_back(link.logs);
    }
    plane = std::make_unique<UpdateRouter>(std::move(links));
  }

  ~TracedCluster() {
    plane->close();
    router->close();
    for (auto& server : servers) server->shutdown();
  }

  TracedCluster(const TracedCluster&) = delete;
  TracedCluster& operator=(const TracedCluster&) = delete;

  std::vector<snaple::gas::VertexRange> ranges;
  std::vector<std::shared_ptr<LiveShard>> live;
  std::vector<std::shared_ptr<RowCache>> caches;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<std::vector<Link>> peer_links;  // [client shard][server shard]
  std::vector<Link> router_links;
  std::vector<Link> update_links;
  std::unique_ptr<QueryRouter> router;
  std::unique_ptr<UpdateRouter> plane;
  double build_s = 0.0;

  /// Every traced end of the query plane (router and peer links).
  [[nodiscard]] std::vector<const LinkLog*> query_ends() const {
    std::vector<const LinkLog*> out;
    for (const Link& l : router_links) {
      out.push_back(l.client.get());
      out.push_back(l.server.get());
    }
    for (const auto& row : peer_links) {
      for (const Link& l : row) {
        if (l.client == nullptr) continue;
        out.push_back(l.client.get());
        out.push_back(l.server.get());
      }
    }
    return out;
  }
};

// ---- counters -------------------------------------------------------------

/// The fetch-path counters two assemblies must agree on after the same
/// single-threaded user sequence.
struct FetchCounters {
  std::vector<std::array<std::uint64_t, 4>> per_shard;  // fetches, rows, hits, misses
  std::array<std::uint64_t, 4> cache{};  // hits, misses, insertions, evictions
  friend bool operator==(const FetchCounters&, const FetchCounters&) = default;
};

FetchCounters counters_of(const std::vector<snaple::serve::ShardStats>& shards,
                          const snaple::serve::RowCacheStats& cache) {
  FetchCounters c;
  for (const auto& s : shards) {
    c.per_shard.push_back(
        {s.remote_fetch_requests, s.remote_rows, s.cache_hits, s.cache_misses});
  }
  c.cache = {cache.hits, cache.misses, cache.insertions, cache.evictions};
  return c;
}

snaple::serve::RowCacheStats cache_totals(const TracedCluster& tc) {
  snaple::serve::RowCacheStats total;
  for (const auto& cache : tc.caches) {
    const auto s = cache->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.stale_drops += s.stale_drops;
    total.insertions += s.insertions;
    total.evictions += s.evictions;
    total.entries += s.entries;
    total.bytes += s.bytes;
  }
  return total;
}

std::vector<snaple::serve::ShardStats> shard_stats(const TracedCluster& tc) {
  std::vector<snaple::serve::ShardStats> out;
  for (const auto& server : tc.servers) out.push_back(server->stats());
  return out;
}

/// Calls into the transport and bytes over the query plane, summed.
struct WireCounters {
  std::uint64_t send_calls = 0;
  std::uint64_t recv_calls = 0;
  std::uint64_t bytes = 0;  // every byte once (its sending end)
};

WireCounters wire_counters(const TracedCluster& tc) {
  WireCounters w;
  for (const LinkLog* end : tc.query_ends()) {
    w.send_calls += end->send_calls();
    w.recv_calls += end->recv_calls();
    w.bytes += end->bytes_sent();
  }
  return w;
}

// ---- stitching ------------------------------------------------------------

using Interval = std::pair<Nanos, Nanos>;

void add_span(std::vector<Span>& spans, std::string name, Nanos b, Nanos e,
              std::uint64_t root, const char* parent) {
  spans.push_back({std::move(name), b, std::max(b, e), root, parent});
}

/// Where the i-th message of a link landed, by the id of the request that
/// sent it (client ends record the generator's request id).
std::map<std::uint64_t, std::vector<std::pair<std::size_t, std::size_t>>>
index_by_request(const std::vector<Link>& links) {
  std::map<std::uint64_t, std::vector<std::pair<std::size_t, std::size_t>>> out;
  for (std::size_t l = 0; l < links.size(); ++l) {
    const auto sends = links[l].client->sends();
    for (std::size_t i = 0; i < sends.size(); ++i) {
      if (sends[i].context.request != 0) {
        out[sends[i].context.request].emplace_back(l, i);
      }
    }
  }
  return out;
}

struct LinkRecords {
  std::vector<SendRecord> client_sends;
  std::vector<RecvRecord> server_recvs;
  std::vector<SendRecord> server_sends;
  std::vector<RecvRecord> client_recvs;
  [[nodiscard]] bool complete(std::size_t i) const {
    return i < client_sends.size() && i < server_recvs.size() &&
           i < server_sends.size() && i < client_recvs.size();
  }
};

LinkRecords records_of(const Link& link) {
  return {link.client->sends(), link.server->received(), link.server->sends(),
          link.client->received()};
}

/// Round trip of every peer fetch sent at or after `since`, µs.
std::vector<double> fetch_rtts_us(const TracedCluster& tc, Nanos since) {
  std::vector<double> out;
  for (const auto& row : tc.peer_links) {
    for (const Link& l : row) {
      if (l.client == nullptr) continue;
      const auto sends = l.client->sends();
      const auto recvs = l.client->received();
      for (std::size_t j = 0; j < sends.size() && j < recvs.size(); ++j) {
        if (sends[j].begin >= since) out.push_back(to_us(recvs[j].last - sends[j].begin));
      }
    }
  }
  return out;
}

/// Stitched spans of a phase's requests. Time no layer span covers is
/// unattributed — including the whole of any request that could not be
/// stitched — so the share stays honest if the stitching goes wrong.
struct QueryTrace {
  std::vector<double> handle_us, queue_us, router_self_us, root_us;
  Nanos root_total = 0;
  Nanos unattributed = 0;
};

/// Rebuilds every query request's spans from the generator's records and
/// the link logs; appends them to `spans`.
QueryTrace stitch_queries(const TracedCluster& tc,
                          const std::vector<Request>& requests,
                          std::vector<Span>& spans) {
  QueryTrace out;
  const auto where = index_by_request(tc.router_links);
  std::vector<LinkRecords> router(kShards);
  for (std::size_t s = 0; s < kShards; ++s) router[s] = records_of(tc.router_links[s]);

  // Peer fetches, keyed by the (frontend link, message index) of the
  // request whose handling issued them.
  std::map<std::pair<int, std::uint32_t>, std::vector<Interval>> fetches;
  for (const auto& row : tc.peer_links) {
    for (const Link& l : row) {
      if (l.client == nullptr) continue;
      const auto sends = l.client->sends();
      const auto recvs = l.client->received();
      for (std::size_t j = 0; j < sends.size() && j < recvs.size(); ++j) {
        if (sends[j].context.link < 0) continue;
        fetches[{sends[j].context.link, sends[j].context.index}].emplace_back(
            sends[j].begin, recvs[j].last);
      }
    }
  }

  for (const Request& r : requests) {
    if (!r.ok) continue;
    const auto it = where.find(r.id);
    const bool found = it != where.end() && it->second.size() == 1;
    if (!found || !router[it->second.front().first].complete(it->second.front().second)) {
      out.root_total += r.end - r.due;
      out.unattributed += r.end - r.due;
      continue;
    }
    const auto [s, i] = it->second.front();
    const LinkRecords& link = router[s];
    const SendRecord& req_out = link.client_sends[i];
    const RecvRecord& req_in = link.server_recvs[i];
    const SendRecord& resp_out = link.server_sends[i];
    const RecvRecord& resp_in = link.client_recvs[i];

    add_span(spans, "query", r.due, r.end, r.id, "");
    add_span(spans, "harness.wait", r.due, r.start, r.id, "query");
    add_span(spans, "serve.router.submit", r.start, req_out.begin, r.id, "query");
    add_span(spans, "serve.transport.send", req_out.begin, req_out.end, r.id, "query");
    add_span(spans, "serve.shard.queue", req_out.end, req_in.first, r.id, "query");
    add_span(spans, "serve.shard.handle", req_in.first, resp_out.end, r.id, "query");
    const auto f = fetches.find({static_cast<int>(s), static_cast<std::uint32_t>(i)});
    if (f != fetches.end()) {
      for (const auto& [b, e] : f->second) {
        add_span(spans, "serve.fetch", b, e, r.id, "serve.shard.handle");
      }
    }
    add_span(spans, "serve.transport.recv", resp_out.end, resp_in.last, r.id, "query");
    add_span(spans, "serve.router.complete", resp_in.last, r.end, r.id, "query");

    const std::vector<Interval> children = {
        {r.due, r.start},
        {r.start, req_out.begin},
        {req_out.begin, req_out.end},
        {req_out.end, req_in.first},
        {req_in.first, resp_out.end},
        {resp_out.end, resp_in.last},
        {resp_in.last, r.end}};
    const Nanos root = r.end - r.due;
    out.root_total += root;
    out.unattributed += root - covered(r.due, r.end, children);
    out.root_us.push_back(to_us(root));
    out.handle_us.push_back(to_us(resp_out.end - req_in.first));
    out.queue_us.push_back(to_us(std::max<Nanos>(0, req_in.first - req_out.end)));
    out.router_self_us.push_back(
        to_us(std::max<Nanos>(0, req_out.begin - r.start) +
              std::max<Nanos>(0, r.end - resp_in.last)));
  }
  return out;
}

struct WriteTrace {
  std::vector<double> call_us, wait_us, shard_apply_us, skew;
  Nanos root_total = 0;
  Nanos unattributed = 0;
};

WriteTrace stitch_writes(const TracedCluster& tc, const ChurnSegment& churn,
                         std::vector<Span>& spans) {
  WriteTrace out;
  const auto where = index_by_request(tc.update_links);
  std::vector<LinkRecords> links(kShards);
  for (std::size_t s = 0; s < kShards; ++s) links[s] = records_of(tc.update_links[s]);

  for (const WriteRecord& w : churn.writes) {
    if (!w.ok) continue;
    const auto it = where.find(w.id);
    if (it == where.end() || it->second.size() != kShards) {
      out.root_total += w.end - w.due;
      out.unattributed += w.end - w.due;
      continue;
    }
    add_span(spans, "write", w.due, w.end, w.id, "");
    add_span(spans, "harness.wait", w.due, w.start, w.id, "write");
    std::vector<Interval> children = {{w.due, w.start}};
    Nanos first_send = w.end;
    Nanos last_recv = w.start;
    std::vector<double> per_shard;
    bool complete = true;
    for (const auto& [s, i] : it->second) {
      const LinkRecords& link = links[s];
      if (!link.complete(i)) {
        complete = false;
        break;
      }
      const SendRecord& req_out = link.client_sends[i];
      const RecvRecord& req_in = link.server_recvs[i];
      const SendRecord& resp_out = link.server_sends[i];
      const RecvRecord& resp_in = link.client_recvs[i];
      add_span(spans, "serve.transport.send", req_out.begin, req_out.end, w.id, "write");
      add_span(spans, "serve.plane.queue", req_out.end, req_in.first, w.id, "write");
      add_span(spans, "serve.plane.shard_apply", req_in.first, resp_out.end, w.id, "write");
      add_span(spans, "serve.transport.recv", resp_out.end, resp_in.last, w.id, "write");
      children.emplace_back(req_out.begin, req_out.end);
      children.emplace_back(req_out.end, req_in.first);
      children.emplace_back(req_in.first, resp_out.end);
      children.emplace_back(resp_out.end, resp_in.last);
      first_send = std::min(first_send, req_out.begin);
      last_recv = std::max(last_recv, resp_in.last);
      per_shard.push_back(to_us(resp_out.end - req_in.first));
    }
    if (!complete) {
      out.root_total += w.end - w.due;
      out.unattributed += w.end - w.due;
      continue;
    }
    add_span(spans, "serve.plane.submit", w.start, first_send, w.id, "write");
    add_span(spans, "serve.plane.complete", last_recv, w.end, w.id, "write");
    children.emplace_back(w.start, first_send);
    children.emplace_back(last_recv, w.end);
    const Nanos root = w.end - w.due;
    out.root_total += root;
    out.unattributed += root - covered(w.due, w.end, children);
    out.call_us.push_back(to_us(w.end - w.start));
    out.wait_us.push_back(to_us(w.start - w.due));
    const double mean =
        std::accumulate(per_shard.begin(), per_shard.end(), 0.0) /
        static_cast<double>(per_shard.size());
    out.skew.push_back(mean > 0 ? *std::max_element(per_shard.begin(), per_shard.end()) / mean
                                : 1.0);
    out.shard_apply_us.insert(out.shard_apply_us.end(), per_shard.begin(),
                              per_shard.end());
  }
  return out;
}

// ---- direct layer measurements -------------------------------------------

/// Bare TCP ping-pong of `request` bytes out and `response` bytes back:
/// the floor under any query's round trip on this host.
double tcp_rtt_floor_us(std::size_t request, std::size_t response) {
  auto pair = snaple::serve::make_channel_pair(snaple::serve::TransportKind::kTcp);
  std::thread echo([&] {
    std::vector<char> in(request), out(response, 'x');
    try {
      for (;;) {
        pair.server->recv(in.data(), in.size());
        pair.server->send(out.data(), out.size());
      }
    } catch (const snaple::serve::TransportError&) {
      // The client closed: done.
    }
  });
  std::vector<char> out(request, 'y'), in(response);
  std::vector<double> rtt;
  rtt.reserve(kFloorRoundTrips);
  try {
    for (std::size_t i = 0; i < kFloorRoundTrips; ++i) {
      const Nanos t0 = now_ns();
      pair.client->send(out.data(), out.size());
      pair.client->recv(in.data(), in.size());
      rtt.push_back(to_us(now_ns() - t0));
    }
  } catch (...) {
    pair.client->close();
    echo.join();
    throw;
  }
  pair.client->close();
  echo.join();
  return median(rtt);
}

struct PlaneReplay {
  std::vector<double> validate_us, overlay_us, stale_us, apply_us, dynamic_us;
  std::size_t stale_rows = 0;
};

/// The first `done` ops of `plan` replayed on benchmark-owned objects, one
/// stage at a time; the untimed prefill is applied but not measured.
PlaneReplay replay_plane(const std::shared_ptr<const PredictorModel>& model,
                         const std::shared_ptr<const CsrGraph>& graph,
                         snaple::gas::VertexRange range,
                         const std::vector<Edge>& stream,
                         const std::vector<WriteOp>& plan, std::size_t done) {
  const std::span<const WriteOp> ops(plan.data(), done);
  auto batch_of = [&](const WriteOp& op) {
    return std::span<const Edge>(stream.data() + op.begin, op.len);
  };
  PlaneReplay out;
  snaple::OverlayGraph overlay(graph);
  for (const WriteOp& op : ops) {
    const std::span<const Edge> batch = batch_of(op);
    if (op.due_s < 0) {
      for (const Edge& e : batch) (void)overlay.insert(e.src, e.dst);
      continue;
    }
    const Nanos t0 = now_ns();
    if (op.remove) {
      snaple::rows::validate_remove_batch(overlay, batch);
    } else {
      snaple::rows::validate_insert_batch(overlay, batch);
    }
    const Nanos t1 = now_ns();
    for (const Edge& e : batch) {
      if (op.remove) {
        (void)overlay.remove(e.src, e.dst);
      } else {
        (void)overlay.insert(e.src, e.dst);
      }
    }
    const Nanos t2 = now_ns();
    const auto sets = snaple::rows::compute_stale_sets(
        overlay, batch, model->config().k_hops >= 3);
    const Nanos t3 = now_ns();
    out.validate_us.push_back(to_us(t1 - t0));
    out.overlay_us.push_back(to_us(t2 - t1));
    out.stale_us.push_back(to_us(t3 - t2));
    out.stale_rows += sets.gamma.size() + sets.sims.size() + sets.hop2.size();
  }

  LiveShard shard(model, graph, range);
  for (const WriteOp& op : ops) {
    const Nanos t0 = now_ns();
    (void)(op.remove ? shard.apply_removes(batch_of(op)) : shard.apply(batch_of(op)));
    if (op.due_s >= 0) out.apply_us.push_back(to_us(now_ns() - t0));
  }

  snaple::DynamicModel dynamic(model, graph);
  for (const WriteOp& op : ops) {
    const Nanos t0 = now_ns();
    (void)(op.remove ? dynamic.remove_edges(batch_of(op))
                     : dynamic.add_edges(batch_of(op)));
    if (op.due_s >= 0) out.dynamic_us.push_back(to_us(now_ns() - t0));
  }
  return out;
}

/// The shard fold alone: LiveShard::topk over rows resolved beforehand
/// from their owners, for each user of `requests`.
void shard_fold(const TracedCluster& tc, const std::vector<Request>& requests,
                Metrics& m) {
  std::vector<double> fold_us;
  double missing_total = 0.0;
  for (const Request& r : requests) {
    const VertexId u = r.user;
    const std::size_t s = snaple::gas::range_owner(tc.ranges, u);
    PredictorModel::SimsView root;
    snaple::serve::RowOverlay overlay;
    overlay.ids = tc.live[s]->missing_rows(u, &root);
    std::vector<std::shared_ptr<const snaple::serve::HotRow>> pins;
    for (const VertexId v : overlay.ids) {
      const std::size_t owner = snaple::gas::range_owner(tc.ranges, v);
      pins.push_back(tc.live[owner]->snapshot_row(v).row);
      overlay.rows.push_back(pins.back().get());
    }
    missing_total += static_cast<double>(overlay.ids.size());
    const Nanos t0 = now_ns();
    (void)tc.live[s]->topk(u, 0, &overlay, &root);
    fold_us.push_back(to_us(now_ns() - t0));
  }
  m["serve.shard.fold_us_p50"] = pct(fold_us, 0.5);
  m["serve.shard.missing_rows_per_query"] =
      missing_total / static_cast<double>(std::max<std::size_t>(1, requests.size()));
}

void engine_fold(const std::shared_ptr<const PredictorModel>& model,
                 const std::vector<Request>& requests, Metrics& m) {
  const snaple::QueryEngine engine(model);
  std::vector<double> fold_us;
  for (const Request& r : requests) {
    const Nanos t0 = now_ns();
    (void)engine.topk(r.user);
    fold_us.push_back(to_us(now_ns() - t0));
  }
  m["core.fold_us_p50"] = pct(fold_us, 0.5);
  m["core.fold_us_p99"] = pct(fold_us, 0.99);
}

// ---- the fit, from its public pieces -------------------------------------

void traced_fit(const Inputs& in, RunReport& rep, std::vector<Span>& spans) {
  Metrics& m = rep.metrics;
  const snaple::SnapleConfig cfg = fit_config();
  const auto cluster = snaple::gas::ClusterConfig::type_i(kMachines);

  // The reference is the product's own fit + save of the same file, timed
  // like fit_s; each timed repetition of it is followed by one of the
  // pieces, so host drift hits both alike. Repetition 0 is an untimed
  // warm-up of the product fit.
  std::vector<double> product_s;
  std::map<std::string, std::vector<double>> t;  // layer → seconds per rep
  std::vector<double> pieces_s;
  std::unique_ptr<PredictorModel> last;
  bool digests_equal = true;
  double edges = 0.0;
  for (std::size_t rep_i = 0; rep_i <= kTracedFitReps; ++rep_i) {
    {
      const CsrGraph graph = snaple::load_edge_list_text_file(in.edge_file);
      const Nanos t0 = now_ns();
      make_predictor().fit(graph).save_file(in.model_file);
      if (rep_i == 0) {
        rep.digests["model"] = file_digest(in.model_file);
        continue;
      }
      product_s.push_back(to_s(now_ns() - t0));
    }
    const Nanos l0 = now_ns();
    const CsrGraph graph = snaple::load_edge_list_text_file(in.edge_file);
    const Nanos p0 = now_ns();
    const auto part = snaple::gas::Partitioning::create(
        graph, kMachines, snaple::gas::PartitionStrategy::kEdgeLocal, cfg.seed);
    const Nanos p1 = now_ns();
    auto topo = std::make_shared<const snaple::gas::ShardTopology>(
        snaple::gas::ShardTopology::build(graph, part));
    const Nanos p2 = now_ns();
    snaple::SnapleFitData fit = snaple::run_snaple_fit(
        graph, cfg, part, cluster, nullptr, snaple::gas::ApplyMode::kFused,
        snaple::gas::ExecutionMode::kSharded, topo);
    const Nanos p3 = now_ns();
    const snaple::gas::EngineReport report = fit.report;
    auto model = std::make_unique<PredictorModel>(
        PredictorModel::build(cfg, graph, part, std::move(fit)));
    const Nanos p4 = now_ns();
    model->save_file(in.model_file);
    const Nanos p5 = now_ns();
    digests_equal = digests_equal && file_digest(in.model_file) == rep.digests["model"];
    edges = static_cast<double>(graph.num_edges());

    const std::uint64_t root = rep_i;
    add_span(spans, "graph.load", l0, p0, 0, "");
    add_span(spans, "fit", p0, p5, root, "");
    add_span(spans, "gas.partition", p0, p1, root, "fit");
    add_span(spans, "gas.topology", p1, p2, root, "fit");
    add_span(spans, "gas.run_snaple_fit", p2, p3, root, "fit");
    // The report gives each step's wall time, not its start: lay the
    // steps end to end from the call's start for the trace.
    Nanos at = p2;
    std::vector<Interval> steps;
    snaple::gas::ExchangeBreakdown exchange;
    std::size_t net = 0, messages = 0, gathers = 0, contributions = 0;
    for (const auto& step : report.steps) {
      const auto d = static_cast<Nanos>(step.wall_s * 1e9);
      add_span(spans, "gas.step." + step.name, at, at + d, root, "gas.run_snaple_fit");
      steps.emplace_back(at, at + d);
      at += d;
      exchange.gather_build_s += step.exchange.gather_build_s;
      exchange.merge_apply_s += step.exchange.merge_apply_s;
      exchange.sync_drain_s += step.exchange.sync_drain_s;
      net += step.net_bytes;
      messages += step.messages;
      gathers += step.gather_calls;
      contributions += step.contributions;
    }
    add_span(spans, "core.model_build", p3, p4, root, "fit");
    add_span(spans, "core.model_save", p4, p5, root, "fit");
    pieces_s.push_back(to_s(covered(p0, p5, {{p0, p1}, {p1, p2}, {p2, p3}, {p3, p4}, {p4, p5}})));

    t["graph.load_s"].push_back(to_s(p0 - l0));
    t["gas.partition_s"].push_back(to_s(p1 - p0));
    t["gas.topology_s"].push_back(to_s(p2 - p1));
    t["gas.step1_s"].push_back(report.steps.size() > 0 ? report.steps[0].wall_s : 0.0);
    t["gas.step2_s"].push_back(report.steps.size() > 1 ? report.steps[1].wall_s : 0.0);
    t["gas.engine_other_s"].push_back(to_s(self_time({"", p2, p3, root, ""}, steps)));
    t["gas.gather_build_s"].push_back(exchange.gather_build_s);
    t["gas.merge_apply_s"].push_back(exchange.merge_apply_s);
    t["gas.sync_drain_s"].push_back(exchange.sync_drain_s);
    t["core.model_build_s"].push_back(to_s(p4 - p3));
    t["core.model_save_s"].push_back(to_s(p5 - p4));
    m["gas.net_mb"] = static_cast<double>(net) / 1e6;
    m["gas.messages"] = static_cast<double>(messages);
    m["gas.gather_calls"] = static_cast<double>(gathers);
    m["gas.useful_gather_ratio"] =
        gathers == 0 ? 0.0 : static_cast<double>(contributions) / static_cast<double>(gathers);
    last = std::move(model);
  }
  for (auto& [name, values] : t) m[name] = median(values);
  m["graph.load_medges_per_s"] = edges / 1e6 / m["graph.load_s"];
  // What the product's fit spends beyond the sum of its traced pieces.
  const double product = median(product_s);
  m["harness.unattributed_fit_pct"] = 100.0 * (product - median(pieces_s)) / product;
  rep.gates["trace.fit_pieces_equal_fit"] = digests_equal;
  rep.gates["fit.reload_equals_fit"] =
      PredictorModel::load_file(in.model_file) == *last;
}

}  // namespace

RunReport run_traced(const RunOptions& o) {
  const WorkloadSpec& spec = *o.spec;
  const PhaseBudget budget = phase_budget(o.seconds);
  RunReport rep;
  Metrics& m = rep.metrics;
  std::vector<Span> spans;
  Inputs in = make_inputs(spec, o.seed, o.workdir);

  traced_fit(in, rep, spans);

  // Set-up: the saved model and graph, then the traced assembly and the
  // product's own cluster side by side.
  std::vector<double> load_s;
  std::shared_ptr<const PredictorModel> model;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    const Nanos t0 = now_ns();
    model = std::make_shared<const PredictorModel>(
        PredictorModel::load_file(in.model_file));
    load_s.push_back(to_s(now_ns() - t0));
  }
  m["core.model_load_s"] = median(load_s);
  const auto graph = std::make_shared<const CsrGraph>(
      snaple::load_edge_list_text_file(in.edge_file));
  TracedCluster tc(model, graph, spec.cache_bytes);
  m["serve.shard.build_s"] = tc.build_s;
  auto reference = std::make_unique<snaple::serve::ServingCluster>(
      model, graph, serve_options(spec));

  // The assembly must BE the product: same ranges, the same fetch and
  // cache counters on one single-threaded user sequence from cold, and
  // bit-identical answers.
  rep.gates["trace.ranges_equal"] = tc.ranges == reference->ranges();
  {
    std::vector<VertexId> replay;
    std::uint64_t state = o.seed ^ 0x4e9a11ULL;
    for (std::size_t i = 0; i < kReplayUsers; ++i) replay.push_back(in.users->draw(state));
    const Answers a = router_answers(*tc.router, replay);
    const Answers b = router_answers(reference->router(), replay);
    rep.gates["trace.replay_counters_equal"] =
        counters_of(shard_stats(tc), cache_totals(tc)) ==
        counters_of(reference->stats(), reference->cache_stats());
    rep.gates["trace.answers_equal"] = a == b;
  }
  const Answers served = router_answers(*tc.router, in.sample);
  rep.gates["serve.equals_engine"] =
      served == engine_answers(*model, in.sample) &&
      served == router_answers(reference->router(), in.sample);
  rep.digests["answers"] = answers_digest(served);

  // The churn window goes in before any traffic, as on the untraced
  // run's churn clusters, so no query pays for the prefill's version bumps.
  const std::vector<WriteOp> plan =
      plan_churn(in.stream.size(), kTracedChurnShare * budget.churn_s);
  ChurnStream churn(*tc.plane, in.stream, plan);
  churn.prefill();
  warm_up(reference->router(), *in.users, budget.warm_s / 2, o.seed);
  warm_up(*tc.router, *in.users, budget.warm_s / 2, o.seed + 1);

  // ---- traced queries, interleaved with untraced ones on the reference ----
  const auto cache0 = cache_totals(tc);
  const auto shards0 = shard_stats(tc);
  const WireCounters wire0 = wire_counters(tc);
  const Nanos traffic_start = now_ns();
  OpenLoopResult q;
  OpenLoopResult untraced;
  const std::size_t slots = kRounds * kPairs;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    untraced.append(query_phase(reference->router(), *in.users,
                                budget.query_s / (2 * slots),
                                o.seed * 131 + 2 * slot, id_base(2 * slot)));
    q.append(query_phase(*tc.router, *in.users, budget.query_s / slots,
                         o.seed * 131 + 2 * slot + 1, id_base(2 * slot + 1)));
  }
  reference.reset();
  const auto cache1 = cache_totals(tc);
  const auto shards1 = shard_stats(tc);
  const WireCounters wire1 = wire_counters(tc);
  rep.attempted += q.attempted + q.unsent + untraced.attempted + untraced.unsent;
  rep.failed += q.failed + q.unsent + untraced.failed + untraced.unsent;

  const QueryTrace qt = stitch_queries(tc, q.requests, spans);
  const auto queries = static_cast<double>(std::max<std::size_t>(1, qt.root_us.size()));
  m["serve.shard.handle_us_p50"] = pct(qt.handle_us, 0.5);
  m["serve.shard.handle_us_p99"] = pct(qt.handle_us, 0.99);
  m["serve.shard.queue_us_p50"] = pct(qt.queue_us, 0.5);
  m["serve.shard.queue_us_p99"] = pct(qt.queue_us, 0.99);
  m["serve.router.self_us_p50"] = pct(qt.router_self_us, 0.5);
  m["serve.router.self_us_p99"] = pct(qt.router_self_us, 0.99);
  m["serve.router.max_inflight"] = static_cast<double>(tc.router->stats().max_inflight);
  const double lookups = static_cast<double>((cache1.hits - cache0.hits) +
                                             (cache1.misses - cache0.misses));
  m["serve.cache.hit_ratio"] =
      lookups > 0 ? static_cast<double>(cache1.hits - cache0.hits) / lookups : 0.0;
  m["serve.cache.lookups"] = lookups;
  m["serve.cache.evictions_per_query"] =
      static_cast<double>(cache1.evictions - cache0.evictions) / queries;
  std::uint64_t fetches = 0, rows = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    fetches += shards1[s].remote_fetch_requests - shards0[s].remote_fetch_requests;
    rows += shards1[s].remote_rows - shards0[s].remote_rows;
  }
  m["serve.fetch.requests_per_query"] = static_cast<double>(fetches) / queries;
  m["serve.fetch.rows_per_query"] = static_cast<double>(rows) / queries;
  m["serve.transport.bytes_per_query"] = static_cast<double>(wire1.bytes - wire0.bytes) / queries;
  m["serve.transport.send_calls_per_query"] =
      static_cast<double>(wire1.send_calls - wire0.send_calls) / queries;
  m["serve.transport.recv_calls_per_query"] =
      static_cast<double>(wire1.recv_calls - wire0.recv_calls) / queries;
  m["harness.samples"] = static_cast<double>(qt.root_us.size());
  m["harness.gen_lateness_p99_us"] = pct(q.lateness_us(), 0.99);
  m["harness.traced_query_p50_us"] = pct(qt.root_us, 0.5);
  const double untraced_p50 = pct(untraced.latency_us(), 0.5);
  m["harness.trace_overhead_pct"] =
      100.0 * (m["harness.traced_query_p50_us"] - untraced_p50) / untraced_p50;
  m["harness.unattributed_pct"] =
      qt.root_total > 0 ? 100.0 * to_s(qt.unattributed) / to_s(qt.root_total) : 0.0;

  // The transport floor, sized like the median query message each way.
  {
    std::vector<double> req_bytes, resp_bytes;
    for (const Link& l : tc.router_links) {
      for (const auto& s : l.client->sends()) req_bytes.push_back(static_cast<double>(s.bytes));
      for (const auto& s : l.server->sends()) resp_bytes.push_back(static_cast<double>(s.bytes));
    }
    m["serve.transport.rtt_floor_us"] =
        tcp_rtt_floor_us(static_cast<std::size_t>(median(req_bytes)),
                         static_cast<std::size_t>(median(resp_bytes)));
  }
  // The folds alone, replaying the traced phase's users (capped).
  {
    std::vector<Request> users(q.requests.begin(),
                               q.requests.begin() + static_cast<long>(std::min<std::size_t>(
                                                        q.requests.size(), 20000)));
    engine_fold(model, users, m);
    shard_fold(tc, users, m);
  }

  // ---- traced churn ----
  std::uint64_t overlay0 = 0;
  for (const auto& s : shard_stats(tc)) overlay0 += s.overlay_bytes;
  const auto plane0 = tc.plane->stats();
  const ChurnSegment seg =
      churn.run(*tc.router, *in.users, kTracedChurnShare * budget.churn_s,
                o.seed * 131 + 2 * slots, id_base(2 * slots));
  const auto cache2 = cache_totals(tc);
  const auto plane1 = tc.plane->stats();
  std::uint64_t overlay1 = 0;
  for (const auto& s : shard_stats(tc)) overlay1 += s.overlay_bytes;
  rep.attempted += seg.reads.attempted + seg.reads.unsent + seg.writes.size();
  rep.failed += seg.reads.failed + seg.reads.unsent + churn.failures();

  const WriteTrace wt = stitch_writes(tc, seg, spans);
  rep.counts["trace.write_samples"] = static_cast<double>(wt.call_us.size());
  // Fetch round trips over both traffic phases: with a warm cache the
  // query phase alone may fetch nothing, while churn's version bumps do.
  {
    const std::vector<double> rtt = fetch_rtts_us(tc, traffic_start);
    rep.counts["trace.fetch_samples"] = static_cast<double>(rtt.size());
    m["serve.fetch.rtt_us_p50"] = pct(rtt, 0.5);
    m["serve.fetch.rtt_us_p99"] = pct(rtt, 0.99);
  }
  const double ops = static_cast<double>(std::max<std::size_t>(1, seg.writes.size()));
  m["serve.plane.apply_us_p50"] = pct(wt.call_us, 0.5);
  m["serve.plane.apply_us_p99"] = pct(wt.call_us, 0.99);
  m["serve.plane.wait_us_p99"] = pct(wt.wait_us, 0.99);
  m["serve.plane.shard_apply_us_p50"] = pct(wt.shard_apply_us, 0.5);
  m["serve.plane.shard_skew"] = pct(wt.skew, 0.5);
  m["serve.plane.rows_per_op"] =
      static_cast<double>((plane1.gamma_rows + plane1.sims_rows + plane1.hop2_rows) -
                          (plane0.gamma_rows + plane0.sims_rows + plane0.hop2_rows)) / ops;
  m["serve.plane.bytes_per_op"] =
      static_cast<double>((plane1.bytes_sent + plane1.bytes_received) -
                          (plane0.bytes_sent + plane0.bytes_received)) / ops;
  m["serve.plane.overlay_mb_per_kop"] =
      (static_cast<double>(overlay1) - static_cast<double>(overlay0)) / 1e6 / (ops / 1000.0);
  m["serve.cache.stale_drops_per_kop"] =
      static_cast<double>(cache2.stale_drops - cache1.stale_drops) / (ops / 1000.0);
  m["serve.cache.mb_used"] = static_cast<double>(cache2.bytes) / 1e6;
  m["harness.unattributed_staleness_pct"] =
      wt.root_total > 0 ? 100.0 * to_s(wt.unattributed) / to_s(wt.root_total) : 0.0;
  {
    const PredictorModel oracle =
        refit(window_graph(*in.base, in.stream, plan, churn.done()));
    rep.gates["churn.equals_refit"] =
        churn.failures() == 0 && tc.plane->barrier() > 0 &&
        router_answers(*tc.router, in.sample) == engine_answers(oracle, in.sample);
  }

  // ---- the plane's stages, replayed on benchmark-owned objects ----
  {
    const PlaneReplay pr = replay_plane(model, graph, tc.ranges.front(),
                                        in.stream, plan, churn.done());
    rep.counts["trace.replayed_ops"] = static_cast<double>(pr.apply_us.size());
    m["serve.plane.validate_us"] = median(pr.validate_us);
    m["serve.plane.overlay_us"] = median(pr.overlay_us);
    m["serve.plane.stale_sets_us"] = median(pr.stale_us);
    std::vector<double> rest;
    for (std::size_t i = 0; i < pr.apply_us.size(); ++i) {
      rest.push_back(pr.apply_us[i] - pr.validate_us[i] - pr.overlay_us[i] -
                     pr.stale_us[i]);
    }
    m["serve.plane.recompute_publish_us"] = median(rest);
    m["core.dynamic_op_us_p50"] = pct(pr.dynamic_us, 0.5);
    m["core.dynamic_op_us_p99"] = pct(pr.dynamic_us, 0.99);
  }

  if (!write_chrome_trace(o.trace_path, spans, kTraceMaxRoots)) {
    std::fprintf(stderr, "cannot write trace %s\n", o.trace_path.c_str());
    rep.gates["trace.written"] = false;
  }
  rep.counts["trace.spans"] = static_cast<double>(spans.size());
  return rep;
}

}  // namespace e2e
