// snaple_cli — batch link prediction AND model serving from the command
// line.
//
//   $ ./snaple_cli <edge-list-file | replica-name> [options]   batch run
//   $ ./snaple_cli graph.txt --fit --save-model=m.bin          fit offline
//   $ ./snaple_cli --load-model=m.bin --query=3,17,42          serve
//   $ ./snaple_cli graph.txt --update=new.txt --query=3        live updates
//
// Graph / config options:
//   --symmetrize        treat the input edge list as undirected
//   --score=<name>      Table-3 scoring method        [linearSum]
//   --k=<n>             predictions per vertex/query  [5]
//   --klocal=<n|inf>    sampling parameter            [20]
//   --thr=<n|inf>       truncation threshold          [200]
//   --khops=<2|3>       path length                   [2]
//   --hop2min=<f>       K=3 2-hop pruning threshold   [0 = off]
//   --machines=<n>      simulated cluster size        [1]
//   --partition=<s>     vertex-cut strategy: hash|greedy|local  [greedy;
//                       local = insertion-stable endpoint-hash placement,
//                       required by --update on >1 machine and forced as
//                       its default]
//   --flat              accounted-only engine (default: --machines>1
//                       runs truly sharded — per-machine graph shards,
//                       replica-local vertex data, explicit message
//                       exchange — and prints per-shard stats)
//   --type2             use type-II machines (else type-I / single)
//   --eval              hide one edge per vertex first and report recall
//                       (batch mode only)
//   --seed=<n>          RNG seed                      [1]
//   --out=<file>        write predictions             [stdout]
//   --threads=<n>       loader thread count           [hardware]
//   --convert=<file>    write input as binary v2 and exit
//   --save-bin=<file>   also write loaded graph as binary v2
//   --compress          hold the graph delta-compressed
//                       (graph/compressed_csr.hpp): batch runs decode
//                       rows on the fly instead of inflating the flat
//                       CSR (bit-identical predictions and accounting),
//                       and --convert/--save-bin write binary v3 —
//                       compressed rows on disk that later --compress
//                       runs load without ever inflating. Batch flow
//                       only (--eval and the serving flows need the
//                       flat graph).
//
// Serving options (any of these switches to the fit/serve flow):
//   --fit               fit the model (steps 1–2) and stop — no batch
//                       predictions; combine with --save-model
//   --save-model=<file> serialize the fitted model (SNAPLEM1 format)
//   --load-model=<file> serve from a saved model instead of fitting;
//                       the graph argument is not needed
//   --query=u1,u2,...   answer top-k for the listed vertices, printed as
//                       "u: z1(score) z2(score) ..."
//   --update=<file>     incremental updates: fit the graph, then stream
//                       the file's edge operations into the served model
//                       (core/dynamic_model.hpp) — "u v" lines insert,
//                       "-u v" lines remove — recomputing only the stale
//                       rows, bit-identical to refitting on the live
//                       (union-minus-tombstones) graph. Already-present
//                       inserts, removals of absent edges, self-loops,
//                       out-of-range ids and malformed lines are skipped
//                       with counts. Combine with --query (served
//                       post-update) and --save-model (writes the
//                       updated model). With --serve-shards the stream
//                       instead flows through the sharded tier's LIVE
//                       update plane (serve/update_router.hpp): no
//                       freeze, no re-shard — every batch fans out to
//                       the shards, each recomputes its share of the
//                       stale rows, and queries stay bit-identical to a
//                       live-graph refit (stale-row / wire-byte /
//                       version stats go to stderr; --save-model does
//                       not combine — the rows live on the shards).
//   --window=<n>        sliding window over the --update stream: only
//                       the last n streamed inserts stay live — each
//                       applied insert that pushes the window past n
//                       expires the oldest in-window edge as a removal
//                       (explicit "-u v" removals also drop an edge out
//                       of the window). The stream order IS the
//                       timestamp order, as in a replayed social log.
//   --serve-shards=<n>  answer --query through a sharded serving tier
//                       (serve/router.hpp): the model is partitioned
//                       into n byte-balanced vertex ranges, each served
//                       by its own shard behind a byte transport, and
//                       every query is routed to its owner. Answers are
//                       bit-identical to the single-process engine.
//   --serve-transport=mem|uds|tcp[:port]
//                       shard transport: in-process byte queues (mem,
//                       default), Unix-domain sockets (uds), or real TCP
//                       loopback connections (tcp; one cluster listener
//                       on 127.0.0.1, kernel-chosen ephemeral port
//                       unless :port is given)
//   --serve-cache-mb=N  with --serve-shards: serve in remote-fetch
//                       locality mode (neighbor rows fetched shard→shard
//                       instead of replicated at build time) with an
//                       N-MB versioned hot-row cache per shard on the
//                       fetch path; stats go to stderr
//   --serve-batch=N     answer --query in batches of N: the router
//                       submits ONE pipelined wire message per owning
//                       shard per batch (also accepted by in-process
//                       serving, where it maps to QueryEngine's batch
//                       entry point)
//
// Input files may be SNAP-style text edge lists (loaded with the
// parallel mmap loader) or snaple binary graphs (v1, v2 or compressed
// v3, autodetected by magic) — convert a big text file once with
// --convert and every later run loads the CSR arrays directly.
//
// Examples:
//   ./snaple_cli livejournal --eval --klocal=40
//   ./snaple_cli soc-pokec.txt --score=counter --machines=8 --type2
//   ./snaple_cli twitter_rv.net --convert=twitter.bin --compress
//   ./snaple_cli twitter.bin --fit --save-model=twitter-model.bin
//   ./snaple_cli --load-model=twitter-model.bin --query=1,7,900 --k=10
#include <algorithm>
#include <deque>
#include <fstream>
#include <span>
#include <unordered_map>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/dynamic_model.hpp"
#include "core/predictor.hpp"
#include "eval/experiment.hpp"
#include "eval/metrics.hpp"
#include "gas/shard.hpp"
#include "graph/compressed_csr.hpp"
#include "graph/gen/datasets.hpp"
#include "graph/io.hpp"
#include "serve/router.hpp"
#include "util/check.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

std::size_t parse_limit(const std::string& value) {
  if (value == "inf") return snaple::kUnlimited;
  return std::strtoull(value.c_str(), nullptr, 10);
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

/// True if the file starts with a snaple binary-graph magic ("SNAPLEG?").
bool is_binary_graph(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[7] = {};
  in.read(magic, sizeof(magic));
  return in && std::string(magic, sizeof(magic)) == "SNAPLEG";
}

/// Parses "--query=1,5,42" into vertex ids.
std::vector<snaple::VertexId> parse_query_list(const std::string& list) {
  std::vector<snaple::VertexId> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string item =
        list.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!item.empty()) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(item.c_str(), &end, 10);
      if (end == item.c_str() || *end != '\0' || v > 0xfffffffeULL) {
        throw snaple::CheckError("bad --query vertex id '" + item + "'");
      }
      out.push_back(static_cast<snaple::VertexId>(v));
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

void print_scored(std::ostream& out, snaple::VertexId u,
                  const std::vector<std::pair<snaple::VertexId, float>>&
                      predictions) {
  out << u << ':';
  for (const auto& [z, score] : predictions) {
    out << ' ' << z << '(' << score << ')';
  }
  out << '\n';
}

/// Serves --query=... against anything with num_vertices(), topk(u, k)
/// and topk_batch(users, k) — the in-process QueryEngine or a sharded
/// QueryRouter: validates every id up front (no partial output on a bad
/// request), then prints "u: z(score) ..." lines. k = 0 means the
/// model's configured k; batch > 1 submits chunks of that many queries
/// through the batch entry point. Returns a process exit code.
template <typename Server>
int serve_queries(Server& server, const std::string& query_list,
                  std::size_t k, std::size_t batch, std::ostream& out) {
  try {
    const auto users = parse_query_list(query_list);
    for (const snaple::VertexId u : users) {
      if (u >= server.num_vertices()) {
        std::cerr << "--query vertex " << u << " out of range (model has "
                  << server.num_vertices() << " vertices)\n";
        return 1;
      }
    }
    if (batch > 1) {
      for (std::size_t i = 0; i < users.size(); i += batch) {
        const std::span<const snaple::VertexId> chunk(
            users.data() + i, std::min(batch, users.size() - i));
        const auto results = server.topk_batch(chunk, k);
        for (std::size_t j = 0; j < chunk.size(); ++j) {
          print_scored(out, chunk[j], results[j]);
        }
      }
    } else {
      for (const snaple::VertexId u : users) {
        print_scored(out, u, server.topk(u, k));
      }
    }
  } catch (const snaple::CheckError& e) {
    std::cerr << "query failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

/// --serve-shards: stands up a ServingCluster over the finished model
/// and answers --query through the router, so every answer crosses the
/// chosen byte transport. cache_mb > 0 switches the cluster to
/// remote-fetch locality with a hot-row cache per shard.
int serve_sharded(const snaple::PredictorModel& model, std::size_t shards,
                  snaple::serve::TransportKind transport,
                  std::uint16_t tcp_port, std::size_t cache_mb,
                  std::size_t batch, const std::string& query_list,
                  std::size_t k, std::ostream& out) {
  using namespace snaple::serve;
  ServeOptions options;
  options.num_shards = shards;
  options.transport = transport;
  options.tcp_port = tcp_port;
  if (cache_mb > 0) {
    options.colocate = false;  // the cache lives on the fetch path
    options.cache_bytes = cache_mb << 20;
  }
  ServingCluster cluster(model, options);
  std::cerr << "serving over " << shards << " shards ("
            << to_string(transport) << " transport, "
            << (cache_mb > 0 ? "remote-fetch + " + std::to_string(cache_mb) +
                                   " MB hot-row cache/shard"
                             : "colocated rows");
  if (batch > 1) std::cerr << ", batch=" << batch;
  std::cerr << ")\n";
  const int rc = serve_queries(cluster.router(), query_list, k, batch, out);
  std::uint64_t queries = 0, fetches = 0;
  for (const auto& s : cluster.stats()) {
    queries += s.queries;
    fetches += s.remote_fetch_requests;
  }
  const auto rs = cluster.router().stats();
  std::cerr << "shards answered " << queries << " queries ("
            << rs.requests << " wire messages, max " << rs.max_inflight
            << " in flight), " << cluster.router().bytes_sent()
            << " B out, " << cluster.router().bytes_received() << " B in\n";
  if (cache_mb > 0) {
    const RowCacheStats cs = cluster.cache_stats();
    const std::uint64_t lookups = cs.hits + cs.misses;
    std::cerr << "hot-row cache: " << cs.hits << " hits / " << lookups
              << " lookups";
    if (lookups > 0) {
      std::cerr << " (" << snaple::Table::fmt(
                              100.0 * static_cast<double>(cs.hits) /
                                  static_cast<double>(lookups), 1)
                << "%)";
    }
    std::cerr << ", " << cs.evictions << " evictions, " << cs.stale_drops
              << " stale drops, " << fetches << " peer fetches\n";
  }
  return rc;
}

/// Streams edge operations from a SNAP-style text file into a live
/// model in batches: "u v" lines insert, "-u v" lines remove. Lines
/// that cannot be applied — already-present inserts (live streams
/// repeat), removals of absent edges, self-loops, out-of-range ids,
/// malformed text — are counted and skipped rather than aborting the
/// stream.
struct UpdateReport {
  std::size_t applied = 0;   // inserts applied
  std::size_t removed = 0;   // explicit "-u v" removals applied
  std::size_t expired = 0;   // window expirations (applied as removals)
  std::size_t skipped = 0;   // self-loop/out-of-range/malformed/duplicate
  std::size_t unknown_removes = 0;  // removals of edges not in the graph
  std::size_t rows_recomputed = 0;
  double wall_s = 0.0;
};

/// The shared stream driver behind both --update flows (in-process
/// DynamicModel and the sharded live plane). Pre-screens every line
/// against the session's eager edge bookkeeping — `added` holds live
/// session inserts, `tombed` removed base edges, so presence is decided
/// without waiting for a batch to flush — and submits homogeneous
/// batches (a kind flip insert↔remove flushes the pending batch, so
/// stream order is preserved). With window > 0, each applied insert
/// enters a FIFO of the last `window` live stream inserts; pushing past
/// the cap expires the oldest as a removal. `apply(batch, remove)`
/// applies one validated batch and returns the stale rows it
/// refreshed (0 where the callee reports its own stats).
template <typename ApplyFn>
UpdateReport stream_edge_ops(std::istream& in, const snaple::CsrGraph& base,
                             std::size_t window, ApplyFn&& apply) {
  using namespace snaple;
  constexpr std::size_t kBatch = 4096;
  UpdateReport report;
  WallTimer timer;
  const VertexId n = base.num_vertices();

  std::vector<Edge> pending;
  bool pending_remove = false;
  auto flush = [&] {
    if (pending.empty()) return;
    report.rows_recomputed +=
        apply(std::span<const Edge>(pending), pending_remove);
    pending.clear();
  };
  auto push_op = [&](const Edge& e, bool remove) {
    if (!pending.empty() && pending_remove != remove) flush();
    pending_remove = remove;
    pending.push_back(e);
    if (pending.size() >= kBatch) flush();
  };

  // Session presence relative to the immutable base CSR — mirrors the
  // overlay's own invariants (re-adding a tombstoned base edge clears
  // the tombstone; removing a session insert erases it).
  std::unordered_set<Edge, EdgeHash> added;
  std::unordered_set<Edge, EdgeHash> tombed;
  auto present = [&](const Edge& e) {
    return added.contains(e) ||
           (base.has_edge(e.src, e.dst) && !tombed.contains(e));
  };
  auto mark_insert = [&](const Edge& e) {
    if (tombed.erase(e) == 0) added.insert(e);
  };
  auto mark_remove = [&](const Edge& e) {
    if (added.erase(e) == 0) tombed.insert(e);
  };

  // Sliding window over the applied stream inserts. A re-streamed edge
  // keeps only its newest timestamp: the stamp map invalidates the
  // older FIFO entry, which is skipped when it surfaces.
  std::unordered_set<Edge, EdgeHash> live;  // in-window edges
  std::unordered_map<Edge, std::uint64_t, EdgeHash> stamp;
  std::deque<std::pair<Edge, std::uint64_t>> order;
  std::uint64_t seq = 0;

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const char* p = line.c_str();
    while (*p == ' ' || *p == '\t') ++p;
    bool remove = false;
    if (*p == '-') {
      remove = true;
      ++p;
    }
    char* end = nullptr;
    const unsigned long long u = std::strtoull(p, &end, 10);
    if (end == p || *p == '-') {  // no digits, or "--": malformed
      ++report.skipped;
      continue;
    }
    char* end2 = nullptr;
    const unsigned long long v = std::strtoull(end, &end2, 10);
    if (end2 == end || *end == '-') {
      ++report.skipped;
      continue;
    }
    if (u >= n || v >= n || u == v) {
      ++report.skipped;
      continue;
    }
    const Edge e{static_cast<VertexId>(u), static_cast<VertexId>(v)};
    if (remove) {
      if (!present(e)) {
        ++report.unknown_removes;
        continue;
      }
      mark_remove(e);
      live.erase(e);
      push_op(e, true);
      ++report.removed;
      continue;
    }
    if (present(e)) {
      ++report.skipped;
      continue;
    }
    mark_insert(e);
    push_op(e, false);
    ++report.applied;
    if (window == 0) continue;
    live.insert(e);
    stamp[e] = ++seq;
    order.emplace_back(e, seq);
    while (live.size() > window) {
      const auto [old, s] = order.front();
      order.pop_front();
      const auto it = stamp.find(old);
      // A stale FIFO entry: the edge was re-streamed (newer stamp) or
      // explicitly removed already.
      if (it == stamp.end() || it->second != s || !live.contains(old)) {
        continue;
      }
      live.erase(old);
      mark_remove(old);
      push_op(old, true);
      ++report.expired;
    }
  }
  flush();
  report.wall_s = timer.seconds();
  return report;
}

/// --update with --serve-shards: LIVE sharded serving. Stands the
/// cluster up over (model, graph), streams the file's inserts through
/// the update plane (serve/update_router.hpp) — every batch fans out to
/// all shards, each recomputes its owned share of the stale rows, no
/// freeze, no re-shard — then answers --query through the same router.
/// cache_mb > 0 adds a versioned hot-row cache per shard; republished
/// rows retire from it by version key automatically.
int serve_live_sharded(
    std::shared_ptr<const snaple::PredictorModel> model,
    std::shared_ptr<const snaple::CsrGraph> graph, std::istream& updates,
    std::size_t shards, snaple::serve::TransportKind transport,
    std::uint16_t tcp_port, std::size_t cache_mb, std::size_t batch,
    std::size_t window, const std::string& query_list, bool have_query,
    std::ostream& out) {
  using namespace snaple;
  using namespace snaple::serve;
  ServeOptions options;
  options.num_shards = shards;
  options.transport = transport;
  options.tcp_port = tcp_port;
  options.colocate = false;  // live rows cannot be replicated fresh
  if (cache_mb > 0) options.cache_bytes = cache_mb << 20;

  std::unique_ptr<ServingCluster> cluster;
  try {
    cluster = std::make_unique<ServingCluster>(model, graph, options);
  } catch (const CheckError& e) {
    std::cerr << "cannot serve live: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "live serving over " << shards << " shards ("
            << to_string(transport) << " transport, "
            << (cache_mb > 0 ? std::to_string(cache_mb) +
                                   " MB hot-row cache/shard"
                             : "no cache")
            << ")\n";

  // Stream the operations through the update plane, same skip rules as
  // the in-process flow (stream_edge_ops above): the CLI pre-screens
  // lines so every submitted batch passes the shards' deterministic
  // validation.
  UpdateRouter& plane = cluster->update_router();
  UpdateReport report;
  try {
    report = stream_edge_ops(
        updates, *graph, window,
        [&](std::span<const Edge> b, bool remove) -> std::size_t {
          if (remove) {
            plane.remove(b);
          } else {
            plane.apply(b);
          }
          return 0;  // the plane's own counters report the row work
        });
  } catch (const std::exception& e) {
    std::cerr << "live update failed: " << e.what() << "\n";
    return 1;
  }
  // Quiescence point: every shard confirmed at the same version — from
  // here every answer is bit-identical to a live-graph refit.
  const std::uint64_t version = plane.barrier();

  const UpdateStats us = plane.stats();
  const std::size_t ops = report.applied + report.removed + report.expired;
  std::cerr << "applied " << report.applied << " inserts, "
            << report.removed << " removals";
  if (window > 0) {
    std::cerr << " + " << report.expired << " window expirations";
  }
  std::cerr << " (" << report.skipped
            << " skipped: duplicate/self-loop/out-of-range/malformed, "
            << report.unknown_removes << " removals of absent edges) in "
            << format_duration(report.wall_s);
  if (ops > 0) {
    std::cerr << " — "
              << Table::fmt(report.wall_s * 1e6 / static_cast<double>(ops),
                            1)
              << " us/op";
  }
  std::cerr << "\nupdate plane: " << us.batches + us.remove_batches
            << " batches, "
            << us.gamma_rows + us.sims_rows + us.hop2_rows
            << " stale rows refreshed (" << us.gamma_rows << " gamma, "
            << us.sims_rows << " sims, " << us.hop2_rows << " hop2), "
            << us.bytes_sent << " B out, " << us.bytes_received
            << " B in; cluster version " << version << "\n";

  int rc = 0;
  if (have_query) {
    rc = serve_queries(cluster->router(), query_list, 0, batch, out);
    std::uint64_t queries = 0;
    std::uint64_t overlay_bytes = 0;
    for (const auto& s : cluster->stats()) {
      queries += s.queries;
      overlay_bytes += s.overlay_bytes;
    }
    const auto rs = cluster->router().stats();
    std::cerr << "shards answered " << queries << " queries ("
              << rs.requests << " wire messages), +"
              << static_cast<double>(overlay_bytes) / 1e6
              << " MB live overlays\n";
    if (cache_mb > 0) {
      const RowCacheStats cs = cluster->cache_stats();
      std::cerr << "hot-row cache: " << cs.hits << " hits / "
                << cs.hits + cs.misses << " lookups, " << cs.stale_drops
                << " stale drops\n";
    }
  }
  return rc;
}

UpdateReport stream_updates(snaple::DynamicModel& dyn, std::istream& in,
                            std::size_t window) {
  using namespace snaple;
  return stream_edge_ops(
      in, dyn.graph().base(), window,
      [&](std::span<const Edge> b, bool remove) -> std::size_t {
        const auto stats = remove ? dyn.remove_edges(b) : dyn.add_edges(b);
        return stats.gamma_rows + stats.sims_rows + stats.hop2_rows;
      });
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <edge-list-file | gowalla|pokec|orkut|livejournal|twitter>"
               " [--symmetrize] [--score=NAME] [--k=N] [--klocal=N|inf]"
               " [--thr=N|inf] [--khops=2|3] [--hop2min=F] [--machines=N]"
               " [--partition=hash|greedy|local] [--flat] [--type2]"
               " [--eval] [--seed=N] [--out=FILE] [--threads=N]"
               " [--convert=FILE] [--save-bin=FILE] [--compress]\n"
               "   or: " << argv0
            << " <graph> --fit [--save-model=FILE] [--query=U1,U2,...]\n"
               "   or: " << argv0
            << " --load-model=FILE --query=U1,U2,... [--k=N]"
               " [--serve-shards=N] [--serve-transport=mem|uds|tcp[:port]]"
               " [--serve-cache-mb=N] [--serve-batch=N]\n"
               "   or: " << argv0
            << " <graph> --update=EDGE-FILE [--window=N]"
               " [--query=U1,U2,...]"
               " [--save-model=FILE | --serve-shards=N]\n"
               "       (update lines: \"u v\" inserts, \"-u v\" removes)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace snaple;
  if (argc < 2) return usage(argv[0]);

  std::string input;
  bool symmetrize = false;
  bool type2 = false;
  bool evaluate = false;
  bool flat = false;
  bool fit_only = false;
  bool compress = false;
  auto strategy = gas::PartitionStrategy::kGreedy;
  std::size_t machines = 1;
  std::size_t threads = 0;
  std::string out_path;
  std::string convert_path;
  std::string save_bin_path;
  std::string save_model_path;
  std::string load_model_path;
  std::string update_path;
  std::size_t update_window = 0;  // 0 = no sliding window
  std::string query_list;
  std::size_t serve_shards = 0;  // 0 = in-process QueryEngine serving
  auto serve_transport = serve::TransportKind::kInProcess;
  std::uint16_t serve_tcp_port = 0;  // 0 = kernel-chosen ephemeral
  std::size_t serve_cache_mb = 0;  // 0 = colocated rows, no cache
  std::size_t serve_batch = 1;     // 1 = per-query round trips
  bool have_query = false;
  bool have_k = false;
  bool have_partition = false;
  SnapleConfig config;
  config.k_local = 20;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    try {
      if (!arg.empty() && arg[0] != '-') {
        if (!input.empty()) {
          std::cerr << "two inputs given: '" << input << "' and '" << arg
                    << "'\n";
          return usage(argv[0]);
        }
        input = arg;
      } else if (arg == "--symmetrize") {
        symmetrize = true;
      } else if (arg == "--type2") {
        type2 = true;
      } else if (arg == "--eval") {
        evaluate = true;
      } else if (arg == "--fit") {
        fit_only = true;
      } else if (arg.rfind("--score=", 0) == 0) {
        config.score = parse_score_kind(value_of("--score="));
      } else if (arg.rfind("--k=", 0) == 0) {
        config.k = parse_limit(value_of("--k="));
        have_k = true;
      } else if (arg.rfind("--klocal=", 0) == 0) {
        config.k_local = parse_limit(value_of("--klocal="));
      } else if (arg.rfind("--thr=", 0) == 0) {
        config.thr_gamma = parse_limit(value_of("--thr="));
      } else if (arg.rfind("--khops=", 0) == 0) {
        config.k_hops = parse_limit(value_of("--khops="));
        SNAPLE_CHECK_MSG(config.k_hops == 2 || config.k_hops == 3,
                         "--khops must be 2 or 3");
      } else if (arg.rfind("--hop2min=", 0) == 0) {
        config.hop2_min_score = std::atof(value_of("--hop2min=").c_str());
      } else if (arg.rfind("--machines=", 0) == 0) {
        machines = parse_limit(value_of("--machines="));
      } else if (arg.rfind("--partition=", 0) == 0) {
        const std::string s = value_of("--partition=");
        if (s == "hash") {
          strategy = gas::PartitionStrategy::kHash;
        } else if (s == "greedy") {
          strategy = gas::PartitionStrategy::kGreedy;
        } else if (s == "local") {
          strategy = gas::PartitionStrategy::kEdgeLocal;
        } else {
          std::cerr << "--partition must be hash, greedy or local\n";
          return 2;
        }
        have_partition = true;
      } else if (arg == "--flat") {
        flat = true;
      } else if (arg == "--compress") {
        compress = true;
      } else if (arg.rfind("--seed=", 0) == 0) {
        config.seed = std::strtoull(value_of("--seed=").c_str(), nullptr, 10);
      } else if (arg.rfind("--out=", 0) == 0) {
        out_path = value_of("--out=");
      } else if (arg.rfind("--threads=", 0) == 0) {
        threads = parse_limit(value_of("--threads="));
      } else if (arg.rfind("--convert=", 0) == 0) {
        convert_path = value_of("--convert=");
      } else if (arg.rfind("--save-bin=", 0) == 0) {
        save_bin_path = value_of("--save-bin=");
      } else if (arg.rfind("--save-model=", 0) == 0) {
        save_model_path = value_of("--save-model=");
      } else if (arg.rfind("--load-model=", 0) == 0) {
        load_model_path = value_of("--load-model=");
      } else if (arg.rfind("--update=", 0) == 0) {
        update_path = value_of("--update=");
      } else if (arg.rfind("--window=", 0) == 0) {
        update_window = parse_limit(value_of("--window="));
        SNAPLE_CHECK_MSG(update_window >= 1 && update_window != kUnlimited,
                         "--window must be a positive insert count");
      } else if (arg.rfind("--query=", 0) == 0) {
        query_list = value_of("--query=");
        have_query = true;
      } else if (arg.rfind("--serve-shards=", 0) == 0) {
        serve_shards = parse_limit(value_of("--serve-shards="));
        SNAPLE_CHECK_MSG(serve_shards >= 1 && serve_shards != kUnlimited,
                         "--serve-shards must be a positive count");
      } else if (arg.rfind("--serve-transport=", 0) == 0) {
        const std::string t = value_of("--serve-transport=");
        if (t == "mem") {
          serve_transport = serve::TransportKind::kInProcess;
        } else if (t == "uds") {
          serve_transport = serve::TransportKind::kUnixSocket;
        } else if (t == "tcp" || t.rfind("tcp:", 0) == 0) {
          serve_transport = serve::TransportKind::kTcp;
          if (t.size() > 4) {
            const unsigned long port =
                std::strtoul(t.c_str() + 4, nullptr, 10);
            SNAPLE_CHECK_MSG(port >= 1 && port <= 65535,
                             "--serve-transport=tcp:PORT needs a port "
                             "in [1, 65535]");
            serve_tcp_port = static_cast<std::uint16_t>(port);
          }
        } else {
          std::cerr << "--serve-transport must be mem, uds or "
                       "tcp[:port]\n";
          return 2;
        }
      } else if (arg.rfind("--serve-cache-mb=", 0) == 0) {
        serve_cache_mb = parse_limit(value_of("--serve-cache-mb="));
        SNAPLE_CHECK_MSG(serve_cache_mb >= 1 && serve_cache_mb != kUnlimited,
                         "--serve-cache-mb must be a positive MB count");
      } else if (arg.rfind("--serve-batch=", 0) == 0) {
        serve_batch = parse_limit(value_of("--serve-batch="));
        SNAPLE_CHECK_MSG(serve_batch >= 1 && serve_batch != kUnlimited,
                         "--serve-batch must be a positive count");
      } else {
        std::cerr << "unknown option: " << arg << "\n";
        return usage(argv[0]);
      }
    } catch (const CheckError& e) {
      std::cerr << "bad option " << arg << ": " << e.what() << "\n";
      return 2;
    }
  }

  const bool serving = fit_only || have_query || !save_model_path.empty() ||
                       !load_model_path.empty() || !update_path.empty() ||
                       serve_shards > 0;
  if (serving && evaluate) {
    std::cerr << "--eval applies to the batch flow only\n";
    return 2;
  }
  if (compress && (serving || evaluate)) {
    // The fit/serve and eval flows mutate or harvest the flat graph;
    // decompressing behind the user's back would defeat the flag.
    std::cerr << "--compress applies to conversion and the batch flow "
                 "only\n";
    return 2;
  }
  if (serve_cache_mb > 0 && serve_shards == 0) {
    std::cerr << "--serve-cache-mb caches the sharded tier's remote "
                 "fetches; pass --serve-shards=N too\n";
    return 2;
  }
  if (update_window > 0 && update_path.empty()) {
    std::cerr << "--window slides over the --update stream; pass "
                 "--update=FILE too\n";
    return 2;
  }
  if (!update_path.empty()) {
    if (!load_model_path.empty()) {
      std::cerr << "--update needs the fit graph; fit it here instead of "
                   "--load-model (a saved model carries no graph)\n";
      return 2;
    }
    // Incremental updates require the insertion-stable edge placement
    // (tags of existing edges must survive inserts); single-machine
    // runs qualify under any strategy because every tag is 0.
    if (!have_partition) {
      strategy = gas::PartitionStrategy::kEdgeLocal;
    } else if (strategy != gas::PartitionStrategy::kEdgeLocal &&
               machines > 1) {
      std::cerr << "--update on --machines>1 requires --partition=local "
                   "(hash/greedy tags shift when edges are inserted)\n";
      return 2;
    }
  }
  if (load_model_path.empty() && input.empty()) {
    std::cerr << "no input graph (or --load-model) given\n";
    return usage(argv[0]);
  }
  if (!load_model_path.empty() && !input.empty()) {
    std::cerr << "--load-model serves a finished model; drop the graph "
                 "argument (it would be ignored)\n";
    return 2;
  }

  // A dedicated pool when --threads is given; the default pool otherwise.
  std::unique_ptr<ThreadPool> own_pool;
  ThreadPool* pool = nullptr;
  if (threads > 1 && threads != kUnlimited) {
    own_pool = std::make_unique<ThreadPool>(threads - 1);
    pool = own_pool.get();
  }

  std::ofstream out_file;
  std::ostream* out = &std::cout;
  if (!out_path.empty()) {
    out_file.open(out_path);
    if (!out_file) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    out = &out_file;
  }

  // ---- Serve from a saved model: no graph, no fit. ----
  if (!load_model_path.empty()) {
    std::shared_ptr<const PredictorModel> model;
    try {
      WallTimer load_timer;
      model = std::make_shared<const PredictorModel>(
          PredictorModel::load_file(load_model_path));
      std::cerr << "loaded model: " << model->num_vertices()
                << " vertices, "
                << static_cast<double>(model->memory_bytes()) / 1e6
                << " MB, config [" << model->config().describe() << "] (in "
                << format_duration(load_timer.seconds()) << ")\n";
    } catch (const std::exception& e) {
      std::cerr << "cannot load model '" << load_model_path
                << "': " << e.what() << "\n";
      return 1;
    }
    if (!have_query) {
      std::cerr << "model loaded; pass --query=u1,u2,... to serve\n";
      return 0;
    }
    // An explicit --k overrides the model's configured k (0 = model's).
    const std::size_t serve_k = have_k ? config.k : 0;
    if (serve_shards > 0) {
      return serve_sharded(*model, serve_shards, serve_transport,
                           serve_tcp_port, serve_cache_mb, serve_batch,
                           query_list, serve_k, *out);
    }
    const QueryEngine server(model);
    return serve_queries(server, query_list, serve_k, serve_batch, *out);
  }

  CsrGraph graph;
  CompressedCsrGraph cgraph;  // the graph when --compress is in effect
  bool have_cgraph = false;
  WallTimer load_timer;
  try {
    if (file_exists(input)) {
      if (is_binary_graph(input)) {
        if (symmetrize) {
          // Binary graphs are finished CSRs; silently ignoring the flag
          // would evaluate on a graph the user did not ask for.
          std::cerr << "--symmetrize does not apply to binary graphs; "
                       "symmetrize when converting the text file instead\n";
          return 2;
        }
        std::cerr << "loading binary graph " << input << "...\n";
        if (compress) {
          // v3 inputs load natively compressed — the flat adjacency is
          // never materialized; v1/v2 are compressed after loading.
          cgraph = load_binary_compressed_file(input);
          have_cgraph = true;
        } else {
          graph = load_binary_file(input);
        }
      } else if (threads == 1) {
        // An explicit --threads=1 means truly serial: use the reference
        // stream loader rather than the chunked parallel one.
        std::cerr << "loading edge list " << input << " (serial)...\n";
        std::ifstream in(input);
        graph = load_edge_list_text(in, symmetrize);
      } else {
        std::cerr << "loading edge list " << input << "...\n";
        graph = load_edge_list_text_file(input, symmetrize, pool);
      }
    } else {
      std::cerr << "generating replica " << input << "...\n";
      graph = gen::load_or_generate(input, 0.25, config.seed);
    }
  } catch (const std::exception& e) {
    std::cerr << "cannot load '" << input << "': " << e.what() << "\n";
    return 1;
  }
  if (compress && !have_cgraph) {
    cgraph = CompressedCsrGraph::from_graph(graph, pool);
    graph = CsrGraph{};  // release the flat adjacency
    have_cgraph = true;
  }
  const VertexId num_vertices =
      have_cgraph ? cgraph.num_vertices() : graph.num_vertices();
  const EdgeIndex num_edges =
      have_cgraph ? cgraph.num_edges() : graph.num_edges();
  std::cerr << "graph: " << num_vertices << " vertices, " << num_edges
            << " edges (loaded in " << format_duration(load_timer.seconds())
            << ")\n";
  if (have_cgraph) {
    const auto flat_bytes =
        static_cast<double>(num_edges) * 2 * sizeof(VertexId);
    const auto packed = static_cast<double>(cgraph.adjacency_bytes());
    std::cerr << "compressed adjacency: "
              << Table::fmt(packed / 1e6, 2) << " MB vs "
              << Table::fmt(flat_bytes / 1e6, 2) << " MB flat ("
              << Table::fmt(packed > 0 ? flat_bytes / packed : 1.0, 2)
              << "x)\n";
  }

  const std::string bin_out =
      !convert_path.empty() ? convert_path : save_bin_path;
  if (!bin_out.empty()) {
    try {
      if (have_cgraph) {
        save_binary_v3_file(cgraph, bin_out);
        std::cerr << "wrote binary v3 (compressed) graph to " << bin_out
                  << "\n";
      } else {
        save_binary_file(graph, bin_out);
        std::cerr << "wrote binary v2 graph to " << bin_out << "\n";
      }
    } catch (const IoError& e) {
      std::cerr << "cannot write '" << bin_out << "': " << e.what() << "\n";
      return 1;
    }
    if (!convert_path.empty()) return 0;  // conversion-only run
  }

  std::vector<Edge> hidden;
  if (evaluate) {
    auto holdout = eval::remove_random_edges(graph, 1, config.seed);
    graph = std::move(holdout.train);
    hidden = std::move(holdout.hidden);
    std::cerr << "hidden " << hidden.size() << " edges for evaluation\n";
  }

  const auto cluster =
      machines <= 1
          ? gas::ClusterConfig::single_machine(
                std::thread::hardware_concurrency())
          : (type2 ? gas::ClusterConfig::type_ii(machines)
                   : gas::ClusterConfig::type_i(machines));
  // Multi-machine runs use the sharded engine unless --flat opts out:
  // each simulated machine owns its graph shard and replica-local vertex
  // data, and traffic is measured from the exchange buffers.
  const auto exec = (machines > 1 && !flat) ? gas::ExecutionMode::kSharded
                                            : gas::ExecutionMode::kFlat;

  const auto partitioning =
      have_cgraph ? gas::Partitioning::create(cgraph, cluster.num_machines,
                                              strategy, config.seed)
                  : gas::Partitioning::create(graph, cluster.num_machines,
                                              strategy, config.seed);
  std::shared_ptr<const gas::ShardTopology> topo;
  if (exec == gas::ExecutionMode::kSharded) {
    // Per-shard layout report: what each simulated machine actually
    // owns. The layout is reused by the runs below. Compressed runs get
    // compressed shard slices too (the build overload's default).
    topo = std::make_shared<const gas::ShardTopology>(
        have_cgraph ? gas::ShardTopology::build(cgraph, partitioning)
                    : gas::ShardTopology::build(graph, partitioning));
    Table shard_table({"shard", "edges", "replicas", "masters", "mirrors",
                       "structure MB"});
    for (const auto& sh : topo->shards()) {
      shard_table.add_row(
          {std::to_string(sh.machine()),
           std::to_string(sh.num_local_edges()),
           std::to_string(sh.num_local()), std::to_string(sh.num_masters()),
           std::to_string(sh.num_mirrors()),
           Table::fmt(static_cast<double>(sh.memory_bytes()) / 1e6, 2)});
    }
    const char* strategy_name =
        strategy == gas::PartitionStrategy::kGreedy  ? "greedy"
        : strategy == gas::PartitionStrategy::kHash ? "hash"
                                                    : "local";
    std::cerr << "shards (replication factor "
              << Table::fmt(partitioning.replication_factor(), 2) << ", "
              << strategy_name << " vertex-cut):\n";
    shard_table.print(std::cerr);
  }

  std::cerr << "config: " << config.describe() << "\n";
  std::cerr << "cluster: " << cluster.describe() << " ("
            << (exec == gas::ExecutionMode::kSharded ? "sharded" : "flat")
            << " execution)\n";

  // ---- Fit/serve flow: build the model, optionally save and query. ----
  if (serving) {
    const LinkPredictor predictor(config, cluster, strategy, exec);
    PredictorModel model;
    try {
      WallTimer fit_timer;
      model = predictor.fit_with_partitioning(graph, partitioning, pool,
                                              topo);
      std::cerr << "fitted model in " << format_duration(fit_timer.seconds())
                << ": " << static_cast<double>(model.memory_bytes()) / 1e6
                << " MB, fit traffic "
                << static_cast<double>(
                       model.fit_report().total_net_bytes()) / 1e6
                << " MB\n";
    } catch (const ResourceExhausted& e) {
      std::cerr << "simulated cluster out of memory: " << e.what() << "\n";
      return 1;
    }
    // ---- Incremental updates: wrap the model, stream the inserts. ----
    if (!update_path.empty()) {
      std::ifstream updates(update_path);
      if (!updates) {
        std::cerr << "cannot read update file '" << update_path << "'\n";
        return 1;
      }
      const auto shared_graph =
          std::make_shared<const CsrGraph>(std::move(graph));
      if (serve_shards > 0) {
        // The sharded tier's LIVE update plane: inserts fan out to the
        // shards, which recompute in place — no freeze, no re-shard.
        if (!save_model_path.empty()) {
          std::cerr << "--save-model does not combine with --update "
                       "--serve-shards: the updated rows live on the "
                       "shards (drop --serve-shards to freeze a file)\n";
          return 2;
        }
        return serve_live_sharded(
            std::make_shared<const PredictorModel>(std::move(model)),
            shared_graph, updates, serve_shards, serve_transport,
            serve_tcp_port, serve_cache_mb, serve_batch, update_window,
            query_list, have_query, *out);
      }
      std::shared_ptr<DynamicModel> wrapped;
      UpdateReport report;
      try {
        // The partitioning above was created with config.seed, the
        // placement seed DynamicModel verifies against.
        wrapped = std::make_shared<DynamicModel>(
            std::make_shared<const PredictorModel>(std::move(model)),
            shared_graph, pool);
        report = stream_updates(*wrapped, updates, update_window);
      } catch (const CheckError& e) {
        std::cerr << "update failed: " << e.what() << "\n";
        return 1;
      }
      DynamicModel& dyn = *wrapped;
      const std::size_t ops =
          report.applied + report.removed + report.expired;
      std::cerr << "applied " << report.applied << " inserts, "
                << report.removed << " removals";
      if (update_window > 0) {
        std::cerr << " + " << report.expired << " window expirations";
      }
      std::cerr << " (" << report.skipped << " skipped: duplicate/"
                << "self-loop/out-of-range/malformed, "
                << report.unknown_removes
                << " removals of absent edges) in "
                << format_duration(report.wall_s);
      if (ops > 0) {
        std::cerr << " — "
                  << Table::fmt(report.wall_s * 1e6 /
                                    static_cast<double>(ops), 1)
                  << " us/op, " << report.rows_recomputed
                  << " rows recomputed";
      }
      std::cerr << "; model version " << dyn.version() << ", +"
                << static_cast<double>(dyn.overlay_bytes()) / 1e6
                << " MB overlay\n";
      if (!save_model_path.empty()) {
        try {
          dyn.freeze().save_file(save_model_path);
          std::cerr << "wrote updated model to " << save_model_path << "\n";
        } catch (const IoError& e) {
          std::cerr << "cannot write '" << save_model_path
                    << "': " << e.what() << "\n";
          return 1;
        }
      }
      if (have_query) {
        // Serve straight from the live model's versioned rows (the
        // serve_shards>0 combination took the live sharded path above).
        const QueryEngine server{
            std::shared_ptr<const DynamicModel>(wrapped)};
        return serve_queries(server, query_list, 0, serve_batch, *out);
      }
      return 0;
    }
    if (!save_model_path.empty()) {
      try {
        model.save_file(save_model_path);
        std::cerr << "wrote model to " << save_model_path << "\n";
      } catch (const IoError& e) {
        std::cerr << "cannot write '" << save_model_path
                  << "': " << e.what() << "\n";
        return 1;
      }
    }
    if (have_query) {
      if (serve_shards > 0) {
        return serve_sharded(model, serve_shards, serve_transport,
                             serve_tcp_port, serve_cache_mb, serve_batch,
                             query_list, 0, *out);
      }
      const QueryEngine server(
          std::make_shared<const PredictorModel>(std::move(model)));
      return serve_queries(server, query_list, 0, serve_batch, *out);
    }
    return 0;
  }

  // ---- Batch flow: the fully-accounted three-step engine run. ----
  SnapleResult result;
  WallTimer run_timer;
  try {
    result = have_cgraph
                 ? run_snaple(cgraph, config, partitioning, cluster, pool,
                              gas::ApplyMode::kFused, exec, topo)
                 : run_snaple(graph, config, partitioning, cluster, pool,
                              gas::ApplyMode::kFused, exec, topo);
  } catch (const ResourceExhausted& e) {
    std::cerr << "simulated cluster out of memory: " << e.what() << "\n";
    return 1;
  }
  const double wall_seconds = run_timer.seconds();

  std::cerr << "host time: " << format_duration(wall_seconds)
            << ", simulated time: "
            << format_duration(result.report.total_sim_s()) << ", traffic: "
            << static_cast<double>(result.report.total_net_bytes()) / 1e6
            << " MB\n";
  if (exec == gas::ExecutionMode::kSharded) {
    std::size_t acc_peak = 0;
    std::size_t vd_peak = 0;
    for (const auto& s : result.report.steps) {
      acc_peak = std::max(acc_peak, s.accumulator_bytes_peak);
      vd_peak = std::max(vd_peak, s.vertex_data_bytes_peak);
    }
    std::cerr << "per-shard peaks: accumulators "
              << static_cast<double>(acc_peak) / 1e6
              << " MB, replicated vertex data "
              << static_cast<double>(vd_peak) / 1e6 << " MB\n";
  }
  if (evaluate) {
    std::cerr << "recall@" << config.k << ": "
              << eval::recall(result.predictions, hidden) << ", MRR: "
              << eval::mean_reciprocal_rank(result.predictions, hidden)
              << "\n";
  }

  for (VertexId u = 0; u < num_vertices; ++u) {
    if (result.predictions[u].empty()) continue;
    (*out) << u << ':';
    for (VertexId z : result.predictions[u]) (*out) << ' ' << z;
    (*out) << '\n';
  }
  return 0;
}
