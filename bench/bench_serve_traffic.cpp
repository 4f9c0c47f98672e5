// Sharded serving tier under load: route, fetch, measure, verify.
//
// ISSUE 6's proof-under-load harness for src/serve/: the model is
// partitioned over N ShardServers, a QueryRouter drives Zipfian query
// traffic from closed-loop client threads over a real byte transport,
// and the whole exercise is gated on bit-identity with the
// single-process QueryEngine. Four phases:
//
//   correctness   ENFORCED (exit 1): sampled Zipf users answered by the
//                 cluster ≡ QueryEngine, bit for bit, across shard
//                 counts × transports × colocate/fetch modes — with the
//                 hot-row cache on and off, and through the batched
//                 (op 3) submission path.
//   traffic       closed-loop clients, Zipfian user mix: p50/p99
//                 latency, queries/sec, cache hit rate, remote fetches
//                 and wire bytes per query — the co-locate vs
//                 remote-fetch vs cached/batched cost model with
//                 numbers attached (docs/SERVING.md).
//   fastpath      ENFORCED (exit 1): the ISSUE 7 serving fast path at
//                 8 shards in remote-fetch mode — the versioned hot-row
//                 cache must cut fetches/query by ≥2× vs the cacheless
//                 cluster on the same Zipf workload (counter-based, so
//                 stable in CI; p50/p99 are reported alongside).
//   updates       the LIVE update plane (ISSUE 9) under fire: a 4-shard
//                 remote-fetch cluster absorbs the held-back insert
//                 stream IN PLACE — batches fanned to every shard by
//                 the UpdateRouter, no freeze, no re-shard — while the
//                 same closed-loop Zipf clients keep querying. Reports
//                 query p50/p99 idle vs during the burst plus the
//                 staleness window (the apply() round trip: submission
//                 until every shard has republished its owned stale
//                 rows). ENFORCED (exit 1): after the burst and a
//                 version barrier, served answers are bit-identical to
//                 a from-scratch fit on the union graph.
//   window        sliding-window replay (ISSUE 10): a fresh live
//                 cluster absorbs the same stream in timestamp order
//                 with a window of half its length — every insert batch
//                 past capacity fans an op-6 REMOVE batch expiring the
//                 oldest edges, Zipf clients querying throughout.
//                 Reports churn ops/sec and the op round-trip staleness
//                 p50/p99. ENFORCED (exit 1): at end of replay, served
//                 answers are bit-identical to a from-scratch fit on
//                 the window graph (base + surviving inserts).
//
// Baselines: bench/baselines/bench_serve_traffic.json, recorded at
// --scale=0.1 --seed=42 (CI smoke scale). wall-s and queries_per_second
// columns are judged by check_regression.py; latency percentiles, hit
// rates and per-query fetch counts are informational there (the ≥2×
// fetch-reduction gate lives in THIS binary, where it is deterministic).
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <iostream>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/predictor.hpp"
#include "core/query_engine.hpp"
#include "graph/builder.hpp"
#include "graph/gen/datasets.hpp"
#include "serve/router.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace snaple;

/// Zipfian user sampler: rank r (0-based) drawn with P(r) ∝ 1/(r+1)^s,
/// ranks mapped to vertex ids through a seed-keyed permutation so the
/// hot users land on different shards run to run (a contiguous range
/// partitioning with unpermuted Zipf ranks would aim all heat at shard
/// 0 — realistic ids are not sorted by popularity).
class ZipfUsers {
 public:
  ZipfUsers(VertexId n, double exponent, std::uint64_t seed) : perm_(n) {
    cdf_.reserve(n);
    double total = 0.0;
    for (VertexId r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r) + 1.0, exponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    for (VertexId u = 0; u < n; ++u) perm_[u] = u;
    Rng rng(seed ^ 0x5a1bf00d);
    shuffle(perm_, rng);
  }

  [[nodiscard]] VertexId draw(Rng& rng) const {
    const double x = rng.next_double();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), x);
    const auto rank = static_cast<std::size_t>(
        it == cdf_.end() ? cdf_.size() - 1 : it - cdf_.begin());
    return perm_[rank];
  }

 private:
  std::vector<double> cdf_;
  std::vector<VertexId> perm_;
};

struct LoadResult {
  double wall_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double qps = 0.0;
  std::size_t queries = 0;
};

/// Closed-loop load: `clients` threads, each drawing its own Zipf user
/// stream and issuing `per_client` back-to-back queries against `topk`
/// (any callable VertexId -> scored list), timing every request.
template <typename TopkFn>
LoadResult drive_load(const ZipfUsers& users, std::size_t clients,
                      std::size_t per_client, std::uint64_t seed,
                      TopkFn&& topk) {
  std::vector<std::vector<double>> lat_us(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  WallTimer wall;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed + 0x9e3779b97f4a7c15ULL * (c + 1));
      auto& lat = lat_us[c];
      lat.reserve(per_client);
      for (std::size_t q = 0; q < per_client; ++q) {
        const VertexId u = users.draw(rng);
        WallTimer t;
        (void)topk(u);
        lat.push_back(t.seconds() * 1e6);
      }
    });
  }
  for (auto& th : threads) th.join();
  LoadResult r;
  r.wall_s = wall.seconds();
  std::vector<double> all;
  for (auto& lat : lat_us) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  r.queries = all.size();
  r.p50_us = percentile(all, 0.50);
  r.p99_us = percentile(all, 0.99);
  r.qps = static_cast<double>(r.queries) / std::max(r.wall_s, 1e-12);
  return r;
}

/// Same closed loop, but each client groups `batch` draws into one
/// topk_batch call; the recorded per-query latency is the batch round
/// trip amortized over its members — what a batching client actually
/// experiences per answer. Trailing draws that don't fill a batch are
/// skipped, so queries is a multiple of `batch`.
template <typename BatchFn>
LoadResult drive_load_batched(const ZipfUsers& users, std::size_t clients,
                              std::size_t per_client, std::size_t batch,
                              std::uint64_t seed, BatchFn&& topk_batch) {
  std::vector<std::vector<double>> lat_us(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  WallTimer wall;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed + 0x9e3779b97f4a7c15ULL * (c + 1));
      auto& lat = lat_us[c];
      lat.reserve(per_client);
      std::vector<VertexId> group(batch);
      for (std::size_t q = 0; q + batch <= per_client; q += batch) {
        for (auto& u : group) u = users.draw(rng);
        WallTimer t;
        (void)topk_batch(group);
        const double each =
            t.seconds() * 1e6 / static_cast<double>(batch);
        for (std::size_t j = 0; j < batch; ++j) lat.push_back(each);
      }
    });
  }
  for (auto& th : threads) th.join();
  LoadResult r;
  r.wall_s = wall.seconds();
  std::vector<double> all;
  for (auto& lat : lat_us) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  r.queries = all.size();
  r.p50_us = percentile(all, 0.50);
  r.p99_us = percentile(all, 0.99);
  r.qps = static_cast<double>(r.queries) / std::max(r.wall_s, 1e-12);
  return r;
}

std::string mode_name(serve::TransportKind t, bool colocate) {
  return std::string(serve::to_string(t)) +
         (colocate ? "+colocate" : "+fetch");
}

/// "hit %" cell: lookups==0 (cache off / colocate) renders as "-".
std::string hit_pct(const serve::RowCacheStats& cs) {
  const std::uint64_t lookups = cs.hits + cs.misses;
  if (lookups == 0) return "-";
  return Table::fmt(100.0 * static_cast<double>(cs.hits) /
                        static_cast<double>(lookups), 1);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  bench::print_header(
      "Sharded serving tier — Zipfian traffic over shard servers",
      "ISSUE 6: the model partitioned over ShardServers behind a "
      "QueryRouter, queried by closed-loop Zipf clients over real byte "
      "transports; p50/p99/QPS plus the co-locate vs remote-fetch cost "
      "model, gated on bit-identity with the single-process engine.");

  const std::size_t clients =
      std::min<std::size_t>(8, std::max(2u, std::thread::hardware_concurrency()));

  // ~1M directed edges at --scale=1; ~512 edges held back as the live
  // insert stream of the update phase (same discipline as bench_update).
  const CsrGraph union_graph =
      gen::make_dataset("livejournal", 1.25 * opt.scale, opt.seed);
  const auto all_edges = union_graph.edges();
  const std::size_t want_inserts =
      std::min<std::size_t>(512, all_edges.size() / 8);
  const std::size_t stride =
      std::max<std::size_t>(2, all_edges.size() / want_inserts);
  std::vector<Edge> inserts;
  GraphBuilder builder(union_graph.num_vertices());
  for (std::size_t i = 0; i < all_edges.size(); ++i) {
    if (i % stride == 1 && inserts.size() < want_inserts) {
      inserts.push_back(all_edges[i]);
    } else {
      builder.add_edge(all_edges[i].src, all_edges[i].dst);
    }
  }
  const auto base_graph = std::make_shared<const CsrGraph>(builder.build());
  const VertexId n = base_graph->num_vertices();
  std::cout << "graph: " << n << " vertices, " << base_graph->num_edges()
            << " edges (" << inserts.size() << " held back as inserts), "
            << clients << " clients\n\n";

  SnapleConfig cfg;
  cfg.k_local = 20;
  cfg.seed = opt.seed;
  // 4 simulated machines with the insertion-stable placement: queries
  // replay nontrivial machine-grouped folds AND the update phase can
  // wrap the same model in a DynamicModel.
  const auto cluster_cfg = gas::ClusterConfig::type_i(4);
  const LinkPredictor predictor(cfg, cluster_cfg,
                                gas::PartitionStrategy::kEdgeLocal);
  const auto model =
      std::make_shared<const PredictorModel>(predictor.fit(base_graph));
  const QueryEngine engine(model);

  const ZipfUsers users(n, /*exponent=*/0.99, opt.seed);

  // ---- Phase 1: correctness gates (ENFORCED). ------------------------
  std::vector<VertexId> sample;
  {
    Rng rng(opt.seed ^ 0xc0ffee);
    for (std::size_t i = 0; i < 512; ++i) sample.push_back(users.draw(rng));
  }
  std::vector<std::vector<std::pair<VertexId, float>>> reference;
  reference.reserve(sample.size());
  for (const VertexId u : sample) reference.push_back(engine.topk(u));

  std::size_t total_mismatches = 0;
  std::size_t correctness_configs = 0;
  Table correctness({"shards", "mode", "queries", "mismatches"});
  struct CorrectnessMode {
    const char* suffix;  // appended to the transport name in the table
    bool colocate;
    bool cache;
    bool batch;  // submit through topk_batch (op 3) in chunks of 64
  };
  constexpr CorrectnessMode kModes[] = {
      {"+colocate", true, false, false},
      {"+fetch", false, false, false},
      {"+fetch+cache", false, true, false},
      {"+fetch+cache+batch", false, true, true},
  };
  for (const std::size_t shards : {2ul, 8ul}) {
    for (const auto transport : {serve::TransportKind::kInProcess,
                                 serve::TransportKind::kUnixSocket}) {
      for (const auto& m : kModes) {
        serve::ServeOptions so;
        so.num_shards = shards;
        so.transport = transport;
        so.colocate = m.colocate;
        if (m.cache) so.cache_bytes = 64ull << 20;
        serve::ServingCluster cluster(*model, so);
        std::size_t mismatches = 0;
        if (m.batch) {
          for (std::size_t i = 0; i < sample.size(); i += 64) {
            const std::size_t len =
                std::min<std::size_t>(64, sample.size() - i);
            const auto got = cluster.router().topk_batch(
                std::span<const VertexId>(sample.data() + i, len));
            for (std::size_t j = 0; j < len; ++j) {
              if (got[j] != reference[i + j]) ++mismatches;
            }
          }
        } else {
          for (std::size_t i = 0; i < sample.size(); ++i) {
            if (cluster.router().topk(sample[i]) != reference[i]) {
              ++mismatches;
            }
          }
        }
        total_mismatches += mismatches;
        ++correctness_configs;
        correctness.add_row(
            {std::to_string(shards),
             std::string(serve::to_string(transport)) + m.suffix,
             std::to_string(sample.size()), std::to_string(mismatches)});
      }
    }
  }
  bench::finish(correctness, opt, "correctness");

  // ---- Phase 2: closed-loop Zipfian traffic. -------------------------
  const std::size_t per_client =
      std::max<std::size_t>(200, static_cast<std::size_t>(1500 * opt.scale));
  Table traffic({"mode", "shards", "queries", "wall s",
                 "queries_per_second", "p50_us", "p99_us", "hit %",
                 "fetches/query", "wire B/query", "max inflight"});
  struct TrafficMode {
    serve::TransportKind transport;
    bool colocate;
    bool cache;
    std::size_t batch;  // 1 = per-query topk, >1 = topk_batch groups
  };
  std::vector<TrafficMode> traffic_modes;
  for (const auto transport : {serve::TransportKind::kInProcess,
                               serve::TransportKind::kUnixSocket}) {
    traffic_modes.push_back({transport, true, false, 1});
    traffic_modes.push_back({transport, false, false, 1});
    traffic_modes.push_back({transport, false, true, 1});
  }
  // The batched submission path under load (one wire message per owning
  // shard per group of 8): in-process transport keeps the row cheap.
  traffic_modes.push_back({serve::TransportKind::kInProcess, false, true, 8});
  for (const auto& m : traffic_modes) {
    serve::ServeOptions so;
    so.num_shards = 4;
    so.transport = m.transport;
    so.colocate = m.colocate;
    so.connections_per_shard = clients;
    if (m.cache) so.cache_bytes = 64ull << 20;
    serve::ServingCluster cluster(*model, so);
    const auto r =
        m.batch > 1
            ? drive_load_batched(users, clients, per_client, m.batch,
                                 opt.seed,
                                 [&](const std::vector<VertexId>& group) {
                                   return cluster.router().topk_batch(group);
                                 })
            : drive_load(
                  users, clients, per_client, opt.seed,
                  [&](VertexId u) { return cluster.router().topk(u); });
    std::uint64_t fetches = 0, wire = 0;
    for (const auto& s : cluster.stats()) {
      fetches += s.remote_fetch_requests;
      wire += s.frontend_bytes_in + s.frontend_bytes_out +
              s.peer_bytes_out + s.peer_bytes_in;
    }
    const auto per_query = [&](std::uint64_t v) {
      return Table::fmt(static_cast<double>(v) /
                            static_cast<double>(r.queries), 2);
    };
    std::string name = mode_name(m.transport, m.colocate);
    if (m.cache) name += "+cache";
    if (m.batch > 1) name += "+batch" + std::to_string(m.batch);
    const auto rs = cluster.router().stats();
    traffic.add_row({name, "4", std::to_string(r.queries),
                     Table::fmt(r.wall_s, 4), Table::fmt(r.qps, 0),
                     Table::fmt(r.p50_us, 1), Table::fmt(r.p99_us, 1),
                     hit_pct(cluster.cache_stats()), per_query(fetches),
                     per_query(wire), std::to_string(rs.max_inflight)});
  }
  bench::finish(traffic, opt, "traffic");

  // ---- Phase 3: the serving fast path (ENFORCED). --------------------
  // 8 shards, remote-fetch, in-process transport: the identical Zipf
  // workload with the hot-row cache off, then on. Each cluster is
  // warmed with one full pass first and the fetch counters are measured
  // as deltas over a repeat of that stream — the steady state the cost
  // model describes: rows the working set already pulled are never
  // fetched again (the cacheless cluster re-fetches every one). The
  // cache must cut remote fetches per query by >= 2x; counter-based, so
  // deterministic up to benign cold-row races (two clients missing the
  // same row concurrently), orders of magnitude inside the 2x margin.
  Table fastpath({"config", "shards", "queries", "wall s",
                  "queries_per_second", "p50_us", "p99_us", "hit %",
                  "fetches/query", "max inflight"});
  double fast_fetches_pq[2] = {0.0, 0.0};
  double fast_p99[2] = {0.0, 0.0};
  for (const bool cached : {false, true}) {
    serve::ServeOptions so;
    so.num_shards = 8;
    so.colocate = false;
    so.connections_per_shard = clients;
    if (cached) so.cache_bytes = 64ull << 20;
    serve::ServingCluster cluster(*model, so);
    const auto topk = [&](VertexId u) { return cluster.router().topk(u); };
    const auto counters = [&] {
      std::uint64_t f = 0, h = 0, m = 0;
      for (const auto& s : cluster.stats()) {
        f += s.remote_fetch_requests;
        h += s.cache_hits;
        m += s.cache_misses;
      }
      return std::array<std::uint64_t, 3>{f, h, m};
    };
    (void)drive_load(users, clients, per_client, opt.seed + 3, topk);
    const auto before = counters();
    const auto r =
        drive_load(users, clients, per_client, opt.seed + 3, topk);
    const auto after = counters();
    const std::uint64_t fetches = after[0] - before[0];
    const std::uint64_t hits = after[1] - before[1];
    const std::uint64_t lookups = hits + (after[2] - before[2]);
    fast_fetches_pq[cached ? 1 : 0] =
        static_cast<double>(fetches) / static_cast<double>(r.queries);
    fast_p99[cached ? 1 : 0] = r.p99_us;
    const auto rs = cluster.router().stats();
    fastpath.add_row(
        {cached ? "fetch+cache" : "fetch+nocache", "8",
         std::to_string(r.queries), Table::fmt(r.wall_s, 4),
         Table::fmt(r.qps, 0), Table::fmt(r.p50_us, 1),
         Table::fmt(r.p99_us, 1),
         lookups == 0 ? "-"
                      : Table::fmt(100.0 * static_cast<double>(hits) /
                                       static_cast<double>(lookups), 1),
         Table::fmt(fast_fetches_pq[cached ? 1 : 0], 2),
         std::to_string(rs.max_inflight)});
  }
  bench::finish(fastpath, opt, "fastpath");
  const double fetch_reduction =
      fast_fetches_pq[1] > 0.0
          ? fast_fetches_pq[0] / fast_fetches_pq[1]
          : std::numeric_limits<double>::infinity();
  const std::string reduction_str =
      std::isinf(fetch_reduction) ? "eliminated entirely"
                                  : Table::fmt(fetch_reduction, 1) +
                                        "x fewer";
  std::cout << "fastpath: " << Table::fmt(fast_fetches_pq[0], 2) << " -> "
            << Table::fmt(fast_fetches_pq[1], 2) << " fetches/query ("
            << reduction_str << "), p99 " << Table::fmt(fast_p99[0], 1)
            << " -> " << Table::fmt(fast_p99[1], 1) << " us\n\n";

  // ---- Phase 4: query tail latency while the update PLANE absorbs. ---
  // The live sharded tier: LiveShards behind the same QueryRouter, the
  // UpdateRouter fanning insert batches to every shard. No freeze, no
  // re-shard — the burst mutates the serving cluster in place while the
  // Zipf clients stay on it.
  serve::ServeOptions live_so;
  live_so.num_shards = 4;
  live_so.colocate = false;  // live serving fetches; versions keep it fresh
  live_so.connections_per_shard = clients;
  live_so.cache_bytes = 64ull << 20;
  serve::ServingCluster live_cluster(model, base_graph, live_so);
  const auto live_topk = [&](VertexId u) {
    return live_cluster.router().topk(u);
  };

  const auto idle =
      drive_load(users, clients, per_client, opt.seed + 1, live_topk);

  // Writer burst: the held-back edges stream through the plane in small
  // batches. Each apply() round trip IS the staleness window — the time
  // from submitting an insert until every shard has republished its
  // owned stale rows (a served answer can lag a submitted insert by at
  // most one window; queries never wait on it).
  constexpr std::size_t kUpdateBatch = 8;
  std::vector<double> window_us;
  window_us.reserve(inserts.size() / kUpdateBatch + 1);
  double burst_wall = 0.0;
  std::thread writer([&] {
    WallTimer t;
    auto& plane = live_cluster.update_router();
    for (std::size_t at = 0; at < inserts.size(); at += kUpdateBatch) {
      const std::size_t len =
          std::min(kUpdateBatch, inserts.size() - at);
      WallTimer w;
      (void)plane.apply({inserts.data() + at, len});
      window_us.push_back(w.seconds() * 1e6);
    }
    burst_wall = t.seconds();
  });
  const auto burst = drive_load(users, clients, per_client, opt.seed + 2,
                                live_topk);
  writer.join();

  // The same cluster — never rebuilt — now serves the union graph's
  // model, and is held to the bit-identity bar against a from-scratch
  // fit on it (ENFORCED).
  const std::uint64_t plane_version =
      live_cluster.update_router().barrier();
  const auto union_model = std::make_shared<const PredictorModel>(
      predictor.fit(union_graph));
  const QueryEngine union_engine(union_model);
  std::size_t live_mismatches = 0;
  for (const VertexId u : sample) {
    if (live_cluster.router().topk(u) != union_engine.topk(u)) {
      ++live_mismatches;
    }
  }

  const auto us = live_cluster.update_router().stats();
  Table update({"phase", "queries", "wall s", "queries_per_second",
                "p50_us", "p99_us", "stale_p50_us", "stale_p99_us"});
  update.add_row({"queries-idle", std::to_string(idle.queries),
                  Table::fmt(idle.wall_s, 4), Table::fmt(idle.qps, 0),
                  Table::fmt(idle.p50_us, 1), Table::fmt(idle.p99_us, 1),
                  "-", "-"});
  update.add_row({"queries-during-burst", std::to_string(burst.queries),
                  Table::fmt(burst.wall_s, 4), Table::fmt(burst.qps, 0),
                  Table::fmt(burst.p50_us, 1), Table::fmt(burst.p99_us, 1),
                  Table::fmt(percentile(window_us, 0.50), 1),
                  Table::fmt(percentile(window_us, 0.99), 1)});
  bench::finish(update, opt, "update");
  std::cout << "update plane: " << us.edges << " inserts in "
            << us.batches << " batches over " << Table::fmt(burst_wall, 4)
            << " s; " << us.gamma_rows + us.sims_rows + us.hop2_rows
            << " stale rows refreshed (" << us.gamma_rows << " gamma, "
            << us.sims_rows << " sims, " << us.hop2_rows << " hop2), "
            << us.bytes_sent + us.bytes_received
            << " wire B; cluster version " << plane_version << "\n\n";

  // ---- Phase 5: sliding-window replay through the plane. -------------
  // A fresh live cluster replays the same stream in timestamp order
  // with a window of half its length: each insert batch past capacity
  // is followed by an op-6 remove batch expiring the edges that slid
  // out, while the Zipf clients stay on the cluster. Every op round
  // trip (insert or remove) is a staleness window sample.
  serve::ServingCluster window_cluster(model, base_graph, live_so);
  const auto window_topk = [&](VertexId u) {
    return window_cluster.router().topk(u);
  };
  const std::size_t window =
      std::max<std::size_t>(kUpdateBatch, inserts.size() / 2);
  std::vector<double> window_op_us;
  window_op_us.reserve(2 * (inserts.size() / kUpdateBatch + 1));
  double window_wall = 0.0;
  std::size_t expired = 0;
  std::thread window_writer([&] {
    WallTimer t;
    auto& plane = window_cluster.update_router();
    for (std::size_t at = 0; at < inserts.size(); at += kUpdateBatch) {
      const std::size_t len = std::min(kUpdateBatch, inserts.size() - at);
      WallTimer w;
      (void)plane.apply({inserts.data() + at, len});
      window_op_us.push_back(w.seconds() * 1e6);
      // Expire everything that slid out: the live inserts are always
      // the most recent `window` of the stream.
      const std::size_t done = at + len;
      const std::size_t target = done > window ? done - window : 0;
      if (target > expired) {
        WallTimer w2;
        (void)plane.remove(
            {inserts.data() + expired, target - expired});
        window_op_us.push_back(w2.seconds() * 1e6);
        expired = target;
      }
    }
    window_wall = t.seconds();
  });
  const auto wreplay = drive_load(users, clients, per_client, opt.seed + 4,
                                  window_topk);
  window_writer.join();

  // End-of-replay gate: the cluster serves the window graph's model.
  const std::uint64_t window_version =
      window_cluster.update_router().barrier();
  GraphBuilder window_builder(union_graph.num_vertices());
  for (const Edge& e : base_graph->edges()) {
    window_builder.add_edge(e.src, e.dst);
  }
  for (std::size_t i = expired; i < inserts.size(); ++i) {
    window_builder.add_edge(inserts[i].src, inserts[i].dst);
  }
  const auto window_model = std::make_shared<const PredictorModel>(
      predictor.fit(window_builder.build()));
  const QueryEngine window_engine(window_model);
  std::size_t window_mismatches = 0;
  for (const VertexId u : sample) {
    if (window_cluster.router().topk(u) != window_engine.topk(u)) {
      ++window_mismatches;
    }
  }

  const auto ws = window_cluster.update_router().stats();
  const double window_churn =
      static_cast<double>(ws.edges + ws.removals) /
      std::max(window_wall, 1e-12);
  Table win({"phase", "queries", "wall s", "queries_per_second", "p50_us",
             "p99_us", "stale_p50_us", "stale_p99_us"});
  win.add_row({"queries-during-window-replay",
               std::to_string(wreplay.queries),
               Table::fmt(wreplay.wall_s, 4), Table::fmt(wreplay.qps, 0),
               Table::fmt(wreplay.p50_us, 1), Table::fmt(wreplay.p99_us, 1),
               Table::fmt(percentile(window_op_us, 0.50), 1),
               Table::fmt(percentile(window_op_us, 0.99), 1)});
  bench::finish(win, opt, "window");
  std::cout << "window replay (W=" << window << "): " << ws.edges
            << " inserts + " << ws.removals << " removals ("
            << ws.remove_batches << " remove batches) over "
            << Table::fmt(window_wall, 4) << " s = "
            << Table::fmt(window_churn, 0)
            << " churn ops/s; cluster version " << window_version << "\n\n";

  // ---- Gates. --------------------------------------------------------
  if (total_mismatches > 0) {
    std::cerr << "ERROR: " << total_mismatches
              << " sharded answers diverged from the single-process "
                 "QueryEngine\n";
    return 1;
  }
  if (live_mismatches > 0) {
    std::cerr << "ERROR: " << live_mismatches
              << " live-plane answers diverged from the union-graph "
                 "refit after the insert burst\n";
    return 1;
  }
  if (window_mismatches > 0) {
    std::cerr << "ERROR: " << window_mismatches
              << " answers diverged from the window-graph refit after "
                 "the sliding-window replay\n";
    return 1;
  }
  if (fetch_reduction < 2.0) {
    std::cerr << "ERROR: hot-row cache cut fetches/query only "
              << Table::fmt(fetch_reduction, 2)
              << "x at 8 shards (fast path requires >= 2x): "
              << Table::fmt(fast_fetches_pq[0], 2) << " -> "
              << Table::fmt(fast_fetches_pq[1], 2) << "\n";
    return 1;
  }
  std::cout << "correctness: " << sample.size() << " Zipf users × "
            << correctness_configs
            << " cluster configs identical to QueryEngine; live plane "
               "identical to the union-graph refit post-burst; windowed "
               "replay identical to the window-graph refit; "
               "warm-cache repeat fetches "
            << reduction_str << "\n";
  return 0;
}
