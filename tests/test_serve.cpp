// Sharded serving tier: range planning, byte transports, wire routing.
//
// The load-bearing property mirrors test_model_query's: a topk served
// by a ServingCluster — u routed to its owning shard, neighbor rows
// co-located or remote-fetched, floats crossing a byte transport — is
// BIT-identical to the single-process QueryEngine on the unsharded
// model, for every vertex, across seeds × shard counts × K × both
// transports. Scores travel as raw f32 bytes and the shard replays the
// same machine-grouped fold, so EXPECT_EQ on (id, score) pairs holds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <numeric>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "core/model.hpp"
#include "core/predictor.hpp"
#include "core/query_engine.hpp"
#include "graph/builder.hpp"
#include "graph/gen/datasets.hpp"
#include "serve/model_shard.hpp"
#include "serve/router.hpp"
#include "serve/transport.hpp"

namespace snaple {
namespace {

using serve::ByteChannel;
using serve::ModelShard;
using serve::ServeOptions;
using serve::ServingCluster;
using serve::TransportError;
using serve::TransportKind;
using serve::TransportTimeout;
using Scored = std::vector<std::pair<VertexId, float>>;

constexpr TransportKind kTransports[] = {TransportKind::kInProcess,
                                         TransportKind::kUnixSocket,
                                         TransportKind::kTcp};

std::shared_ptr<const PredictorModel> fit_model(std::uint64_t seed,
                                                std::size_t k_hops) {
  const CsrGraph g = gen::make_dataset("gowalla", 0.02, seed);
  SnapleConfig cfg;
  cfg.k_local = 10;
  cfg.k_hops = k_hops;
  cfg.seed = seed;
  // Multi-machine fit: nontrivial machine tags must survive the wire.
  const LinkPredictor predictor(cfg, gas::ClusterConfig::type_i(4));
  return std::make_shared<const PredictorModel>(predictor.fit(g));
}

// ---------- range planning ----------

TEST(RangePlanning, UniformWeightsSplitEvenly) {
  std::vector<std::uint64_t> prefix(101);
  for (std::size_t i = 0; i <= 100; ++i) prefix[i] = i;  // weight 1 each
  const auto ranges = gas::split_weighted_ranges(prefix, 4);
  ASSERT_EQ(ranges.size(), 4u);
  EXPECT_EQ(ranges.front().begin, 0u);
  EXPECT_EQ(ranges.back().end, 100u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ranges[i].size(), 25u) << i;
    if (i > 0) {
      EXPECT_EQ(ranges[i].begin, ranges[i - 1].end);
    }
  }
}

TEST(RangePlanning, SkewedWeightIsolatesTheHub) {
  // One vertex carries ~all the weight: with 2 parts it must sit alone
  // on one side rather than drag half the light vertices with it.
  std::vector<std::uint64_t> prefix = {0, 1000, 1001, 1002, 1003, 1004};
  const auto ranges = gas::split_weighted_ranges(prefix, 2);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], (gas::VertexRange{0, 1}));
  EXPECT_EQ(ranges[1], (gas::VertexRange{1, 5}));
}

TEST(RangePlanning, MorePartsThanVerticesYieldsEmptyRanges) {
  std::vector<std::uint64_t> prefix = {0, 1, 2};
  const auto ranges = gas::split_weighted_ranges(prefix, 5);
  ASSERT_EQ(ranges.size(), 5u);
  EXPECT_EQ(ranges.back().end, 2u);
  std::size_t covered = 0;
  for (const auto& r : ranges) covered += r.size();
  EXPECT_EQ(covered, 2u);  // disjoint contiguous cover of [0, 2)
  // Owner lookup skips the empty ranges.
  for (VertexId u = 0; u < 2; ++u) {
    EXPECT_TRUE(ranges[gas::range_owner(ranges, u)].contains(u)) << u;
  }
}

TEST(RangePlanning, RejectsBadPrefixAndOutOfRangeLookup) {
  std::vector<std::uint64_t> no_zero = {1, 2};
  EXPECT_THROW((void)gas::split_weighted_ranges(no_zero, 2), CheckError);
  std::vector<std::uint64_t> ok = {0, 1, 2};
  EXPECT_THROW((void)gas::split_weighted_ranges(ok, 0), CheckError);
  const auto ranges = gas::split_weighted_ranges(ok, 2);
  EXPECT_THROW((void)gas::range_owner(ranges, 2), CheckError);
}

TEST(RangePlanning, ShardRangesBalanceModelBytes) {
  const auto model = fit_model(5, 3);
  const auto ranges = serve::plan_shard_ranges(*model, 4);
  ASSERT_EQ(ranges.size(), 4u);
  EXPECT_EQ(ranges.back().end, model->num_vertices());
  std::uint64_t total = 0;
  std::vector<std::uint64_t> bytes(4, 0);
  for (std::size_t s = 0; s < 4; ++s) {
    for (VertexId u = ranges[s].begin; u < ranges[s].end; ++u) {
      bytes[s] += model->row_bytes(u);
    }
    total += bytes[s];
  }
  for (std::size_t s = 0; s < 4; ++s) {
    // A contiguous split can't be perfect; 2× the ideal share is the
    // "clearly balanced" bar on this graph.
    EXPECT_LT(bytes[s], total / 2) << "shard " << s;
  }
}

// ---------- transports ----------

TEST(Transport, RoundTripAndByteAccounting) {
  for (const auto kind : kTransports) {
    auto pair = serve::make_channel_pair(kind);
    const std::string ping = "hello shards";
    pair.client->send(ping.data(), ping.size());
    std::string got(ping.size(), '\0');
    pair.server->recv(got.data(), got.size());
    EXPECT_EQ(got, ping) << serve::to_string(kind);
    EXPECT_EQ(pair.client->bytes_sent(), ping.size());
    EXPECT_EQ(pair.server->bytes_received(), ping.size());

    // And the other direction, split over two sends / one recv.
    pair.server->send(ping.data(), 5);
    pair.server->send(ping.data() + 5, ping.size() - 5);
    std::string back(ping.size(), '\0');
    pair.client->recv(back.data(), back.size());
    EXPECT_EQ(back, ping) << serve::to_string(kind);
  }
}

TEST(Transport, CloseWakesBlockedReaderAndFailsFurtherUse) {
  for (const auto kind : kTransports) {
    auto pair = serve::make_channel_pair(kind);
    std::atomic<bool> threw{false};
    std::thread reader([&] {
      char byte;
      try {
        pair.server->recv(&byte, 1);
      } catch (const TransportError&) {
        threw = true;
      }
    });
    pair.client->close();
    reader.join();
    EXPECT_TRUE(threw.load()) << serve::to_string(kind);
    char byte = 0;
    EXPECT_THROW(pair.client->send(&byte, 1), TransportError);
  }
}

TEST(Transport, QueuedBytesReadableAfterPeerCloses) {
  // Socket EOF semantics: data sent before close must still arrive —
  // also when a read-ahead buffer already holds it.
  for (const auto kind : kTransports) {
    auto pair = serve::make_channel_pair(kind);
    const std::uint32_t value = 0xabcd1234;
    const std::uint16_t tail = 0x5a5a;
    pair.client->send(&value, sizeof(value));
    pair.client->send(&tail, sizeof(tail));
    pair.client->close();
    std::uint32_t got = 0;
    pair.server->recv(&got, sizeof(got));
    EXPECT_EQ(got, value) << serve::to_string(kind);
    std::uint16_t got_tail = 0;
    pair.server->recv(&got_tail, sizeof(got_tail));
    EXPECT_EQ(got_tail, tail) << serve::to_string(kind);
    char extra;
    EXPECT_THROW(pair.server->recv(&extra, 1), TransportError)
        << serve::to_string(kind);
    EXPECT_EQ(pair.server->bytes_received(), sizeof(value) + sizeof(tail));
  }
}

TEST(Transport, BackToBackMessagesQueuedBeforeTheReaderWakes) {
  // Every message is queued before the first recv, so one socket read
  // can return several of them at once: reads smaller than the
  // read-ahead buffer, larger than it, and straddling its refills must
  // each get exactly their own bytes, in order.
  const std::size_t sizes[] = {1, 4, 5000, 3, 4096, 2, 9000, 1, 4095, 8};
  for (const auto kind : kTransports) {
    auto pair = serve::make_channel_pair(kind);
    std::vector<std::vector<std::uint8_t>> sent;
    std::uint8_t next = 0;
    std::size_t total = 0;
    for (const std::size_t size : sizes) {
      std::vector<std::uint8_t> msg(size);
      for (auto& byte : msg) byte = next++;
      pair.client->send(msg.data(), msg.size());
      sent.push_back(std::move(msg));
      total += size;
    }
    for (const auto& msg : sent) {
      std::vector<std::uint8_t> got(msg.size());
      pair.server->recv(got.data(), got.size());
      ASSERT_EQ(got, msg) << serve::to_string(kind) << " size "
                          << msg.size();
    }
    EXPECT_EQ(pair.server->bytes_received(), total) << serve::to_string(kind);
    // Drained exactly: nothing more is readable.
    pair.server->set_recv_timeout(std::chrono::milliseconds(20));
    char extra;
    EXPECT_THROW(pair.server->recv(&extra, 1), serve::TransportTimeout)
        << serve::to_string(kind);
  }
}

TEST(Transport, TcpListenerHandsOutEphemeralPortsAndConnects) {
  serve::TcpListener listener(0);
  EXPECT_GT(listener.port(), 0u);  // kernel-assigned, reported back
  auto client = serve::tcp_connect("127.0.0.1", listener.port());
  auto server = listener.accept();
  const std::uint64_t value = 0x123456789abcdef0ull;
  client->send(&value, sizeof(value));
  std::uint64_t got = 0;
  server->recv(&got, sizeof(got));
  EXPECT_EQ(got, value);
  // A closed listener stops accepting; live channels are unaffected.
  listener.close();
  server->send(&value, sizeof(value));
  got = 0;
  client->recv(&got, sizeof(got));
  EXPECT_EQ(got, value);
}

TEST(Transport, RecvDeadlineSurfacesSilentPeerAsTimeout) {
  using namespace std::chrono_literals;
  for (const auto kind : kTransports) {
    auto pair = serve::make_channel_pair(kind);
    pair.client->set_recv_timeout(50ms);
    char byte = 0;
    // Nothing queued and nobody sending: the deadline must fire rather
    // than block forever — as the TransportError subclass, so generic
    // error paths still catch it.
    EXPECT_THROW(pair.client->recv(&byte, 1), TransportTimeout)
        << serve::to_string(kind);
    EXPECT_THROW(pair.client->recv(&byte, 1), TransportError)
        << serve::to_string(kind);
    // The channel survives a timeout: once the peer does respond, the
    // same recv path delivers the bytes.
    const char ping = 'x';
    pair.server->send(&ping, 1);
    pair.client->recv(&byte, 1);
    EXPECT_EQ(byte, 'x') << serve::to_string(kind);
    // Disarming (0) restores blocking recv: data already queued works.
    pair.client->set_recv_timeout(0ms);
    pair.server->send(&ping, 1);
    byte = 0;
    pair.client->recv(&byte, 1);
    EXPECT_EQ(byte, 'x') << serve::to_string(kind);
  }
}

TEST(Transport, DeadlineDistinguishesSilenceFromEof) {
  using namespace std::chrono_literals;
  for (const auto kind : kTransports) {
    auto pair = serve::make_channel_pair(kind);
    pair.server->set_recv_timeout(50ms);
    pair.client->close();
    char byte = 0;
    // Peer is GONE, not slow: plain TransportError (EOF), not timeout.
    try {
      pair.server->recv(&byte, 1);
      FAIL() << serve::to_string(kind);
    } catch (const TransportTimeout&) {
      FAIL() << serve::to_string(kind) << ": EOF misreported as timeout";
    } catch (const TransportError&) {
      // expected
    }
  }
}

// ---------- shard-local slicing ----------

TEST(ModelShardApi, ColocatedShardAnswersWithoutFetches) {
  const auto model = fit_model(3, 2);
  const QueryEngine engine(model);
  const auto ranges = serve::plan_shard_ranges(*model, 3);
  for (const auto& range : ranges) {
    const ModelShard shard = ModelShard::build(*model, range, true);
    for (VertexId u = range.begin; u < range.end; ++u) {
      EXPECT_TRUE(shard.missing_rows(u).empty()) << u;
      ASSERT_EQ(shard.topk(u), engine.topk(u)) << u;
    }
  }
}

TEST(ModelShardApi, FetchModeNamesMissingRowsAndRejectsBlindTopk) {
  const auto model = fit_model(3, 3);
  const auto ranges = serve::plan_shard_ranges(*model, 4);
  const ModelShard shard = ModelShard::build(*model, ranges[1], false);
  EXPECT_EQ(shard.replica_count(), 0u);
  bool any_missing = false;
  for (VertexId u = ranges[1].begin; u < ranges[1].end; ++u) {
    const auto missing = shard.missing_rows(u);
    for (const VertexId v : missing) {
      EXPECT_FALSE(ranges[1].contains(v));
    }
    if (!missing.empty()) {
      any_missing = true;
      // Serving without the fetched rows must throw, never misscore.
      EXPECT_THROW((void)shard.topk(u), CheckError);
    }
  }
  EXPECT_TRUE(any_missing);  // 1/4 of this graph surely has remote edges
  // Misrouted query: not owned here.
  EXPECT_THROW((void)shard.topk(ranges[1].end), CheckError);
}

// ---------- the tentpole: sharded ≡ single-process, bit for bit ----------

TEST(ShardedServing, BitIdenticalToQueryEngineAcrossTheMatrix) {
  for (const std::uint64_t seed : {3ull, 5ull, 11ull}) {
    for (const std::size_t k_hops : {2ul, 3ul}) {
      const auto model = fit_model(seed, k_hops);
      const QueryEngine engine(model);
      std::vector<Scored> want(model->num_vertices());
      for (VertexId u = 0; u < model->num_vertices(); ++u) {
        want[u] = engine.topk(u);
      }
      for (const std::size_t shards : {1ul, 2ul, 8ul}) {
        for (const auto transport : kTransports) {
          for (const bool colocate : {true, false}) {
            ServeOptions opt;
            opt.num_shards = shards;
            opt.transport = transport;
            opt.colocate = colocate;
            ServingCluster cluster(*model, opt);
            for (VertexId u = 0; u < model->num_vertices(); ++u) {
              ASSERT_EQ(cluster.router().topk(u), want[u])
                  << "seed=" << seed << " K=" << k_hops << " shards="
                  << shards << " transport="
                  << serve::to_string(transport)
                  << " colocate=" << colocate << " u=" << u;
            }
          }
        }
      }
    }
  }
}

TEST(ShardedServing, KPlumbsThroughTheWire) {
  const auto model = fit_model(5, 2);
  const QueryEngine engine(model);
  ServeOptions opt;
  opt.num_shards = 2;
  ServingCluster cluster(*model, opt);
  for (const VertexId u : {VertexId{0}, VertexId{7}, VertexId{399}}) {
    EXPECT_EQ(cluster.router().topk(u, 1), engine.topk(u, 1)) << u;
    // k=0 means the model's configured k on both sides; a huge k means
    // the whole candidate tail, clamped identically.
    EXPECT_EQ(cluster.router().topk(u), engine.topk(u)) << u;
    EXPECT_EQ(cluster.router().topk(u, kUnlimited),
              engine.topk(u, kUnlimited))
        << u;
  }
}

// ---------- pipelined + batched submission ----------

TEST(ShardedServing, BatchedSubmissionBitIdenticalOneMessagePerShard) {
  const auto model = fit_model(5, 3);
  const QueryEngine engine(model);
  const VertexId n = model->num_vertices();
  std::vector<Scored> want(n);
  for (VertexId u = 0; u < n; ++u) want[u] = engine.topk(u);

  for (const std::size_t shards : {2ul, 8ul}) {
    for (const auto transport : kTransports) {
      for (const bool colocate : {true, false}) {
        ServeOptions opt;
        opt.num_shards = shards;
        opt.transport = transport;
        opt.colocate = colocate;
        ServingCluster cluster(*model, opt);
        auto& router = cluster.router();

        // Shuffled order so every chunk straddles shard boundaries.
        std::vector<VertexId> users(n);
        std::iota(users.begin(), users.end(), VertexId{0});
        std::mt19937 rng(7);
        std::shuffle(users.begin(), users.end(), rng);

        constexpr std::size_t kChunk = 64;
        std::uint64_t expect_messages = 0;
        for (std::size_t i = 0; i < users.size(); i += kChunk) {
          const std::span<const VertexId> chunk(
              users.data() + i, std::min(kChunk, users.size() - i));
          std::set<std::size_t> owners;
          for (const VertexId u : chunk) owners.insert(router.shard_of(u));
          expect_messages += owners.size();
          const auto got = router.topk_batch(chunk);
          ASSERT_EQ(got.size(), chunk.size());
          for (std::size_t j = 0; j < chunk.size(); ++j) {
            ASSERT_EQ(got[j], want[chunk[j]])
                << "shards=" << shards << " transport="
                << serve::to_string(transport) << " colocate=" << colocate
                << " u=" << chunk[j];
          }
        }
        // The batching contract: ONE counted wire message per owning
        // shard per chunk — never one per query.
        const auto rs = router.stats();
        EXPECT_EQ(rs.requests, expect_messages);
        EXPECT_EQ(rs.batch_requests, expect_messages);
        EXPECT_EQ(rs.batched_queries, n);
      }
    }
  }
}

TEST(ShardedServing, AsyncSubmissionPipelinesOnOneConnection) {
  const auto model = fit_model(3, 2);
  const QueryEngine engine(model);
  ServeOptions opt;
  opt.num_shards = 2;
  opt.colocate = false;
  opt.connections_per_shard = 1;  // all overlap happens on single links
  ServingCluster cluster(*model, opt);

  const VertexId n = model->num_vertices();
  std::vector<std::future<Scored>> futures;
  futures.reserve(n);
  for (VertexId u = 0; u < n; ++u) {
    futures.push_back(cluster.router().topk_async(u));
  }
  for (VertexId u = 0; u < n; ++u) {
    ASSERT_EQ(futures[u].get(), engine.topk(u)) << u;
  }
  const auto rs = cluster.router().stats();
  EXPECT_EQ(rs.requests, n);
  // Submitting everything before awaiting anything must actually have
  // overlapped round trips, not degenerated to lockstep.
  EXPECT_GT(rs.max_inflight, 1u);
}

TEST(ShardedServing, BatchValidatesUpFrontAndBatchErrorsCrossTheWire) {
  const auto model = fit_model(3, 2);
  const QueryEngine engine(model);
  const VertexId n = model->num_vertices();
  {
    ServeOptions opt;
    opt.num_shards = 2;
    ServingCluster cluster(*model, opt);
    // A bad id anywhere rejects the whole batch before submission.
    const VertexId bad[] = {0, n};
    EXPECT_THROW((void)cluster.router().topk_batch(bad), CheckError);
    EXPECT_EQ(cluster.router().stats().batch_requests, 0u);
    const std::vector<VertexId> none;
    EXPECT_TRUE(cluster.router().topk_batch(none).empty());
  }

  // A misrouted batch (router with a wrong layout) fails as ONE error
  // response — raised as CheckError — and the connection survives.
  const gas::VertexRange half{0, n / 2};
  serve::ShardServer server(ModelShard::build(*model, half, true),
                            {gas::VertexRange{0, n}});
  auto link = serve::make_channel_pair(TransportKind::kInProcess);
  server.serve(std::move(link.server));
  std::vector<std::vector<std::unique_ptr<ByteChannel>>> pool(1);
  pool[0].push_back(std::move(link.client));
  serve::QueryRouter router({gas::VertexRange{0, n}}, std::move(pool));
  const VertexId misrouted[] = {0, n - 1};
  EXPECT_THROW((void)router.topk_batch(misrouted), CheckError);
  const VertexId fine[] = {0, 1};
  const auto got = router.topk_batch(fine);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], engine.topk(0));
  EXPECT_EQ(got[1], engine.topk(1));
  EXPECT_EQ(server.stats().errors, 1u);
}

// ---------- cost-model accounting ----------

TEST(ShardedServing, ColocationTradesReplicaBytesForZeroFetches) {
  const auto model = fit_model(7, 3);
  ServeOptions colocated;
  colocated.num_shards = 4;
  colocated.colocate = true;
  ServingCluster a(*model, colocated);
  ServeOptions fetching = colocated;
  fetching.colocate = false;
  ServingCluster b(*model, fetching);

  const VertexId n = model->num_vertices();
  for (VertexId u = 0; u < n; ++u) {
    ASSERT_EQ(a.router().topk(u), b.router().topk(u)) << u;
  }

  std::uint64_t a_queries = 0, a_replicas = 0, a_fetches = 0;
  for (const auto& s : a.stats()) {
    a_queries += s.queries;
    a_replicas += s.replica_count;
    a_fetches += s.remote_fetch_requests;
    EXPECT_EQ(s.peer_bytes_out, 0u);  // no peer links in colocate mode
  }
  EXPECT_EQ(a_queries, n);
  EXPECT_GT(a_replicas, 0u);  // the co-location cost is real…
  EXPECT_EQ(a_fetches, 0u);   // …and buys query-time locality

  std::uint64_t b_fetches = 0, b_rows = 0, b_peer_bytes = 0;
  for (const auto& s : b.stats()) {
    EXPECT_EQ(s.replica_count, 0u);
    b_fetches += s.remote_fetch_requests;
    b_rows += s.remote_rows;
    b_peer_bytes += s.peer_bytes_out + s.peer_bytes_in;
  }
  EXPECT_GT(b_fetches, 0u);
  EXPECT_GT(b_rows, 0u);
  EXPECT_GT(b_peer_bytes, 0u);
  // One batched fetch per owning shard per query, never per row: with 4
  // shards a query contacts at most 3 peers.
  EXPECT_LE(b_fetches, static_cast<std::uint64_t>(n) * 3);

  // Router-side byte accounting matches the shards' frontend counters.
  std::uint64_t frontend_in = 0;
  for (const auto& s : b.stats()) frontend_in += s.frontend_bytes_in;
  EXPECT_EQ(frontend_in, b.router().bytes_sent());
  EXPECT_GT(b.router().bytes_received(), 0u);
}

TEST(ShardedServing, SingleShardNeverFetches) {
  const auto model = fit_model(3, 2);
  ServeOptions opt;
  opt.num_shards = 1;
  opt.colocate = false;
  ServingCluster cluster(*model, opt);
  for (VertexId u = 0; u < model->num_vertices(); u += 17) {
    (void)cluster.router().topk(u);
  }
  const auto stats = cluster.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].remote_fetch_requests, 0u);
  EXPECT_EQ(stats[0].remote_rows, 0u);
}

// ---------- errors and concurrency ----------

TEST(ShardedServing, ErrorsCrossTheWireAsCheckErrors) {
  const auto model = fit_model(3, 2);
  ServeOptions opt;
  opt.num_shards = 2;
  ServingCluster cluster(*model, opt);
  // Out of model range: rejected router-side, same as QueryEngine.
  EXPECT_THROW((void)cluster.router().topk(model->num_vertices()),
               CheckError);

  // A misrouted query must come back as an error *response* — raised on
  // the caller's side as CheckError — and leave the connection usable.
  // Build the misroute directly: a router whose (wrong) layout claims
  // one shard owns everything, over a server owning only [0, half).
  const VertexId n = model->num_vertices();
  const gas::VertexRange half{0, n / 2};
  serve::ShardServer server(ModelShard::build(*model, half, true),
                            {gas::VertexRange{0, n}});
  auto link = serve::make_channel_pair(TransportKind::kInProcess);
  server.serve(std::move(link.server));
  std::vector<std::vector<std::unique_ptr<ByteChannel>>> pool(1);
  pool[0].push_back(std::move(link.client));
  serve::QueryRouter router({gas::VertexRange{0, n}}, std::move(pool));
  EXPECT_THROW((void)router.topk(n - 1), CheckError);
  const QueryEngine engine(model);
  EXPECT_EQ(router.topk(0), engine.topk(0));  // connection survived
  EXPECT_EQ(server.stats().errors, 1u);
}

TEST(ShardedServing, UnresponsiveShardFailsInflightAndGoesDead) {
  using namespace std::chrono_literals;
  const auto model = fit_model(3, 2);
  const VertexId n = model->num_vertices();

  // A link whose server end is held open but NEVER serviced: the shard
  // is reachable yet silent. Without a deadline the drain thread would
  // block forever; with one, every pending future fails fast.
  auto link = serve::make_channel_pair(TransportKind::kInProcess);
  std::vector<std::vector<std::unique_ptr<ByteChannel>>> pool(1);
  pool[0].push_back(std::move(link.client));
  serve::QueryRouter router({gas::VertexRange{0, n}}, std::move(pool),
                            100ms);

  auto f1 = router.topk_async(0);
  auto f2 = router.topk_async(1);
  EXPECT_THROW((void)f1.get(), TransportError);
  EXPECT_THROW((void)f2.get(), TransportError);
  // The connection is condemned, not retried: later queries fail
  // immediately instead of burning another deadline each.
  EXPECT_THROW((void)router.topk(2), TransportError);
  (void)link.server;  // kept alive the whole time: silence, not EOF

  // A shard that STARTS a response — its status byte — and then goes
  // silent past the deadline. The drain thread was idle when that byte
  // arrived, so only having consumed it tells this deadline apart from
  // idle silence: it fires mid-frame, must fail every in-flight future
  // and condemn the connection. Were it retried like an idle timeout,
  // the rest of the frame, arriving late, would be read out of frame:
  // its first byte as a status, failing a future with CheckError.
  for (const auto kind : kTransports) {
    auto half = serve::make_channel_pair(kind);
    std::vector<std::vector<std::unique_ptr<ByteChannel>>> pool2(1);
    pool2[0].push_back(std::move(half.client));
    serve::QueryRouter stalled({gas::VertexRange{0, n}}, std::move(pool2),
                               300ms);
    std::this_thread::sleep_for(20ms);  // the drain thread waits idle
    auto g1 = stalled.topk_async(0);
    auto g2 = stalled.topk_async(1);
    const std::uint8_t ok_status = 0;
    half.server->send(&ok_status, 1);
    // Past the deadline, well inside the window a wrongful idle retry
    // would wait: the frame's remaining bytes (an empty topk answer).
    std::this_thread::sleep_for(450ms);
    const std::uint32_t rest[2] = {sizeof(std::uint32_t), 0};
    try {
      half.server->send(rest, sizeof(rest));
    } catch (const TransportError&) {
      // The router already closed its end: expected.
    }
    ASSERT_EQ(g1.wait_for(10s), std::future_status::ready)
        << serve::to_string(kind);
    ASSERT_EQ(g2.wait_for(10s), std::future_status::ready)
        << serve::to_string(kind);
    EXPECT_THROW((void)g1.get(), TransportError) << serve::to_string(kind);
    EXPECT_THROW((void)g2.get(), TransportError) << serve::to_string(kind);
    EXPECT_THROW((void)stalled.topk(2), TransportError)
        << serve::to_string(kind);
  }
}

TEST(ShardedServing, PeerErrorInAFanOutFailsOneQueryAndDrainsEveryLink) {
  // Shard 0 fetches its missing rows from shards 1 and 2 in one
  // overlapped fan-out: both requests are sent before either response is
  // read. Shard 1's server disagrees with the layout shard 0 holds — it
  // owns only the front of range 1 — so a query that needs a row from
  // range 1's tail gets an error from shard 1 while shard 2 answers. That
  // query must fail with CheckError, and shard 2's answer must still be
  // drained: every later query, over both peer links, equals the engine.
  const auto model = fit_model(5, 2);
  const QueryEngine engine(model);
  const VertexId n = model->num_vertices();
  const auto ranges = serve::plan_shard_ranges(*model, 3);
  const gas::VertexRange r1 = ranges[1];
  const VertexId cut = r1.begin + (r1.end - r1.begin) / 2;
  const ModelShard front = ModelShard::build(*model, ranges[0], false);

  // Classify shard 0's users by which owners their missing rows hit.
  std::vector<VertexId> failing, passing;
  for (VertexId u = ranges[0].begin; u < ranges[0].end; ++u) {
    bool head = false, tail = false, r2 = false;
    for (const VertexId v : front.missing_rows(u)) {
      head |= r1.contains(v) && v < cut;
      tail |= r1.contains(v) && v >= cut;
      r2 |= ranges[2].contains(v);
    }
    if (tail && r2) failing.push_back(u);
    if (!tail && head && r2) passing.push_back(u);
  }
  ASSERT_FALSE(failing.empty());
  ASSERT_FALSE(passing.empty());

  for (const auto kind : kTransports) {
    serve::ShardServer server0(ModelShard::build(*model, ranges[0], false),
                               ranges);
    serve::ShardServer server1(
        ModelShard::build(*model, {r1.begin, cut}, false), ranges);
    serve::ShardServer server2(ModelShard::build(*model, ranges[2], false),
                               ranges);
    for (const std::size_t j : {1u, 2u}) {
      auto link = serve::make_channel_pair(kind);
      (j == 1 ? server1 : server2)
          .serve(std::move(link.server), /*frontend=*/false);
      server0.connect_peer(j, std::move(link.client));
    }
    auto front_link = serve::make_channel_pair(kind);
    server0.serve(std::move(front_link.server));
    std::vector<std::vector<std::unique_ptr<ByteChannel>>> pool(1);
    pool[0].push_back(std::move(front_link.client));
    serve::QueryRouter router({gas::VertexRange{0, n}}, std::move(pool));

    // Interleaved, so every failed fan-out is followed by queries that
    // would read its undrained response if one were left behind.
    const std::size_t rounds = std::min<std::size_t>(failing.size(), 20);
    for (std::size_t i = 0; i < rounds; ++i) {
      EXPECT_THROW((void)router.topk(failing[i]), CheckError)
          << serve::to_string(kind) << " u=" << failing[i];
      const VertexId u = passing[i % passing.size()];
      EXPECT_EQ(router.topk(u), engine.topk(u))
          << serve::to_string(kind) << " u=" << u;
    }
    for (const VertexId u : passing) {
      ASSERT_EQ(router.topk(u), engine.topk(u))
          << serve::to_string(kind) << " u=" << u;
    }
    EXPECT_EQ(server0.stats().errors, rounds) << serve::to_string(kind);
    EXPECT_EQ(server1.stats().errors, rounds) << serve::to_string(kind);
    router.close();
  }
}

TEST(ShardedServing, IdleDeadlineDoesNotKillHealthyConnections) {
  using namespace std::chrono_literals;
  // A router whose deadline is far shorter than the gaps between
  // queries: timeouts with nothing inflight must be ignored, and slow
  //-but-alive service must still complete.
  const auto model = fit_model(3, 2);
  const QueryEngine engine(model);
  ServeOptions opt;
  opt.num_shards = 2;
  opt.recv_timeout_ms = 50;
  ServingCluster cluster(*model, opt);
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(120ms);  // > 2 idle deadline windows
    for (const VertexId u : {VertexId{0}, VertexId{7}}) {
      EXPECT_EQ(cluster.router().topk(u), engine.topk(u))
          << "round " << round << " u=" << u;
    }
  }
}

TEST(ShardedServing, ConcurrentCallersOverPooledConnectionsAgree) {
  const auto model = fit_model(13, 3);
  const QueryEngine engine(model);
  std::vector<Scored> want(model->num_vertices());
  for (VertexId u = 0; u < model->num_vertices(); ++u) {
    want[u] = engine.topk(u);
  }
  for (const auto transport : kTransports) {
    for (const bool colocate : {true, false}) {
      ServeOptions opt;
      opt.num_shards = 4;
      opt.transport = transport;
      opt.colocate = colocate;
      opt.connections_per_shard = 4;
      ServingCluster cluster(*model, opt);

      constexpr std::size_t kThreads = 8;
      std::atomic<std::size_t> mismatches{0};
      std::vector<std::thread> threads;
      threads.reserve(kThreads);
      for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          const VertexId n = model->num_vertices();
          for (VertexId i = 0; i < n; ++i) {
            const auto u = static_cast<VertexId>((i + t * 37) % n);
            if (cluster.router().topk(u) != want[u]) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        });
      }
      for (auto& th : threads) th.join();
      EXPECT_EQ(mismatches.load(), 0u)
          << serve::to_string(transport) << " colocate=" << colocate;
    }
  }
}

TEST(ShardedServing, TinyModelWithMoreShardsThanRows) {
  // 5-vertex graph, 8 shards: trailing ranges are empty, routing must
  // still land every query on the owning shard.
  const CsrGraph g = [] {
    GraphBuilder b;
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(2, 0);
    b.add_edge(3, 1);
    b.add_edge(4, 2);
    return b.build();
  }();
  SnapleConfig cfg;
  cfg.k_local = kUnlimited;
  const LinkPredictor predictor(cfg);
  const auto model =
      std::make_shared<const PredictorModel>(predictor.fit(g));
  const QueryEngine engine(model);
  ServeOptions opt;
  opt.num_shards = 8;
  ServingCluster cluster(*model, opt);
  for (VertexId u = 0; u < model->num_vertices(); ++u) {
    EXPECT_EQ(cluster.router().topk(u), engine.topk(u)) << u;
  }
}

}  // namespace
}  // namespace snaple
