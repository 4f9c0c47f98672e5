// DynamicModel — incremental model updates (ISSUE 5 + ISSUE 10).
//
// The load-bearing property: after ANY interleaving of add_edge(s) and
// remove_edge(s), the DynamicModel is BIT-identical — every row, every
// machine tag, every served prediction and float score — to
// LinkPredictor::fit run from scratch on the live graph (base ∪ inserts
// − removals) under the same config and the insertion-stable
// (kEdgeLocal) edge placement. Floats make this strict, so the
// assertions are EXPECT_EQ / operator==, never EXPECT_NEAR. A model
// owning half the vertices, fed the same stream, must match the refit
// on its owned rows and the full model on every row version. The suite
// also pins the version-counter semantics, invalid-insert and
// invalid-remove rejection (atomic, model untouched), lock-free
// concurrent reads during mixed insert+remove writer bursts, and the
// refresh path — non-source sims rows re-scored on just the neighbors a
// batch changed, unchanged rows keeping their slab — across policies,
// klocal and score shapes plus one hand-built case per branch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "core/dynamic_model.hpp"
#include "core/predictor.hpp"
#include "core/query_engine.hpp"
#include "graph/builder.hpp"
#include "graph/gen/datasets.hpp"
#include "graph/overlay_graph.hpp"

namespace snaple {
namespace {

using Scored = std::vector<std::pair<VertexId, float>>;

/// Splits `full` into a base graph (shared_ptr, same vertex count) and a
/// deterministic sample of ~`want` edges to replay as live inserts.
struct Split {
  std::shared_ptr<const CsrGraph> base;
  std::vector<Edge> inserts;
};

Split split_graph(const CsrGraph& full, std::size_t want) {
  const auto all = full.edges();
  const std::size_t stride = std::max<std::size_t>(2, all.size() / want);
  Split out;
  GraphBuilder b(full.num_vertices());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i % stride == 1 && out.inserts.size() < want) {
      out.inserts.push_back(all[i]);
    } else {
      b.add_edge(all[i].src, all[i].dst);
    }
  }
  out.base = std::make_shared<const CsrGraph>(b.build());
  return out;
}

/// Non-owning view for serving stack-held models in assertions.
template <typename T>
std::shared_ptr<const T> unowned(const T& ref) {
  return std::shared_ptr<const T>(std::shared_ptr<const T>{}, &ref);
}

/// Fits a model on `g` under the insertion-stable edge placement —
/// the precondition DynamicModel verifies. Partitions with cfg.seed,
/// exactly as LinkPredictor::fit would — the placement seed
/// DynamicModel verifies against.
std::shared_ptr<const PredictorModel> fit_edge_local(
    const CsrGraph& g, const SnapleConfig& cfg, std::size_t machines,
    gas::ExecutionMode exec) {
  const auto part = gas::Partitioning::create(
      g, machines, gas::PartitionStrategy::kEdgeLocal, cfg.seed);
  const auto cluster = machines == 1 ? gas::ClusterConfig::single_machine(2)
                                     : gas::ClusterConfig::type_i(machines);
  const LinkPredictor predictor(cfg, cluster,
                                gas::PartitionStrategy::kEdgeLocal, exec);
  return std::make_shared<const PredictorModel>(
      predictor.fit_with_partitioning(g, part));
}

/// Materializes the overlay's live graph (base ∪ delta − tombstones) as
/// a CSR, so a from-scratch reference fit can run on it.
CsrGraph materialize(const OverlayGraph& o) {
  GraphBuilder b(o.num_vertices());
  b.reserve_edges(o.num_edges());
  for (VertexId u = 0; u < o.num_vertices(); ++u) {
    o.for_each_out_neighbor(u, [&](VertexId v) { b.add_edge(u, v); });
  }
  return b.build();
}

void expect_identical_serving(const DynamicModel& dyn,
                              const PredictorModel& refit,
                              const std::string& what) {
  const QueryEngine live(unowned(dyn));
  const QueryEngine fresh(unowned(refit));
  for (VertexId u = 0; u < refit.num_vertices(); ++u) {
    ASSERT_EQ(live.topk(u), fresh.topk(u)) << what << " u=" << u;
  }
}

/// A DynamicModel owning only `ranged.range()`, fed the same ops as the
/// whole-model `full`, against the refit on their live graph: its owned
/// rows are the refit's, its row versions are the full model's on EVERY
/// vertex, and every read beyond the range — rows, freeze(), a
/// QueryEngine — throws.
void expect_ranged_identical(const DynamicModel& ranged,
                             const DynamicModel& full,
                             const PredictorModel& refit,
                             const std::string& what) {
  EXPECT_EQ(ranged.version(), full.version()) << what;
  for (VertexId u = 0; u < refit.num_vertices(); ++u) {
    ASSERT_EQ(ranged.row_version(u), full.row_version(u))
        << what << " u=" << u;
    if (!ranged.owns(u)) continue;
    ASSERT_TRUE(std::ranges::equal(ranged.gamma_hat(u), refit.gamma_hat(u)))
        << what << " u=" << u;
    const auto s = ranged.sims(u);
    const auto rs = refit.sims(u);
    ASSERT_TRUE(std::ranges::equal(s.ids, rs.ids) &&
                std::ranges::equal(s.scores, rs.scores) &&
                std::ranges::equal(s.machines, rs.machines))
        << what << " u=" << u;
    const auto h = ranged.hop2(u);
    const auto rh = refit.hop2(u);
    ASSERT_TRUE(std::ranges::equal(h.ids, rh.ids) &&
                std::ranges::equal(h.scores, rh.scores))
        << what << " u=" << u;
  }
  const VertexId outside =
      ranged.range().begin > 0 ? 0 : ranged.range().end;
  ASSERT_FALSE(ranged.owns(outside)) << what;
  EXPECT_THROW((void)ranged.gamma_hat(outside), CheckError) << what;
  EXPECT_THROW((void)ranged.sims(outside), CheckError) << what;
  EXPECT_THROW((void)ranged.hop2(outside), CheckError) << what;
  EXPECT_THROW((void)ranged.freeze(), CheckError) << what;
  EXPECT_THROW((void)QueryEngine{unowned(ranged)}, CheckError) << what;
}

// ---------- incremental ≡ refit (the tentpole property) ----------

TEST(DynamicModelEquivalence, BitIdenticalToRefitAcrossSeedsModesAndK) {
  struct Combo {
    std::size_t k_hops;
    std::size_t machines;
    gas::ExecutionMode exec;
    double hop2_min;
  };
  const Combo combos[] = {
      {2, 1, gas::ExecutionMode::kFlat, 0.0},
      {2, 4, gas::ExecutionMode::kFlat, 0.0},
      {2, 4, gas::ExecutionMode::kSharded, 0.0},
      {3, 1, gas::ExecutionMode::kFlat, 0.0},
      {3, 4, gas::ExecutionMode::kFlat, 0.02},  // knob on: zero-skip live
      {3, 4, gas::ExecutionMode::kSharded, 0.0},
  };
  for (const std::uint64_t seed : {3ull, 11ull}) {
    const CsrGraph full = gen::make_dataset("gowalla", 0.02, seed);
    const Split split = split_graph(full, 30);
    ASSERT_GE(split.inserts.size(), 20u);
    for (const Combo& c : combos) {
      SnapleConfig cfg;
      cfg.k_local = 10;
      cfg.k_hops = c.k_hops;
      cfg.seed = seed;
      cfg.hop2_min_score = c.hop2_min;
      const std::string what = "seed=" + std::to_string(seed) +
                               " K=" + std::to_string(c.k_hops) +
                               " machines=" + std::to_string(c.machines) +
                               (c.exec == gas::ExecutionMode::kSharded
                                    ? " sharded"
                                    : " flat");

      DynamicModel dyn(fit_edge_local(*split.base, cfg, c.machines, c.exec),
                       split.base);
      for (const Edge& e : split.inserts) {
        (void)dyn.add_edge(e.src, e.dst);
      }

      // The union of base + inserts is `full` by construction, so the
      // from-scratch reference is a fit on the full graph.
      const auto refit = fit_edge_local(full, cfg, c.machines, c.exec);
      EXPECT_TRUE(dyn.freeze() == *refit) << what;
      expect_identical_serving(dyn, *refit, what);
    }
  }
}

TEST(DynamicModelEquivalence, BatchedAndSingleInsertsConverge) {
  // One-by-one, one big batch, and uneven chunks must all land at the
  // same refit-on-union state (each recompute reads the final graph).
  const CsrGraph full = gen::make_dataset("gowalla", 0.02, 7);
  const Split split = split_graph(full, 24);
  SnapleConfig cfg;
  cfg.k_local = 10;
  cfg.k_hops = 3;
  const auto base_model =
      fit_edge_local(*split.base, cfg, 4, gas::ExecutionMode::kFlat);

  DynamicModel one_by_one(base_model, split.base);
  for (const Edge& e : split.inserts) (void)one_by_one.add_edge(e.src, e.dst);

  DynamicModel one_batch(base_model, split.base);
  (void)one_batch.add_edges(split.inserts);

  DynamicModel chunked(base_model, split.base);
  for (std::size_t at = 0; at < split.inserts.size(); at += 7) {
    const std::size_t len = std::min<std::size_t>(
        7, split.inserts.size() - at);
    (void)chunked.add_edges({split.inserts.data() + at, len});
  }

  const auto refit = fit_edge_local(full, cfg, 4, gas::ExecutionMode::kFlat);
  EXPECT_TRUE(one_by_one.freeze() == *refit);
  EXPECT_TRUE(one_batch.freeze() == *refit);
  EXPECT_TRUE(chunked.freeze() == *refit);
  EXPECT_EQ(one_by_one.version(), split.inserts.size());
  EXPECT_EQ(one_batch.version(), split.inserts.size());
}

TEST(DynamicModelEquivalence, RandomPolicyKTwoIsExactToo) {
  // Γrnd's shuffle keys on the collected order, which the sims
  // recompute reproduces machine-grouped — so even the randomized
  // control policy replays bit-exactly at K=2.
  const CsrGraph full = gen::make_dataset("gowalla", 0.02, 5);
  const Split split = split_graph(full, 16);
  SnapleConfig cfg;
  cfg.k_local = 5;  // small, so the shuffle truncation actually bites
  cfg.policy = SelectionPolicy::kRandom;
  const auto base_model =
      fit_edge_local(*split.base, cfg, 4, gas::ExecutionMode::kFlat);
  DynamicModel dyn(base_model, split.base);
  (void)dyn.add_edges(split.inserts);
  const auto refit = fit_edge_local(full, cfg, 4, gas::ExecutionMode::kFlat);
  EXPECT_TRUE(dyn.freeze() == *refit);
}

// ---------- removals: interleaving ≡ refit on the live graph ----------

TEST(DynamicModelEquivalence, InsertRemoveInterleavingsMatchLiveGraphRefit) {
  // Random interleavings of inserts, removals of base edges, removals
  // of just-inserted edges, and re-adds of removed edges. After the
  // churn the model must equal a fit on the materialized live graph —
  // the tombstone overlay and the stale-set symmetry are both load-
  // bearing here.
  struct Combo {
    std::size_t k_hops;
    gas::ExecutionMode exec;
  };
  const Combo combos[] = {
      {2, gas::ExecutionMode::kFlat},
      {3, gas::ExecutionMode::kSharded},
  };
  for (const std::uint64_t seed : {3ull, 11ull}) {
    const CsrGraph full = gen::make_dataset("gowalla", 0.02, seed);
    const Split split = split_graph(full, 24);
    for (const Combo& c : combos) {
      SnapleConfig cfg;
      cfg.k_local = 10;
      cfg.k_hops = c.k_hops;
      cfg.seed = seed;
      const std::string what =
          "seed=" + std::to_string(seed) + " K=" + std::to_string(c.k_hops);

      const auto base_model = fit_edge_local(*split.base, cfg, 4, c.exec);
      DynamicModel dyn(base_model, split.base);
      // The same op stream through a model owning the upper half only:
      // its recomputes read lower-half dependencies from the base or
      // recompute them on the fly.
      const VertexId n = base_model->num_vertices();
      DynamicModel half(base_model, split.base, nullptr,
                        gas::VertexRange{n / 2, n});
      std::mt19937 rng(static_cast<unsigned>(seed));
      const auto base_edges = split.base->edges();
      std::vector<Edge> removed;  // re-add candidates
      std::size_t next_insert = 0;
      std::size_t removals = 0;
      std::size_t readds = 0;
      for (std::size_t op = 0; op < 60; ++op) {
        switch (rng() % 4) {
          case 0:
          case 1: {  // insert the next pending live edge
            if (next_insert < split.inserts.size()) {
              const Edge e = split.inserts[next_insert++];
              (void)dyn.add_edge(e.src, e.dst);
              (void)half.add_edge(e.src, e.dst);
            }
            break;
          }
          case 2: {  // remove a random currently-live edge
            const Edge e = base_edges[rng() % base_edges.size()];
            if (dyn.graph().has_edge(e.src, e.dst)) {
              (void)dyn.remove_edge(e.src, e.dst);
              (void)half.remove_edge(e.src, e.dst);
              removed.push_back(e);
              ++removals;
            }
            break;
          }
          case 3: {  // re-add a previously removed edge
            if (!removed.empty()) {
              const Edge e = removed[rng() % removed.size()];
              if (!dyn.graph().has_edge(e.src, e.dst)) {
                (void)dyn.add_edge(e.src, e.dst);
                (void)half.add_edge(e.src, e.dst);
                ++readds;
              }
            }
            break;
          }
        }
      }
      // A batch removal of freshly-inserted edges exercises the
      // delta-erase path end to end.
      std::vector<Edge> drop;
      for (std::size_t i = 0; i + 1 < next_insert && drop.size() < 4; ++i) {
        const Edge e = split.inserts[i];
        if (dyn.graph().has_edge(e.src, e.dst)) drop.push_back(e);
      }
      if (!drop.empty()) (void)dyn.remove_edges(drop);
      if (!drop.empty()) (void)half.remove_edges(drop);
      ASSERT_GT(removals, 5u) << what;
      ASSERT_GT(readds, 0u) << what;

      const CsrGraph live = materialize(dyn.graph());
      const auto refit = fit_edge_local(live, cfg, 4, c.exec);
      EXPECT_TRUE(dyn.freeze() == *refit) << what;
      expect_identical_serving(dyn, *refit, what);
      expect_ranged_identical(half, dyn, *refit, what);
    }
  }
}

TEST(DynamicModelEquivalence, RemoveThenReaddRestoresTheOriginalFit) {
  // Removing edges and re-adding the same set must land back at the
  // exact state of a fit on the untouched graph — tombstones leave no
  // residue in any row.
  const CsrGraph full = gen::make_dataset("gowalla", 0.02, 5);
  const auto g = std::make_shared<const CsrGraph>(full);
  SnapleConfig cfg;
  cfg.k_local = 10;
  cfg.k_hops = 3;
  const auto model = fit_edge_local(full, cfg, 4, gas::ExecutionMode::kFlat);

  DynamicModel dyn(model, g);
  const auto all = full.edges();
  std::vector<Edge> victims;
  const std::size_t stride = std::max<std::size_t>(2, all.size() / 12);
  for (std::size_t i = 0; i < all.size() && victims.size() < 12;
       i += stride) {
    victims.push_back(all[i]);
  }

  const auto stats = dyn.remove_edges(victims);
  EXPECT_EQ(stats.edges, victims.size());
  EXPECT_GE(stats.gamma_rows, 1u);
  EXPECT_GE(stats.sims_rows, 1u);
  EXPECT_EQ(dyn.version(), victims.size());
  EXPECT_EQ(dyn.graph().num_removed(), victims.size());

  // The intermediate state equals a fit on the shrunken graph.
  const CsrGraph shrunk = materialize(dyn.graph());
  EXPECT_EQ(shrunk.num_edges(), full.num_edges() - victims.size());
  const auto refit_shrunk =
      fit_edge_local(shrunk, cfg, 4, gas::ExecutionMode::kFlat);
  EXPECT_TRUE(dyn.freeze() == *refit_shrunk);

  (void)dyn.add_edges(victims);
  EXPECT_EQ(dyn.version(), 2 * victims.size());
  EXPECT_EQ(dyn.graph().num_removed(), 0u);
  EXPECT_EQ(dyn.graph().num_inserted(), 0u);
  EXPECT_TRUE(dyn.freeze() == *model);
  expect_identical_serving(dyn, *model, "remove-then-readd");
}

// ---------- the sims refresh: re-score only what the batch changed ----------

TEST(DynamicModelRescore, RefreshMatchesLiveGraphRefitAcrossPoliciesAndScores) {
  // A stale sims row that is not a batch source re-scores only its
  // out-neighbors among the sources and re-selects klocal from its old
  // row plus those — falling back to a full recompute when that is not
  // exact. Whatever mix of the two ran, a churn of insert and remove
  // batches must land on the live-graph refit, for every policy, with
  // klocal truncating hard (1, 3) or not at all, under Jaccard scores,
  // all-tie scores (counter) and inverse-degree scores (PPR) — on a
  // whole model and on one owning half the vertices.
  const CsrGraph full = gen::make_dataset("gowalla", 0.02, 19);
  const Split split = split_graph(full, 40);
  const auto base_edges = split.base->edges();
  for (const SelectionPolicy policy :
       {SelectionPolicy::kMax, SelectionPolicy::kMin,
        SelectionPolicy::kRandom}) {
    for (const std::size_t k_local : {std::size_t{1}, std::size_t{3},
                                      kUnlimited}) {
      for (const ScoreKind score :
           {ScoreKind::kLinearSum, ScoreKind::kCounter, ScoreKind::kPpr}) {
        SnapleConfig cfg;
        cfg.policy = policy;
        cfg.k_local = k_local;
        cfg.score = score;
        cfg.seed = 19;
        const std::string what =
            "policy=" + policy_name(policy) + " k_local=" +
            (k_local == kUnlimited ? "inf" : std::to_string(k_local)) +
            " score=" + score_name(score);

        const auto base_model =
            fit_edge_local(*split.base, cfg, 4, gas::ExecutionMode::kFlat);
        const VertexId n = base_model->num_vertices();
        DynamicModel dyn(base_model, split.base);
        DynamicModel half(base_model, split.base, nullptr,
                          gas::VertexRange{n / 2, n});
        std::uint64_t rescored = 0;
        std::uint64_t half_rescored = 0;
        const auto apply = [&](bool remove, const std::vector<Edge>& b) {
          const auto s = remove ? dyn.remove_edges(b) : dyn.add_edges(b);
          const auto h = remove ? half.remove_edges(b) : half.add_edges(b);
          EXPECT_LE(s.sims_rescored, s.sims_rows) << what;
          rescored += s.sims_rescored;
          half_rescored += h.sims_rescored;
        };

        // Batches of 1–4 inserts of held-back edges, removals of live
        // base or inserted edges, and re-adds of removed ones.
        std::mt19937 rng(static_cast<unsigned>(k_local % 97) * 7 +
                         static_cast<unsigned>(score));
        std::vector<Edge> removed;
        std::size_t next_insert = 0;
        for (std::size_t op = 0; op < 40; ++op) {
          std::vector<Edge> batch;
          const std::size_t len = 1 + rng() % 4;
          const bool remove = rng() % 3 == 0;
          for (std::size_t i = 0; i < len; ++i) {
            Edge e{};
            if (remove) {
              e = next_insert > 0 && rng() % 3 == 0
                      ? split.inserts[rng() % next_insert]
                      : base_edges[rng() % base_edges.size()];
              if (!dyn.graph().has_edge(e.src, e.dst)) continue;
            } else if (!removed.empty() && rng() % 4 == 0) {
              e = removed[rng() % removed.size()];
              if (dyn.graph().has_edge(e.src, e.dst)) continue;
            } else if (next_insert < split.inserts.size()) {
              e = split.inserts[next_insert++];
            } else {
              continue;
            }
            if (std::find(batch.begin(), batch.end(), e) == batch.end()) {
              batch.push_back(e);
            }
          }
          if (batch.empty()) continue;
          apply(remove, batch);
          if (remove) removed.insert(removed.end(), batch.begin(), batch.end());
        }
        ASSERT_FALSE(removed.empty()) << what;

        const CsrGraph live = materialize(dyn.graph());
        const auto refit =
            fit_edge_local(live, cfg, 4, gas::ExecutionMode::kFlat);
        EXPECT_TRUE(dyn.freeze() == *refit) << what;
        expect_ranged_identical(half, dyn, *refit, what);
        // Γmax/Γmin may re-score any non-source row and every policy may
        // re-score an untruncated one: the fast path must have run, so
        // an always-fallback refresh cannot pass for exact.
        if (policy != SelectionPolicy::kRandom || k_local == kUnlimited) {
          EXPECT_GT(rescored, 0u) << what;
          EXPECT_GT(half_rescored, 0u) << what;
        }
      }
    }
  }
}

/// A hand-sized graph whose sims are easy to steer under PPR scores
/// (sim(x, w) = 1/|Γ(w)|): x = 0 points at 1, 2 and 3, whose
/// out-degrees 1, 2, 3 give sims 1, 1/2 and 1/3; vertices 4.. are
/// sinks. Only 0 points at 1–3, so a batch whose sources are among 1–3
/// stales exactly those sources' sims rows plus row 0 — the one
/// non-source row.
struct SteerGraph {
  static constexpr VertexId kX = 0;
  static constexpr VertexId kVertices = 16;
  std::shared_ptr<const CsrGraph> graph;
  std::shared_ptr<const PredictorModel> model;
};

SteerGraph steer_graph(SelectionPolicy policy, std::size_t k_local) {
  GraphBuilder b(SteerGraph::kVertices);
  for (const Edge& e : std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {1, 4},
                                         {2, 4}, {2, 5}, {3, 4}, {3, 5},
                                         {3, 6}}) {
    b.add_edge(e.src, e.dst);
  }
  SnapleConfig cfg;
  cfg.score = ScoreKind::kPpr;
  cfg.policy = policy;
  cfg.k_local = k_local;
  SteerGraph out;
  out.graph = std::make_shared<const CsrGraph>(b.build());
  out.model = fit_edge_local(*out.graph, cfg, 1, gas::ExecutionMode::kFlat);
  return out;
}

TEST(DynamicModelRescore, EachBranchOfTheRefreshIsExact) {
  // One batch per branch of the refresh of row 0 (see steer_graph):
  // which neighbors the row keeps afterwards, and whether it was
  // re-scored (1) or fell back to a full recompute (0).
  struct Case {
    const char* name;
    SelectionPolicy policy;
    std::size_t k_local;
    bool remove;
    std::vector<Edge> batch;
    std::vector<VertexId> row;  // sims(0) ids afterwards
    std::uint64_t rescored;
  };
  const auto kMax = SelectionPolicy::kMax;
  const auto kMin = SelectionPolicy::kMin;
  const std::vector<Case> cases = {
      // 3 drops to out-degree 1: sim 1/3 → 1 beats 2's 1/2.
      {"changed neighbor enters", kMax, 2, true, {{3, 5}, {3, 6}}, {1, 3}, 1},
      // 3 gains an out-edge: sim 1/3 → 1/4, still below the row.
      {"changed neighbor stays out", kMax, 2, false, {{3, 7}}, {1, 2}, 1},
      // 2 drops to out-degree 1: its in-row sim rises 1/2 → 1.
      {"in-row neighbor rises", kMax, 2, true, {{2, 5}}, {1, 2}, 1},
      // 1 grows to out-degree 4: its in-row sim drops 1 → 1/4, so 3
      // (never scored by a re-score) overtakes it — full recompute.
      {"in-row neighbor drops", kMax, 2, false, {{1, 5}, {1, 6}, {1, 7}},
       {2, 3}, 0},
      // The same drop on an untruncated row (deg 3 <= klocal): every
      // neighbor is kept, so a re-score is exact.
      {"untruncated row", kMax, 3, false, {{1, 5}, {1, 6}, {1, 7}},
       {1, 2, 3}, 1},
      // Γmin keeps the least similar {2, 3}; 3's sim rises 1/3 → 1/2,
      // which ranks it lower under Γmin — full recompute.
      {"min: in-row neighbor worsens", kMin, 2, true, {{3, 5}}, {2, 3}, 0},
      // 2's sim falls 1/2 → 1/3: better under Γmin, re-scored.
      {"min: in-row neighbor improves", kMin, 2, false, {{2, 7}}, {2, 3},
       1},
      // Γrnd's shuffle keys on the whole candidate list: a truncated
      // Γrnd row always recomputes.
      {"random: truncated row", SelectionPolicy::kRandom, 2, false,
       {{3, 7}}, {}, 0},
  };
  for (const Case& c : cases) {
    const SteerGraph sg = steer_graph(c.policy, c.k_local);
    DynamicModel dyn(sg.model, sg.graph);
    const auto stats =
        c.remove ? dyn.remove_edges(c.batch) : dyn.add_edges(c.batch);
    EXPECT_EQ(stats.sims_rows, 2u) << c.name;  // the source and row 0
    EXPECT_EQ(stats.sims_rescored, c.rescored) << c.name;
    if (!c.row.empty()) {
      EXPECT_TRUE(std::ranges::equal(dyn.sims(SteerGraph::kX).ids, c.row))
          << c.name;
    }
    const auto refit = fit_edge_local(materialize(dyn.graph()),
                                      sg.model->config(), 1,
                                      gas::ExecutionMode::kFlat);
    EXPECT_TRUE(dyn.freeze() == *refit) << c.name;
  }
}

TEST(DynamicModelRescore, UnchangedRowKeepsItsSlabButBumpsItsVersion) {
  // A refreshed row that comes out byte-identical keeps the slab readers
  // already hold — no new slab, less overlay growth — while its
  // row_version still bumps, identically on every owner's instance.
  const SteerGraph sg = steer_graph(SelectionPolicy::kMax, 2);
  const VertexId n = SteerGraph::kVertices;
  const VertexId x = SteerGraph::kX;
  DynamicModel dyn(sg.model, sg.graph);
  DynamicModel lo(sg.model, sg.graph, nullptr, gas::VertexRange{0, n / 2});
  DynamicModel hi(sg.model, sg.graph, nullptr, gas::VertexRange{n / 2, n});
  const auto apply = [&](const Edge& e) {
    const auto s = dyn.add_edge(e.src, e.dst);
    (void)lo.add_edge(e.src, e.dst);
    (void)hi.add_edge(e.src, e.dst);
    return s;
  };

  // 3 gains an out-edge: row 0 stays {1, 2} with the same scores.
  const auto before = dyn.sims(x);
  const auto lo_before = lo.sims(x);
  const std::size_t bytes0 = dyn.overlay_bytes();
  EXPECT_EQ(apply({3, 7}).sims_rescored, 1u);
  const std::size_t unchanged_growth = dyn.overlay_bytes() - bytes0;
  EXPECT_EQ(dyn.sims(x).ids.data(), before.ids.data());
  EXPECT_EQ(dyn.sims(x).scores.data(), before.scores.data());
  EXPECT_EQ(lo.sims(x).ids.data(), lo_before.ids.data());
  for (const DynamicModel* m : {&dyn, &lo, &hi}) {
    EXPECT_EQ(m->row_version(x), 1u);
  }

  // 2 gains one too: the same overlay growth, but row 0's score for 2
  // drops to 1/3 — a new slab.
  const std::size_t bytes1 = dyn.overlay_bytes();
  (void)apply({2, 8});
  const std::size_t changed_growth = dyn.overlay_bytes() - bytes1;
  EXPECT_NE(dyn.sims(x).scores.data(), before.scores.data());
  EXPECT_LT(unchanged_growth, changed_growth);
  for (const DynamicModel* m : {&dyn, &lo, &hi}) {
    EXPECT_EQ(m->row_version(x), 2u);
    EXPECT_EQ(m->version(), 2u);
  }

  const auto refit = fit_edge_local(materialize(dyn.graph()),
                                    sg.model->config(), 1,
                                    gas::ExecutionMode::kFlat);
  EXPECT_TRUE(dyn.freeze() == *refit);
  expect_ranged_identical(lo, dyn, *refit, "lo");
  expect_ranged_identical(hi, dyn, *refit, "hi");
}

// ---------- version counters ----------

TEST(DynamicModelVersions, PerRowAndGlobalCountersTrackUpdates) {
  const CsrGraph full = gen::make_dataset("gowalla", 0.02, 9);
  const Split split = split_graph(full, 8);
  SnapleConfig cfg;
  const auto base_model =
      fit_edge_local(*split.base, cfg, 1, gas::ExecutionMode::kFlat);
  DynamicModel dyn(base_model, split.base);

  EXPECT_EQ(dyn.version(), 0u);
  for (VertexId u = 0; u < dyn.num_vertices(); ++u) {
    ASSERT_EQ(dyn.row_version(u), 0u) << "fresh model, u=" << u;
  }

  const Edge e = split.inserts.front();
  const auto stats = dyn.add_edge(e.src, e.dst);
  EXPECT_EQ(stats.edges, 1u);
  EXPECT_EQ(stats.gamma_rows, 1u);
  EXPECT_GE(stats.sims_rows, 1u);  // {src} ∪ in(src)
  EXPECT_EQ(stats.hop2_rows, 0u);  // K=2: no hop2 table
  EXPECT_EQ(dyn.version(), 1u);
  EXPECT_GE(dyn.row_version(e.src), 1u);

  // Rows outside the stale set keep version 0 — the update was surgical.
  std::size_t untouched = 0;
  for (VertexId u = 0; u < dyn.num_vertices(); ++u) {
    if (dyn.row_version(u) == 0) ++untouched;
  }
  EXPECT_GT(untouched, dyn.num_vertices() / 2);

  // A batch bumps the global version by its size.
  const std::size_t before = dyn.version();
  (void)dyn.add_edges({split.inserts.data() + 1, 3});
  EXPECT_EQ(dyn.version(), before + 3);
}

// ---------- invalid inserts ----------

TEST(DynamicModelRejection, BadInsertsThrowAndChangeNothing) {
  const CsrGraph full = gen::make_dataset("gowalla", 0.02, 13);
  const Split split = split_graph(full, 8);
  SnapleConfig cfg;
  const auto base_model =
      fit_edge_local(*split.base, cfg, 1, gas::ExecutionMode::kFlat);
  DynamicModel dyn(base_model, split.base);
  ASSERT_GE(split.inserts.size(), 4u);
  const QueryEngine server(unowned(dyn));

  // One good insert first, then a snapshot of vertex 0's serving state:
  // everything rejected below must leave it untouched.
  const Edge fresh = split.inserts.front();
  (void)dyn.add_edge(fresh.src, fresh.dst);
  const Scored want0 = server.topk(0);

  const VertexId n = dyn.num_vertices();
  const Edge existing = split.base->edges().front();

  EXPECT_THROW((void)dyn.add_edge(3, 3), CheckError);          // self-loop
  EXPECT_THROW((void)dyn.add_edge(n, 0), CheckError);          // src range
  EXPECT_THROW((void)dyn.add_edge(0, n + 7), CheckError);      // dst range
  EXPECT_THROW((void)dyn.add_edge(existing.src, existing.dst),
               CheckError);  // duplicate of a base edge
  EXPECT_THROW((void)dyn.add_edge(fresh.src, fresh.dst),
               CheckError);  // duplicate of a previously inserted edge

  // A batch with one bad edge is rejected atomically: nothing applied.
  const std::uint64_t version = dyn.version();
  const std::vector<Edge> bad = {split.inserts[1], split.inserts[2],
                                 {7, 7}};
  EXPECT_THROW((void)dyn.add_edges(bad), CheckError);
  const std::vector<Edge> twice = {split.inserts[3], split.inserts[3]};
  EXPECT_THROW((void)dyn.add_edges(twice), CheckError);
  EXPECT_EQ(dyn.version(), version);
  EXPECT_FALSE(dyn.graph().has_edge(split.inserts[1].src,
                                    split.inserts[1].dst));
  EXPECT_EQ(server.topk(0), want0);
}

TEST(DynamicModelRejection, BadRemovesThrowAndChangeNothing) {
  const CsrGraph full = gen::make_dataset("gowalla", 0.02, 13);
  const Split split = split_graph(full, 8);
  SnapleConfig cfg;
  const auto base_model =
      fit_edge_local(*split.base, cfg, 1, gas::ExecutionMode::kFlat);
  DynamicModel dyn(base_model, split.base);
  const QueryEngine server(unowned(dyn));

  // One good removal first, then a snapshot: everything rejected below
  // must leave the serving state untouched.
  const auto base_edges = split.base->edges();
  const Edge gone = base_edges.front();
  (void)dyn.remove_edge(gone.src, gone.dst);
  const Scored want0 = server.topk(0);
  const std::uint64_t version = dyn.version();
  ASSERT_EQ(version, 1u);

  const VertexId n = dyn.num_vertices();
  EXPECT_THROW((void)dyn.remove_edge(3, 3), CheckError);      // self-loop
  EXPECT_THROW((void)dyn.remove_edge(n, 0), CheckError);      // src range
  EXPECT_THROW((void)dyn.remove_edge(0, n + 7), CheckError);  // dst range
  EXPECT_THROW((void)dyn.remove_edge(gone.src, gone.dst),
               CheckError);  // already removed ⇒ not a live edge
  EXPECT_THROW((void)dyn.remove_edge(split.inserts[0].src,
                                     split.inserts[0].dst),
               CheckError);  // never was a live edge

  // A batch with one bad removal is rejected atomically: the good
  // edges stay live, no row republishes, no version bump.
  const std::vector<Edge> bad = {base_edges[1], base_edges[2], gone};
  EXPECT_THROW((void)dyn.remove_edges(bad), CheckError);
  const std::vector<Edge> twice = {base_edges[3], base_edges[3]};
  EXPECT_THROW((void)dyn.remove_edges(twice), CheckError);
  EXPECT_EQ(dyn.version(), version);
  EXPECT_TRUE(dyn.graph().has_edge(base_edges[1].src, base_edges[1].dst));
  EXPECT_TRUE(dyn.graph().has_edge(base_edges[3].src, base_edges[3].dst));
  EXPECT_EQ(server.topk(0), want0);
}

TEST(DynamicModelRejection, RequiresEdgeLocalTagsAndDeterministicPolicy) {
  const CsrGraph full = gen::make_dataset("gowalla", 0.02, 3);
  const auto g = std::make_shared<const CsrGraph>(full);
  SnapleConfig cfg;

  // A greedy multi-machine fit carries position-dependent tags — the
  // constructor must refuse rather than serve subtly-wrong folds.
  const auto part = gas::Partitioning::create(
      *g, 4, gas::PartitionStrategy::kGreedy, cfg.seed);
  const LinkPredictor greedy(cfg, gas::ClusterConfig::type_i(4));
  const auto wrong = std::make_shared<const PredictorModel>(
      greedy.fit_with_partitioning(*g, part));
  EXPECT_THROW(DynamicModel(wrong, g), CheckError);

  // Single-machine fits always qualify (every tag is 0)...
  const LinkPredictor single(cfg);
  const auto ok = std::make_shared<const PredictorModel>(single.fit(*g));
  EXPECT_NO_THROW(DynamicModel(ok, g));

  // ...as does the documented fit-then-wrap flow on >1 machine: a
  // kEdgeLocal LinkPredictor partitions internally with config.seed,
  // the placement seed DynamicModel verifies against.
  const LinkPredictor lp4(cfg, gas::ClusterConfig::type_i(4),
                          gas::PartitionStrategy::kEdgeLocal);
  const auto m4 = std::make_shared<const PredictorModel>(lp4.fit(*g));
  EXPECT_NO_THROW(DynamicModel(m4, g));

  // ...but Γrnd with K=3 cannot be replayed bit-exactly and is refused.
  SnapleConfig rnd3 = cfg;
  rnd3.policy = SelectionPolicy::kRandom;
  rnd3.k_hops = 3;
  const LinkPredictor p3(rnd3);
  const auto m3 = std::make_shared<const PredictorModel>(p3.fit(*g));
  EXPECT_THROW(DynamicModel(m3, g), CheckError);

  // And the graph must be the fit graph.
  const auto other = std::make_shared<const CsrGraph>(
      gen::make_dataset("gowalla", 0.02, 4));
  if (other->num_vertices() == g->num_vertices()) {
    EXPECT_THROW(DynamicModel(ok, other), CheckError);
  }
  EXPECT_THROW(DynamicModel(ok, nullptr), CheckError);
}

// ---------- concurrent readers during a writer burst ----------

TEST(DynamicModelConcurrency, ReadersNeverTearDuringWriterBurst) {
  const CsrGraph full = gen::make_dataset("gowalla", 0.03, 17);
  const Split split = split_graph(full, 64);
  SnapleConfig cfg;
  cfg.k_hops = 3;  // hop2 rows republish too
  cfg.k_local = 10;
  const auto base_model =
      fit_edge_local(*split.base, cfg, 4, gas::ExecutionMode::kFlat);
  auto dyn = std::make_shared<DynamicModel>(base_model, split.base);
  const QueryEngine server{std::shared_ptr<const DynamicModel>(dyn)};

  constexpr std::size_t kThreads = 8;
  std::atomic<bool> done{false};
  std::atomic<std::size_t> bad{0};
  std::atomic<std::size_t> queries{0};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  const VertexId n = dyn->num_vertices();
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      VertexId u = static_cast<VertexId>((t * 131) % n);
      while (!done.load(std::memory_order_relaxed)) {
        const Scored got = server.topk(u);
        // Structural invariants that any untorn row state satisfies:
        // bounded size, in-range distinct ids, finite descending scores.
        bool ok = got.size() <= cfg.k;
        for (std::size_t i = 0; i < got.size() && ok; ++i) {
          ok = got[i].first < n && std::isfinite(got[i].second) &&
               (i == 0 || got[i - 1].second >= got[i].second);
          for (std::size_t j = 0; j < i && ok; ++j) {
            ok = got[j].first != got[i].first;
          }
        }
        if (!ok) bad.fetch_add(1, std::memory_order_relaxed);
        queries.fetch_add(1, std::memory_order_relaxed);
        u = (u + 17) % n;
      }
    });
  }
  for (const Edge& e : split.inserts) (void)dyn->add_edge(e.src, e.dst);
  done.store(true);
  for (auto& th : readers) th.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(queries.load(), 0u);

  // Once the writer is quiescent, serving equals the union refit.
  const auto refit = fit_edge_local(full, cfg, 4, gas::ExecutionMode::kFlat);
  EXPECT_TRUE(dyn->freeze() == *refit);
  expect_identical_serving(*dyn, *refit, "post-burst");
}

TEST(DynamicModelConcurrency, ReadersNeverTearDuringMixedChurn) {
  // Same reader invariants as above, but the writer interleaves inserts
  // and removals — tombstone publication goes through the same RCU slab
  // path, so readers must stay untorn through both.
  const CsrGraph full = gen::make_dataset("gowalla", 0.03, 17);
  const Split split = split_graph(full, 48);
  SnapleConfig cfg;
  cfg.k_hops = 3;
  cfg.k_local = 10;
  const auto base_model =
      fit_edge_local(*split.base, cfg, 4, gas::ExecutionMode::kFlat);
  auto dyn = std::make_shared<DynamicModel>(base_model, split.base);
  const QueryEngine server{std::shared_ptr<const DynamicModel>(dyn)};

  constexpr std::size_t kThreads = 8;
  std::atomic<bool> done{false};
  std::atomic<std::size_t> bad{0};
  std::atomic<std::size_t> queries{0};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  const VertexId n = dyn->num_vertices();
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      VertexId u = static_cast<VertexId>((t * 131) % n);
      while (!done.load(std::memory_order_relaxed)) {
        const Scored got = server.topk(u);
        bool ok = got.size() <= cfg.k;
        for (std::size_t i = 0; i < got.size() && ok; ++i) {
          ok = got[i].first < n && std::isfinite(got[i].second) &&
               (i == 0 || got[i - 1].second >= got[i].second);
          for (std::size_t j = 0; j < i && ok; ++j) {
            ok = got[j].first != got[i].first;
          }
        }
        if (!ok) bad.fetch_add(1, std::memory_order_relaxed);
        queries.fetch_add(1, std::memory_order_relaxed);
        u = (u + 17) % n;
      }
    });
  }
  // Writer: insert each pending edge, and every third op also remove
  // the edge inserted two steps ago (so removals hit both base and
  // delta rows while readers are in flight).
  std::vector<Edge> live;
  for (std::size_t i = 0; i < split.inserts.size(); ++i) {
    const Edge e = split.inserts[i];
    (void)dyn->add_edge(e.src, e.dst);
    live.push_back(e);
    if (i % 3 == 2 && live.size() > 2) {
      const Edge victim = live[live.size() - 3];
      (void)dyn->remove_edge(victim.src, victim.dst);
      live.erase(live.end() - 3);
    }
  }
  done.store(true);
  for (auto& th : readers) th.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(queries.load(), 0u);

  // Once the writer is quiescent, serving equals a refit on the live
  // graph (base ∪ surviving inserts).
  const CsrGraph final_graph = materialize(dyn->graph());
  const auto refit =
      fit_edge_local(final_graph, cfg, 4, gas::ExecutionMode::kFlat);
  EXPECT_TRUE(dyn->freeze() == *refit);
  expect_identical_serving(*dyn, *refit, "post-churn");
}

// ---------- QueryEngine dual backend ----------

TEST(DynamicModelServing, QueryEngineExposesTheRightBackend) {
  const CsrGraph full = gen::make_dataset("gowalla", 0.02, 21);
  const auto g = std::make_shared<const CsrGraph>(full);
  SnapleConfig cfg;
  const LinkPredictor predictor(cfg);
  const auto model = std::make_shared<const PredictorModel>(predictor.fit(*g));

  const QueryEngine fixed(model);
  EXPECT_EQ(&fixed.model(), model.get());
  EXPECT_EQ(fixed.dynamic_model(), nullptr);
  EXPECT_EQ(fixed.num_vertices(), g->num_vertices());

  const auto dyn = std::make_shared<const DynamicModel>(model, g);
  const QueryEngine live(dyn);
  EXPECT_EQ(live.dynamic_model(), dyn);
  EXPECT_EQ(live.num_vertices(), g->num_vertices());
  EXPECT_EQ(live.config().k, cfg.k);
  EXPECT_THROW((void)live.model(), CheckError);
  EXPECT_THROW((void)live.topk(g->num_vertices()), CheckError);

  // Before any update the two backends serve identical answers (the
  // dynamic read path is the same fold over the same base rows).
  for (VertexId u = 0; u < g->num_vertices(); ++u) {
    ASSERT_EQ(live.topk(u), fixed.topk(u)) << "u=" << u;
  }
  EXPECT_EQ(dyn->overlay_bytes(), 0u);  // no updates yet: zero overhead
}

}  // namespace
}  // namespace snaple
