// Per-row kernels of Algorithm 2, shared between the whole-graph GAS
// steps (snaple_program.cpp), the query-serving replay of step 3
// (query_engine.cpp) and the incremental row recompute
// (dynamic_model.cpp).
//
// The batch engine computes every row of every step in one pass; the
// serving side recomputes a *single* vertex's row — Γ̂(u), Du.sims,
// Du.hop2 or a step-3 fold — on demand. Both sides must produce
// bit-identical floats (the serving property tests compare with
// EXPECT_EQ, not EXPECT_NEAR), so the row-scoped bodies live here, once:
//
//   * edge_uniform / keep_sampled_edge — step 1's Bernoulli truncation;
//   * select_k_local                   — step 2/2b's klocal selection;
//   * find_sim                         — the retained-path lookup;
//   * fold_path_list / fold_hop2_edge  — the ⊗/⊕pre candidate folds of
//                                        steps 2b and 3, including the
//                                        2b zero-path early exit;
//   * fold_vertex_paths                — the machine-grouped replay of a
//                                        whole vertex's fold, templated
//                                        over any model-row source
//                                        (PredictorModel, DynamicModel,
//                                        a serving shard's rows), into
//                                        the thread's thread_scratch().
//
// Why machine grouping everywhere: the engine folds a vertex's edges
// grouped by the machine owning each edge (CSR order within a machine,
// machines merged ascending — gas/engine.hpp). Float ⊕pre is not
// associative, so any out-of-band recomputation has to replay exactly
// that two-level fold to stay bit-identical.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/scoring.hpp"
#include "gas/partition.hpp"
#include "graph/types.hpp"
#include "util/rng.hpp"
#include "util/score_map.hpp"
#include "util/simd.hpp"

namespace snaple::rows {

/// Deterministic per-edge uniform in [0,1) for the step-1 Bernoulli
/// truncation — a gather may not share RNG state across edges, so the
/// "random" draw is a hash of (seed, u, v).
[[nodiscard]] inline double edge_uniform(std::uint64_t seed, VertexId u,
                                         VertexId v) {
  SplitMix64 sm(seed ^ ((static_cast<std::uint64_t>(u) << 32) | v));
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

/// Step-1 per-edge decision: is v kept in Γ̂(u)? `out_degree` is u's
/// full out-degree (the keep probability is thrΓ/|Γ(u)|, line 3).
[[nodiscard]] inline bool keep_sampled_edge(const SnapleConfig& cfg,
                                            VertexId u, VertexId v,
                                            std::size_t out_degree) {
  if (cfg.thr_gamma == kUnlimited || out_degree <= cfg.thr_gamma) {
    return true;
  }
  const double keep = static_cast<double>(cfg.thr_gamma) /
                      static_cast<double>(out_degree);
  return edge_uniform(cfg.seed, u, v) <= keep;
}

/// Step-2/2b selection: keeps `k_local` entries of `collected` according
/// to the policy, then orders them by vertex id for binary-search lookup.
/// Deterministic for Γmax/Γmin regardless of input order (ties break by
/// id); Γrnd's shuffle depends on the input order, which the callers
/// reproduce machine-grouped exactly as the engine collects it.
inline void select_k_local(std::vector<std::pair<VertexId, float>>& collected,
                           const SnapleConfig& cfg, VertexId u) {
  if (cfg.k_local != kUnlimited && collected.size() > cfg.k_local) {
    switch (cfg.policy) {
      case SelectionPolicy::kMax:
        std::sort(collected.begin(), collected.end(),
                  [](const auto& a, const auto& b) {
                    if (a.second != b.second) return a.second > b.second;
                    return a.first < b.first;
                  });
        break;
      case SelectionPolicy::kMin:
        std::sort(collected.begin(), collected.end(),
                  [](const auto& a, const auto& b) {
                    if (a.second != b.second) return a.second < b.second;
                    return a.first < b.first;
                  });
        break;
      case SelectionPolicy::kRandom: {
        Rng rng(cfg.seed ^ (0xabcd'ef01'2345'6789ULL + u));
        shuffle(collected, rng);
        break;
      }
    }
    collected.resize(cfg.k_local);
  }
  std::sort(collected.begin(), collected.end());
}

/// Binary search in an id-sorted sims list.
[[nodiscard]] inline const float* find_sim(
    const std::vector<std::pair<VertexId, float>>& sims, VertexId v) {
  const auto it = std::lower_bound(
      sims.begin(), sims.end(), v,
      [](const auto& entry, VertexId key) { return entry.first < key; });
  if (it == sims.end() || it->first != v) return nullptr;
  return &it->second;
}

// ---------------------------------------------------------------------
// Retained-list adapters: the engine's vertex data keeps (id, score)
// pairs, the flattened models keep parallel arrays. The fold kernels
// template over this tiny interface instead of forcing one layout.
// ---------------------------------------------------------------------

struct PairSims {
  const std::vector<std::pair<VertexId, float>>* entries;
  [[nodiscard]] std::size_t size() const { return entries->size(); }
  [[nodiscard]] VertexId id(std::size_t i) const {
    return (*entries)[i].first;
  }
  [[nodiscard]] float score(std::size_t i) const {
    return (*entries)[i].second;
  }
};

struct SpanSims {
  std::span<const VertexId> ids;
  std::span<const float> scores;
  [[nodiscard]] std::size_t size() const { return ids.size(); }
  [[nodiscard]] VertexId id(std::size_t i) const { return ids[i]; }
  [[nodiscard]] float score(std::size_t i) const { return scores[i]; }
};

/// True when the 2b zero-path early exit is sound for this configuration
/// (the `2b:hop2-scores` per-edge pruning of ISSUE 5 / ROADMAP "K=3
/// cost"). A zero-valued path can be dropped without changing any
/// surviving candidate exactly when:
///   * hop2_min_score > 0 — the knob is on (0 must stay bit-identical
///     to the unpruned pipeline, so nothing may be skipped);
///   * the aggregator is Sum — σ is a sum of non-negative terms, so
///     folding 0 leaves σ bit-identical, and ⊕post ignores the path
///     count n. Under Mean (σ/n) and Geom (σ^(1/n), with ⊕pre = ×) the
///     zero paths are load-bearing, so the exit stays off;
///   * the policy is not Γrnd — its shuffle keys on the accumulator
///     iteration order, which dropping entries would perturb.
/// Candidates ALL of whose paths are zero end at σ = 0 < threshold and
/// are pruned by the filter anyway, so skipping them changes nothing.
[[nodiscard]] inline bool hop2_zero_skip(const SnapleConfig& cfg,
                                         const ScoreConfig& score) {
  return cfg.hop2_min_score > 0 &&
         score.aggregator.kind() == AggregatorKind::kSum &&
         cfg.policy != SelectionPolicy::kRandom;
}

/// Folds one downstream list of the path u → v → z into `acc`: for every
/// (z, s_vz) with z ≠ u and z ∉ Γ̂(u), accumulate (z, suv ⊗ s_vz, 1) with
/// ⊕pre. This is the shared inner body of the step-2b and step-3 gathers
/// (and their serving replays). Returns the accumulated wire bytes.
/// `skip_zero` enables the 2b zero-path skip (see hop2_zero_skip).
template <typename SimList, typename PreOp>
std::size_t fold_path_list(VertexId u, std::span<const VertexId> gamma_u,
                           float suv, const SimList& list,
                           const Combinator& comb, bool skip_zero,
                           ScoreMap& acc, PreOp&& pre) {
  std::size_t bytes = 0;
  // Candidate ids arrive in ascending order (SimLists keep ids sorted),
  // so the galloping cursor amortizes the per-candidate membership test;
  // it degrades to binary search — never a wrong answer — otherwise.
  simd::SortedMembership member(gamma_u);
  for (std::size_t j = 0; j < list.size(); ++j) {
    const VertexId z = list.id(j);
    if (z == u) continue;
    if (member.contains(z)) {
      continue;  // already a neighbor: not a missing-edge candidate
    }
    const double path_sim = comb(suv, list.score(j));
    if (skip_zero && path_sim == 0.0) continue;  // cannot move a Sum
    acc.accumulate(z, static_cast<float>(path_sim), 1, pre);
    bytes += sizeof(VertexId) + sizeof(float) + sizeof(std::uint32_t);
  }
  return bytes;
}

/// The 2b per-edge gather body: the whole-edge early exit plus the
/// per-path fold. When the zero-skip is active and ⊗ applied to v's best
/// retained similarity is already zero, no path through v can score
/// above zero (⊗ is monotone in both arguments and similarities are
/// non-negative), so the edge is skipped before any candidate lookup.
template <typename SimList, typename PreOp>
std::size_t fold_hop2_edge(VertexId u, std::span<const VertexId> gamma_u,
                           float suv, const SimList& sims_v,
                           const Combinator& comb, bool zero_skip,
                           ScoreMap& acc, PreOp&& pre) {
  if (zero_skip) {
    // Only scan for the bound when a zero path is possible at all —
    // e.g. linear(α) with suv > 0 yields α·suv > 0 for every path.
    if (comb(suv, 0.0) == 0.0) {
      float best = 0.0f;
      for (std::size_t j = 0; j < sims_v.size(); ++j) {
        best = std::max(best, sims_v.score(j));
      }
      if (comb(suv, best) == 0.0) return 0;  // per-edge early exit
    }
  }
  return fold_path_list(u, gamma_u, suv, sims_v, comb, zero_skip, acc,
                        std::forward<PreOp>(pre));
}

// ---------------------------------------------------------------------
// Machine-grouped single-vertex fold replay over model rows.
// ---------------------------------------------------------------------

/// Reused fold state, one per thread (thread_scratch) so the hot path
/// is allocation-free in steady state, like the engine's per-worker
/// accumulators.
struct PathFoldScratch {
  ScoreMap partial;
  ScoreMap merged;
};

/// The calling thread's fold state, shared by every single-vertex fold
/// — query serving (QueryEngine, the shards) and the hop2 recompute of
/// an update. Folds never nest, so one per thread suffices; concurrent
/// callers each get their own.
[[nodiscard]] inline PathFoldScratch& thread_scratch() {
  static thread_local PathFoldScratch scratch;
  return scratch;
}

/// Which fold a replay performs: step 3's recommendation fold (sims plus,
/// for K=3, the hop2 extension) or step 2b's 2-hop pre-fold (sims only,
/// honoring the zero-path early exit).
enum class PathFold { kRecommend, kHop2 };

/// Replays one vertex's fold into scratch.merged, reproducing the batch
/// engine's canonical order bit-exactly: u's retained edges grouped by
/// their machine tag, folded in ascending-id order within a group (CSR
/// order), groups merged in ascending machine order with the same ⊕pre
/// the engine's cross-machine merge uses. The first contributing group
/// folds straight into `merged` — the engine swaps the first partial in
/// wholesale, so this is the same float chain.
///
/// `Model` needs gamma_hat(u) -> span<const VertexId>, sims(u) ->
/// {ids, scores, machines} spans, hop2(u) -> {ids, scores} spans, and
/// config(); PredictorModel and DynamicModel both qualify.
template <typename Model>
void fold_vertex_paths(const Model& model, const ScoreConfig& score,
                       VertexId u, PathFold kind, bool zero_skip,
                       PathFoldScratch& scratch) {
  const Combinator comb = score.combinator;
  const Aggregator agg = score.aggregator;
  const auto pre = [&agg](float a, float b) {
    return static_cast<float>(agg.pre(a, b));
  };
  const auto gamma = model.gamma_hat(u);
  const auto su = model.sims(u);
  const bool extend_hop2 =
      kind == PathFold::kRecommend && model.config().k_hops == 3;
  scratch.merged.clear();

  std::uint64_t machines = 0;
  for (const gas::MachineId m : su.machines) {
    machines |= std::uint64_t{1} << m;
  }
  while (machines != 0) {
    const auto mach =
        static_cast<gas::MachineId>(__builtin_ctzll(machines));
    machines &= machines - 1;
    ScoreMap& acc =
        scratch.merged.empty() ? scratch.merged : scratch.partial;
    for (std::size_t i = 0; i < su.ids.size(); ++i) {
      if (su.machines[i] != mach) continue;
      const float suv = su.scores[i];
      const auto sv = model.sims(su.ids[i]);
      const SpanSims sims_v{sv.ids, sv.scores};
      if (kind == PathFold::kHop2) {
        fold_hop2_edge(u, gamma, suv, sims_v, comb, zero_skip, acc, pre);
      } else {
        fold_path_list(u, gamma, suv, sims_v, comb, /*skip_zero=*/false,
                       acc, pre);
        if (extend_hop2) {
          // 3-hop paths u → v → (v's 2-hop candidate z): extend v's
          // folded 2-hop score by the first-hop similarity.
          const auto hv = model.hop2(su.ids[i]);
          fold_path_list(u, gamma, suv, SpanSims{hv.ids, hv.scores}, comb,
                         /*skip_zero=*/false, acc, pre);
        }
      }
    }
    if (&acc == &scratch.partial && !scratch.partial.empty()) {
      // Cross-group merge — the engine's merge_scores on whole partials.
      scratch.partial.for_each(
          [&](VertexId z, float sigma, std::uint32_t paths) {
            scratch.merged.accumulate(z, sigma, paths, pre);
          });
      scratch.partial.clear();
    }
  }
}

}  // namespace snaple::rows
