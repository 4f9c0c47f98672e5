// Single-row recompute entry points over a base+delta union graph —
// the writer-side kernels of core/dynamic_model.cpp, whether the model
// owns every vertex (one process absorbs every insert) or one range of
// them (serve/live_shard.hpp: each serving shard absorbs the same
// insert stream but republishes only its own range).
//
// Everything here is a pure function of (union graph, config, seed):
// recomputing the same row twice — or on two different shards — yields
// bit-identical bytes, which is what lets the sharded update plane skip
// any cross-shard coordination beyond delivering the batch itself. The
// float folds replay the batch engine's canonical machine-grouped order
// via core/snaple_rows.hpp, so every recomputed row matches a
// from-scratch fit on the union graph exactly (EXPECT_EQ, not
// EXPECT_NEAR — the repo's standing contract).
//
// The stale-set derivation (see dynamic_model.hpp's header for the
// dependency argument): inserting OR removing (u, v) stales
//
//   Γ̂(x)    for x = u;
//   sims(x) for x ∈ S        = {sources} ∪ Γ⁻¹(sources);
//   hop2(x) for x ∈ S ∪ Γ⁻¹(S)                      (K=3 only)
//
// — all computed against the live graph AFTER the batch landed in the
// overlay. The same sets cover removals because touching (u, v) only
// ever changes Γ(u)/|Γ(u)| and Γ⁻¹(v): Γ̂ rows depend on the owner's
// out-row alone, and sims(x) reads Γ̂ of x's out-neighbors — x loses
// that dependence on u the instant (x, u) leaves the graph, and any
// pre-batch in-neighbor of a source whose edge the batch severed is a
// source of another batch edge itself, so the post-batch Γ⁻¹ walk
// still reaches every stale row (the symmetry argument spelled out in
// docs/SERVING.md). Because the sets depend only on the batch and the
// live graph, every shard computes the same sets from the op stream
// alone (kEdgeLocal machine tags are endpoint-hash-stable, so no
// placement history is needed either).
//
// The refresh of a stale sims row x that is NOT a batch source
// (rescore_sims_row; sources get recompute_sims_row). x kept its
// out-row, hence Γ̂(x) and deg(x), and sim(x, w) reads Γ̂(x), Γ̂(w) and
// |Γ(w)| — so only the keys of W = Γ(x) ∩ sources moved. Re-score W and
// re-select klocal from (old row ∖ W) ∪ W. Exactness: an untruncated
// row (deg(x) ≤ klocal) keeps every neighbor, so the re-selection just
// swaps in W's scores. A truncated Γmax/Γmin row is the top klocal
// under a strict order (score, then id); if no w ∈ W that sat in the
// old row now ranks lower than before, then every candidate c outside
// old row ∪ W kept its key, which ranked below every old-row member,
// and every old-row member kept or raised its key — so klocal
// candidates still outrank c and the new top klocal lies inside
// old row ∪ W, which the re-selection ranks in full. Otherwise — a
// worsened in-row key, or a truncated Γrnd row, whose shuffle keys on
// the whole candidate list — the row is recomputed.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "core/similarity.hpp"
#include "core/snaple_rows.hpp"
#include "graph/overlay_graph.hpp"

namespace snaple::rows {

/// One immutable published row. `scores` is empty for Γ̂ rows;
/// `machines` is populated for sims rows only. Published behind an
/// atomic pointer (RCU-style) by DynamicModel.
struct RowSlab {
  std::vector<VertexId> ids;
  std::vector<float> scores;
  std::vector<gas::MachineId> machines;

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return sizeof(RowSlab) + ids.capacity() * sizeof(VertexId) +
           scores.capacity() * sizeof(float) +
           machines.capacity() * sizeof(gas::MachineId);
  }

  /// True when this row holds exactly these bytes — scores compared bit
  /// for bit, so not even a -0.0/+0.0 flip counts as unchanged.
  [[nodiscard]] bool same_bytes(
      std::span<const VertexId> other_ids,
      std::span<const float> other_scores,
      std::span<const gas::MachineId> other_machines) const noexcept {
    const auto bits = [](float f) { return std::bit_cast<std::uint32_t>(f); };
    return std::ranges::equal(ids, other_ids) &&
           std::ranges::equal(scores, other_scores, {}, bits, bits) &&
           std::ranges::equal(machines, other_machines);
  }
};

/// The stale row sets of one validated insert batch, each sorted
/// ascending and deduplicated. `hop2` stays empty unless requested
/// (K=2 models have no hop2 table).
struct StaleSets {
  std::vector<VertexId> gamma;
  std::vector<VertexId> sims;
  std::vector<VertexId> hop2;
};

/// Validates an insert batch against the union graph: every endpoint in
/// range, no self-loops, no edge already present, no duplicate within
/// the batch. Throws CheckError; a throwing call implies nothing may be
/// applied (all-or-nothing). Deterministic: every shard holding the
/// same union graph accepts or rejects identically, which is what makes
/// the fanned-out batch atomic across shards without a commit protocol.
inline void validate_insert_batch(const OverlayGraph& overlay,
                                  std::span<const Edge> batch) {
  const VertexId n = overlay.num_vertices();
  std::unordered_set<Edge, EdgeHash> seen;
  seen.reserve(batch.size());
  for (const Edge& e : batch) {
    SNAPLE_CHECK_MSG(e.src < n && e.dst < n,
                     "inserted edge (" + std::to_string(e.src) + ", " +
                         std::to_string(e.dst) +
                         ") is out of range: the model has " +
                         std::to_string(n) + " vertices");
    SNAPLE_CHECK_MSG(e.src != e.dst,
                     "self-loop (" + std::to_string(e.src) + ", " +
                         std::to_string(e.dst) + ") rejected");
    SNAPLE_CHECK_MSG(!overlay.has_edge(e.src, e.dst),
                     "edge (" + std::to_string(e.src) + ", " +
                         std::to_string(e.dst) +
                         ") already exists in the union graph");
    SNAPLE_CHECK_MSG(seen.insert(e).second,
                     "edge (" + std::to_string(e.src) + ", " +
                         std::to_string(e.dst) +
                         ") appears twice in the batch");
  }
}

/// Validates a remove batch against the live graph: every endpoint in
/// range, no self-loops, every edge actually present, no duplicate
/// within the batch. Same deterministic all-or-nothing contract as
/// validate_insert_batch — every shard holding the same live graph
/// accepts or rejects identically.
inline void validate_remove_batch(const OverlayGraph& overlay,
                                  std::span<const Edge> batch) {
  const VertexId n = overlay.num_vertices();
  std::unordered_set<Edge, EdgeHash> seen;
  seen.reserve(batch.size());
  for (const Edge& e : batch) {
    SNAPLE_CHECK_MSG(e.src < n && e.dst < n,
                     "removed edge (" + std::to_string(e.src) + ", " +
                         std::to_string(e.dst) +
                         ") is out of range: the model has " +
                         std::to_string(n) + " vertices");
    SNAPLE_CHECK_MSG(e.src != e.dst,
                     "self-loop (" + std::to_string(e.src) + ", " +
                         std::to_string(e.dst) + ") rejected");
    SNAPLE_CHECK_MSG(overlay.has_edge(e.src, e.dst),
                     "edge (" + std::to_string(e.src) + ", " +
                         std::to_string(e.dst) +
                         ") is not an edge of the live graph");
    SNAPLE_CHECK_MSG(seen.insert(e).second,
                     "edge (" + std::to_string(e.src) + ", " +
                         std::to_string(e.dst) +
                         ") appears twice in the batch");
  }
}

/// Stale sets of `batch` against `overlay`, which must ALREADY contain
/// the batch's effect — inserts landed or removals tombstoned —
/// (in-neighborhoods are taken in the post-batch live graph; see the
/// header comment for why the post-batch walk also covers removals).
[[nodiscard]] inline StaleSets compute_stale_sets(
    const OverlayGraph& overlay, std::span<const Edge> batch,
    bool want_hop2) {
  auto sort_unique = [](std::vector<VertexId>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };

  StaleSets sets;
  sets.gamma.reserve(batch.size());
  for (const Edge& e : batch) sets.gamma.push_back(e.src);
  sort_unique(sets.gamma);

  sets.sims = sets.gamma;
  for (const VertexId u : sets.gamma) {
    overlay.for_each_in_neighbor(
        u, [&](VertexId x) { sets.sims.push_back(x); });
  }
  sort_unique(sets.sims);

  if (want_hop2) {
    sets.hop2 = sets.sims;
    for (const VertexId x : sets.sims) {
      overlay.for_each_in_neighbor(
          x, [&](VertexId y) { sets.hop2.push_back(y); });
    }
    sort_unique(sets.hop2);
  }
  return sets;
}

/// Step 1 for one vertex: the per-edge Bernoulli decision over the
/// union out-row. The merged iteration is already ascending, which is
/// the order the engine's apply sorts into.
[[nodiscard]] inline std::vector<VertexId> recompute_gamma_row(
    const SnapleConfig& cfg, const OverlayGraph& overlay, VertexId u) {
  std::vector<VertexId> row;
  const std::size_t deg = overlay.out_degree(u);
  overlay.for_each_out_neighbor(u, [&](VertexId w) {
    if (keep_sampled_edge(cfg, u, w, deg)) row.push_back(w);
  });
  return row;
}

/// A selected sims row of x (ascending ids) as a slab, machine tags
/// placed with cfg.seed.
[[nodiscard]] inline std::unique_ptr<RowSlab> sims_slab(
    const SnapleConfig& cfg, std::uint32_t machines, VertexId x,
    const std::vector<std::pair<VertexId, float>>& selected) {
  auto slab = std::make_unique<RowSlab>();
  slab->ids.reserve(selected.size());
  slab->scores.reserve(selected.size());
  slab->machines.reserve(selected.size());
  for (const auto& [w, s] : selected) {
    slab->ids.push_back(w);
    slab->scores.push_back(s);
    slab->machines.push_back(
        gas::edge_local_machine(x, w, machines, cfg.seed));
  }
  return slab;
}

/// Step 2 for one vertex: similarities over the union out-row,
/// collected machine-grouped (ascending machine, ascending target
/// within a machine) exactly as the engine's per-machine partials merge
/// — the order Γrnd's shuffle keys on; machines are placed with
/// cfg.seed, the seed LinkPredictor partitions with. `gamma_of(v)` must
/// return the CURRENT Γ̂ row of any vertex (span<const VertexId>) — the
/// caller resolves published/base/on-the-fly rows.
template <typename GammaFn>
[[nodiscard]] std::unique_ptr<RowSlab> recompute_sims_row(
    const SnapleConfig& cfg, const ScoreConfig& score,
    const OverlayGraph& overlay, std::uint32_t machines, VertexId x,
    GammaFn&& gamma_of) {
  /// An out-edge of x with its insertion-stable machine: the unit the
  /// machine-grouped collection orders by.
  struct SimEntry {
    gas::MachineId machine;
    VertexId target;
    float sim;
  };

  const std::span<const VertexId> gx = gamma_of(x);
  std::vector<SimEntry> entries;
  entries.reserve(overlay.out_degree(x));
  overlay.for_each_out_neighbor(x, [&](VertexId w) {
    const double s = similarity(score.metric, gx, gamma_of(w),
                                overlay.out_degree(w));
    entries.push_back({gas::edge_local_machine(x, w, machines, cfg.seed),
                       w, static_cast<float>(s)});
  });
  std::stable_sort(entries.begin(), entries.end(),
                   [](const SimEntry& a, const SimEntry& b) {
                     return a.machine < b.machine;
                   });

  std::vector<std::pair<VertexId, float>> collected;
  collected.reserve(entries.size());
  for (const SimEntry& e : entries) collected.emplace_back(e.target, e.sim);
  select_k_local(collected, cfg, x);
  return sims_slab(cfg, machines, x, collected);
}

/// Step 2 for a stale vertex x that is NOT a batch source, by re-scoring
/// only `changed` = Γ(x) ∩ sources (ascending) — the out-neighbors whose
/// sim(x, ·) the batch moved — and re-selecting klocal from
/// (current ∖ changed) ∪ re-scored changed, where `current` is x's row
/// before the batch. Bit-identical to recompute_sims_row whenever it
/// returns a row (the header comment has the argument); returns null
/// when the shortcut is not exact — a truncated row under Γrnd, or a
/// truncated row in which a changed neighbor now ranks lower than
/// before — and the caller then runs recompute_sims_row. `gamma_of` is
/// recompute_sims_row's.
template <typename GammaFn>
[[nodiscard]] std::unique_ptr<RowSlab> rescore_sims_row(
    const SnapleConfig& cfg, const ScoreConfig& score,
    const OverlayGraph& overlay, std::uint32_t machines, VertexId x,
    const PredictorModel::SimsView& current,
    std::span<const VertexId> changed, GammaFn&& gamma_of) {
  const bool truncated =
      cfg.k_local != kUnlimited && overlay.out_degree(x) > cfg.k_local;
  if (truncated && cfg.policy == SelectionPolicy::kRandom) return nullptr;
  // A changed in-row neighbor ranks lower when its score moved away
  // from the policy's end (same id, so the id tie-break cannot save it).
  const auto ranks_lower = [&](float now, float before) {
    return cfg.policy == SelectionPolicy::kMax ? now < before : now > before;
  };

  const std::span<const VertexId> gx = gamma_of(x);
  std::vector<std::pair<VertexId, float>> collected;
  collected.reserve(current.ids.size() + changed.size());
  std::size_t i = 0;  // merge cursor into current (ascending ids)
  for (const VertexId w : changed) {
    for (; i < current.ids.size() && current.ids[i] < w; ++i) {
      collected.emplace_back(current.ids[i], current.scores[i]);
    }
    const auto s = static_cast<float>(similarity(
        score.metric, gx, gamma_of(w), overlay.out_degree(w)));
    if (i < current.ids.size() && current.ids[i] == w) {
      if (truncated && ranks_lower(s, current.scores[i])) return nullptr;
      ++i;
    }
    collected.emplace_back(w, s);
  }
  for (; i < current.ids.size(); ++i) {
    collected.emplace_back(current.ids[i], current.scores[i]);
  }
  select_k_local(collected, cfg, x);
  return sims_slab(cfg, machines, x, collected);
}

/// Step 2b for one vertex: the machine-grouped path fold over CURRENT
/// sims rows, then the threshold filter and klocal selection of the
/// engine's apply. `Model` is the fold_vertex_paths row source — its
/// sims(v) must already reflect the batch (dependency order is the
/// caller's job); its hop2() is never read by the kHop2 fold.
template <typename Model>
[[nodiscard]] std::unique_ptr<RowSlab> recompute_hop2_row(
    const Model& model, const ScoreConfig& score, bool zero_skip,
    VertexId x, PathFoldScratch& scratch) {
  fold_vertex_paths(model, score, x, PathFold::kHop2, zero_skip, scratch);
  const SnapleConfig& cfg = model.config();
  const Aggregator agg = score.aggregator;
  std::vector<std::pair<VertexId, float>> collected;
  scratch.merged.for_each([&](VertexId z, float sigma, std::uint32_t n) {
    const auto s = static_cast<float>(agg.post(sigma, n));
    if (cfg.hop2_min_score > 0 && s < cfg.hop2_min_score) {
      return;  // pruned: this 2-hop candidate scores too low
    }
    collected.emplace_back(z, s);
  });
  select_k_local(collected, cfg, x);

  auto slab = std::make_unique<RowSlab>();
  slab->ids.reserve(collected.size());
  slab->scores.reserve(collected.size());
  for (const auto& [z, s] : collected) {
    slab->ids.push_back(z);
    slab->scores.push_back(s);
  }
  return slab;
}

}  // namespace snaple::rows
