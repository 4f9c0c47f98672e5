// ModelShard — one serving shard's resident slice of a PredictorModel.
//
// The sharded serving tier partitions the model by contiguous vertex
// range (gas::VertexRange): shard i holds the flattened rows of its
// range and nothing else, exactly what a separate shard process would
// load from disk. Ranges are planned by row *bytes*
// (plan_shard_ranges), so a skewed model still spreads evenly.
//
// What a topk(u) query reads (core/snaple_rows.hpp fold): Γ̂(u) and
// sims(u) — owned by u's shard by construction — plus sims(v) (and, for
// K=3, hop2(v)) for every retained neighbor v ∈ Du.sims. Those
// neighbors can live anywhere, so a shard has two choices, both exposed
// here and both proven bit-identical to the single-process QueryEngine:
//
//   * co-locate (colocate=true): at build time, copy the sims/hop2 rows
//     of every out-of-range retained neighbor into a read-only replica
//     table. Queries are then always shard-local; the cost is
//     replica_bytes() of duplicated rows (the serving analogue of the
//     vertex-cut replication factor).
//   * remote fetch (colocate=false): missing_rows(u) names the
//     non-resident rows; the serving layer resolves each one — from its
//     hot-row cache (serve/row_cache.hpp) or a batched peer fetch
//     (router.hpp counts both) — and passes them as a RowOverlay to
//     topk().
//
// Bit-identity holds because the fold depends only on row *contents*,
// never on where a row is resident: the shard replays the same
// machine-grouped fold (rows::fold_vertex_paths) over the same bytes
// and ranks with the same rank_candidates as QueryEngine::topk.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "core/scoring.hpp"
#include "gas/partition.hpp"
#include "serve/row_cache.hpp"

namespace snaple::serve {

/// Non-resident rows resolved for one (or a batch of) queries, id-sorted
/// — the overlay ModelShard::topk consults for non-resident neighbors.
/// Rows are borrowed pointers: the serving layer pins each backing
/// HotRow (a cache hit's shared_ptr or a freshly fetched row) for the
/// duration of the fold, so an overlay is assembled without copying row
/// payloads. Machine tags are deliberately absent: the fold reads tags
/// only from the *queried* vertex's own sims row, which its shard always
/// owns, so shipping or caching tags for neighbor rows would be dead
/// bytes.
struct RowOverlay {
  std::vector<VertexId> ids;         // sorted ascending
  std::vector<const HotRow*> rows;   // parallel to ids, never null
};

class ModelShard {
 public:
  /// Slices `model` to `range`'s rows. colocate=true additionally copies
  /// the rows of every out-of-range retained neighbor (see file header).
  [[nodiscard]] static ModelShard build(const PredictorModel& model,
                                        gas::VertexRange range,
                                        bool colocate);

  [[nodiscard]] const gas::VertexRange& range() const noexcept {
    return range_;
  }
  [[nodiscard]] const SnapleConfig& config() const noexcept {
    return config_;
  }
  /// Vertex count of the FULL model (candidate ids span all of it).
  [[nodiscard]] VertexId num_vertices() const noexcept {
    return num_vertices_;
  }

  [[nodiscard]] bool owns(VertexId u) const noexcept {
    return range_.contains(u);
  }
  /// Owned or replicated: sims(v)/hop2(v) may be read without a fetch.
  [[nodiscard]] bool has_row(VertexId v) const noexcept;

  /// Γ̂(u); u must be owned (queries land on the owner; remote shards
  /// never need another vertex's gamma row).
  [[nodiscard]] std::span<const VertexId> gamma_hat(VertexId u) const;

  /// Retained-neighbor row of v — owned or replicated (has_row(v)).
  /// The machine span is empty for replicated rows; the fold reads tags
  /// only off the owned, queried vertex. Throws CheckError otherwise.
  [[nodiscard]] PredictorModel::SimsView sims(VertexId v) const;
  [[nodiscard]] PredictorModel::Hop2View hop2(VertexId v) const;

  /// Retained neighbors of owned u whose rows are NOT resident, sorted
  /// ascending — what the router must fetch before topk(u). Always
  /// empty for a colocated shard.
  [[nodiscard]] std::vector<VertexId> missing_rows(VertexId u) const;

  /// Top-k for owned u — bit-identical to QueryEngine::topk on the full
  /// model. k = 0 means the model's configured k. `overlay` supplies
  /// non-resident neighbor rows (required iff missing_rows(u) is
  /// non-empty; a missing row throws CheckError, never misscores).
  [[nodiscard]] std::vector<std::pair<VertexId, float>> topk(
      VertexId u, std::size_t k = 0,
      const RowOverlay* overlay = nullptr) const;

  /// Number of replicated out-of-range rows (0 unless colocated).
  [[nodiscard]] std::size_t replica_count() const noexcept {
    return replica_ids_.size();
  }
  /// Resident bytes of the replica table alone — the co-location cost.
  [[nodiscard]] std::size_t replica_bytes() const noexcept;

 private:
  gas::VertexRange range_;
  SnapleConfig config_;
  VertexId num_vertices_ = 0;
  ScoreConfig score_;

  PredictorModel::RowsSlice rows_;

  // Replica table (colocate mode): id-sorted out-of-range rows.
  std::vector<VertexId> replica_ids_;
  std::vector<EdgeIndex> replica_sims_offsets_;  // size replicas+1
  std::vector<VertexId> replica_sims_ids_;
  std::vector<float> replica_sims_scores_;
  std::vector<EdgeIndex> replica_hop2_offsets_;  // size replicas+1
  std::vector<VertexId> replica_hop2_ids_;
  std::vector<float> replica_hop2_scores_;
};

/// The serving half every shard backend shares, so static and live
/// shards answer through one body: missing_rows lists the retained
/// neighbors of u whose rows are not resident (sorted ascending — what
/// the serving layer resolves from its cache or peers), and topk folds
/// owned u over resident rows plus the resolved `overlay` and ranks
/// with `score` — bit-identical to QueryEngine::topk. `Rows` is
/// ModelShard (resident = owned or replicated) or DynamicModel (the
/// live rows of one owned range; resident = owned); model_shard.cpp
/// instantiates both. A non-null `root` pins u's sims row:
/// shard_missing_rows stores the view it derived the list from and
/// shard_topk folds over that view, so a writer republishing u between
/// the two calls cannot desync the fold from its overlay.
template <typename Rows>
[[nodiscard]] std::vector<VertexId> shard_missing_rows(
    const Rows& shard, VertexId u, PredictorModel::SimsView* root);
template <typename Rows>
[[nodiscard]] std::vector<std::pair<VertexId, float>> shard_topk(
    const Rows& shard, const ScoreConfig& score, VertexId u, std::size_t k,
    const RowOverlay* overlay, const PredictorModel::SimsView* root);

/// Byte-balanced contiguous ranges for `parts` shards: vertex u weighs
/// model.row_bytes(u). Every query-relevant array slices along the
/// result; parts may exceed the vertex count (trailing ranges empty).
[[nodiscard]] std::vector<gas::VertexRange> plan_shard_ranges(
    const PredictorModel& model, std::size_t parts);

}  // namespace snaple::serve
