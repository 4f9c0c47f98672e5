// LiveShard — one serving shard's LIVE slice of the model: the
// update-plane backend that keeps a sharded cluster fresh without a
// freeze()/re-shard cycle.
//
// A LiveShard is the serving half over a range-scoped DynamicModel
// (core/dynamic_model.hpp): the model owns, verifies, updates and
// versions the rows of the shard's vertex range; the shard answers
// queries and peer fetches from them. The update plane fans EVERY
// insert or remove batch to EVERY shard (UpdateRouter), and each
// shard's model applies it the way any DynamicModel does:
//
//   1. validates the batch against its own live graph — the checks are
//      deterministic and every shard holds the same live graph, so all
//      shards accept or all reject: batch atomicity without a commit
//      protocol;
//   2. applies the batch to its own base+delta+tombstone overlay;
//   3. derives the stale row sets (rows::compute_stale_sets — a pure
//      function of batch + live graph, identical on every shard);
//   4. refreshes ONLY the stale rows it owns — the 1/S-th of the
//      update work that is this shard's share (a non-source sims row
//      re-scores just its neighbors among the batch sources; a row
//      that comes out unchanged keeps its slab) — reading non-owned
//      dependencies from the base model or recomputing them on the
//      fly, with no wire traffic (kEdgeLocal's endpoint-hash-stable
//      machine tags make every row a pure function of the live graph);
//   5. bumps row_version for EVERY stale vertex, owned or not, so all
//      shards agree on every vertex's version with no coordination —
//      and the versions key the hot-row cache (serve/row_cache.hpp), so
//      a cached copy of a refreshed row can never serve again.
//
// Queries run through the same missing-rows/top-k body as the static
// ModelShard (shard_missing_rows / shard_topk), plus a pinned root row.
//
// Concurrency: single writer (the shard's update link), any number of
// reader threads (frontend queries, peer fetches) with no reader locks
// — each row flips atomically behind an acquire/release pointer, and
// retired slabs are never freed while the shard lives. During a writer
// burst a query may observe some rows pre- and some post-batch
// (row-level isolation); once apply() returns on every shard —
// UpdateRouter::barrier() — every served answer is bit-identical to
// LinkPredictor::fit on the live graph.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/dynamic_model.hpp"
#include "core/model.hpp"
#include "gas/partition.hpp"
#include "serve/model_shard.hpp"

namespace snaple::serve {

class LiveShard {
 public:
  /// One owned row snapshot with the version it was read at — what a
  /// peer fetch ships (router.hpp op 2 carries the version so the
  /// fetching shard caches under the OWNER's key, never its own
  /// possibly-skewed view).
  struct VersionedRow {
    std::uint64_t version = 0;
    std::shared_ptr<const HotRow> row;
  };

  /// Wraps `base` (fit on `graph` with PartitionStrategy::kEdgeLocal,
  /// or any single-machine fit) for live serving of `range` — a
  /// DynamicModel owning `range`, with its checks (CheckError on bad
  /// tags, on Γrnd with K=3, on a range outside the model).
  LiveShard(std::shared_ptr<const PredictorModel> base,
            std::shared_ptr<const CsrGraph> graph, gas::VertexRange range)
      : model_(std::move(base), std::move(graph), nullptr, range) {}

  LiveShard(const LiveShard&) = delete;
  LiveShard& operator=(const LiveShard&) = delete;

  // ---- writer API (one writer at a time; safe against readers) ----

  /// Applies one insert / remove batch (DynamicModel::add_edges /
  /// remove_edges): all-or-nothing, the same decision on every shard.
  /// The row counts are this shard's owned stale-row refreshes.
  DynamicModel::UpdateStats apply(std::span<const Edge> batch) {
    return model_.add_edges(batch);
  }
  DynamicModel::UpdateStats apply_removes(std::span<const Edge> batch) {
    return model_.remove_edges(batch);
  }

  // ---- reader API (lock-free) ----

  [[nodiscard]] const gas::VertexRange& range() const noexcept {
    return model_.range();
  }
  [[nodiscard]] bool owns(VertexId u) const noexcept {
    return model_.owns(u);
  }
  [[nodiscard]] VertexId num_vertices() const noexcept {
    return model_.num_vertices();
  }
  /// Identical on every shard (DynamicModel::row_version).
  [[nodiscard]] std::uint64_t row_version(VertexId v) const {
    return model_.row_version(v);
  }
  /// Total applied operations — the barrier quantity.
  [[nodiscard]] std::uint64_t version() const noexcept {
    return model_.version();
  }
  [[nodiscard]] std::size_t overlay_bytes() const noexcept {
    return model_.overlay_bytes();
  }

  /// Retained neighbors of owned u whose rows are NOT owned here,
  /// sorted ascending — what the serving layer resolves (cache or peer
  /// fetch) before topk(u). Reads u's CURRENT sims row and, when `root`
  /// is non-null, pins the view it read there: a concurrent apply may
  /// republish u's row between this call and topk(u), and the fold MUST
  /// iterate the same neighbor set the missing list was derived from —
  /// pass the pin through to topk. The pinned spans stay valid for the
  /// shard's lifetime (slabs are never freed).
  [[nodiscard]] std::vector<VertexId> missing_rows(
      VertexId u, PredictorModel::SimsView* root = nullptr) const {
    return shard_missing_rows(model_, u, root);
  }

  /// Top-k for owned u over the current rows — bit-identical to
  /// QueryEngine::topk on a refit live-graph model once the cluster is
  /// quiescent. `overlay` supplies non-owned neighbor rows, as with
  /// ModelShard::topk; `root` (from missing_rows) substitutes for u's
  /// live sims row so the fold matches the resolved overlay even when a
  /// writer republishes u mid-query.
  [[nodiscard]] std::vector<std::pair<VertexId, float>> topk(
      VertexId u, std::size_t k = 0, const RowOverlay* overlay = nullptr,
      const PredictorModel::SimsView* root = nullptr) const {
    return shard_topk(model_, model_.score(), u, k, overlay, root);
  }

  /// Owned row snapshot for a peer fetch: content and version read
  /// consistently (version-validated retry loop, so a row republished
  /// mid-read can never ship under a newer version than its bytes).
  [[nodiscard]] VersionedRow snapshot_row(VertexId v) const;

 private:
  DynamicModel model_;
};

}  // namespace snaple::serve
