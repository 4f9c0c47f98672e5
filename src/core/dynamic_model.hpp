// DynamicModel — incremental model updates: mutate the served model on
// edge inserts and removals instead of refitting.
//
// A PredictorModel is a frozen snapshot; a follower graph is not. At
// 1B edges a refit of steps 1–2(b) costs seconds to minutes, so a
// serving tier that refits per edge can never stay fresh. The row-level
// dependency structure of Algorithm 2 makes surgical updates possible —
// inserting OR removing the edge (u, v) stales exactly:
//
//   Γ̂(x)    for x = u                    (only u's out-row and degree
//                                         changed; the Bernoulli draw is
//                                         per-edge, rows::edge_uniform);
//   sims(x) for x ∈ {u} ∪ Γ⁻¹(u)         (sim(x, w) reads Γ̂(x), Γ̂(w) and
//                                         |Γ(w)| — only u's changed);
//   hop2(x) for x ∈ S ∪ Γ⁻¹(S),          (the 2b fold of x reads sims(x),
//           S = {u} ∪ Γ⁻¹(u)              Γ̂(x) and sims of x's targets)
//
// — all neighborhood-sized sets, refreshed in microseconds with the
// same row kernels the batch engine runs (core/snaple_rows.hpp) against
// a graph overlay (graph/overlay_graph.hpp). Removals hit the identical
// sets because touching (u, v) only ever changes Γ(u)/|Γ(u)| and
// Γ⁻¹(v) — row_recompute.hpp's header carries the symmetry argument —
// so inserts and removes share one refresh tail. bench_update
// measures the gap against the full refit wall.
//
// The refresh rule. Γ̂ and hop2 rows, and the sims rows of the batch
// SOURCES (their out-row and Γ̂ moved, so every sim in them did), are
// recomputed. Every other stale sims row x kept its out-row and Γ̂(x),
// so only sim(x, w) for w ∈ W = Γ(x) ∩ sources moved: x re-scores just
// W and re-selects klocal from (old row ∖ W) ∪ W
// (rows::rescore_sims_row). That is exact for an untruncated row, and
// for a Γmax/Γmin row unless some w ∈ W in the old row now ranks lower
// than before (row_recompute.hpp's header has the argument); such a
// row, a truncated Γrnd row and a dirty non-owned dependency (below —
// no old row of it is kept) are recomputed instead.
//
// Skip-publish: a refreshed row holding the same bytes as the live one
// keeps the live slab — nothing is published, nothing retired — but its
// row_version still bumps. Version bumps follow the stale sets alone, so
// every instance bumps the same vertices whatever its rows came out as,
// and a version-keyed cache drops and refetches an unchanged row like a
// changed one (identical bytes: a wasted fetch, never a wrong answer).
//
// THE contract (the property test in tests/test_dynamic_model.cpp):
// after any interleaving of add_edge(s) and remove_edge(s), every row
// and every served query — predictions AND float scores — is
// bit-identical to LinkPredictor::fit run from scratch on the live
// (union-minus-tombstones) graph under the same config and the same
// edge placement. Two things make that exact instead of approximate:
//
//   * every recompute replays the engine's canonical machine-grouped
//     fold (CSR order within a machine, machines merged ascending, same
//     float ⊕pre chains — snaple_rows.hpp);
//   * edges are placed by gas::PartitionStrategy::kEdgeLocal, whose
//     machine assignment is a pure hash of the endpoints. The kHash /
//     kGreedy strategies key on CSR edge *positions* or placement
//     history, both of which shift when an edge is inserted — a refit
//     under them would silently re-tag existing edges and the float
//     folds would diverge. The constructor verifies the owned rows'
//     tags against the rule (single-machine models always pass: every
//     tag is 0 under any strategy).
//
// Owned range: a DynamicModel refreshes the rows of one contiguous
// vertex range (gas::VertexRange, the whole model by default). That is
// the whole difference between the single-process live model and one
// shard of the sharded update plane (serve/live_shard.hpp wraps a
// ranged DynamicModel): every instance holds the full live graph and
// applies every batch, derives the same stale sets, refreshes only the
// stale rows it OWNS, and bumps row_version for EVERY stale vertex, so
// all instances agree on every version with no coordination. A
// non-owned dependency of an owned recompute (sims(x) reads Γ̂ of x's
// out-neighbors, hop2(x) reads sims of x's retained neighbors) is read
// from the base model while clean, and recomputed on the fly from the
// live graph, memoized per apply, once any batch staled it — every row
// is a pure function of (live graph, config, seed), so no instance ever
// needs another's rows. Over [0, n) nothing is non-owned and the loop
// is the plain single-process update.
//
// Concurrency: single writer, any number of readers, no reader locks.
// Each changed row is published as an immutable slab behind one
// atomic pointer (release store; readers load-acquire — an RCU-style
// swap). Readers are never torn: a row is either the old slab or the
// new one, never a mix. During a multi-row update a concurrent query
// may observe some rows pre- and some post-insert (row-level, not
// snapshot, isolation); once add_edge(s) returns, every new query
// reflects the insert. Superseded slabs are retired, never freed while
// this object lives — a reader can never chase a dangling pointer, and
// in exchange memory grows with the count of rows that changed
// (overlay_bytes() reports, and may be polled from any thread). To
// compact a long-lived server, freeze() a snapshot, swap serving onto a
// fresh DynamicModel wrapping it (plus the union graph), and discard
// this one once its readers drain — the RCU grace period, moved to an
// object boundary.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/model.hpp"
#include "core/row_recompute.hpp"
#include "core/snaple_rows.hpp"
#include "gas/partition.hpp"
#include "graph/overlay_graph.hpp"

namespace snaple {

class DynamicModel {
 public:
  /// What one update touched. The row counts are the owned stale rows
  /// THIS model refreshed — its share of the stale sets (summed over
  /// instances whose ranges partition the vertices, they give the global
  /// stale-row counts), whether or not a refreshed row came out
  /// unchanged; `version` is version() afterwards.
  struct UpdateStats {
    std::uint64_t edges = 0;       // operations applied (inserts or removals)
    std::uint64_t gamma_rows = 0;  // owned stale Γ̂ rows refreshed
    std::uint64_t sims_rows = 0;   // owned stale sims rows refreshed
    std::uint64_t hop2_rows = 0;   // owned stale hop2 rows refreshed (K=3)
    std::uint64_t sims_rescored = 0;  // of sims_rows: by re-scoring only
                                      // the neighbors the batch changed
    std::uint64_t version = 0;
  };

  /// Wraps `base` (fit on `graph`) for incremental updates of the rows
  /// in `range` (every vertex when unset). The base model's machine
  /// tags must follow gas::edge_local_machine with the model config's
  /// seed — the seed LinkPredictor partitions with — so fit with
  /// PartitionStrategy::kEdgeLocal, or any single-machine fit. The
  /// owned rows are verified here; throws CheckError otherwise, and on a
  /// Γrnd policy with K=3, whose hop2 selection shuffles in
  /// accumulator-iteration order that no replay can reproduce.
  DynamicModel(std::shared_ptr<const PredictorModel> base,
               std::shared_ptr<const CsrGraph> graph,
               ThreadPool* pool = nullptr,
               std::optional<gas::VertexRange> range = std::nullopt);

  DynamicModel(const DynamicModel&) = delete;
  DynamicModel& operator=(const DynamicModel&) = delete;

  // ---- writer API (one writer at a time; safe against readers) ----

  /// Applies one edge insert and recomputes the stale rows. Throws
  /// CheckError on an out-of-range endpoint, a self-loop, or an edge
  /// already present in the union graph; a throwing call changes
  /// nothing.
  UpdateStats add_edge(VertexId u, VertexId v);

  /// Applies a batch in one pass: all inserts land in the overlay
  /// first, then each stale row is recomputed once — cheaper than
  /// edge-at-a-time when inserts cluster, and bit-identical to it (both
  /// end at the refit-on-union state). The whole batch is validated up
  /// front; a throwing call changes nothing. Validation is a pure
  /// function of the batch and the live graph, so instances holding the
  /// same live graph all accept or all reject.
  UpdateStats add_edges(std::span<const Edge> batch);

  /// Applies one edge removal and recomputes the stale rows — the same
  /// row families as an insert of the same edge. Throws CheckError on
  /// an out-of-range endpoint, a self-loop, or an edge not present in
  /// the live graph; a throwing call changes nothing.
  UpdateStats remove_edge(VertexId u, VertexId v);

  /// Removes a batch in one pass: all tombstones land in the overlay
  /// first, then each stale row is recomputed once. The whole batch is
  /// validated up front; a throwing call changes nothing.
  UpdateStats remove_edges(std::span<const Edge> batch);

  /// Rebuilds a compact, standalone PredictorModel from the current
  /// rows — bit-identical to a from-scratch fit on the live graph, and
  /// the save/serve artifact for the updated state. Does NOT reclaim
  /// this model's retired slabs (readers may still hold them); see the
  /// header comment for the swap-and-discard compaction pattern. Safe
  /// against concurrent readers; not against a concurrent writer.
  /// Throws CheckError unless this model owns every vertex.
  [[nodiscard]] PredictorModel freeze() const;

  // ---- reader API (lock-free; same row shapes as PredictorModel) ----
  // Rows of an OWNED vertex; throws CheckError otherwise.

  [[nodiscard]] std::span<const VertexId> gamma_hat(VertexId u) const {
    if (const RowSlab* s = published(gamma_rows_, u)) return s->ids;
    return base_->gamma_hat(u);
  }

  [[nodiscard]] PredictorModel::SimsView sims(VertexId u) const {
    if (const RowSlab* s = published(sims_rows_, u)) {
      return {s->ids, s->scores, s->machines};
    }
    return base_->sims(u);
  }

  [[nodiscard]] PredictorModel::Hop2View hop2(VertexId u) const {
    if (hop2_rows_.empty()) {  // K=2: no hop2 table at all
      if (!owns(u)) not_owned(u);
      return {};
    }
    if (const RowSlab* s = published(hop2_rows_, u)) {
      return {s->ids, s->scores};
    }
    return base_->hop2(u);
  }

  [[nodiscard]] const gas::VertexRange& range() const noexcept {
    return range_;
  }
  [[nodiscard]] bool owns(VertexId u) const noexcept {
    return range_.contains(u);
  }
  [[nodiscard]] const SnapleConfig& config() const noexcept {
    return base_->config();
  }
  /// The scoring method, resolved once from config().
  [[nodiscard]] const ScoreConfig& score() const noexcept { return score_; }
  [[nodiscard]] VertexId num_vertices() const noexcept {
    return base_->num_vertices();
  }
  [[nodiscard]] std::uint32_t num_machines() const noexcept {
    return base_->num_machines();
  }

  /// Total applied operations — inserts plus removals (monotone;
  /// release-published after the last row of an update is visible).
  [[nodiscard]] std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }
  /// Times any of u's rows was refreshed — here or, for a non-owned u,
  /// by its owner — since construction, whether or not the refresh
  /// changed a byte (0 = the base model's rows are still current for
  /// u). Kept for EVERY vertex and bumped after the owned rows are
  /// published: a reader that sees the new version also sees the new
  /// rows — the invariant version-keyed row caches rest on.
  [[nodiscard]] std::uint64_t row_version(VertexId u) const {
    SNAPLE_DCHECK(u < num_vertices());
    return row_version_[u].load(std::memory_order_acquire);
  }

  [[nodiscard]] const PredictorModel& base() const noexcept {
    return *base_;
  }
  /// The live graph (base CSR + delta rows − tombstones). Writer-side
  /// state: do not read concurrently with add_edge(s)/remove_edge(s).
  [[nodiscard]] const OverlayGraph& graph() const noexcept {
    return overlay_;
  }

  /// Bytes held beyond the model at construction: live + retired row
  /// slabs and the overlay delta rows (0 before the first update). A
  /// running total the writer stores after each update, so any thread
  /// may poll it while updates run.
  [[nodiscard]] std::size_t overlay_bytes() const noexcept {
    return held_bytes_.load(std::memory_order_relaxed);
  }

 private:
  /// One immutable published row (core/row_recompute.hpp).
  using RowSlab = rows::RowSlab;
  /// Owned-range tables: index u - range_.begin.
  using RowTable = std::vector<std::atomic<const RowSlab*>>;

  struct DependencyMemo;  // per-apply memo of non-owned dependency rows
  struct FoldSource;      // current-row source for the hop2 recompute

  /// u's published slab in `table` (null = the base row is current).
  [[nodiscard]] const RowSlab* published(const RowTable& table,
                                         VertexId u) const {
    if (!owns(u)) not_owned(u);
    return table[u - range_.begin].load(std::memory_order_acquire);
  }
  [[noreturn]] void not_owned(VertexId u) const;

  /// Writer-side current rows of ANY vertex: owned table, base, or the
  /// per-apply memo of a dirty non-owned row.
  [[nodiscard]] std::span<const VertexId> current_gamma(
      VertexId v, DependencyMemo& memo) const;
  [[nodiscard]] PredictorModel::SimsView current_sims(
      VertexId v, DependencyMemo& memo) const;

  /// Shared tail of both writer paths: stale sets against the already
  /// mutated overlay, dirty flags, owned refreshes in dependency order,
  /// version bumps.
  UpdateStats refresh_stale(std::span<const Edge> batch);

  /// Publishes `slab` as owned u's row in `table` — unless it holds the
  /// same bytes as the row readers see now (`ids`/`scores`/`machines`),
  /// which then stays and `slab` is dropped.
  void publish(RowTable& table, VertexId u, std::unique_ptr<RowSlab> slab,
               std::span<const VertexId> ids, std::span<const float> scores,
               std::span<const gas::MachineId> machines);

  std::shared_ptr<const PredictorModel> base_;
  OverlayGraph overlay_;
  gas::VertexRange range_;
  ScoreConfig score_;    // resolved once from the model's config
  bool hop2_skip_zero_;  // rows::hop2_zero_skip, fixed per config

  RowTable gamma_rows_;  // sized range_.size()
  RowTable sims_rows_;
  RowTable hop2_rows_;   // empty vector for K=2 models
  std::unique_ptr<std::atomic<std::uint64_t>[]> row_version_;  // full n
  std::atomic<std::uint64_t> version_{0};

  /// Writer-private staleness of NON-owned rows (full n): set once any
  /// batch staled the row. A dirty dependency is recomputed on the fly;
  /// a clean one reads the base model. Owned rows never consult these —
  /// their tables are current.
  std::vector<char> gamma_dirty_;
  std::vector<char> sims_dirty_;

  /// Every slab ever published, live or superseded — deferred
  /// reclamation is what lets readers run without locks or epochs.
  std::vector<std::unique_ptr<const RowSlab>> slabs_;
  std::size_t slab_bytes_ = 0;  // writer-side: slabs_ and what it owns
  std::atomic<std::size_t> held_bytes_{0};  // overlay_bytes()
};

}  // namespace snaple
