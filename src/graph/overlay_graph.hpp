// Appendable adjacency overlay over an immutable CsrGraph.
//
// The CSR representation the whole library computes on is deliberately
// immutable — every array is bulk-built, bulk-saved and shared. A live
// serving tier, however, keeps receiving edges (core/dynamic_model.hpp),
// and rebuilding a billion-edge CSR per insert is off the table. The
// overlay keeps the base graph untouched and stores inserted edges as
// per-vertex sorted delta rows, keyed only for the vertices that
// actually changed: a union adjacency query merges the base row with
// the (usually tiny or absent) delta row on the fly.
//
// Deletions are the symmetric extension: a removed base edge lands in a
// per-vertex sorted TOMBSTONE row instead of mutating the CSR, and every
// accessor — has_edge, degrees, merged iteration — subtracts it on the
// fly. Removing an edge that only exists in the delta simply erases it
// from the delta, so the three invariants hold at all times:
//
//   delta ∩ base = ∅        (insert() clears a tombstone instead of
//   tombstones ⊆ base        double-recording a re-added base edge)
//   delta ∩ tombstones = ∅
//
// The union-minus-tombstones graph this exposes is what every stale-row
// recompute folds over (core/row_recompute.hpp).
//
// Scope: fixed vertex set (link prediction never predicts for a vertex
// the model has no row for), single writer. Readers of the DynamicModel
// never touch the overlay — it is writer-side state — so no
// synchronization lives here.
#pragma once

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/types.hpp"
#include "util/check.hpp"

namespace snaple {

class OverlayGraph {
 public:
  /// The base graph is shared, never copied, never mutated.
  explicit OverlayGraph(std::shared_ptr<const CsrGraph> base)
      : base_(std::move(base)) {
    SNAPLE_CHECK_MSG(base_ != nullptr, "overlay needs a base graph");
  }

  [[nodiscard]] const CsrGraph& base() const noexcept { return *base_; }
  [[nodiscard]] const std::shared_ptr<const CsrGraph>& base_ptr()
      const noexcept {
    return base_;
  }

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return base_->num_vertices();
  }
  /// Live edge count: base + inserted − tombstoned.
  [[nodiscard]] EdgeIndex num_edges() const noexcept {
    return base_->num_edges() + inserted_ - removed_;
  }
  /// Live delta edges (inserts not since removed).
  [[nodiscard]] std::size_t num_inserted() const noexcept {
    return inserted_;
  }
  /// Tombstoned base edges (removals not since re-added).
  [[nodiscard]] std::size_t num_removed() const noexcept {
    return removed_;
  }

  /// Inserts the directed edge (u, v). Throws CheckError on an
  /// out-of-range endpoint or a self-loop; returns false (and inserts
  /// nothing) when the edge already exists in the live graph. Re-adding
  /// a tombstoned base edge clears the tombstone instead of growing the
  /// delta.
  bool insert(VertexId u, VertexId v);

  /// Removes the directed edge (u, v). Throws CheckError on an
  /// out-of-range endpoint or a self-loop; returns false (and removes
  /// nothing) when the edge is not in the live graph. A delta edge is
  /// erased; a base edge is tombstoned.
  bool remove(VertexId u, VertexId v);

  /// True if (u, v) exists in the live (union-minus-tombstones) graph.
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const {
    return contains(out_delta_, u, v) ||
           (base_->has_edge(u, v) && !contains(out_tomb_, u, v));
  }

  [[nodiscard]] std::size_t out_degree(VertexId u) const {
    return base_->out_degree(u) + delta_row(out_delta_, u).size() -
           delta_row(out_tomb_, u).size();
  }
  [[nodiscard]] std::size_t in_degree(VertexId u) const {
    return base_->in_degree(u) + delta_row(in_delta_, u).size() -
           delta_row(in_tomb_, u).size();
  }

  /// Inserted out-/in-neighbors of u, sorted ascending (empty span when
  /// u was never touched).
  [[nodiscard]] std::span<const VertexId> extra_out(VertexId u) const {
    return delta_row(out_delta_, u);
  }
  [[nodiscard]] std::span<const VertexId> extra_in(VertexId u) const {
    return delta_row(in_delta_, u);
  }

  /// Tombstoned base out-/in-neighbors of u, sorted ascending.
  [[nodiscard]] std::span<const VertexId> removed_out(VertexId u) const {
    return delta_row(out_tomb_, u);
  }
  [[nodiscard]] std::span<const VertexId> removed_in(VertexId u) const {
    return delta_row(in_tomb_, u);
  }

  /// Visits u's live out-neighborhood in ascending id order — a
  /// two-pointer merge of the base row (skipping tombstones) and the
  /// delta row (both sorted, disjoint by the insert()/remove()
  /// invariants).
  template <typename Fn>
  void for_each_out_neighbor(VertexId u, Fn&& fn) const {
    merge_rows(base_->out_neighbors(u), delta_row(out_tomb_, u),
               delta_row(out_delta_, u), std::forward<Fn>(fn));
  }
  template <typename Fn>
  void for_each_in_neighbor(VertexId u, Fn&& fn) const {
    merge_rows(base_->in_neighbors(u), delta_row(in_tomb_, u),
               delta_row(in_delta_, u), std::forward<Fn>(fn));
  }

  /// Resident bytes of the delta and tombstone rows (the base graph is
  /// accounted by its owner): a running total the mutators keep, so
  /// reading it is O(1).
  [[nodiscard]] std::size_t memory_bytes() const noexcept { return bytes_; }

 private:
  using DeltaMap = std::unordered_map<VertexId, std::vector<VertexId>>;

  [[nodiscard]] static std::span<const VertexId> delta_row(
      const DeltaMap& map, VertexId u) {
    const auto it = map.find(u);
    if (it == map.end()) return {};
    return it->second;
  }

  [[nodiscard]] static bool contains(const DeltaMap& map, VertexId u,
                                     VertexId v);

  /// Inserts v into map[u]'s sorted row.
  void sorted_insert(DeltaMap& map, VertexId u, VertexId v);
  /// Erases v from map[u]'s sorted row (which must contain it),
  /// dropping the bucket when the row empties.
  void sorted_erase(DeltaMap& map, VertexId u, VertexId v);

  void check_endpoints(VertexId u, VertexId v, const char* verb) const;

  /// Merge of (base \ skip) with extra, ascending; skip ⊆ base and
  /// extra ∩ base = ∅, all three sorted.
  template <typename Fn>
  static void merge_rows(std::span<const VertexId> base,
                         std::span<const VertexId> skip,
                         std::span<const VertexId> extra, Fn&& fn) {
    std::size_t s = 0;
    auto tombstoned = [&](VertexId id) {
      while (s < skip.size() && skip[s] < id) ++s;
      return s < skip.size() && skip[s] == id;
    };
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < base.size() && j < extra.size()) {
      if (base[i] < extra[j]) {
        if (!tombstoned(base[i])) fn(base[i]);
        ++i;
      } else {
        fn(extra[j++]);
      }
    }
    for (; i < base.size(); ++i) {
      if (!tombstoned(base[i])) fn(base[i]);
    }
    while (j < extra.size()) fn(extra[j++]);
  }

  std::shared_ptr<const CsrGraph> base_;
  DeltaMap out_delta_;
  DeltaMap in_delta_;
  DeltaMap out_tomb_;
  DeltaMap in_tomb_;
  std::size_t inserted_ = 0;
  std::size_t removed_ = 0;
  /// memory_bytes(): row capacities plus one bucket record per touched
  /// vertex (rough), over all four maps.
  std::size_t bytes_ = 0;
};

}  // namespace snaple
