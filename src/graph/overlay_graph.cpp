#include "graph/overlay_graph.hpp"

#include <algorithm>
#include <string>

namespace snaple {

bool OverlayGraph::contains(const DeltaMap& map, VertexId u, VertexId v) {
  const auto it = map.find(u);
  if (it == map.end()) return false;
  return std::binary_search(it->second.begin(), it->second.end(), v);
}

namespace {

/// memory_bytes()'s per-bucket charge: the key plus the map node's link
/// and row header.
constexpr std::size_t kBucketBytes =
    sizeof(VertexId) + sizeof(void*) + sizeof(std::vector<VertexId>);

}  // namespace

void OverlayGraph::sorted_insert(DeltaMap& map, VertexId u, VertexId v) {
  const auto [it, fresh] = map.try_emplace(u);
  auto& row = it->second;
  const std::size_t capacity = row.capacity();
  row.insert(std::upper_bound(row.begin(), row.end(), v), v);
  bytes_ += (fresh ? kBucketBytes : 0) +
            (row.capacity() - capacity) * sizeof(VertexId);
}

void OverlayGraph::sorted_erase(DeltaMap& map, VertexId u, VertexId v) {
  const auto it = map.find(u);
  SNAPLE_CHECK(it != map.end());
  auto& row = it->second;
  const auto pos = std::lower_bound(row.begin(), row.end(), v);
  SNAPLE_CHECK(pos != row.end() && *pos == v);
  row.erase(pos);  // keeps the capacity
  if (row.empty()) {
    bytes_ -= kBucketBytes + row.capacity() * sizeof(VertexId);
    map.erase(it);
  }
}

void OverlayGraph::check_endpoints(VertexId u, VertexId v,
                                   const char* verb) const {
  const VertexId n = base_->num_vertices();
  SNAPLE_CHECK_MSG(u < n && v < n,
                   std::string(verb) + " edge (" + std::to_string(u) + ", " +
                       std::to_string(v) +
                       ") is out of range: the graph has " +
                       std::to_string(n) +
                       " vertices and the overlay cannot grow the "
                       "vertex set");
  SNAPLE_CHECK_MSG(u != v, "self-loop (" + std::to_string(u) + ", " +
                               std::to_string(u) +
                               ") rejected: a vertex is never its own "
                               "link-prediction candidate");
}

bool OverlayGraph::insert(VertexId u, VertexId v) {
  check_endpoints(u, v, "inserted");
  if (has_edge(u, v)) return false;

  if (contains(out_tomb_, u, v)) {
    // Re-adding a tombstoned base edge: clear the tombstone so the
    // base row shows through again (keeps delta ∩ base = ∅).
    sorted_erase(out_tomb_, u, v);
    sorted_erase(in_tomb_, v, u);
    --removed_;
    return true;
  }
  sorted_insert(out_delta_, u, v);
  sorted_insert(in_delta_, v, u);
  ++inserted_;
  return true;
}

bool OverlayGraph::remove(VertexId u, VertexId v) {
  check_endpoints(u, v, "removed");
  if (!has_edge(u, v)) return false;

  if (contains(out_delta_, u, v)) {
    // A live-inserted edge just disappears from the delta.
    sorted_erase(out_delta_, u, v);
    sorted_erase(in_delta_, v, u);
    --inserted_;
    return true;
  }
  // A base edge is masked by a tombstone (tombstones ⊆ base).
  sorted_insert(out_tomb_, u, v);
  sorted_insert(in_tomb_, v, u);
  ++removed_;
  return true;
}

}  // namespace snaple
