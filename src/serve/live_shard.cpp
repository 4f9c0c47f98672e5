#include "serve/live_shard.hpp"

#include <string>

namespace snaple::serve {

LiveShard::VersionedRow LiveShard::snapshot_row(VertexId v) const {
  SNAPLE_CHECK_MSG(owns(v), "fetch for vertex " + std::to_string(v) +
                                " sent to a non-owning shard");
  // Version-validated read: re-read the version after copying the row
  // content. An unchanged version proves the content is not OLDER than
  // the version (publishes precede bumps), so a cached copy under this
  // key can never serve stale bytes. The benign race — fresh content
  // under a not-yet-bumped version — self-heals on the next lookup
  // (version mismatch = miss and drop).
  for (;;) {
    const std::uint64_t before = row_version(v);
    auto row = std::make_shared<HotRow>();
    const auto sv = model_.sims(v);
    row->sims_ids.assign(sv.ids.begin(), sv.ids.end());
    row->sims_scores.assign(sv.scores.begin(), sv.scores.end());
    const auto hv = model_.hop2(v);
    row->hop2_ids.assign(hv.ids.begin(), hv.ids.end());
    row->hop2_scores.assign(hv.scores.begin(), hv.scores.end());
    if (row_version(v) == before) {
      return {before, std::move(row)};
    }
  }
}

}  // namespace snaple::serve
