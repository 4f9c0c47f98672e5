// Update routing over shard servers — the serving tier's write plane.
//
// Where QueryRouter fans queries out to the owning shard, UpdateRouter
// fans every edge insert or remove batch out to EVERY shard: each
// ShardServer in live mode holds its own live-graph overlay
// (serve/live_shard.hpp) and must observe every operation to keep its
// copy — and its share of the recompute work — current. One dedicated
// link per shard, all requests written before any response is read, so
// the S shards validate, mutate and recompute their stale owned rows
// concurrently; the slowest shard bounds the batch latency, not the
// sum.
//
// Wire ops (serve/wire.hpp; framing as in router.hpp):
//
//   op 4 (update):  u32 count | count × (u32 src | u32 dst)
//     ok payload:   u64 version | u64 gamma_rows | u64 sims_rows
//                 | u64 hop2_rows   (the shard's OWNED refresh counts)
//   op 6 (remove):  identical payload and reply — the batch is
//                   tombstoned instead of inserted
//   op 5 (barrier): no payload
//     ok payload:   u64 version
//
// Consistency: validation and stale-set derivation are deterministic
// functions of (batch, live graph), and every shard holds the same
// live graph — so a batch is accepted by all shards or rejected by all
// (the router CHECKs this cross-shard agreement, and that every shard
// reports the same version: a divergence is a bug, not a runtime
// condition). A rejected batch surfaces as CheckError with the shard's
// validation message and changes nothing anywhere.
//
// apply() returning means every shard finished its recompute — it IS a
// per-batch barrier; barrier() exists to re-assert agreement without
// writing (and for callers that pipeline apply with queries and want an
// explicit quiescence point). Queries keep flowing while a batch is in
// flight: shards publish row-by-row (RCU), so readers never block.
//
// Failure: any transport error on any link marks the whole router dead
// (TransportError on this and every later call) — a half-applied fan-
// out is not a state this plane can serve from, so fail-stop is the
// contract, mirroring QueryRouter's dead connections.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "serve/transport.hpp"

namespace snaple::serve {

/// Write-plane counters (cumulative; row counts are summed over the
/// shards' owned stale-row refreshes, i.e. GLOBAL stale-row counts, since shard
/// ranges partition the vertex space).
struct UpdateStats {
  std::uint64_t batches = 0;  // insert batches
  std::uint64_t edges = 0;    // inserts applied
  std::uint64_t remove_batches = 0;
  std::uint64_t removals = 0;
  std::uint64_t gamma_rows = 0;
  std::uint64_t sims_rows = 0;
  std::uint64_t hop2_rows = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t version = 0;  // cluster version after the last call
};

class UpdateRouter {
 public:
  /// What one apply()/remove() staled/advanced, cluster-wide.
  struct ApplyResult {
    std::uint64_t version = 0;  // total applied operations, every shard
    std::uint64_t gamma_rows = 0;
    std::uint64_t sims_rows = 0;
    std::uint64_t hop2_rows = 0;
  };

  /// One dedicated update link per shard, index-aligned with the
  /// cluster's ranges.
  explicit UpdateRouter(std::vector<std::unique_ptr<ByteChannel>> links);
  ~UpdateRouter();

  UpdateRouter(const UpdateRouter&) = delete;
  UpdateRouter& operator=(const UpdateRouter&) = delete;

  /// Applies one insert batch on every shard (all-or-nothing, see the
  /// header comment). Validation failures throw CheckError and change
  /// nothing; link failures throw TransportError and kill the router.
  /// Callers may submit from multiple threads; batches serialize here
  /// (the shards' overlays need one writer and ONE cross-shard order).
  ApplyResult apply(std::span<const Edge> batch);

  /// Removes one batch on every shard — same all-or-nothing contract,
  /// same fail-stop on link failure (wire op 6).
  ApplyResult remove(std::span<const Edge> batch);

  /// Confirms every shard reached the same version and returns it.
  [[nodiscard]] std::uint64_t barrier();

  /// Closes every update link (the shards' update serving threads see
  /// EOF and exit). Idempotent; the destructor calls it.
  void close();

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return links_.size();
  }
  [[nodiscard]] UpdateStats stats() const;

 private:
  /// Sends `req` on every link, then reads one response per link into
  /// `payload` u64s (`per_link` of them each). Returns the first error
  /// message, empty if all ok — after draining EVERY link, so the
  /// streams stay in sync whatever the outcome.
  [[nodiscard]] std::string exchange(const std::vector<std::uint8_t>& req,
                                     std::size_t per_link,
                                     std::vector<std::uint64_t>& payload);

  std::vector<std::unique_ptr<ByteChannel>> links_;
  mutable std::mutex mu_;  // serializes apply/barrier — one batch in flight
  bool dead_ = false;      // a link failed; the plane is down (under mu_)
  /// Shared tail of apply()/remove(): build the op + edge-list request,
  /// exchange, check cross-shard agreement, sum the row counts. Caller
  /// holds mu_.
  ApplyResult exchange_edges(std::uint8_t op, std::span<const Edge> batch);

  std::uint64_t batches_ = 0;  // remaining counters also under mu_
  std::uint64_t edges_ = 0;
  std::uint64_t remove_batches_ = 0;
  std::uint64_t removals_ = 0;
  std::uint64_t gamma_rows_ = 0;
  std::uint64_t sims_rows_ = 0;
  std::uint64_t hop2_rows_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace snaple::serve
