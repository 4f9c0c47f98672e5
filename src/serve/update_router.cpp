#include "serve/update_router.hpp"

#include <string>

#include "serve/wire.hpp"

namespace snaple::serve {

using namespace wire;  // NOLINT — internal framing helpers

UpdateRouter::UpdateRouter(
    std::vector<std::unique_ptr<ByteChannel>> links)
    : links_(std::move(links)) {
  SNAPLE_CHECK_MSG(!links_.empty(),
                   "update router needs one link per shard");
  for (const auto& link : links_) {
    SNAPLE_CHECK_MSG(link != nullptr, "null update link");
  }
}

UpdateRouter::~UpdateRouter() { close(); }

void UpdateRouter::close() {
  for (auto& link : links_) link->close();
}

std::string UpdateRouter::exchange(const std::vector<std::uint8_t>& req,
                                   std::size_t per_link,
                                   std::vector<std::uint64_t>& payload) {
  if (dead_) {
    throw TransportError("update plane is down (a shard link failed)");
  }
  payload.assign(links_.size() * per_link, 0);
  try {
    // Fan out first, drain second: the shards work concurrently.
    for (auto& link : links_) link->send(req.data(), req.size());

    std::string error;
    std::size_t ok_count = 0;
    std::vector<std::uint8_t> frame;
    for (std::size_t s = 0; s < links_.size(); ++s) {
      ByteChannel& ch = *links_[s];
      const std::uint8_t status = read_op(ch);
      Reader in(read_payload(ch, frame));
      try {
        throw_if_error(status, in);
        for (std::size_t i = 0; i < per_link; ++i) {
          payload[s * per_link + i] = in.get<std::uint64_t>();
        }
        in.expect_end();
        ++ok_count;
      } catch (const CheckError& e) {
        // The frame was read whole: this link stays in sync either way.
        if (error.empty()) error = e.what();
      }
    }
    // Deterministic validation against identical union graphs: all
    // shards accept or all reject. Disagreement means the planes'
    // graphs diverged — fail loudly, this is not servable state.
    SNAPLE_CHECK_MSG(ok_count == 0 || ok_count == links_.size(),
                     "shards disagree on an update batch (" +
                         std::to_string(ok_count) + "/" +
                         std::to_string(links_.size()) +
                         " accepted) — the update plane is inconsistent");
    return error;
  } catch (const TransportError&) {
    // A torn fan-out (some shards saw the batch, a link then died) is
    // not recoverable from here: fail-stop.
    dead_ = true;
    for (auto& link : links_) link->close();
    throw;
  }
}

UpdateRouter::ApplyResult UpdateRouter::exchange_edges(
    std::uint8_t op, std::span<const Edge> batch) {
  std::vector<std::uint8_t> req;
  req.reserve(kHeaderBytes + sizeof(std::uint32_t) + batch.size_bytes());
  begin_frame(req, op);
  put<std::uint32_t>(req, static_cast<std::uint32_t>(batch.size()));
  put_span(req, batch);  // Edge is {u32 src, u32 dst}: the wire layout
  seal_frame(req);

  std::vector<std::uint64_t> payload;
  const std::string error = exchange(req, /*per_link=*/4, payload);
  if (!error.empty()) throw CheckError(error);

  ApplyResult out;
  out.version = payload[0];
  for (std::size_t s = 0; s < links_.size(); ++s) {
    SNAPLE_CHECK_MSG(payload[s * 4] == out.version,
                     "shard " + std::to_string(s) + " is at version " +
                         std::to_string(payload[s * 4]) + ", shard 0 at " +
                         std::to_string(out.version) +
                         " — the update plane is inconsistent");
    out.gamma_rows += payload[s * 4 + 1];
    out.sims_rows += payload[s * 4 + 2];
    out.hop2_rows += payload[s * 4 + 3];
  }

  gamma_rows_ += out.gamma_rows;
  sims_rows_ += out.sims_rows;
  hop2_rows_ += out.hop2_rows;
  version_ = out.version;
  return out;
}

UpdateRouter::ApplyResult UpdateRouter::apply(
    std::span<const Edge> batch) {
  std::lock_guard<std::mutex> lock(mu_);
  ApplyResult out = exchange_edges(kOpUpdate, batch);
  ++batches_;
  edges_ += batch.size();
  return out;
}

UpdateRouter::ApplyResult UpdateRouter::remove(
    std::span<const Edge> batch) {
  std::lock_guard<std::mutex> lock(mu_);
  ApplyResult out = exchange_edges(kOpRemove, batch);
  ++remove_batches_;
  removals_ += batch.size();
  return out;
}

std::uint64_t UpdateRouter::barrier() {
  std::lock_guard<std::mutex> lock(mu_);

  std::vector<std::uint8_t> req;
  begin_frame(req, kOpBarrier);
  seal_frame(req);

  std::vector<std::uint64_t> payload;
  const std::string error = exchange(req, /*per_link=*/1, payload);
  if (!error.empty()) throw CheckError(error);

  for (std::size_t s = 0; s < links_.size(); ++s) {
    SNAPLE_CHECK_MSG(payload[s] == payload[0],
                     "barrier found shard " + std::to_string(s) +
                         " at version " + std::to_string(payload[s]) +
                         ", shard 0 at " + std::to_string(payload[0]) +
                         " — the update plane is inconsistent");
  }
  version_ = payload[0];
  return payload[0];
}

UpdateStats UpdateRouter::stats() const {
  UpdateStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.batches = batches_;
    s.edges = edges_;
    s.remove_batches = remove_batches_;
    s.removals = removals_;
    s.gamma_rows = gamma_rows_;
    s.sims_rows = sims_rows_;
    s.hop2_rows = hop2_rows_;
    s.version = version_;
  }
  for (const auto& link : links_) {
    s.bytes_sent += link->bytes_sent();
    s.bytes_received += link->bytes_received();
  }
  return s;
}

}  // namespace snaple::serve
