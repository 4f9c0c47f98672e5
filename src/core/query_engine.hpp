// QueryEngine — on-demand single-vertex prediction over a PredictorModel.
//
// Serving counterpart of the batch pipeline: where `run_snaple` executes
// step 3 for every vertex in one GAS pass, a QueryEngine executes it for
// just the queried vertex, reading only u's retained paths from the
// model. One query costs O(Σ_{v ∈ Γmax(u)} (|sims(v)| + |hop2(v)|)) —
// roughly klocal² score folds — instead of a whole-graph pass, which is
// what makes million-user request traffic servable (bench_query measures
// the gap; the acceptance bar is ≥100× on the ~1M-edge bench graph).
//
// Results are bit-identical to the batch path: the fold replays the
// engine's canonical machine-grouped order using the model's fit-time
// edge tags (model.hpp explains why), and a property test pins every
// vertex's predictions AND scores against `run_snaple`.
//
// Thread safety: topk() is safe for concurrent callers — scratch state
// (the reused ScoreMaps) is per-thread, the model is immutable. Over a
// DynamicModel the engine reads the versioned rows (lock-free acquire
// loads), so queries keep serving, untorn, while a writer applies
// incremental updates — each query sees every row either pre- or
// post-publish. topk_batch() additionally spreads the queries over a
// ThreadPool.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "core/scoring.hpp"

namespace snaple {

class DynamicModel;
class ScoreMap;
class ThreadPool;

/// Ranks a folded candidate ScoreMap into the best-first top-k
/// (id, ⊕post score) list — the final stage of every serving topk.
/// Shared by QueryEngine and the sharded serving tier
/// (serve/model_shard.hpp), so both rank with the identical float path.
/// k is clamped to the candidate count; pass the model's configured k
/// for the default serving answer.
[[nodiscard]] std::vector<std::pair<VertexId, float>> rank_candidates(
    const ScoreMap& candidates, const Aggregator& agg, std::size_t k);

class QueryEngine {
 public:
  /// The engine shares ownership of the model: serve threads stay valid
  /// for the engine's lifetime regardless of who built or loaded it.
  explicit QueryEngine(std::shared_ptr<const PredictorModel> model);

  /// Serves over a live DynamicModel instead: reads go through the
  /// model's versioned row pointers, so concurrent add_edge(s) calls on
  /// it are safe and become visible to subsequent queries. The model
  /// must own every vertex (throws CheckError on a ranged one).
  explicit QueryEngine(std::shared_ptr<const DynamicModel> model);

  /// The static model backing this engine. Valid only for engines built
  /// from a PredictorModel (throws CheckError on a dynamic engine —
  /// there is no frozen artifact to hand out; see dynamic_model()).
  [[nodiscard]] const PredictorModel& model() const;

  /// The live model backing this engine, or null for a static engine.
  [[nodiscard]] const std::shared_ptr<const DynamicModel>& dynamic_model()
      const noexcept {
    return dynamic_;
  }

  /// Vertex count / configuration of whichever model backs the engine.
  [[nodiscard]] VertexId num_vertices() const noexcept;
  [[nodiscard]] const SnapleConfig& config() const noexcept;

  /// Top-k predictions for u with their final ⊕post scores, best first.
  /// k = 0 means the model's configured k. Any k is valid — the candidate
  /// scores are complete before ranking, so k beyond the configured value
  /// simply returns more of the tail. Throws CheckError on u out of
  /// range.
  [[nodiscard]] std::vector<std::pair<VertexId, float>> topk(
      VertexId u, std::size_t k = 0) const;

  /// topk() for a batch of users, spread over `pool` (the default pool
  /// when null). out[i] corresponds to users[i]; duplicate ids are fine.
  [[nodiscard]] std::vector<std::vector<std::pair<VertexId, float>>>
  topk_batch(std::span<const VertexId> users, std::size_t k = 0,
             ThreadPool* pool = nullptr) const;

  /// topk() for every vertex of the model — the batch-predict sugar
  /// (LinkPredictor::predict) and the equivalence property test.
  [[nodiscard]] std::vector<std::vector<std::pair<VertexId, float>>>
  topk_all(std::size_t k = 0, ThreadPool* pool = nullptr) const;

 private:
  // Exactly one of the two is set.
  std::shared_ptr<const PredictorModel> model_;
  std::shared_ptr<const DynamicModel> dynamic_;
  ScoreConfig score_;  // resolved once from the model's config
};

/// Strips the scores off topk_all()/topk_batch() output, yielding the
/// id-only prediction lists the eval metrics and PredictionRun consume.
[[nodiscard]] std::vector<std::vector<VertexId>> prediction_lists(
    const std::vector<std::vector<std::pair<VertexId, float>>>& scored);

}  // namespace snaple
