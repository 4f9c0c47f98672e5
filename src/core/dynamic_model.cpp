#include "core/dynamic_model.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/row_recompute.hpp"
#include "util/thread_pool.hpp"

namespace snaple {

namespace {

std::shared_ptr<const CsrGraph> require_graph(
    std::shared_ptr<const CsrGraph> graph) {
  SNAPLE_CHECK_MSG(graph != nullptr,
                   "DynamicModel needs the fit graph (a loaded model "
                   "carries none — refit, or keep the graph alongside "
                   "the model)");
  return graph;
}

std::shared_ptr<const PredictorModel> require_model(
    std::shared_ptr<const PredictorModel> model) {
  SNAPLE_CHECK_MSG(model != nullptr, "DynamicModel needs a base model");
  return model;
}

}  // namespace

/// Per-apply memo of on-the-fly recomputed NON-owned dependency rows
/// (map elements keep their address across rehashes, so spans into the
/// slabs stay valid for the whole apply).
struct DynamicModel::DependencyMemo {
  std::unordered_map<VertexId, std::unique_ptr<RowSlab>> gamma;
  std::unordered_map<VertexId, std::unique_ptr<RowSlab>> sims;
};

/// Current-row source for the hop2 recompute fold
/// (rows::fold_vertex_paths): the freshest view of any vertex — owned
/// table, per-apply memo, or base. hop2() is never read by the kHop2
/// fold (and must not be: a non-owned hop2 row is not recomputable
/// without the same fold this source is feeding).
struct DynamicModel::FoldSource {
  const DynamicModel* model;
  DependencyMemo* memo;

  [[nodiscard]] std::span<const VertexId> gamma_hat(VertexId u) const {
    return model->current_gamma(u, *memo);
  }
  [[nodiscard]] PredictorModel::SimsView sims(VertexId v) const {
    return model->current_sims(v, *memo);
  }
  [[nodiscard]] PredictorModel::Hop2View hop2(VertexId) const {
    SNAPLE_CHECK_MSG(false,
                     "the hop2 recompute fold never reads hop2 rows");
    return {};
  }
  [[nodiscard]] const SnapleConfig& config() const {
    return model->config();
  }
};

DynamicModel::DynamicModel(std::shared_ptr<const PredictorModel> base,
                           std::shared_ptr<const CsrGraph> graph,
                           ThreadPool* pool,
                           std::optional<gas::VertexRange> range)
    : base_(require_model(std::move(base))),
      overlay_(require_graph(std::move(graph))),
      range_(range.value_or(gas::VertexRange{0, base_->num_vertices()})) {
  SNAPLE_CHECK_MSG(overlay_.num_vertices() == base_->num_vertices(),
                   "graph and model disagree on the vertex count — this "
                   "is not the graph the model was fit on");
  SNAPLE_CHECK_MSG(range_.end <= base_->num_vertices() &&
                       range_.begin <= range_.end,
                   "owned range outside the model");
  SNAPLE_CHECK_MSG(
      !(base_->config().policy == SelectionPolicy::kRandom &&
        base_->config().k_hops == 3),
      "incremental updates do not support the Γrnd policy with K=3: its "
      "hop2 selection shuffles candidates in accumulator-iteration "
      "order, which no out-of-band recompute can reproduce bit-exactly");

  const VertexId n = base_->num_vertices();
  score_ = base_->config().resolve_score();
  hop2_skip_zero_ = rows::hop2_zero_skip(base_->config(), score_);
  gamma_rows_ = RowTable(range_.size());
  sims_rows_ = RowTable(range_.size());
  if (base_->config().k_hops == 3) hop2_rows_ = RowTable(range_.size());
  row_version_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  gamma_dirty_.assign(n, 0);
  sims_dirty_.assign(n, 0);

  // Verify every owned base tag against the insertion-stable placement
  // rule and every retained neighbor against the graph (instances whose
  // ranges partition the vertices verify the whole model between them).
  // Fits made with kHash/kGreedy on >1 machine fail here by design:
  // their tags key on CSR edge positions, which an insert would shift,
  // breaking the refit-equivalence contract. Single-machine fits always
  // pass.
  const std::uint32_t machines = base_->num_machines();
  const std::uint64_t seed = base_->config().seed;
  ThreadPool& tp = pool != nullptr ? *pool : default_pool();
  const CsrGraph& g = overlay_.base();
  tp.parallel_for(range_.begin, range_.end, [&](std::size_t i, std::size_t) {
    const auto u = static_cast<VertexId>(i);
    const auto su = base_->sims(u);
    for (std::size_t j = 0; j < su.ids.size(); ++j) {
      SNAPLE_CHECK_MSG(g.has_edge(u, su.ids[j]),
                       "retained neighbor " + std::to_string(su.ids[j]) +
                           " of vertex " + std::to_string(u) +
                           " is not an edge of the graph — this is not "
                           "the graph the model was fit on");
      SNAPLE_CHECK_MSG(
          su.machines[j] ==
              gas::edge_local_machine(u, su.ids[j], machines, seed),
          "machine tag of edge (" + std::to_string(u) + ", " +
              std::to_string(su.ids[j]) +
              ") does not follow the insertion-stable placement — fit "
              "with gas::PartitionStrategy::kEdgeLocal (seed " +
              std::to_string(seed) + ") to serve incremental updates");
    }
  });
}

void DynamicModel::not_owned(VertexId u) const {
  throw CheckError("rows of vertex " + std::to_string(u) +
                   " are not owned here (owned range [" +
                   std::to_string(range_.begin) + ", " +
                   std::to_string(range_.end) + "))");
}

// ---------------------------------------------------------------------
// Writer path.
// ---------------------------------------------------------------------

DynamicModel::UpdateStats DynamicModel::add_edge(VertexId u, VertexId v) {
  const Edge e{u, v};
  return add_edges({&e, 1});
}

DynamicModel::UpdateStats DynamicModel::add_edges(
    std::span<const Edge> batch) {
  // All-or-nothing: the whole batch is validated before the first
  // overlay mutation, so a throw leaves the model untouched.
  rows::validate_insert_batch(overlay_, batch);
  for (const Edge& e : batch) overlay_.insert(e.src, e.dst);
  return refresh_stale(batch);
}

DynamicModel::UpdateStats DynamicModel::remove_edge(VertexId u,
                                                    VertexId v) {
  const Edge e{u, v};
  return remove_edges({&e, 1});
}

DynamicModel::UpdateStats DynamicModel::remove_edges(
    std::span<const Edge> batch) {
  rows::validate_remove_batch(overlay_, batch);
  for (const Edge& e : batch) overlay_.remove(e.src, e.dst);
  return refresh_stale(batch);
}

std::span<const VertexId> DynamicModel::current_gamma(
    VertexId v, DependencyMemo& memo) const {
  const RowSlab* s = nullptr;
  if (owns(v)) {
    s = gamma_rows_[v - range_.begin].load(std::memory_order_relaxed);
  } else if (gamma_dirty_[v]) {
    std::unique_ptr<RowSlab>& slot = memo.gamma[v];
    if (slot == nullptr) {
      slot = std::make_unique<RowSlab>();
      slot->ids = rows::recompute_gamma_row(config(), overlay_, v);
    }
    s = slot.get();
  }
  if (s == nullptr) return base_->gamma_hat(v);
  return s->ids;
}

PredictorModel::SimsView DynamicModel::current_sims(
    VertexId v, DependencyMemo& memo) const {
  const RowSlab* s = nullptr;
  if (owns(v)) {
    s = sims_rows_[v - range_.begin].load(std::memory_order_relaxed);
  } else if (sims_dirty_[v]) {
    std::unique_ptr<RowSlab>& slot = memo.sims[v];
    if (slot == nullptr) {
      slot = rows::recompute_sims_row(
          config(), score_, overlay_, num_machines(), v,
          [&](VertexId w) { return current_gamma(w, memo); });
    }
    s = slot.get();
  }
  if (s == nullptr) return base_->sims(v);
  return {s->ids, s->scores, s->machines};
}

DynamicModel::UpdateStats DynamicModel::refresh_stale(
    std::span<const Edge> batch) {
  UpdateStats out;
  if (batch.empty()) {
    out.version = version_.load(std::memory_order_relaxed);
    return out;
  }
  // Stale-row sets against the post-batch live graph (row_recompute.hpp
  // derives them, and proves the same sets cover removals): Γ̂ stales
  // only at the sources; sims at the sources and their
  // in-neighborhoods; hop2 one in-hop further.
  const rows::StaleSets stale =
      rows::compute_stale_sets(overlay_, batch, !hop2_rows_.empty());

  // Dirty flags first: the recomputes below must see every non-owned
  // dependency of THIS batch as stale (cumulative across applies — a
  // non-owned row is never republished here, so once stale it is
  // recomputed on the fly forever after).
  for (const VertexId u : stale.gamma) gamma_dirty_[u] = 1;
  for (const VertexId x : stale.sims) sims_dirty_[x] = 1;

  // Refresh the OWNED stale rows in dependency order — each phase reads
  // rows the previous phase already published (same thread, plain
  // program order; readers see each row flip atomically).
  out.edges = batch.size();
  DependencyMemo memo;
  const auto gamma_of = [&](VertexId w) { return current_gamma(w, memo); };
  for (const VertexId u : stale.gamma) {
    if (!owns(u)) continue;
    auto slab = std::make_unique<RowSlab>();
    slab->ids = rows::recompute_gamma_row(config(), overlay_, u);
    publish(gamma_rows_, u, std::move(slab), gamma_hat(u), {}, {});
    ++out.gamma_rows;
  }

  // A stale sims row x that is not a source itself lost no out-edge and
  // kept Γ̂(x): only sim(x, u) for the sources u ∈ Γ(x) moved. Pair each
  // owned x with those sources, sorted like stale.sims (which holds
  // every such x), so the row can re-score just them
  // (rows::rescore_sims_row; null = full recompute).
  std::vector<Edge> moved;  // {x, source u}: (x, u) is a live edge
  for (const VertexId u : stale.gamma) {
    overlay_.for_each_in_neighbor(u, [&](VertexId x) {
      if (owns(x)) moved.push_back({x, u});
    });
  }
  std::sort(moved.begin(), moved.end());
  std::vector<VertexId> changed;
  std::size_t at = 0;
  for (const VertexId x : stale.sims) {
    if (!owns(x)) continue;
    changed.clear();
    for (; at < moved.size() && moved[at].src == x; ++at) {
      changed.push_back(moved[at].dst);
    }
    const auto current = sims(x);
    std::unique_ptr<RowSlab> slab;
    if (!std::binary_search(stale.gamma.begin(), stale.gamma.end(), x)) {
      slab = rows::rescore_sims_row(config(), score_, overlay_,
                                    num_machines(), x, current, changed,
                                    gamma_of);
    }
    if (slab != nullptr) {
      ++out.sims_rescored;
    } else {
      slab = rows::recompute_sims_row(config(), score_, overlay_,
                                      num_machines(), x, gamma_of);
    }
    publish(sims_rows_, x, std::move(slab), current.ids, current.scores,
            current.machines);
    ++out.sims_rows;
  }
  if (!hop2_rows_.empty()) {
    const FoldSource source{this, &memo};
    rows::PathFoldScratch& fold = rows::thread_scratch();
    for (const VertexId x : stale.hop2) {
      if (!owns(x)) continue;
      const auto current = hop2(x);
      publish(hop2_rows_, x,
              rows::recompute_hop2_row(source, score_, hop2_skip_zero_, x,
                                       fold),
              current.ids, current.scores, {});
      ++out.hop2_rows;
    }
  }

  // Version bumps AFTER the publishes (release ordering: a reader that
  // observes a bumped version also observes the republished rows — the
  // invariant a versioned fetch's retry loop and the cache keys rest
  // on). Bumps cover every stale vertex, owned or not, so all instances
  // agree on every version.
  for (const auto* set : {&stale.gamma, &stale.sims, &stale.hop2}) {
    for (const VertexId v : *set) {
      row_version_[v].fetch_add(1, std::memory_order_release);
    }
  }
  out.version = version_.fetch_add(batch.size(),
                                   std::memory_order_release) +
                batch.size();
  held_bytes_.store(overlay_.memory_bytes() + slab_bytes_,
                    std::memory_order_relaxed);
  return out;
}

void DynamicModel::publish(RowTable& table, VertexId u,
                           std::unique_ptr<RowSlab> slab,
                           std::span<const VertexId> ids,
                           std::span<const float> scores,
                           std::span<const gas::MachineId> machines) {
  if (slab->same_bytes(ids, scores, machines)) return;  // keep the live row
  const RowSlab* p = slab.get();
  const std::size_t capacity = slabs_.capacity();
  slabs_.push_back(std::move(slab));  // retired slabs stay owned forever
  slab_bytes_ += p->memory_bytes() + (slabs_.capacity() - capacity) *
                                         sizeof(std::unique_ptr<const RowSlab>);
  table[u - range_.begin].store(p, std::memory_order_release);
}

// ---------------------------------------------------------------------
// Snapshot.
// ---------------------------------------------------------------------

PredictorModel DynamicModel::freeze() const {
  const VertexId n = num_vertices();
  SNAPLE_CHECK_MSG(range_.size() == n,
                   "freeze() needs every row — this model owns only a "
                   "range of them");
  const bool three_hop = base_->config().k_hops == 3;
  PredictorModel m;
  m.config_ = base_->config();
  m.num_machines_ = base_->num_machines();
  m.num_vertices_ = n;

  m.gamma_offsets_.reserve(static_cast<std::size_t>(n) + 1);
  m.sims_offsets_.reserve(static_cast<std::size_t>(n) + 1);
  if (three_hop) m.hop2_offsets_.reserve(static_cast<std::size_t>(n) + 1);
  for (VertexId u = 0; u < n; ++u) {
    m.gamma_offsets_.push_back(m.gamma_ids_.size());
    const auto g = gamma_hat(u);
    m.gamma_ids_.insert(m.gamma_ids_.end(), g.begin(), g.end());

    m.sims_offsets_.push_back(m.sims_ids_.size());
    const auto s = sims(u);
    m.sims_ids_.insert(m.sims_ids_.end(), s.ids.begin(), s.ids.end());
    m.sims_scores_.insert(m.sims_scores_.end(), s.scores.begin(),
                          s.scores.end());
    m.sims_machines_.insert(m.sims_machines_.end(), s.machines.begin(),
                            s.machines.end());
    if (three_hop) {
      m.hop2_offsets_.push_back(m.hop2_ids_.size());
      const auto h = hop2(u);
      m.hop2_ids_.insert(m.hop2_ids_.end(), h.ids.begin(), h.ids.end());
      m.hop2_scores_.insert(m.hop2_scores_.end(), h.scores.begin(),
                            h.scores.end());
    }
  }
  m.gamma_offsets_.push_back(m.gamma_ids_.size());
  m.sims_offsets_.push_back(m.sims_ids_.size());
  if (three_hop) m.hop2_offsets_.push_back(m.hop2_ids_.size());
  return m;
}

}  // namespace snaple
