// Workloads, inputs and the phases both run modes share, plus the
// untraced run that produces the end-to-end metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <span>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/predictor.hpp"
#include "core/query_engine.hpp"
#include "graph/builder.hpp"
#include "graph/gen/datasets.hpp"
#include "graph/io.hpp"
#include "tracing_channel.hpp"
#include "util/stats.hpp"

namespace e2e {

using snaple::serve::QueryRouter;
using snaple::serve::ServingCluster;
using snaple::serve::UpdateRouter;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"zipf", "livejournal", 2.0, true, 64ull << 20},
      {"uniform", "livejournal", 2.0, false, 2ull << 20},
      {"twitter", "twitter", 0.3, true, 64ull << 20},
  };
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& spec : workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

PhaseBudget phase_budget(double seconds) {
  return {std::max(1.0, 0.1 * seconds), 0.4 * seconds, 0.6 * seconds};
}

const std::vector<MetricDef>& metric_defs() {
  static const std::vector<MetricDef> defs = {
      // End to end (untraced runs).
      {"setup_s", "s", true},
      {"fit_s", "s", true},
      {"fit_cpu_s", "s", true},
      {"peak_rss_mb", "MB", true},
      {"query_cpu_us", "us", true},
      {"write_cpu_us", "us", true},
      {"rss_growth_mb_per_kop", "MB/kop", true},
      // Per layer (traced runs).
      {"graph.load_s", "s", false},
      {"graph.load_medges_per_s", "Medge/s", false},
      {"gas.partition_s", "s", false},
      {"gas.topology_s", "s", false},
      {"gas.step1_s", "s", false},
      {"gas.step2_s", "s", false},
      {"gas.engine_other_s", "s", false},
      {"gas.gather_build_s", "s", false},
      {"gas.merge_apply_s", "s", false},
      {"gas.sync_drain_s", "s", false},
      {"gas.net_mb", "MB", false},
      {"gas.messages", "count", false},
      {"gas.gather_calls", "count", false},
      {"gas.useful_gather_ratio", "ratio", false},
      {"core.model_build_s", "s", false},
      {"core.model_save_s", "s", false},
      {"core.model_load_s", "s", false},
      {"core.fold_us_p50", "us", false},
      {"core.fold_us_p99", "us", false},
      {"core.dynamic_op_us_p50", "us", false},
      {"core.dynamic_op_us_p99", "us", false},
      {"serve.shard.build_s", "s", false},
      {"serve.shard.fold_us_p50", "us", false},
      {"serve.shard.missing_rows_per_query", "count", false},
      {"serve.shard.handle_us_p50", "us", false},
      {"serve.shard.handle_us_p99", "us", false},
      {"serve.shard.queue_us_p50", "us", false},
      {"serve.shard.queue_us_p99", "us", false},
      {"serve.cache.hit_ratio", "ratio", false},
      {"serve.cache.lookups", "count", false},
      {"serve.cache.evictions_per_query", "count", false},
      {"serve.cache.stale_drops_per_kop", "count", false},
      {"serve.cache.mb_used", "MB", false},
      {"serve.fetch.requests_per_query", "count", false},
      {"serve.fetch.rows_per_query", "count", false},
      {"serve.fetch.rtt_us_p50", "us", false},
      {"serve.fetch.rtt_us_p99", "us", false},
      {"serve.transport.bytes_per_query", "B", false},
      {"serve.transport.recv_calls_per_query", "count", false},
      {"serve.transport.send_calls_per_query", "count", false},
      {"serve.transport.rtt_floor_us", "us", false},
      {"serve.router.self_us_p50", "us", false},
      {"serve.router.self_us_p99", "us", false},
      {"serve.router.max_inflight", "count", false},
      {"serve.plane.apply_us_p50", "us", false},
      {"serve.plane.apply_us_p99", "us", false},
      {"serve.plane.wait_us_p99", "us", false},
      {"serve.plane.shard_apply_us_p50", "us", false},
      {"serve.plane.shard_skew", "ratio", false},
      {"serve.plane.validate_us", "us", false},
      {"serve.plane.overlay_us", "us", false},
      {"serve.plane.stale_sets_us", "us", false},
      {"serve.plane.recompute_publish_us", "us", false},
      {"serve.plane.rows_per_op", "count", false},
      {"serve.plane.bytes_per_op", "B", false},
      {"serve.plane.overlay_mb_per_kop", "MB/kop", false},
      {"harness.gen_lateness_p99_us", "us", false},
      {"harness.samples", "count", false},
      {"harness.traced_query_p50_us", "us", false},
      {"harness.trace_overhead_pct", "%", false},
      {"harness.unattributed_pct", "%", false},
      {"harness.unattributed_fit_pct", "%", false},
      {"harness.unattributed_staleness_pct", "%", false},
  };
  return defs;
}

// ---- inputs --------------------------------------------------------------

UserSampler::UserSampler(VertexId n, bool zipf, std::uint64_t seed)
    : n_(n) {
  if (!zipf) return;
  cdf_.reserve(n);
  double total = 0.0;
  for (VertexId r = 0; r < n; ++r) {
    total += std::pow(static_cast<double>(r) + 1.0, -0.99);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  perm_.resize(n);
  for (VertexId u = 0; u < n; ++u) perm_[u] = u;
  std::uint64_t state = seed ^ 0x7a1f5eedULL;
  for (VertexId i = n; i > 1; --i) {
    std::swap(perm_[i - 1], perm_[next_random(state) % i]);
  }
}

VertexId UserSampler::draw(std::uint64_t& state) const {
  const double x = next_unit(state);
  if (cdf_.empty()) {
    return std::min<VertexId>(n_ - 1, static_cast<VertexId>(x * n_));
  }
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), x);
  const auto rank = static_cast<std::size_t>(it - cdf_.begin());
  return perm_[std::min(rank, cdf_.size() - 1)];
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   const std::string& workdir) {
  Inputs in;
  const CsrGraph full =
      snaple::gen::make_dataset(spec.dataset, spec.scale, kDatasetSeed);
  std::vector<Edge> edges = full.edges();
  // Hold back a random subset as the churn stream (its order is the stream
  // order); the rest is the graph the model is fit on.
  std::uint64_t state = kDatasetSeed ^ 0x51ce5eedULL;
  const std::size_t held = std::min(kHeldBackEdges, edges.size() / 8);
  for (std::size_t i = 0; i < held; ++i) {
    const std::size_t j = i + next_random(state) % (edges.size() - i);
    std::swap(edges[i], edges[j]);
  }
  in.stream.assign(edges.begin(), edges.begin() + static_cast<long>(held));
  snaple::GraphBuilder builder(full.num_vertices());
  for (std::size_t i = held; i < edges.size(); ++i) {
    builder.add_edge(edges[i].src, edges[i].dst);
  }
  in.base = std::make_shared<const CsrGraph>(builder.build());
  in.edge_file = workdir + "/base.txt";
  in.model_file = workdir + "/model.bin";
  snaple::save_edge_list_text_file(*in.base, in.edge_file);

  in.users = std::make_unique<UserSampler>(in.base->num_vertices(),
                                           spec.zipf_users, kDatasetSeed);
  std::uint64_t sample_state = seed ^ 0xc0ffeeULL;
  in.sample.reserve(kSampleUsers);
  for (std::size_t i = 0; i < kSampleUsers; ++i) {
    in.sample.push_back(in.users->draw(sample_state));
  }
  return in;
}

snaple::serve::ServeOptions serve_options(const WorkloadSpec& spec) {
  snaple::serve::ServeOptions so;
  so.num_shards = kShards;
  so.transport = snaple::serve::TransportKind::kTcp;
  so.colocate = false;
  so.connections_per_shard = 1;
  so.cache_bytes = spec.cache_bytes;
  so.recv_timeout_ms = kRecvTimeoutMs;
  return so;
}

snaple::SnapleConfig fit_config() {
  snaple::SnapleConfig cfg;
  cfg.seed = kDatasetSeed;
  return cfg;
}

snaple::LinkPredictor make_predictor() {
  return snaple::LinkPredictor(fit_config(),
                               snaple::gas::ClusterConfig::type_i(kMachines),
                               snaple::gas::PartitionStrategy::kEdgeLocal,
                               snaple::gas::ExecutionMode::kSharded);
}

PredictorModel refit(const CsrGraph& graph) {
  return make_predictor().fit(graph);
}

// ---- phases --------------------------------------------------------------

Answers engine_answers(const PredictorModel& model,
                       const std::vector<VertexId>& users) {
  // QueryEngine shares ownership; alias the caller's model without a copy.
  const std::shared_ptr<const PredictorModel> alias(
      std::shared_ptr<const PredictorModel>{}, &model);
  const snaple::QueryEngine engine(alias);
  Answers out;
  out.reserve(users.size());
  for (const VertexId u : users) out.push_back(engine.topk(u));
  return out;
}

Answers router_answers(QueryRouter& router, const std::vector<VertexId>& users) {
  Answers out;
  out.reserve(users.size());
  for (const VertexId u : users) out.push_back(router.topk(u));
  return out;
}

std::string answers_digest(const Answers& answers) {
  Fnv1a h;
  for (const auto& list : answers) {
    h.add_value(static_cast<std::uint64_t>(list.size()));
    for (const auto& [id, score] : list) {
      h.add_value(id);
      h.add_value(score);
    }
  }
  return h.hex();
}

void warm_up(QueryRouter& router, const UserSampler& users, double seconds,
             std::uint64_t seed) {
  // A cluster that fails here is broken: the first failure ends the run.
  std::vector<std::exception_ptr> errors(kClients);
  {
    std::vector<std::jthread> sweepers;
    for (std::size_t c = 0; c < kClients; ++c) {
      sweepers.emplace_back([&, c] {
        try {
          std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + c;
          std::vector<VertexId> chunk(kWarmChunk);
          for (std::size_t done = 0; done < kWarmUsers / kClients;
               done += kWarmChunk) {
            for (VertexId& u : chunk) u = users.draw(state);
            (void)router.topk_batch(chunk);
          }
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  (void)query_phase(router, users, seconds, seed ^ 0x3a3a3aULL, 0);
}

OpenLoopResult query_phase(QueryRouter& router, const UserSampler& users,
                           double seconds, std::uint64_t seed,
                           std::uint64_t first_id) {
  OpenLoopSpec spec;
  spec.rate_per_s = kNominalQps;
  spec.seconds = seconds;
  spec.clients = kClients;
  spec.seed = seed;
  spec.first_id = first_id;
  return run_open_loop(
      spec, [&](std::uint64_t& state) { return users.draw(state); },
      [&](std::size_t, std::uint32_t u) { (void)router.topk(u); });
}

std::vector<WriteOp> plan_churn(std::size_t stream_edges, double seconds) {
  std::vector<WriteOp> ops;
  if (stream_edges < kWindowEdges) return ops;
  ops.push_back({false, 0, kWindowEdges, -1.0});
  const double period = 1.0 / kInsertBatchesPerS;
  for (std::size_t j = 0;; ++j) {
    const double due = static_cast<double>(j) * period;
    const std::size_t next = kWindowEdges + j * kBatchEdges;
    if (due >= seconds || next + kBatchEdges > stream_edges) break;
    ops.push_back({false, next, kBatchEdges, due});
    if (due + period / 2 < seconds) {
      ops.push_back({true, j * kBatchEdges, kBatchEdges, due + period / 2});
    }
  }
  return ops;
}

std::vector<double> ChurnSegment::staleness_us() const {
  std::vector<double> out;
  for (const WriteRecord& w : writes) {
    if (w.ok) out.push_back(to_us(w.end - w.due));
  }
  return out;
}

ChurnStream::ChurnStream(UpdateRouter& plane, const std::vector<Edge>& stream,
                         std::vector<WriteOp> plan)
    : plane_(plane), stream_(stream), plan_(std::move(plan)) {}

void ChurnStream::apply(std::size_t i, WriteRecord& w) {
  const WriteOp& op = plan_[i];
  next_ = i + 1;
  if (failures_ != 0) {
    ++failures_;
    return;
  }
  w.start = now_ns();
  trace_context().request = w.id;
  try {
    const std::span<const Edge> batch(stream_.data() + op.begin, op.len);
    if (op.remove) {
      (void)plane_.remove(batch);
    } else {
      (void)plane_.apply(batch);
    }
    w.ok = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "write batch %zu failed: %s\n", i, e.what());
    ++failures_;
  }
  trace_context().request = 0;
  w.end = now_ns();
}

void ChurnStream::prefill() {
  while (next_ < plan_.size() && plan_[next_].due_s < 0) {
    WriteRecord unused;
    apply(next_, unused);
  }
}

ChurnSegment ChurnStream::run(QueryRouter& router, const UserSampler& users,
                              double seconds, std::uint64_t seed,
                              std::uint64_t first_id) {
  ChurnSegment out;
  out.first_op = next_;
  std::size_t end = next_;
  while (end < plan_.size() && plan_[end].due_s < clock_s_ + seconds) ++end;
  out.writes.resize(end - next_);
  out.rss_before_mb = rss_mb();
  // The writer and the query generator share a clock: both start ~2 ms
  // from now (run_open_loop's lead).
  const Nanos t0 = now_ns() + 2'000'000;
  std::jthread writer([&] {
    set_fine_timer_slack();
    for (std::size_t i = out.first_op; i < end; ++i) {
      WriteRecord& w = out.writes[i - out.first_op];
      w.id = first_id + kWriteIds + i + 1;
      w.due = t0 + static_cast<Nanos>((plan_[i].due_s - clock_s_) * 1e9);
      if (now_ns() < w.due) sleep_until_ns(w.due);
      apply(i, w);
    }
  });
  out.reads = query_phase(router, users, seconds, seed, first_id);
  writer.join();
  out.rss_after_mb = rss_mb();
  clock_s_ += seconds;
  return out;
}

CsrGraph window_graph(const CsrGraph& base, const std::vector<Edge>& stream,
                      const std::vector<WriteOp>& plan, std::size_t done) {
  std::size_t inserted = 0;
  std::size_t expired = 0;
  for (std::size_t i = 0; i < done; ++i) {
    (plan[i].remove ? expired : inserted) = plan[i].begin + plan[i].len;
  }
  snaple::GraphBuilder builder(base.num_vertices());
  for (const Edge& e : base.edges()) builder.add_edge(e.src, e.dst);
  for (std::size_t i = expired; i < inserted; ++i) {
    builder.add_edge(stream[i].src, stream[i].dst);
  }
  return builder.build();
}

// ---- the untraced run ----------------------------------------------------

namespace {

double pooled(const std::vector<double>& values, double q) {
  return reported_percentile(values, q).value_or(NAN);
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

RunReport run_untraced(const RunOptions& o) {
  const WorkloadSpec& spec = *o.spec;
  const PhaseBudget budget = phase_budget(o.seconds);
  RunReport rep;
  Nanos phase_start = now_ns();
  const Nanos run_start = phase_start;
  auto lap = [&](const char* phase) {
    const Nanos now = now_ns();
    rep.counts[std::string("time.") + phase + "_s"] = to_s(now - phase_start);
    phase_start = now;
  };
  Inputs in = make_inputs(spec, o.seed, o.workdir);
  lap("inputs");

  // Fit + save from the loaded edge list, kFitReps times after an untimed
  // repetition. That one brings the pool's threads, the allocator and the
  // host up to speed: this host hands a busy VM its cores only after about
  // a second of load, so the timed repetitions run back to back. The fit
  // is gated on its wall time and on its CPU time, every thread summed:
  // the wall time shows a fit made serial, the CPU time work made cheaper
  // or dearer without the time the host takes the VM's cores away
  // (README, Noise).
  {
    const CsrGraph graph = snaple::load_edge_list_text_file(in.edge_file);
    const snaple::LinkPredictor predictor = make_predictor();
    std::vector<double> fit_s, fit_cpu_s;
    bool stable = true;
    std::unique_ptr<PredictorModel> last;
    for (std::size_t r = 0; r <= kFitReps; ++r) {
      const Nanos t0 = now_ns();
      const double cpu0 = process_cpu_s();
      auto model = std::make_unique<PredictorModel>(predictor.fit(graph));
      model->save_file(in.model_file);
      if (r > 0) {
        fit_cpu_s.push_back(process_cpu_s() - cpu0);
        fit_s.push_back(to_s(now_ns() - t0));
      }
      const std::string digest = file_digest(in.model_file);
      if (r == 0) rep.digests["model"] = digest;
      stable = stable && digest == rep.digests["model"];
      last = std::move(model);
    }
    rep.metrics["fit_s"] = median(fit_s);
    rep.metrics["fit_cpu_s"] = median(fit_cpu_s);
    rep.gates["fit.digest_stable"] = stable;
    rep.gates["fit.reload_equals_fit"] =
        PredictorModel::load_file(in.model_file) == *last;
  }
  lap("fit");

  // Set-up: bring a server up from its files — the edge list, the saved
  // model and a live cluster over them — kSetupReps times.
  {
    std::vector<double> setup_s, setup_cpu_s;
    for (std::size_t r = 0; r < kSetupReps; ++r) {
      const Nanos t0 = now_ns();
      const double cpu0 = process_cpu_s();
      auto graph = std::make_shared<const CsrGraph>(
          snaple::load_edge_list_text_file(in.edge_file));
      auto model = std::make_shared<const PredictorModel>(
          PredictorModel::load_file(in.model_file));
      const ServingCluster cluster(model, graph, serve_options(spec));
      setup_cpu_s.push_back(process_cpu_s() - cpu0);
      setup_s.push_back(to_s(now_ns() - t0));
    }
    rep.metrics["setup_s"] = median(setup_cpu_s);
    rep.counts["setup.wall_s"] = median(setup_s);
  }
  lap("setup");

  // The serving clusters, over one loaded graph and model: kPairs that
  // only answer queries and kPairs that also take the churn stream.
  const auto graph = std::make_shared<const CsrGraph>(
      snaple::load_edge_list_text_file(in.edge_file));
  const auto model = std::make_shared<const PredictorModel>(
      PredictorModel::load_file(in.model_file));
  std::vector<std::unique_ptr<ServingCluster>> readers;
  std::vector<std::unique_ptr<ServingCluster>> writers;
  for (std::size_t i = 0; i < kPairs; ++i) {
    readers.push_back(
        std::make_unique<ServingCluster>(model, graph, serve_options(spec)));
    writers.push_back(
        std::make_unique<ServingCluster>(model, graph, serve_options(spec)));
  }
  {
    const Answers expected = engine_answers(*model, in.sample);
    bool equal = true;
    for (auto* group : {&readers, &writers}) {
      for (const auto& c : *group) {
        equal = equal && router_answers(c->router(), in.sample) == expected;
      }
    }
    rep.gates["serve.equals_engine"] = equal;
    rep.digests["answers"] = answers_digest(expected);
  }
  const std::size_t slots = kRounds * kPairs;
  const std::vector<WriteOp> plan =
      plan_churn(in.stream.size(), budget.churn_s / kPairs);
  std::vector<std::unique_ptr<ChurnStream>> churn;
  for (const auto& c : writers) {
    churn.push_back(
        std::make_unique<ChurnStream>(c->update_router(), in.stream, plan));
    churn.back()->prefill();
  }
  for (std::size_t i = 0; i < kPairs; ++i) {
    warm_up(readers[i]->router(), *in.users, budget.warm_s / (2 * kPairs),
            o.seed * 31 + 2 * i);
    warm_up(writers[i]->router(), *in.users, budget.warm_s / (2 * kPairs),
            o.seed * 31 + 2 * i + 1);
  }
  lap("warm");

  // The measured slots: a query segment on one query cluster, then a churn
  // segment on one churn cluster. Staleness and CPU cost are taken per
  // segment and the run reports the median segment: one slow stretch of
  // the host, or one slow cluster, then moves one segment, not the run.
  // CPU cost counts every thread of the process (generator, routers,
  // shard servers); idle clusters only wait on sockets.
  OpenLoopResult queries;
  OpenLoopResult churn_reads;
  std::vector<double> query_tails, staleness_p50s, staleness_p90s;
  std::vector<double> staleness, query_cpu_us, write_cpu_us;
  double rss_growth_mb = 0.0;
  std::size_t timed_ops = 0;
  std::uint64_t hits = 0, lookups = 0;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const std::size_t i = slot % kPairs;
    const auto cache0 = readers[i]->cache_stats();
    const double query_cpu0 = process_cpu_s();
    OpenLoopResult q = query_phase(readers[i]->router(), *in.users,
                                   budget.query_s / slots,
                                   o.seed * 131 + 2 * slot, id_base(2 * slot));
    const double per_query_s =
        (process_cpu_s() - query_cpu0) / static_cast<double>(q.attempted);
    query_cpu_us.push_back(per_query_s * 1e6);
    const auto cache1 = readers[i]->cache_stats();
    hits += cache1.hits - cache0.hits;
    lookups += (cache1.hits + cache1.misses) - (cache0.hits + cache0.misses);
    append(query_tails, q.window_latency_us(kTailWindowS, 0.99));
    queries.append(std::move(q));

    // A write batch's cost: the churn segment's CPU minus what its queries
    // cost at the query segment's rate, so the extra query work the writes
    // cause (stale cache rows refetched) is charged to the writes.
    const double churn_cpu0 = process_cpu_s();
    ChurnSegment c = churn[i]->run(writers[i]->router(), *in.users,
                                  budget.churn_s / slots,
                                  o.seed * 131 + 2 * slot + 1,
                                  id_base(2 * slot + 1));
    const double churn_cpu_s = process_cpu_s() - churn_cpu0;
    if (!c.writes.empty()) {
      write_cpu_us.push_back(
          (churn_cpu_s - static_cast<double>(c.reads.attempted) * per_query_s) /
          static_cast<double>(c.writes.size()) * 1e6);
    }
    const std::vector<double> s = c.staleness_us();
    for (const auto& [quantile, into] : {std::pair{0.5, &staleness_p50s},
                                         std::pair{0.9, &staleness_p90s}}) {
      if (const auto v = reported_percentile(s, quantile)) into->push_back(*v);
    }
    append(staleness, s);
    rss_growth_mb += c.rss_after_mb - c.rss_before_mb;
    timed_ops += c.writes.size();
    churn_reads.append(std::move(c.reads));
  }
  lap("serve");

  auto median_or_nan = [](const std::vector<double>& v) {
    return v.empty() ? NAN : median(v);
  };
  const std::vector<double> latency = queries.latency_us();
  const std::vector<double> churn_latency = churn_reads.latency_us();
  rep.metrics["query_cpu_us"] = median(query_cpu_us);
  rep.metrics["write_cpu_us"] = median_or_nan(write_cpu_us);
  rep.metrics["rss_growth_mb_per_kop"] =
      rss_growth_mb / (static_cast<double>(timed_ops) / 1000.0);
  // Latencies are reported, not gated: host stalls set them (README, Noise).
  rep.counts["query.samples"] = static_cast<double>(latency.size());
  rep.counts["query.p50_us"] = pooled(latency, 0.5);
  rep.counts["query.p90_us"] = pooled(latency, 0.9);
  rep.counts["query.p99_us"] = median_or_nan(query_tails);
  rep.counts["query.p99_windows"] = static_cast<double>(query_tails.size());
  rep.counts["query.p99_pooled_us"] = pooled(latency, 0.99);
  rep.counts["query.gen_lateness_p99_us"] = pooled(queries.lateness_us(), 0.99);
  rep.counts["query.cache_hit_ratio"] =
      lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
  rep.counts["query.cache_lookups"] = static_cast<double>(lookups);
  rep.counts["churn.staleness_samples"] = static_cast<double>(staleness.size());
  rep.counts["churn.staleness_segments"] = static_cast<double>(staleness_p90s.size());
  rep.counts["churn.staleness_p50_us"] = median_or_nan(staleness_p50s);
  rep.counts["churn.staleness_p90_us"] = median_or_nan(staleness_p90s);
  rep.counts["churn.staleness_p99_pooled_us"] = pooled(staleness, 0.99);
  rep.counts["churn.query_samples"] = static_cast<double>(churn_latency.size());
  rep.counts["churn.query_p50_us"] = pooled(churn_latency, 0.5);
  rep.counts["churn.query_p90_us"] = pooled(churn_latency, 0.9);
  rep.counts["churn.query_p99_pooled_us"] = pooled(churn_latency, 0.99);
  rep.counts["churn.write_ops"] = static_cast<double>(timed_ops);

  std::size_t write_failures = 0;
  for (const auto& c : churn) write_failures += c->failures();
  rep.attempted += queries.attempted + queries.unsent + churn_reads.attempted +
                   churn_reads.unsent + timed_ops;
  rep.failed += queries.failed + queries.unsent + churn_reads.failed +
                churn_reads.unsent + write_failures;

  // After a barrier every churn cluster must answer like a fresh fit on the
  // window graph; all of them replayed the same plan prefix.
  {
    const std::size_t done = churn.front()->done();
    const Answers expected = engine_answers(
        refit(window_graph(*in.base, in.stream, plan, done)), in.sample);
    bool equal = write_failures == 0;
    for (std::size_t i = 0; i < kPairs; ++i) {
      equal = equal && churn[i]->done() == done;
      if (equal) (void)writers[i]->update_router().barrier();
      equal = equal && router_answers(writers[i]->router(), in.sample) == expected;
    }
    rep.gates["churn.equals_refit"] = equal;
  }
  churn.clear();
  readers.clear();
  writers.clear();
  rep.metrics["peak_rss_mb"] = peak_rss_mb();
  lap("gates");
  rep.counts["time.total_s"] = to_s(now_ns() - run_start);
  return rep;
}

}  // namespace e2e
