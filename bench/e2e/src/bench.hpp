// The end-to-end benchmark's workloads, metric dictionary and phases.
//
// Every workload runs the same pipeline on its own seeded inputs — the
// life of a SNAPLE deployment:
//
//   ingest + fit   load_edge_list_text_file → LinkPredictor::fit (4
//                  simulated machines, kSharded, kEdgeLocal) → save_file
//   set-up         load the graph and the saved model, build a live
//                  ServingCluster (4 shards, TCP, remote fetch + cache)
//   queries        open-loop Poisson topk traffic at the nominal rate
//   churn          the same query traffic while a writer streams
//                  held-back edges through the update plane, expiring
//                  the oldest as a sliding window
//
// Workloads differ in what they feed the pipeline (graph shape, which
// users ask, how much cache there is), so each end-to-end metric exists on
// every workload and a change to one layer shows where it matters and
// where it should not move anything.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/predictor.hpp"
#include "graph/csr_graph.hpp"
#include "harness.hpp"
#include "serve/router.hpp"

namespace e2e {

using snaple::CsrGraph;
using snaple::Edge;
using snaple::PredictorModel;
using snaple::VertexId;

/// A workload's inputs. Why each exists is in BENCHMARK.json and the README.
struct WorkloadSpec {
  const char* name;
  const char* dataset;      // synthetic replica (graph/gen/datasets.hpp)
  double scale;
  bool zipf_users;           // Zipf(0.99) users, else uniform
  std::size_t cache_bytes;   // hot-row cache per shard
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

/// The dataset of a workload — its replica, the held-back churn stream,
/// which users are popular and the fit's own seed — is fixed, as a real
/// graph file would be; the run seed drives the traffic: who asks when,
/// and the correctness sample. So runs of one workload differ only in
/// traffic and noise, and every run serves the same model (one digest).
inline constexpr std::uint64_t kDatasetSeed = 42;

// Knobs every workload shares.
inline constexpr std::size_t kShards = 4;
inline constexpr std::size_t kMachines = 4;        // simulated fit cluster
inline constexpr std::size_t kClients = 3;         // generator threads (+1 writer)
inline constexpr double kNominalQps = 4000.0;
inline constexpr std::size_t kSampleUsers = 1024;  // correctness sample
inline constexpr std::size_t kFitReps = 5;
inline constexpr std::size_t kSetupReps = 5;
/// An untraced run serves from kPairs query-only clusters and kPairs churn
/// clusters. The measured time is cut into kRounds × kPairs slots, each a
/// query segment on one query cluster followed by a churn segment on one
/// churn cluster, so both metrics sample the host over the whole serving
/// phase (its speed drifts over seconds) and over several clusters (a
/// cluster's thread placement sets its latency for as long as it lives).
inline constexpr std::size_t kPairs = 3;
inline constexpr std::size_t kRounds = 2;
inline constexpr std::size_t kWarmChunk = 256;
inline constexpr std::size_t kWarmUsers = 8192;
inline constexpr std::uint32_t kRecvTimeoutMs = 5000;
inline constexpr double kInsertBatchesPerS = 50.0;
inline constexpr std::size_t kBatchEdges = 8;
inline constexpr std::size_t kWindowEdges = 6000;
inline constexpr std::size_t kHeldBackEdges = 12000;
/// The query p99 is taken per window of this many seconds, then the median
/// window (window_latency_us).
inline constexpr double kTailWindowS = 0.5;

/// How a run's --seconds is split between its timed phases.
struct PhaseBudget {
  double warm_s;   // untimed warm-up at the nominal rate, over all clusters
  double query_s;  // nominal-rate queries alone
  double churn_s;  // writes beside nominal-rate queries
};
[[nodiscard]] PhaseBudget phase_budget(double seconds);

// ---- metrics -------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;  // false: per-layer (traced runs only)
};
[[nodiscard]] const std::vector<MetricDef>& metric_defs();

/// name → value of one run.
using Metrics = std::map<std::string, double>;

// ---- inputs --------------------------------------------------------------

/// Draws query users: Zipf(0.99) ranks mapped through a seeded
/// permutation (popular users spread over every shard), or uniform.
class UserSampler {
 public:
  UserSampler(VertexId n, bool zipf, std::uint64_t seed);
  [[nodiscard]] VertexId draw(std::uint64_t& state) const;

 private:
  VertexId n_;
  std::vector<double> cdf_;     // empty: uniform
  std::vector<VertexId> perm_;
};

/// A run's inputs: the workload's fixed dataset plus seeded traffic.
struct Inputs {
  std::shared_ptr<const CsrGraph> base;  // replica minus the held-back edges
  std::vector<Edge> stream;              // held-back edges, in stream order
  std::string edge_file;                 // `base` as a text edge list
  std::string model_file;                // where the fit phase saves
  std::unique_ptr<UserSampler> users;
  std::vector<VertexId> sample;          // correctness sample
};

[[nodiscard]] Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                                 const std::string& workdir);

[[nodiscard]] snaple::serve::ServeOptions serve_options(
    const WorkloadSpec& spec);

// ---- phases --------------------------------------------------------------

/// Gate outcomes: name → passed.
using Gates = std::map<std::string, bool>;

/// The top-k answers to `users`, from the flat QueryEngine or a router.
using Answers = std::vector<std::vector<std::pair<VertexId, float>>>;
[[nodiscard]] Answers engine_answers(const PredictorModel& model,
                                     const std::vector<VertexId>& users);
[[nodiscard]] Answers router_answers(snaple::serve::QueryRouter& router,
                                     const std::vector<VertexId>& users);
[[nodiscard]] std::string answers_digest(const Answers& answers);

/// topk_batch over kWarmUsers users of the workload's distribution in
/// chunks of kWarmChunk, from kClients threads so the shards fill their
/// caches in parallel, then the nominal rate for `seconds` — neither
/// counts in any metric.
void warm_up(snaple::serve::QueryRouter& router, const UserSampler& users,
             double seconds, std::uint64_t seed);

/// Open-loop topk traffic from kClients threads at the nominal rate.
[[nodiscard]] OpenLoopResult query_phase(snaple::serve::QueryRouter& router,
                                         const UserSampler& users,
                                         double seconds, std::uint64_t seed,
                                         std::uint64_t first_id);

/// Request ids stay unique over a run: phase p's generator numbers its
/// requests id_base(p) + (client << 32) + seq + 1 (run_open_loop), and a
/// churn segment's writer its batches id_base(p) + kWriteIds + op + 1.
[[nodiscard]] constexpr std::uint64_t id_base(std::uint64_t phase) noexcept {
  return (phase + 1) << 40;
}
inline constexpr std::uint64_t kWriteIds = std::uint64_t{1} << 39;

/// One write batch of the churn stream.
struct WriteOp {
  bool remove = false;
  std::size_t begin = 0;  // stream[begin, begin + len)
  std::size_t len = 0;
  double due_s = 0.0;     // offset into the cluster's churn time; < 0: prefill
};
/// The sliding-window schedule of one live cluster. One untimed batch
/// inserts the first kWindowEdges stream edges; then every
/// 1/kInsertBatchesPerS s the next kBatchEdges are inserted and, half a
/// period later, the oldest kBatchEdges expire as a remove batch (op 6),
/// so every timed batch runs against a full window. Only ops due within
/// `seconds` of churn time, and only as far as the stream reaches, are
/// planned.
[[nodiscard]] std::vector<WriteOp> plan_churn(std::size_t stream_edges,
                                              double seconds);

struct WriteRecord {
  std::uint64_t id = 0;  // 0 for the untimed prefill
  Nanos due = 0;
  Nanos start = 0;
  Nanos end = 0;
  bool ok = false;
};

/// One churn segment: the queries that ran beside the writes, and the
/// writes (plan indices [first_op, first_op + writes.size())).
struct ChurnSegment {
  OpenLoopResult reads;
  std::size_t first_op = 0;
  std::vector<WriteRecord> writes;
  double rss_before_mb = 0.0;
  double rss_after_mb = 0.0;
  /// due → return of every write that succeeded, µs.
  [[nodiscard]] std::vector<double> staleness_us() const;
};

/// Streams a plan through one live cluster's update plane a segment at a
/// time, so a cluster's churn can be spread over a run. A failed batch
/// leaves the window unusable, so every later op counts as failed
/// without being sent.
class ChurnStream {
 public:
  ChurnStream(snaple::serve::UpdateRouter& plane,
              const std::vector<Edge>& stream, std::vector<WriteOp> plan);
  ChurnStream(const ChurnStream&) = delete;
  ChurnStream& operator=(const ChurnStream&) = delete;

  /// Applies the plan's untimed prefill.
  void prefill();
  /// One writer thread applies the ops due in the next `seconds` of churn
  /// time open-loop, while nominal-rate queries run beside them.
  [[nodiscard]] ChurnSegment run(snaple::serve::QueryRouter& router,
                                 const UserSampler& users, double seconds,
                                 std::uint64_t seed, std::uint64_t first_id);

  /// Ops sent or skipped so far: a prefix of the plan.
  [[nodiscard]] std::size_t done() const noexcept { return next_; }
  [[nodiscard]] std::size_t failures() const noexcept { return failures_; }

 private:
  void apply(std::size_t i, WriteRecord& w);

  snaple::serve::UpdateRouter& plane_;
  const std::vector<Edge>& stream_;
  std::vector<WriteOp> plan_;
  std::size_t next_ = 0;
  std::size_t failures_ = 0;
  double clock_s_ = 0.0;  // churn time used by earlier segments
};

/// The live graph after the first `done` ops of `plan`: base plus the
/// inserted stream edges minus the expired ones.
[[nodiscard]] CsrGraph window_graph(const CsrGraph& base,
                                    const std::vector<Edge>& stream,
                                    const std::vector<WriteOp>& plan,
                                    std::size_t done);

/// The predictor every workload fits with: the default SnapleConfig with
/// the dataset seed, kMachines type-I machines, kEdgeLocal placement
/// (which the live plane requires), sharded execution.
[[nodiscard]] snaple::SnapleConfig fit_config();
[[nodiscard]] snaple::LinkPredictor make_predictor();

/// A fresh fit on `graph` (the refit oracle of the churn gate).
[[nodiscard]] PredictorModel refit(const CsrGraph& graph);

// ---- runs ----------------------------------------------------------------

struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 42;
  double seconds = 15.0;
  std::string workdir;
  std::string trace_path;  // non-empty: traced run
};

/// What a run hands back to main(): metrics, gates, counts and digests.
struct RunReport {
  Metrics metrics;
  Gates gates;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, std::string> digests;
  std::map<std::string, double> counts;  // sample counts and context
};

[[nodiscard]] RunReport run_untraced(const RunOptions& options);
[[nodiscard]] RunReport run_traced(const RunOptions& options);

}  // namespace e2e
