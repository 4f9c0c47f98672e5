// Measurement plumbing of the end-to-end benchmark: timestamps, the
// percentile convention, the open-loop request generator, span
// arithmetic, the Chrome/Perfetto trace writer, FNV-1a digests, process
// memory and a small JSON emitter. Nothing here knows about SNAPLE; the
// self-test (selftest.cpp) pins every rule stated below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// Nanoseconds on the steady (CLOCK_MONOTONIC) clock: every timestamp of
/// a run, on every thread, is on this one axis.
using Nanos = std::int64_t;
[[nodiscard]] Nanos now_ns() noexcept;
[[nodiscard]] inline double to_us(Nanos ns) noexcept { return ns / 1e3; }
[[nodiscard]] inline double to_s(Nanos ns) noexcept { return ns / 1e9; }

// ---- percentiles ---------------------------------------------------------

/// A tail percentile is reported only when at least this many samples lie
/// beyond it, so p99 needs 1000 samples.
inline constexpr std::size_t kTailSamples = 10;

[[nodiscard]] bool tail_supported(std::size_t samples, double q) noexcept;

/// Linear-interpolation percentile (the library's `percentile`), or
/// nullopt when q > 0.5 and tail_supported(samples, q) fails.
[[nodiscard]] std::optional<double> reported_percentile(
    std::vector<double> values, double q);

[[nodiscard]] double median(std::vector<double> values);

// ---- open loop -----------------------------------------------------------

/// One request the generator was due to send.
struct Request {
  std::uint64_t id = 0;  // unique per run; stitches spans of one request
  Nanos due = 0;         // when the arrival schedule said to send it
  Nanos start = 0;       // when the call was made
  Nanos end = 0;         // when it returned (or threw)
  std::uint32_t user = 0;
  bool ok = false;
};

struct OpenLoopSpec {
  double rate_per_s = 1000.0;  // total over all clients
  double seconds = 1.0;        // requests due in [t0, t0 + seconds)
  std::size_t clients = 1;     // each an independent Poisson stream
  std::uint64_t seed = 1;
  std::uint64_t first_id = 0;  // Request::id = first_id + (client << 32) + seq
  /// A client this late stops sending; its remaining due requests are
  /// counted as unsent (a stall must not stretch the phase without bound).
  /// Well above the host freezes seen on a shared VM (up to ~2 s).
  double abort_late_s = 10.0;
};

struct OpenLoopResult {
  std::vector<Request> requests;  // every request sent, in due order per client
  std::size_t attempted = 0;      // requests sent
  std::size_t failed = 0;         // sent requests that threw
  std::size_t unsent = 0;         // due within the phase but never sent

  /// Adds another phase's requests and counts to this one.
  void append(OpenLoopResult&& other);

  /// completion − due of every successful request, µs.
  [[nodiscard]] std::vector<double> latency_us() const;
  /// call start − due of every sent request, µs.
  [[nodiscard]] std::vector<double> lateness_us() const;

  /// The requests cut into consecutive windows of `window_s` seconds by
  /// due time, from the first due request on.
  [[nodiscard]] std::vector<std::vector<const Request*>> windows(
      double window_s) const;

  /// The latency q-quantile of every window holding enough samples for it
  /// (see tail_supported). The median over a run's windows is the steady
  /// statistic of a tail under a noisy neighbour: one stall of the host
  /// spoils one window, not the run's tail.
  [[nodiscard]] std::vector<double> window_latency_us(double window_s,
                                                      double q) const;
};

/// Drives `issue(client, user)` open-loop: each client thread draws
/// exponential gaps at rate/clients, sleeps until each request is due,
/// calls synchronously and times the request from its due time, so a
/// stall is charged to every request queued behind it. `draw(rng_state)`
/// picks the user from a stream seeded per client, so a seed fixes the
/// user sequence whatever the timing; both run on the client thread.
/// `issue` may throw — the request then counts as failed. During each
/// call the client's trace context carries the request id
/// (tracing_channel.hpp).
using DrawFn = std::function<std::uint32_t(std::uint64_t& rng_state)>;
using IssueFn = std::function<void(std::size_t client, std::uint32_t user)>;
[[nodiscard]] OpenLoopResult run_open_loop(const OpenLoopSpec& spec,
                                           const DrawFn& draw,
                                           const IssueFn& issue);

/// Sleeps until `due` on the steady clock (absolute, so the error does not
/// accumulate). Call set_fine_timer_slack() once per thread first.
void sleep_until_ns(Nanos due) noexcept;
void set_fine_timer_slack() noexcept;

/// splitmix64 step: a tiny seeded stream for the generator threads.
[[nodiscard]] std::uint64_t next_random(std::uint64_t& state) noexcept;
[[nodiscard]] double next_unit(std::uint64_t& state) noexcept;  // [0, 1)

// ---- spans ---------------------------------------------------------------

/// One timed interval of one request in one layer. `root` is the request
/// id (0 for spans outside any request); `parent` names the enclosing
/// span's layer, empty for a root.
struct Span {
  std::string name;
  Nanos begin = 0;
  Nanos end = 0;
  std::uint64_t root = 0;
  std::string parent;
};

/// Length of the union of `intervals`, each clipped to [lo, hi).
[[nodiscard]] Nanos covered(Nanos lo, Nanos hi,
                            std::vector<std::pair<Nanos, Nanos>> intervals);

/// A span's self time: its duration minus the part its children cover.
[[nodiscard]] Nanos self_time(
    const Span& span, const std::vector<std::pair<Nanos, Nanos>>& children);

/// Writes spans as Chrome trace-event JSON (complete "X" events, one
/// track per request id), which Perfetto's UI opens directly. At most
/// `max_roots` distinct request ids are written; spans with root 0 always
/// are. Returns false if the file could not be written.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        std::size_t max_roots);

// ---- digests and memory --------------------------------------------------

/// 64-bit FNV-1a, the digest of saved models and served answers.
class Fnv1a {
 public:
  void add(const void* data, std::size_t len) noexcept;
  template <typename T>
  void add_value(const T& v) noexcept {
    add(&v, sizeof(T));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Digest of a file's bytes; throws std::runtime_error when unreadable.
[[nodiscard]] std::string file_digest(const std::string& path);

/// Resident and peak-resident set size of this process, MB (VmRSS and
/// VmHWM of /proc/self/status; 0 where unavailable).
[[nodiscard]] double rss_mb();
[[nodiscard]] double peak_rss_mb();

/// CPU time (user + system) used so far by every thread of this process, s.
[[nodiscard]] double process_cpu_s();

// ---- JSON ----------------------------------------------------------------

/// Minimal JSON value builder: objects keep insertion order, numbers are
/// written with full precision.
class Json {
 public:
  Json() = default;
  static Json object();
  static Json array();
  Json(double v);               // NOLINT(google-explicit-constructor)
  Json(std::int64_t v);         // NOLINT
  Json(std::uint64_t v);        // NOLINT
  Json(int v) : Json(static_cast<std::int64_t>(v)) {}  // NOLINT
  Json(bool v);                 // NOLINT
  Json(const char* v);          // NOLINT
  Json(std::string v);          // NOLINT

  Json& set(const std::string& key, Json value);
  Json& push(Json value);
  [[nodiscard]] std::string dump() const;

 private:
  enum class Kind { kNull, kNumber, kInt, kUint, kBool, kString, kObject, kArray };
  Kind kind_ = Kind::kNull;
  double number_ = 0.0;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  bool bool_ = false;
  std::string string_;
  std::vector<std::pair<std::string, Json>> members_;  // object
  std::vector<Json> items_;                            // array
  void dump_to(std::string& out) const;
};

}  // namespace e2e
