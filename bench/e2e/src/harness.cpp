#include "harness.hpp"

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <thread>

#include "tracing_channel.hpp"
#include "util/stats.hpp"

namespace e2e {

Nanos now_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<Nanos>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// ---- percentiles ---------------------------------------------------------

bool tail_supported(std::size_t samples, double q) noexcept {
  // Samples strictly beyond the q-quantile: floor((1 - q) * n), computed
  // in integers of a tenth of a per-mille so 0.99 × 1000 is exactly 10.
  const auto beyond_scaled = static_cast<std::uint64_t>(
      std::llround((1.0 - q) * 10000.0)) * samples;
  return beyond_scaled >= kTailSamples * 10000;
}

std::optional<double> reported_percentile(std::vector<double> values,
                                          double q) {
  if (values.empty()) return std::nullopt;
  if (q > 0.5 && !tail_supported(values.size(), q)) return std::nullopt;
  return snaple::percentile(std::move(values), q);
}

double median(std::vector<double> values) {
  return snaple::percentile(std::move(values), 0.5);
}

// ---- open loop -----------------------------------------------------------

std::uint64_t next_random(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double next_unit(std::uint64_t& state) noexcept {
  return static_cast<double>(next_random(state) >> 11) * 0x1.0p-53;
}

void set_fine_timer_slack() noexcept {
  // The default 50 µs slack would add tens of µs of oversleep to every
  // request's due-time latency; 1 ns asks the kernel for its best.
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
}

void sleep_until_ns(Nanos due) noexcept {
  timespec ts{};
  ts.tv_sec = due / 1'000'000'000;
  ts.tv_nsec = due % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

void OpenLoopResult::append(OpenLoopResult&& other) {
  requests.insert(requests.end(), std::make_move_iterator(other.requests.begin()),
                  std::make_move_iterator(other.requests.end()));
  attempted += other.attempted;
  failed += other.failed;
  unsent += other.unsent;
}

std::vector<double> OpenLoopResult::latency_us() const {
  std::vector<double> out;
  out.reserve(requests.size());
  for (const Request& r : requests) {
    if (r.ok) out.push_back(to_us(r.end - r.due));
  }
  return out;
}

std::vector<double> OpenLoopResult::lateness_us() const {
  std::vector<double> out;
  out.reserve(requests.size());
  for (const Request& r : requests) {
    if (r.start != 0) out.push_back(to_us(r.start - r.due));
  }
  return out;
}

std::vector<std::vector<const Request*>> OpenLoopResult::windows(
    double window_s) const {
  std::vector<const Request*> sorted;
  sorted.reserve(requests.size());
  for (const Request& r : requests) sorted.push_back(&r);
  std::sort(sorted.begin(), sorted.end(),
            [](const Request* a, const Request* b) { return a->due < b->due; });
  std::vector<std::vector<const Request*>> out;
  if (sorted.empty()) return out;
  const auto width = std::max<Nanos>(1, static_cast<Nanos>(window_s * 1e9));
  const Nanos first = sorted.front()->due;
  for (const Request* r : sorted) {
    const auto w = static_cast<std::size_t>((r->due - first) / width);
    if (w >= out.size()) out.resize(w + 1);
    out[w].push_back(r);
  }
  return out;
}

std::vector<double> OpenLoopResult::window_latency_us(double window_s,
                                                      double q) const {
  std::vector<double> per_window;
  for (const auto& window : windows(window_s)) {
    std::vector<double> lat;
    for (const Request* r : window) {
      if (r->ok) lat.push_back(to_us(r->end - r->due));
    }
    if (const auto v = reported_percentile(std::move(lat), q)) {
      per_window.push_back(*v);
    }
  }
  return per_window;
}

OpenLoopResult run_open_loop(const OpenLoopSpec& spec, const DrawFn& draw,
                             const IssueFn& issue) {
  const std::size_t clients = std::max<std::size_t>(1, spec.clients);
  const double per_client_rate = spec.rate_per_s / static_cast<double>(clients);
  const auto abort_late = static_cast<Nanos>(spec.abort_late_s * 1e9);

  struct ClientLog {
    std::vector<Request> requests;
    std::size_t failed = 0;
    std::size_t unsent = 0;
  };
  std::vector<ClientLog> logs(clients);
  // A short lead so every thread is parked before the first arrival.
  const Nanos t0 = now_ns() + 2'000'000;
  const Nanos t_end = t0 + static_cast<Nanos>(spec.seconds * 1e9);

  std::vector<std::jthread> threads;  // joined on every path out
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      set_fine_timer_slack();
      ClientLog& log = logs[c];
      log.requests.reserve(static_cast<std::size_t>(
          per_client_rate * spec.seconds * 1.2 + 16));
      std::uint64_t arrivals = spec.seed * 0x100000001b3ULL + 2 * c + 1;
      std::uint64_t users = spec.seed * 0xc2b2ae3d27d4eb4fULL + 2 * c + 2;
      double due_s = 0.0;
      bool aborted = false;
      for (std::uint64_t seq = 0;; ++seq) {
        due_s += -std::log1p(-next_unit(arrivals)) / per_client_rate;
        const Nanos due = t0 + static_cast<Nanos>(due_s * 1e9);
        if (due >= t_end) break;
        const std::uint32_t user = draw(users);
        if (aborted) {
          ++log.unsent;
          continue;
        }
        Request r;
        r.id = spec.first_id + (static_cast<std::uint64_t>(c) << 32) + seq + 1;
        r.due = due;
        r.user = user;
        if (now_ns() < due) sleep_until_ns(due);
        r.start = now_ns();
        if (r.start - due > abort_late) aborted = true;
        trace_context().request = r.id;
        try {
          issue(c, user);
          r.ok = true;
        } catch (const std::exception&) {
          ++log.failed;
        }
        trace_context().request = 0;
        r.end = now_ns();
        log.requests.push_back(r);
      }
    });
  }
  for (auto& t : threads) t.join();

  OpenLoopResult out;
  for (ClientLog& log : logs) {
    out.attempted += log.requests.size();
    out.failed += log.failed;
    out.unsent += log.unsent;
    std::move(log.requests.begin(), log.requests.end(),
              std::back_inserter(out.requests));
  }
  return out;
}

// ---- spans ---------------------------------------------------------------

Nanos covered(Nanos lo, Nanos hi,
              std::vector<std::pair<Nanos, Nanos>> intervals) {
  for (auto& [b, e] : intervals) {
    b = std::clamp(b, lo, hi);
    e = std::clamp(e, lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  Nanos total = 0;
  Nanos reach = lo;
  for (const auto& [b, e] : intervals) {
    const Nanos from = std::max(b, reach);
    if (e > from) {
      total += e - from;
      reach = e;
    }
  }
  return total;
}

Nanos self_time(const Span& span,
                const std::vector<std::pair<Nanos, Nanos>>& children) {
  return (span.end - span.begin) - covered(span.begin, span.end, children);
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
}

}  // namespace

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        std::size_t max_roots) {
  std::map<std::uint64_t, std::size_t> lane;  // request id -> track
  Nanos origin = 0;
  bool first = true;
  for (const Span& s : spans) {
    if (first || s.begin < origin) origin = s.begin;
    first = false;
  }
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool need_comma = false;
  char buf[160];
  for (const Span& s : spans) {
    std::size_t tid = 0;
    if (s.root != 0) {
      auto it = lane.find(s.root);
      if (it == lane.end()) {
        if (lane.size() >= max_roots) continue;
        it = lane.emplace(s.root, lane.size() + 1).first;
      }
      tid = it->second;
    }
    if (need_comma) out += ',';
    need_comma = true;
    out += "{\"ph\":\"X\",\"pid\":1,\"name\":\"";
    append_escaped(out, s.name);
    std::snprintf(buf, sizeof(buf),
                  "\",\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%llu,"
                  "\"parent\":\"",
                  tid, to_us(s.begin - origin),
                  to_us(std::max<Nanos>(0, s.end - s.begin)),
                  static_cast<unsigned long long>(s.root));
    out += buf;
    append_escaped(out, s.parent);
    out += "\"}}";
  }
  out += "]}\n";
  std::ofstream f(path, std::ios::binary);
  f << out;
  return static_cast<bool>(f);
}

// ---- digests and memory --------------------------------------------------

void Fnv1a::add(const void* data, std::size_t len) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    hash_ ^= p[i];
    hash_ *= 0x100000001b3ULL;
  }
}

std::string Fnv1a::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

std::string file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  Fnv1a h;
  std::vector<char> buf(1 << 16);
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    h.add(buf.data(), static_cast<std::size_t>(in.gcount()));
  }
  return h.hex();
}

namespace {

double status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::strtod(line.c_str() + key_len, nullptr);
    }
  }
  return 0.0;
}

}  // namespace

double rss_mb() { return status_kb("VmRSS:") / 1024.0; }
double peak_rss_mb() { return status_kb("VmHWM:") / 1024.0; }

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

// ---- JSON ----------------------------------------------------------------

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json::Json(double v) : kind_(Kind::kNumber), number_(v) {}
Json::Json(std::int64_t v) : kind_(Kind::kInt), int_(v) {}
Json::Json(std::uint64_t v) : kind_(Kind::kUint), uint_(v) {}
Json::Json(bool v) : kind_(Kind::kBool), bool_(v) {}
Json::Json(const char* v) : kind_(Kind::kString), string_(v) {}
Json::Json(std::string v) : kind_(Kind::kString), string_(std::move(v)) {}

Json& Json::set(const std::string& key, Json value) {
  kind_ = Kind::kObject;
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  kind_ = Kind::kArray;
  items_.push_back(std::move(value));
  return *this;
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

void Json::dump_to(std::string& out) const {
  char buf[40];
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kNumber:
      if (std::isfinite(number_)) {
        std::snprintf(buf, sizeof(buf), "%.17g", number_);
        out += buf;
      } else {
        out += "null";
      }
      break;
    case Kind::kInt:
      out += std::to_string(int_);
      break;
    case Kind::kUint:
      out += std::to_string(uint_);
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kString:
      out += '"';
      append_escaped(out, string_);
      out += '"';
      break;
    case Kind::kObject: {
      out += '{';
      bool comma = false;
      for (const auto& [k, v] : members_) {
        if (comma) out += ',';
        comma = true;
        out += '"';
        append_escaped(out, k);
        out += "\":";
        v.dump_to(out);
      }
      out += '}';
      break;
    }
    case Kind::kArray: {
      out += '[';
      bool comma = false;
      for (const Json& v : items_) {
        if (comma) out += ',';
        comma = true;
        v.dump_to(out);
      }
      out += ']';
      break;
    }
  }
}

}  // namespace e2e
