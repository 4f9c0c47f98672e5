// Self-test of the benchmark harness: the rules every reported number
// rests on. Exits 1 if any rule is broken (run it through ctest).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.hpp"
#include "tracing_channel.hpp"

namespace {

using namespace e2e;

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void percentile_convention() {
  check(!tail_supported(999, 0.99), "p99 needs 1000 samples");
  check(tail_supported(1000, 0.99), "p99 with exactly 10 beyond it");
  check(!tail_supported(99, 0.9), "p90 needs 100 samples");
  check(tail_supported(100, 0.9), "p90 with 100 samples");
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  check(!reported_percentile(v, 0.99).has_value(), "p99 of 999 not reported");
  check(reported_percentile(v, 0.5).value_or(-1) == 500.0, "median of 1..999");
  v.push_back(1000);
  const auto p99 = reported_percentile(v, 0.99);
  check(p99.has_value() && std::fabs(*p99 - 990.01) < 1e-9,
        "p99 of 1..1000 interpolates to 990.01");
  check(!reported_percentile({}, 0.5).has_value(), "no median of nothing");

  // Windowed tails follow the same convention per window: two 0.5 s
  // windows of 1000 requests (latency 1..1000 us), then one of 999.
  OpenLoopResult phase;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < (w < 2 ? 1000 : 999); ++i) {
      Request r;
      r.due = w * Nanos{500'000'000} + i * Nanos{1000};
      r.end = r.due + (i + 1) * Nanos{1000};
      r.ok = true;
      phase.requests.push_back(r);
    }
  }
  const auto tails = phase.window_latency_us(0.5, 0.99);
  check(tails.size() == 2, "a window short of 1000 samples reports no p99");
  check(tails.size() == 2 && std::fabs(tails[0] - 990.01) < 1e-9 &&
            std::fabs(tails[1] - 990.01) < 1e-9,
        "each window's p99 is its own");
}

/// A target that answers instantly except for one 80 ms stall: every
/// request queued behind the stall must be charged from its due time.
void open_loop_lateness() {
  OpenLoopSpec spec;
  spec.rate_per_s = 2000;
  spec.seconds = 0.4;
  spec.clients = 1;
  spec.seed = 7;
  std::size_t calls = 0;
  const auto result = run_open_loop(
      spec, [](std::uint64_t&) { return 0u; },
      [&](std::size_t, std::uint32_t) {
        if (++calls == 100) std::this_thread::sleep_for(std::chrono::milliseconds(80));
        if (calls == 150) throw std::runtime_error("injected failure");
      });
  check(result.unsent == 0, "no request left unsent");
  check(result.attempted == calls, "every due request was sent");
  check(result.failed == 1, "the throwing request counts as failed");
  check(result.latency_us().size() == result.attempted - 1,
        "latency samples exclude the failure");
  const Request& stalled = result.requests[99];
  check(to_us(stalled.end - stalled.due) >= 80'000, "the stall is in its latency");
  // The next request was due during the stall: its lateness is the rest
  // of the stall, and it is part of its latency.
  const Request& next = result.requests[100];
  check(next.start >= stalled.end, "the next request waits for the stall");
  check(next.start - next.due > 0 && next.end - next.due >= next.start - next.due,
        "lateness is charged to the queued request");
  std::size_t late = 0;
  for (const double l : result.lateness_us()) late += l > 10'000 ? 1 : 0;
  check(late >= 50, "requests due during the stall run late (~160 expected)");
  std::size_t slow = 0;
  for (const double l : result.latency_us()) slow += l > 10'000 ? 1 : 0;
  check(slow >= late, "latency counts from the due time, so the queued wait is in it");

  // A stall past the abort threshold ends the client; the rest are unsent.
  spec.abort_late_s = 0.05;
  calls = 0;
  const auto aborted = run_open_loop(
      spec, [](std::uint64_t&) { return 0u; },
      [&](std::size_t, std::uint32_t) {
        if (++calls == 100) std::this_thread::sleep_for(std::chrono::milliseconds(120));
      });
  check(aborted.unsent > 0, "an aborted client leaves requests unsent");
  const auto lateness = aborted.lateness_us();
  check(!lateness.empty() &&
            *std::max_element(lateness.begin(), lateness.end()) > 50'000,
        "the lateness record shows the stall");
}

void span_arithmetic() {
  const Span parent{"p", 0, 100, 1, ""};
  const std::vector<std::pair<Nanos, Nanos>> children = {
      {10, 30}, {20, 50}, {90, 120}, {-5, 5}};
  check(covered(0, 100, children) == 55, "union of overlapping children, clipped");
  check(self_time(parent, children) == 45, "self = duration - covered");
  check(self_time(parent, {}) == 100, "no children: all self");
  check(covered(0, 100, {{40, 30}}) == 0, "an inverted interval covers nothing");
}

void tracing_channel_counts(snaple::serve::TransportKind kind) {
  auto pair = snaple::serve::make_channel_pair(kind);
  auto client_log = std::make_shared<LinkLog>();
  auto server_log = std::make_shared<LinkLog>(7);
  TracingChannel client(std::move(pair.client), client_log);
  TracingChannel server(std::move(pair.server), server_log);

  TraceContext seen;
  std::thread serving([&] {
    char op = 0;
    std::uint32_t u = 0;
    std::uint64_t k = 0;
    server.recv(&op, 1);
    seen = trace_context();
    server.recv(&u, sizeof(u));
    server.recv(&k, sizeof(k));
    const std::string reply(20, 'r');
    server.send(reply.data(), reply.size());
  });
  trace_context().request = 42;
  const std::string request(13, 'q');
  client.send(request.data(), request.size());
  trace_context().request = 0;
  char status = 0;
  char rest[19];
  client.recv(&status, 1);
  client.recv(rest, sizeof(rest));
  serving.join();

  check(client.bytes_sent() == client.inner().bytes_sent() &&
            client.bytes_received() == client.inner().bytes_received(),
        "client byte counters match the wrapped channel");
  check(server.bytes_sent() == server.inner().bytes_sent() &&
            server.bytes_received() == server.inner().bytes_received(),
        "server byte counters match the wrapped channel");
  check(client_log->bytes_sent() == 13 && server_log->bytes_received() == 13 &&
            server_log->bytes_sent() == 20 && client_log->bytes_received() == 20,
        "logs count every byte once per direction");
  check(client_log->send_calls() == 1 && server_log->recv_calls() == 3 &&
            client_log->recv_calls() == 2,
        "logs count calls into the transport");
  const auto in = server_log->received();
  check(in.size() == 1 && in[0].bytes == 13 && in[0].calls == 3,
        "three recvs opened by a 1-byte op are one message");
  check(client_log->sends().size() == 1 &&
            client_log->sends()[0].context.request == 42,
        "a send carries its sender's request id");
  check(seen.link == 7 && seen.index == 0,
        "reading a request stamps (link, index) into the serving thread");
  const auto out = client_log->received();
  check(out.size() == 1 && out[0].first <= out[0].last, "one response message");
}

void digests_and_json() {
  Fnv1a empty;
  check(empty.hex() == "cbf29ce484222325", "FNV-1a offset basis");
  Fnv1a a;
  a.add("a", 1);
  check(a.hex() == "af63dc4c8601ec8c", "FNV-1a of \"a\"");
  Json j = Json::object();
  j.set("x", 1.5).set("n", std::uint64_t{3}).set("s", "q\"").set("b", false);
  check(j.dump() == "{\"x\":1.5,\"n\":3,\"s\":\"q\\\"\",\"b\":false}", "JSON dump");
}

}  // namespace

int main() {
  percentile_convention();
  open_loop_lateness();
  span_arithmetic();
  tracing_channel_counts(snaple::serve::TransportKind::kInProcess);
  tracing_channel_counts(snaple::serve::TransportKind::kTcp);
  digests_and_json();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("harness self-test: all checks passed\n");
  return 0;
}
