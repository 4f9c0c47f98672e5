// snaple_bench — the end-to-end benchmark: one workload per process, so
// peak RSS is per workload.
//
//   snaple_bench --workload=<name> --seed=<n> --workdir=<dir>
//                [--seconds=<s>] [--json=<artifact>] [--trace=<trace.json>]
//
// Without --trace it measures the end-to-end metrics; with --trace it
// measures every layer instead and writes the spans as Chrome/Perfetto
// trace JSON. Either way it prints each metric with its unit, runs the
// correctness gates and ends stdout with one JSON line:
//   {"correct": …, "attempted": …, "failed": …, "metrics": {…}}
// The run's input files live in --workdir while it runs.
// Exit status: 0 when every gate passed, no operation failed and every
// metric was measured; 1 otherwise or on an error; 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace e2e;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 15.0;
  std::string json;
  std::string trace;
  std::string workdir;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "snaple_bench: " << error
            << "\nusage: snaple_bench --workload=<name> --seed=<n> "
               "--workdir=<dir> [--seconds=<s>] [--json=<file>] "
               "[--trace=<file>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--json") {
        a.json = value;
      } else if (key == "--trace") {
        a.trace = value;
      } else if (key == "--workdir") {
        a.workdir = value;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value in " + arg);
    }
  }
  if (a.seconds <= 0.0) usage("--seconds must be positive");
  if (a.workdir.empty()) usage("--workdir is required");
  return a;
}

Json manifest(const Args& a, const WorkloadSpec& spec) {
  const char* commit = std::getenv("SNAPLE_BENCH_COMMIT");
  Json m = Json::object();
  m.set("commit", commit != nullptr && *commit != '\0' ? commit : "unknown");
  m.set("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  m.set("pool_threads",
        static_cast<std::uint64_t>(snaple::default_pool().worker_count()));
  m.set("simd", snaple::simd::level_name(snaple::simd::active_level()));
  m.set("build_type", E2E_BUILD_TYPE);
#if defined(__clang__)
  m.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  m.set("compiler", std::string("gcc ") + __VERSION__);
#else
  m.set("compiler", "unknown");
#endif
  m.set("workload", spec.name);
  m.set("dataset", spec.dataset);
  m.set("scale", spec.scale);
  m.set("seed", a.seed);
  m.set("seconds", a.seconds);
  m.set("traced", !a.trace.empty());
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) usage("unknown workload '" + args.workload + "'");

  RunOptions options;
  options.spec = spec;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.trace_path = args.trace;
  options.workdir = args.workdir;
  std::filesystem::create_directories(options.workdir);

  RunReport report;
  bool ran = true;
  try {
    report = args.trace.empty() ? run_untraced(options) : run_traced(options);
  } catch (const std::exception& e) {
    std::cerr << "snaple_bench: run failed: " << e.what() << "\n";
    ran = false;
  }
  std::error_code ec;
  std::filesystem::remove(options.workdir + "/base.txt", ec);
  std::filesystem::remove(options.workdir + "/model.bin", ec);
  std::filesystem::remove(options.workdir, ec);  // only if now empty
  if (!ran) return 1;

  bool correct = true;
  for (const auto& [name, passed] : report.gates) {
    std::cout << "gate " << name << ": " << (passed ? "pass" : "FAIL") << "\n";
    correct = correct && passed;
  }
  const bool traced = !args.trace.empty();
  bool measured = true;
  Json metrics = Json::object();
  for (const auto& d : metric_defs()) {
    if (d.end_to_end == traced) continue;
    const auto it = report.metrics.find(d.name);
    const double value = it == report.metrics.end() ? NAN : it->second;
    if (!std::isfinite(value)) {
      std::cerr << "snaple_bench: metric " << d.name << " was not measured\n";
      measured = false;
    }
    char line[160];
    std::snprintf(line, sizeof(line), "%-40s %14.4f %s", d.name, value, d.unit);
    std::cout << line << "\n";
    metrics.set(d.name, Json::object().set("value", value).set("unit", d.unit));
  }
  for (const auto& [name, value] : report.counts) {
    std::cout << "count " << name << ": " << value << "\n";
  }

  if (!args.json.empty()) {
    Json digests = Json::object();
    for (const auto& [k, v] : report.digests) digests.set(k, v);
    Json gates = Json::object();
    for (const auto& [k, v] : report.gates) gates.set(k, v);
    Json counts = Json::object();
    for (const auto& [k, v] : report.counts) counts.set(k, v);
    const double failed_frac =
        report.attempted == 0 ? 0.0
                              : static_cast<double>(report.failed) /
                                    static_cast<double>(report.attempted);
    Json artifact = Json::object();
    artifact.set("manifest", manifest(args, *spec))
        .set("correct", correct)
        .set("gates", std::move(gates))
        .set("attempted", static_cast<std::uint64_t>(report.attempted))
        .set("failed", static_cast<std::uint64_t>(report.failed))
        .set("ops_failed_frac", failed_frac)
        .set("digests", std::move(digests))
        .set("counts", std::move(counts))
        .set("metrics", metrics);
    std::FILE* f = std::fopen(args.json.c_str(), "w");
    if (f == nullptr) {
      std::cerr << "snaple_bench: cannot write " << args.json << "\n";
      return 1;
    }
    const std::string text = artifact.dump() + "\n";
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }

  std::cout << Json::object()
                   .set("correct", correct)
                   .set("attempted", static_cast<std::uint64_t>(report.attempted))
                   .set("failed", static_cast<std::uint64_t>(report.failed))
                   .set("metrics", std::move(metrics))
                   .dump()
            << std::endl;
  if (report.failed != 0) {
    std::cerr << "snaple_bench: " << report.failed << " of " << report.attempted
              << " operations failed\n";
  }
  return correct && measured && report.failed == 0 ? 0 : 1;
}
