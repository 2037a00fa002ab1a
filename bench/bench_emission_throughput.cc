// Emission-phase throughput bench: the pay-as-you-go part of progressive
// ER the paper actually measures recall against (Alg. 6) — how fast can
// the engine *emit* once initialization is done?
//
// Two rows, both draining the same engine setup:
//
//   emit_serial      the engine's serial stream: every refill
//                    (ProcessProfile / ProcessBlock) is computed inline
//                    on the consuming thread;
//   emit_serial_obs  the same drain with a live obs::Registry attached.
//                    Telemetry must be a pure observer: the row is
//                    digest-checked against emit_serial and reports the
//                    on/off wall-clock ratio as an "overhead" extra.
//
// The bench folds every emission into an FNV-1a digest and fails (exit 1)
// when the two streams diverge.
//
//   bench_emission_throughput [--scale=S] [--dataset=NAME] [--method=M]
//                             [--repeat=R] [--threads=T] [--budget=N]
//                             [--json=PATH]
//
// --json emits {dataset, scale, threads, path, wall_ms, speedup} records
// (schema: bench/BENCH.md); speedup is emit_serial / emit_serial_obs.
// The timer covers the drain only; --threads parallelizes the
// initialization, which is bench_parallel_scaling's job to time.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "datagen/datagen.h"
#include "engine/resolver.h"
#include "eval/table.h"
#include "obs/registry.h"
#include "obs/telemetry.h"

namespace {

using namespace sper;

double Millis(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

using sper::bench::DrainResult;

/// Builds the resolver, then times the emission drain only —
/// initialization is bench_parallel_scaling's job. A non-null `registry`
/// attaches a telemetry scope (the "_obs" row); the drained stream must
/// stay bit-identical either way.
DrainResult RunOnce(const ProfileStore& store, MethodId method,
                    std::size_t threads, std::uint64_t budget,
                    obs::Registry* registry = nullptr) {
  ResolverOptions options;
  options.method = method;
  options.num_threads = threads;
  options.budget = budget;
  if (registry != nullptr) {
    options.telemetry = obs::TelemetryScope(registry);
  }
  std::unique_ptr<Resolver> engine =
      sper::bench::CreateResolverOrDie(store, options);

  DrainResult result;
  const auto start = std::chrono::steady_clock::now();
  while (std::optional<Comparison> c = engine->Next()) {
    result.Fold(*c);
  }
  result.wall_ms = Millis(start);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  int repeat = 3;
  std::string dataset_name = "dbpedia";
  std::string method_name = "pps";
  std::string json_path;
  std::size_t threads = 8;
  std::uint64_t budget = 0;  // 0 = drain the method dry
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      scale = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--dataset=", 10) == 0) {
      dataset_name = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--method=", 9) == 0) {
      method_name = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
      repeat = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::strtoul(argv[i] + 10, nullptr, 10);
    } else if (std::strncmp(argv[i], "--budget=", 9) == 0) {
      budget = std::strtoull(argv[i] + 9, nullptr, 10);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::printf(
          "usage: %s [--scale=S] [--dataset=NAME] [--method=M] "
          "[--repeat=R] [--threads=T] [--budget=N] [--json=PATH]\n",
          argv[0]);
      return 2;
    }
  }

  const std::optional<MethodId> method = ParseMethodId(method_name);
  if (!method.has_value()) {
    std::fprintf(stderr, "unknown method '%s'\n", method_name.c_str());
    return 2;
  }
  DatagenOptions gen;
  gen.scale = scale;
  Result<DatasetBundle> dataset = GenerateDataset(dataset_name, gen);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const ProfileStore& store = dataset.value().store;
  std::printf("dataset %s: %zu profiles (scale %.2f, %s), method %s, "
              "threads %zu, budget %llu, hardware threads %u\n",
              dataset.value().name.c_str(), store.size(), scale,
              ToString(store.er_type()),
              std::string(ToString(*method)).c_str(), threads,
              static_cast<unsigned long long>(budget),
              std::thread::hardware_concurrency());

  std::vector<sper::bench::JsonRecord> records;
  TextTable table({"path", "emitted", "emission (ms)", "obs/off", "digest"});
  DrainResult serial;
  for (int r = 0; r < repeat; ++r) {
    DrainResult run = RunOnce(store, *method, threads, budget);
    if (r == 0 || run.wall_ms < serial.wall_ms) serial = run;
  }
  table.AddRow({"emit_serial", std::to_string(serial.emitted),
                FormatDouble(serial.wall_ms, 1), "1.000x", "reference"});
  records.push_back({dataset.value().name, scale, threads, "emit_serial",
                     serial.wall_ms, 1.0});

  // Telemetry-overhead configuration: the same drain with a live registry
  // attached. The stream must stay bit-identical and the overhead (obs/off
  // wall-clock ratio) near 1.0 — the acceptance bar for the
  // instrumentation being a pure observer.
  DrainResult serial_obs;
  for (int r = 0; r < repeat; ++r) {
    obs::Registry registry;
    DrainResult run = RunOnce(store, *method, threads, budget, &registry);
    if (r == 0 || run.wall_ms < serial_obs.wall_ms) serial_obs = run;
  }
  const bool ok = serial_obs.SameStream(serial);
  const double overhead =
      serial.wall_ms > 0 ? serial_obs.wall_ms / serial.wall_ms : 0.0;
  table.AddRow({"emit_serial_obs", std::to_string(serial_obs.emitted),
                FormatDouble(serial_obs.wall_ms, 1),
                FormatDouble(overhead, 3) + "x", ok ? "match" : "MISMATCH"});
  sper::bench::JsonRecord record{
      dataset.value().name, scale, threads, "emit_serial_obs",
      serial_obs.wall_ms,
      serial_obs.wall_ms > 0 ? serial.wall_ms / serial_obs.wall_ms : 0.0};
  record.extras.emplace_back("overhead", overhead);
  records.push_back(std::move(record));
  table.Print();
  std::printf("\ndigest = FNV-1a over every emitted (i, j, weight); "
              "\"match\" means the instrumented\nstream is bit-identical "
              "to the un-instrumented one.\n");

  if (!json_path.empty() &&
      !sper::bench::WriteJsonRecords(json_path, records)) {
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr, "FAIL: telemetry changed the emitted stream\n");
    return 1;
  }
  return 0;
}
