// Telemetry must be a pure observer: attaching a TelemetryScope to a
// resolver records metrics and spans but MUST NOT perturb the emitted
// comparison stream — bit-identical with telemetry on or off at every
// init thread count. These tests
// pin that contract for both batch-refilling methods, plus the shape of
// what gets recorded (per-phase InitStats, session histograms, spans).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "engine/resolver.h"
#include "eval/experiment.h"
#include "obs/registry.h"
#include "obs/telemetry.h"

namespace sper {
namespace {

std::vector<Comparison> Drain(ProgressiveEmitter* emitter,
                              std::size_t limit) {
  std::vector<Comparison> out;
  while (out.size() < limit) {
    std::optional<Comparison> c = emitter->Next();
    if (!c.has_value()) break;
    out.push_back(*c);
  }
  return out;
}

void ExpectSameSequence(const std::vector<Comparison>& a,
                        const std::vector<Comparison>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].i, b[k].i) << "position " << k;
    EXPECT_EQ(a[k].j, b[k].j) << "position " << k;
    EXPECT_DOUBLE_EQ(a[k].weight, b[k].weight) << "position " << k;
  }
}

struct Shape {
  MethodId method;
  std::size_t num_threads;
};

class TelemetryShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(TelemetryShapeTest, StreamBitIdenticalWithTelemetryOnAndOff) {
  const Shape shape = GetParam();
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());

  MethodConfig off;
  off.num_threads = shape.num_threads;
  std::unique_ptr<Resolver> plain =
      MakeResolver(shape.method, dataset.value(), off);
  ASSERT_NE(plain, nullptr);

  obs::Registry registry;
  MethodConfig on = off;
  on.telemetry = obs::TelemetryScope(&registry);
  std::unique_ptr<Resolver> instrumented =
      MakeResolver(shape.method, dataset.value(), on);
  ASSERT_NE(instrumented, nullptr);

  ExpectSameSequence(Drain(plain.get(), 5000),
                     Drain(instrumented.get(), 5000));
}

INSTANTIATE_TEST_SUITE_P(
    MethodsByShape, TelemetryShapeTest,
    ::testing::Values(Shape{MethodId::kPps, 1}, Shape{MethodId::kPps, 4},
                      Shape{MethodId::kPbs, 1}, Shape{MethodId::kPbs, 4}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      std::string name(ToString(info.param.method));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_threads" + std::to_string(info.param.num_threads);
    });

TEST(TelemetryInitStatsTest, EnginePhasesSumBelowTotal) {
  // The engine runs its phases sequentially, so the breakdown must list
  // the workflow steps then method_build, in execution order, each
  // non-negative, and init_seconds stays the authoritative total.
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());
  MethodConfig config;
  std::unique_ptr<Resolver> resolver =
      MakeResolver(MethodId::kPps, dataset.value(), config);
  const InitStats& stats = resolver->init_stats();
  std::vector<std::string> names;
  double sum = 0.0;
  for (const InitPhase& phase : stats.phases) {
    EXPECT_GE(phase.seconds, 0.0) << phase.name;
    sum += phase.seconds;
    names.push_back(phase.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"token_blocking",
                                             "block_purging",
                                             "block_filtering",
                                             "method_build"}));
  EXPECT_LE(sum, stats.init_seconds + 1e-6);
}

TEST(TelemetryInitStatsTest, PhasesAreTheSameAtOneAndFourThreads) {
  // The thread count parallelizes the phases; it never adds, drops or
  // reorders one.
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());
  const auto phase_names = [&](std::size_t num_threads) {
    MethodConfig config;
    config.num_threads = num_threads;
    std::unique_ptr<Resolver> resolver =
        MakeResolver(MethodId::kPbs, dataset.value(), config);
    std::vector<std::string> names;
    for (const InitPhase& phase : resolver->init_stats().phases) {
      names.push_back(phase.name);
    }
    return names;
  };
  const std::vector<std::string> serial = phase_names(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(phase_names(4), serial);
}

#ifndef SPER_NO_TELEMETRY

TEST(TelemetrySessionTest, SessionHistogramsMatchRequestCount) {
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());
  obs::Registry registry;
  MethodConfig config;
  config.telemetry = obs::TelemetryScope(&registry);
  std::unique_ptr<Resolver> resolver =
      MakeResolver(MethodId::kPps, dataset.value(), config);
  ResolverSession session = resolver->OpenSession();
  constexpr std::uint64_t kRequests = 5;
  constexpr std::uint64_t kBudget = 100;
  std::uint64_t delivered = 0;
  for (std::uint64_t r = 0; r < kRequests; ++r) {
    delivered += session.Resolve({kBudget, kBudget}).comparisons.size();
  }

  const obs::Counter* requests = registry.FindCounter("session.requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->value(), kRequests);
  for (const char* name :
       {"session.queue_wait_ns", "session.service_ns",
        "session.slice_comparisons"}) {
    const obs::Histogram* h = registry.FindHistogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count(), kRequests) << name;
  }
  // Slice sizes are small integers (<= kBudget), so the histogram sum is
  // exact: it must equal the total comparisons actually delivered.
  const obs::Histogram* slices =
      registry.FindHistogram("session.slice_comparisons");
  EXPECT_EQ(slices->Snapshot().sum, delivered);
  EXPECT_EQ(delivered, kRequests * kBudget);  // stream has plenty left

  // One "session.resolve" span per request rides on top of the init
  // phase spans.
  EXPECT_GE(registry.num_spans(), kRequests);
}

TEST(TelemetrySessionTest, InitMetricsLiveAtTheScopeRoot) {
  // At every thread count the engine records its init phases directly
  // under the resolver's scope: one engine, no per-instance prefix.
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());
  for (std::size_t num_threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    obs::Registry registry;
    MethodConfig config;
    config.num_threads = num_threads;
    config.telemetry = obs::TelemetryScope(&registry);
    std::unique_ptr<Resolver> resolver =
        MakeResolver(MethodId::kPps, dataset.value(), config);
    ASSERT_FALSE(Drain(resolver.get(), 2000).empty());
    EXPECT_NE(registry.FindGauge("phase.init_seconds"), nullptr);
    EXPECT_NE(registry.FindGauge("phase.method_build_seconds"), nullptr);
  }
}

TEST(TelemetrySessionTest, SnapshotAndTraceExportWhileServing) {
  // Snapshotting a live resolver between requests must be safe and
  // reflect the requests served so far.
  Result<DatasetBundle> dataset = GenerateDataset("restaurant");
  ASSERT_TRUE(dataset.ok());
  obs::Registry registry;
  MethodConfig config;
  config.num_threads = 4;
  config.telemetry = obs::TelemetryScope(&registry);
  std::unique_ptr<Resolver> resolver =
      MakeResolver(MethodId::kPps, dataset.value(), config);
  ResolverSession session = resolver->OpenSession();
  for (int r = 0; r < 3; ++r) {
    session.Resolve({50, 50});
    const std::string json = registry.SnapshotJson();
    EXPECT_NE(json.find("\"session.requests\": " + std::to_string(r + 1)),
              std::string::npos)
        << json;
  }
}

#endif  // SPER_NO_TELEMETRY

}  // namespace
}  // namespace sper
