// Unified Resolver serving API (src/engine/resolver.h). The contract
// under test:
//
// - Resolver::Create validates ResolverOptions with a clear error Status
//   (no silent fallbacks) and serves the same stream at every thread
//   count;
// - the engine's budget, stats and stream contract holds at every thread
//   count;
// - ResolverSession slices concatenate bit-identically to one un-batched
//   serial drain at every (method, ER type, threads, batch size)
//   combination, including under concurrent ticketed FIFO admission;
// - per-request pay-as-you-go: zero-budget requests buy nothing, the
//   global budget exhausts mid-slice with the flag set.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/datagen.h"
#include "engine/progressive_engine.h"
#include "engine/resolver.h"

namespace sper {
namespace {

ProfileStore DirtyStore() {
  Result<DatasetBundle> ds = GenerateDataset("restaurant", {});
  EXPECT_TRUE(ds.ok());
  return std::move(ds.value().store);
}

ProfileStore CleanCleanStore() {
  DatagenOptions gen;
  gen.scale = 0.1;
  Result<DatasetBundle> ds = GenerateDataset("movies", gen);
  EXPECT_TRUE(ds.ok());
  return std::move(ds.value().store);
}

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
    EXPECT_EQ(a[k].weight, b[k].weight) << "position " << k;
  }
}

std::unique_ptr<Resolver> MustCreate(const ProfileStore& store,
                                     const ResolverOptions& options) {
  Result<std::unique_ptr<Resolver>> resolver =
      Resolver::Create(store, options);
  EXPECT_TRUE(resolver.ok()) << resolver.status().ToString();
  return std::move(resolver).value();
}

// ------------------------------------------------------ options validation

TEST(ResolverOptionsTest, CreateRejectsInvalidOptionsWithClearStatus) {
  const ProfileStore store = DirtyStore();

  ResolverOptions zero_threads;
  zero_threads.num_threads = 0;
  Result<std::unique_ptr<Resolver>> r1 = Resolver::Create(store, zero_threads);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r1.status().message().find("num_threads"), std::string::npos);

  ResolverOptions too_many_threads;
  too_many_threads.num_threads = ResolverOptions::kMaxThreads + 1;
  EXPECT_EQ(Resolver::Create(store, too_many_threads).status().code(),
            StatusCode::kInvalidArgument);

  // PSN without a schema key used to abort inside the engine; the factory
  // reports it as a client error instead.
  ResolverOptions psn;
  psn.method = MethodId::kPsn;
  Result<std::unique_ptr<Resolver>> r2 = Resolver::Create(store, psn);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r2.status().message().find("schema"), std::string::npos);

  ResolverOptions bad_kmax;
  bad_kmax.method = MethodId::kPps;
  bad_kmax.pps_kmax = 0;
  EXPECT_EQ(Resolver::Create(store, bad_kmax).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ResolverOptionsTest, CreateServesOneStreamAtOneAndFourThreads) {
  const ProfileStore store = DirtyStore();
  ResolverOptions options;
  std::unique_ptr<Resolver> serial = MustCreate(store, options);
  EXPECT_EQ(serial->name(), "PPS");
  EXPECT_EQ(serial->options().num_threads, 1u);

  options.num_threads = 4;
  std::unique_ptr<Resolver> parallel = MustCreate(store, options);
  EXPECT_EQ(parallel->name(), "PPS");
  EXPECT_EQ(parallel->options().num_threads, 4u);
  EXPECT_EQ(parallel->init_stats().num_blocks,
            serial->init_stats().num_blocks);
  ExpectSameSequence(Drain(parallel.get(), 1000000),
                     Drain(serial.get(), 1000000));
}

// ------------------------------------------------- engine budget contract

TEST(EngineContractTest, BudgetAndStatsHoldAtOneAndFourThreads) {
  const ProfileStore store = DirtyStore();

  ResolverOptions unbudgeted;
  unbudgeted.method = MethodId::kPps;
  ProgressiveEngine full(store, unbudgeted);
  const std::vector<Comparison> reference = Drain(&full, 40);

  for (std::size_t num_threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    ResolverOptions config = unbudgeted;
    config.num_threads = num_threads;
    config.budget = 40;
    ProgressiveEngine engine(store, config);
    EXPECT_EQ(engine.name(), "PPS");
    EXPECT_EQ(engine.emitted(), 0u);
    EXPECT_FALSE(engine.BudgetExhausted());
    EXPECT_GT(engine.init_stats().num_blocks, 0u);
    EXPECT_GT(engine.init_stats().aggregate_cardinality, 0u);
    // The budget caps the stream at a prefix of the unbudgeted one.
    const std::vector<Comparison> emitted = Drain(&engine, 1000000);
    EXPECT_EQ(emitted.size(), 40u);
    ExpectSameSequence(emitted, reference);
    EXPECT_EQ(engine.emitted(), 40u);
    EXPECT_TRUE(engine.BudgetExhausted());
    EXPECT_FALSE(engine.Next().has_value());
  }
}

// --------------------------------------------- session batching determinism

struct ResolverCase {
  MethodId method;
  bool clean_clean;
};

class SessionDeterminismTest : public ::testing::TestWithParam<ResolverCase> {
};

TEST_P(SessionDeterminismTest, SlicesConcatenateToUnbatchedDrain) {
  const ProfileStore store =
      GetParam().clean_clean ? CleanCleanStore() : DirtyStore();
  constexpr std::uint64_t kBudget = 1500;

  ResolverOptions options;
  options.method = GetParam().method;
  options.budget = kBudget;

  // The reference: one serial un-batched drain of the whole budgeted
  // stream.
  const std::vector<Comparison> reference =
      Drain(MustCreate(store, options).get(), 1000000);
  ASSERT_FALSE(reference.empty());

  for (std::size_t num_threads : {std::size_t{1}, std::size_t{4}}) {
    for (std::size_t batch : {std::size_t{1}, std::size_t{7},
                              std::size_t{256}}) {
      ResolverOptions batched = options;
      batched.num_threads = num_threads;
      std::unique_ptr<Resolver> resolver = MustCreate(store, batched);
      ResolverSession session = resolver->OpenSession();
      std::vector<Comparison> concatenated;
      for (;;) {
        ResolveResult slice = session.Resolve({batch, batch});
        EXPECT_LE(slice.comparisons.size(), batch);
        concatenated.insert(concatenated.end(), slice.comparisons.begin(),
                            slice.comparisons.end());
        if (slice.comparisons.empty() || slice.budget_exhausted ||
            slice.stream_exhausted) {
          break;
        }
      }
      SCOPED_TRACE("threads=" + std::to_string(num_threads) +
                   " batch=" + std::to_string(batch));
      ExpectSameSequence(concatenated, reference);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PpsAndPbs, SessionDeterminismTest,
    ::testing::Values(ResolverCase{MethodId::kPps, false},
                      ResolverCase{MethodId::kPps, true},
                      ResolverCase{MethodId::kPbs, false},
                      ResolverCase{MethodId::kPbs, true}),
    [](const ::testing::TestParamInfo<ResolverCase>& info) {
      std::string name(ToString(info.param.method));
      name += info.param.clean_clean ? "_CleanClean" : "_Dirty";
      return name;
    });

// --------------------------------------------------- per-request budgets

TEST(ResolverSessionTest, GlobalBudgetExhaustsMidBatch) {
  const ProfileStore store = DirtyStore();
  ResolverOptions options;
  options.budget = 25;
  std::unique_ptr<Resolver> resolver = MustCreate(store, options);
  ResolverSession session = resolver->OpenSession();

  ResolveResult first = session.Resolve({10, 0});
  EXPECT_EQ(first.comparisons.size(), 10u);
  EXPECT_FALSE(first.budget_exhausted);

  ResolveResult second = session.Resolve({10, 0});
  EXPECT_EQ(second.comparisons.size(), 10u);

  // The third request pays for 10 but the global budget only covers 5:
  // the slice comes back short with the flag set.
  ResolveResult third = session.Resolve({10, 0});
  EXPECT_EQ(third.comparisons.size(), 5u);
  EXPECT_TRUE(third.budget_exhausted);
  EXPECT_FALSE(third.stream_exhausted);

  // Requests after exhaustion buy nothing and say why.
  ResolveResult fourth = session.Resolve({10, 0});
  EXPECT_TRUE(fourth.comparisons.empty());
  EXPECT_TRUE(fourth.budget_exhausted);

  EXPECT_TRUE(resolver->BudgetExhausted());
  EXPECT_EQ(resolver->emitted(), 25u);
  EXPECT_EQ(session.requests_served(), 4u);
  EXPECT_EQ(session.delivered(), 25u);
}

TEST(ResolverSessionTest, ZeroBudgetRequestBuysNothingAndConsumesNothing) {
  const ProfileStore store = DirtyStore();
  std::unique_ptr<Resolver> reference = MustCreate(store, {});
  const std::optional<Comparison> head = reference->Next();
  ASSERT_TRUE(head.has_value());

  std::unique_ptr<Resolver> resolver = MustCreate(store, {});
  ResolverSession session = resolver->OpenSession();
  ResolveResult probe = session.Resolve({0, 0});
  EXPECT_TRUE(probe.comparisons.empty());
  EXPECT_FALSE(probe.budget_exhausted);
  EXPECT_EQ(resolver->emitted(), 0u);

  // The probe did not advance the stream: the next request still gets
  // the true head of the ranked stream.
  ResolveResult next = session.Resolve({1, 0});
  ASSERT_EQ(next.comparisons.size(), 1u);
  EXPECT_EQ(next.comparisons[0].i, head->i);
  EXPECT_EQ(next.comparisons[0].j, head->j);
  EXPECT_EQ(next.comparisons[0].weight, head->weight);
}

TEST(ResolverSessionTest, MaxBatchCapsTheSliceWithoutSpendingTheRest) {
  const ProfileStore store = DirtyStore();
  std::unique_ptr<Resolver> resolver = MustCreate(store, {});
  ResolverSession session = resolver->OpenSession();
  ResolveResult slice = session.Resolve({/*budget=*/100, /*max_batch=*/7});
  EXPECT_EQ(slice.comparisons.size(), 7u);
  // Pay only for what is delivered: the un-drawn 93 stay in the stream.
  EXPECT_EQ(resolver->emitted(), 7u);
}

// ------------------------------------------------- ticketed FIFO admission

TEST(ResolverSessionTest, ConcurrentClientsReassembleToOneDrain) {
  const ProfileStore store = DirtyStore();
  ResolverOptions options;
  options.budget = 595;

  const std::vector<Comparison> reference =
      Drain(MustCreate(store, options).get(), 1000000);
  ASSERT_EQ(reference.size(), 595u);

  std::unique_ptr<Resolver> resolver = MustCreate(store, options);
  struct Slice {
    std::uint64_t ticket;
    std::vector<Comparison> comparisons;
  };
  std::vector<std::vector<Slice>> per_thread(4);
  {
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < per_thread.size(); ++t) {
      clients.emplace_back([&, t] {
        // Each client runs its own session against the shared resolver.
        ResolverSession session = resolver->OpenSession();
        for (;;) {
          ResolveResult result = session.Resolve({7, 0});
          const bool done = result.comparisons.empty();
          per_thread[t].push_back(
              {result.ticket, std::move(result.comparisons)});
          if (done) break;
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }

  // Reassembling the slices in ticket order recovers the exact un-batched
  // drain, whatever interleaving the scheduler produced.
  std::vector<Slice> all;
  for (std::vector<Slice>& slices : per_thread) {
    for (Slice& slice : slices) all.push_back(std::move(slice));
  }
  std::sort(all.begin(), all.end(),
            [](const Slice& a, const Slice& b) { return a.ticket < b.ticket; });
  std::vector<Comparison> concatenated;
  for (std::size_t k = 0; k < all.size(); ++k) {
    EXPECT_EQ(all[k].ticket, k) << "tickets must be dense";
    concatenated.insert(concatenated.end(), all[k].comparisons.begin(),
                        all[k].comparisons.end());
  }
  ExpectSameSequence(concatenated, reference);
}

}  // namespace
}  // namespace sper
