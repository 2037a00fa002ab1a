// Self-test of the benchmark's own metric code (bench_lib.h): the stream
// scorer against the library's ProgressiveEvaluator on a tiny dataset,
// nearest-rank percentiles and quartiles against hand-computed samples,
// the digest check against a stream with one swapped pair, and the strict
// integer parsing. Exits 0 when every check holds, 1 otherwise.
//
//   .bench_build/perfbench/perfbench_selftest

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_lib.h"
#include "datagen/datagen.h"
#include "engine/resolver.h"
#include "eval/evaluator.h"

namespace {

using namespace sper;

int failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

std::vector<Comparison> Drain(const DatasetBundle& data, MethodId method) {
  ResolverOptions options;
  options.method = method;
  Result<std::unique_ptr<Resolver>> resolver =
      Resolver::Create(data.store, options);
  Expect(resolver.ok(), "Resolver::Create");
  std::vector<Comparison> stream;
  while (std::optional<Comparison> c = resolver.value()->Next()) {
    stream.push_back(*c);
  }
  return stream;
}

perfbench::StreamScorer Score(const DatasetBundle& data,
                              const std::vector<Comparison>& stream,
                              double auc_at) {
  perfbench::StreamScorer scorer(data.truth, auc_at, 0.9);
  for (const Comparison& c : stream) scorer.Add(c);
  return scorer;
}

void TestScorerMatchesEvaluator() {
  struct Case {
    const char* dataset;
    double scale;
    MethodId method;
  };
  for (const Case& k : {Case{"cora", 0.25, MethodId::kPbs},
                        Case{"dbpedia", 0.01, MethodId::kPps},
                        Case{"restaurant", 0.5, MethodId::kPps}}) {
    DatagenOptions gen;
    gen.seed = 11;
    gen.scale = k.scale;
    Result<DatasetBundle> generated = GenerateDataset(k.dataset, gen);
    Expect(generated.ok(), std::string("GenerateDataset ") + k.dataset);
    const DatasetBundle& data = generated.value();
    const std::vector<Comparison> stream = Drain(data, k.method);
    const double matches = static_cast<double>(data.truth.num_matches());
    // Horizons inside the stream and (for the last one) past its end.
    for (double auc_at : {1.0, 10.0,
                          2.0 * static_cast<double>(stream.size()) / matches}) {
      EvalOptions eval;
      eval.ecstar_max = 4.0 * static_cast<double>(stream.size()) / matches;
      eval.auc_at = {auc_at};
      const RunResult run = ProgressiveEvaluator(data.truth, eval).Run(
          [&] { return std::make_unique<perfbench::ReplayEmitter>(stream); });
      const perfbench::StreamScorer scorer = Score(data, stream, auc_at);
      const std::string label =
          std::string(k.dataset) + " auc_at=" + std::to_string(auc_at);
      Expect(scorer.emitted() == run.emissions, label + ": emissions");
      Expect(scorer.matches() == run.matches_found, label + ": matches");
      Expect(scorer.recall() == run.final_recall, label + ": final recall");
      Expect(scorer.Auc() == run.auc_norm.at(0), label + ": AUC*");
    }
    // Recall 0.9 is reached at the first emission whose running distinct
    // match count reaches 0.9 |D_P|.
    const perfbench::StreamScorer scorer = Score(data, stream, 10.0);
    std::unordered_set<std::uint64_t> found;
    std::uint64_t expected = 0;
    for (std::size_t n = 0; n < stream.size() && expected == 0; ++n) {
      if (data.truth.AreMatching(stream[n].i, stream[n].j)) {
        found.insert(PairKey(stream[n].i, stream[n].j));
      }
      if (static_cast<double>(found.size()) >= 0.9 * matches) expected = n + 1;
    }
    Expect(scorer.target_index() == expected,
           std::string(k.dataset) + ": recall-0.9 index");
  }
}

void TestPercentiles() {
  // Nearest rank: sorted[ceil(q * n) - 1].
  const std::vector<double> sample = {40, 15, 50, 35, 20};
  Expect(perfbench::NearestRank(sample, 0.05) == 15, "p5");
  Expect(perfbench::NearestRank(sample, 0.30) == 20, "p30");
  Expect(perfbench::NearestRank(sample, 0.40) == 20, "p40");
  Expect(perfbench::NearestRank(sample, 0.50) == 35, "p50");
  Expect(perfbench::NearestRank(sample, 1.00) == 50, "p100");
  std::vector<double> hundred;
  for (int k = 100; k >= 1; --k) hundred.push_back(k);
  Expect(perfbench::NearestRank(hundred, 0.99) == 99, "p99 of 1..100");
  Expect(perfbench::NearestRank(hundred, 0.50) == 50, "p50 of 1..100");
  Expect(perfbench::NearestRank({}, 0.5) == 0, "empty sample");

  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
  // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0].
  std::vector<double> ten;
  for (int k = 10; k >= 1; --k) ten.push_back(k);
  perfbench::Quartiles q = perfbench::ComputeQuartiles(ten);
  Expect(q.q1 == 2.75 && q.median == 5.5 && q.q3 == 8.25 && q.n == 10,
         "quartiles of 1..10");
  q = perfbench::ComputeQuartiles({8, 1, 4, 2});
  Expect(q.q1 == 1.25 && q.median == 3.0 && q.q3 == 7.0, "quartiles of 4");
  q = perfbench::ComputeQuartiles({3.5});
  Expect(q.q1 == 3.5 && q.median == 3.5 && q.q3 == 3.5, "single sample");
}

void TestDigestCatchesSwap() {
  DatagenOptions gen;
  gen.seed = 3;
  gen.scale = 0.25;
  Result<DatasetBundle> generated = GenerateDataset("cora", gen);
  Expect(generated.ok(), "GenerateDataset cora");
  const DatasetBundle& data = generated.value();
  const std::vector<Comparison> stream = Drain(data, MethodId::kPbs);
  Expect(stream.size() > 100, "stream long enough to alter");
  std::vector<Comparison> altered = stream;
  std::swap(altered[40], altered[41]);
  const perfbench::StreamScorer a = Score(data, stream, 10.0);
  const perfbench::StreamScorer b = Score(data, altered, 10.0);
  const perfbench::StreamScorer c =
      Score(data, Drain(data, MethodId::kPbs), 10.0);
  Expect(a.digest() == c.digest(), "the same stream twice has one digest");
  Expect(!(a.digest() == b.digest()), "one swapped pair changes the digest");
  Expect(a.digest().count == b.digest().count, "swap keeps the count");
}

void TestStrictParsing() {
  std::uint64_t u = 7;
  Expect(perfbench::ParseU64("42", &u) && u == 42, "u64 42");
  Expect(perfbench::ParseU64("18446744073709551615", &u), "u64 max");
  for (const char* bad : {"", "abc", "1x", "-1", "+1", " 1", "1 ", "1.5",
                          "18446744073709551616", "1,x"}) {
    Expect(!perfbench::ParseU64(bad, &u), std::string("u64 rejects '") + bad +
                                               "'");
  }
}

}  // namespace

int main() {
  TestPercentiles();
  TestStrictParsing();
  TestDigestCatchesSwap();
  TestScorerMatchesEvaluator();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
