// sperbench: the repository's benchmark. One process runs one workload
// (pps-dbpedia, pbs-cora or serve-cora) on a dataset generated from
// --seed, measures it for at least --seconds, checks the emitted streams
// and prints every metric by name with its unit. The last line of stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   sperbench --workload NAME --seed N --seconds S [--trace 0|1]
//             [--trace-file PATH] [--git-sha SHA] [--src-digest HEX]
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 rebuilds the pipeline step by step, records spans around every
// library call it makes and reports the per-module metrics; spans are
// written as one trace file at the end. perfbench/README.md documents the
// workloads, the metrics and the trace format.
//
// The library is driven only through its public functions and timed from
// outside. Dataset generation and all answer checking (digests, recall,
// AUC*) happen outside the timed regions.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_lib.h"
#include "blocking/block_filtering.h"
#include "blocking/block_purging.h"
#include "blocking/token_blocking.h"
#include "datagen/datagen.h"
#include "engine/resolver.h"
#include "eval/evaluator.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "progressive/pbs.h"
#include "progressive/pps.h"
#include "serving/qos.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace sper;
using perfbench::NowNs;
using perfbench::StreamScorer;
using perfbench::Tracer;

constexpr double kRecallTarget = 0.9;
constexpr double kAucAt = 10.0;
// Interactive requests: slices of 64 with a deadline that is also their
// latency limit (max_rate_rps, over-limit failures). 50 ms sits well above
// the few-ms refill stalls and the host's own scheduling stalls, so a
// request misses it when the server backs up. Batch requests: slices of
// 2048.
constexpr std::uint64_t kInteractiveSlice = 64;
constexpr std::uint64_t kBatchSlice = 2048;
constexpr std::uint64_t kDeadlineMs = 50;
// Fixed rates of the serve-cora measurement phase, and the batch rate that
// runs beside every interactive rate (the ladder too). At 6000 req/s the
// server thread idles < 200 us between interactive requests, so its
// wake-ups stay cheap on a VM, while a host slowdown still leaves headroom
// below the connection's capacity (which halves in the host's slow state).
constexpr double kInteractiveRate = 6000.0;
constexpr double kBatchRate = 250.0;
constexpr double kFixedPhaseSeconds = 1.0;
// max_rate_rps ladder: kLadderBase * 2^(k / kLadderSteps), searched
// coarse (k += kLadderSteps) then by bisection inside the failing octave.
constexpr double kLadderBase = 1000.0;
constexpr int kLadderSteps = 16;
constexpr int kLadderMaxK = 7 * kLadderSteps;  // 128k req/s
// Traced-run request counts per in-process segment.
constexpr std::size_t kSegmentRequests64 = 2000;
constexpr std::size_t kSegmentRequests2048 = 200;

const char kUsage[] =
    "usage: sperbench --workload NAME --seed N --seconds S [--trace 0|1]\n"
    "                 [--trace-file PATH] [--git-sha SHA] [--src-digest HEX]\n"
    "workloads: pps-dbpedia, pbs-cora, serve-cora\n";

struct Workload {
  std::string_view name;
  std::string_view dataset;
  double scale;
  MethodId method;
  bool serve;
};

constexpr Workload kWorkloads[] = {
    {"pps-dbpedia", "dbpedia", 1.0, MethodId::kPps, false},
    {"pbs-cora", "cora", 8.0, MethodId::kPbs, false},
    {"serve-cora", "cora", 8.0, MethodId::kPbs, true},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  bool trace = false;
  std::string trace_file;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "sperbench: %s\n", message.c_str());
  std::exit(2);
}

[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr, "sperbench: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  std::map<std::string, std::string> seen;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    }
    if (arg.substr(0, 2) != "--") UsageError("unexpected argument '" +
                                             std::string(arg) + "'");
    std::string name;
    std::string value;
    if (const std::size_t eq = arg.find('='); eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
      if (i + 1 >= argc) UsageError(name + " needs a value");
      value = argv[++i];
    }
    if (seen.count(name) != 0) UsageError(name + " given twice");
    seen[name] = value;
  }
  for (const auto& [name, value] : seen) {
    if (name == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == value) args.workload = &w;
      }
      if (args.workload == nullptr) UsageError("unknown workload '" + value +
                                               "'");
    } else if (name == "--seed") {
      if (!perfbench::ParseU64(value, &args.seed)) {
        UsageError("--seed: not an unsigned integer: '" + value + "'");
      }
    } else if (name == "--seconds") {
      if (!perfbench::ParseU64(value, &args.seconds) || args.seconds < 1 ||
          args.seconds > 3600) {
        UsageError("--seconds: want an integer in [1, 3600], got '" + value +
                   "'");
      }
    } else if (name == "--trace") {
      if (value != "0" && value != "1") {
        UsageError("--trace: want 0 or 1, got '" + value + "'");
      }
      args.trace = value == "1";
    } else if (name == "--trace-file") {
      if (value.empty()) UsageError("--trace-file: empty path");
      args.trace_file = value;
    } else if (name == "--git-sha") {
      args.git_sha = value;
    } else if (name == "--src-digest") {
      args.src_digest = value;
    } else {
      UsageError("unknown flag " + name);
    }
  }
  if (args.workload == nullptr) UsageError("--workload is required");
  if (seen.count("--seed") == 0) UsageError("--seed is required");
  if (seen.count("--seconds") == 0) UsageError("--seconds is required");
  return args;
}

std::size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Results: every metric keeps all its samples from this run.
// ---------------------------------------------------------------------------

struct Metric {
  std::string unit;
  std::vector<double> samples;
};

class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value) {
    Metric& m = metrics_[name];
    m.unit = unit;
    m.samples.push_back(value);
    if (std::find(order_.begin(), order_.end(), name) == order_.end()) {
      order_.push_back(name);
    }
  }
  bool Has(const std::string& name) const { return metrics_.count(name); }
  double Median(const std::string& name) const {
    return perfbench::ComputeQuartiles(metrics_.at(name).samples).median;
  }
  const std::vector<std::string>& order() const { return order_; }
  const Metric& at(const std::string& name) const { return metrics_.at(name); }

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> order_;
};

/// The verdict of the run's output checks.
struct Checks {
  bool ok = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Expect(bool condition, const std::string& what) {
    if (!condition) {
      ok = false;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
};

std::string DigestHex(const net::StreamDigest& d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx/%llu",
                static_cast<unsigned long long>(d.value),
                static_cast<unsigned long long>(d.count));
  return buf;
}

ResolverOptions MakeOptions(const Workload& w) {
  ResolverOptions options;
  options.method = w.method;
  options.num_threads = std::min(Nproc(), ResolverOptions::kMaxThreads);
  return options;
}

std::unique_ptr<Resolver> CreateOrDie(const ProfileStore& store,
                                      const ResolverOptions& options) {
  Result<std::unique_ptr<Resolver>> r = Resolver::Create(store, options);
  if (!r.ok()) Fail("Resolver::Create: " + r.status().ToString());
  return std::move(r).value();
}

// ---------------------------------------------------------------------------
// Offline drains.
// ---------------------------------------------------------------------------

/// One drained stream, timed in slices of kInteractiveSlice comparisons.
/// Only the pulls are timed; scoring runs between buffers, outside the
/// clock.
struct DrainOutcome {
  double emit_ns = 0.0;        // sum of all timed pulls
  double target_ns = 0.0;      // emission time until recall reached target
  std::vector<double> slice_ns;  // one per full slice, in order
};

// Comparisons pulled between two scoring passes.
constexpr std::size_t kScoreBuffer = 16384;

template <typename Pull>
DrainOutcome TimedDrain(Pull&& pull, StreamScorer& scorer) {
  constexpr std::size_t kSlicesPerBuffer = kScoreBuffer / kInteractiveSlice;
  std::vector<Comparison> buffer(kInteractiveSlice * kSlicesPerBuffer);
  std::vector<std::uint64_t> slice_end(kSlicesPerBuffer);
  DrainOutcome out;
  std::uint64_t elapsed = 0;
  bool done = false;
  while (!done) {
    std::size_t n = 0;
    for (std::size_t s = 0; s < kSlicesPerBuffer && !done; ++s) {
      const std::size_t end = n + kInteractiveSlice;
      const std::uint64_t t0 = NowNs();
      while (n < end) {
        if (!pull(&buffer[n])) {
          done = true;
          break;
        }
        ++n;
      }
      const std::uint64_t dt = NowNs() - t0;
      elapsed += dt;
      slice_end[s] = elapsed;
      if (!done) out.slice_ns.push_back(static_cast<double>(dt));
    }
    for (std::size_t k = 0; k < n; ++k) {
      const bool reached = scorer.target_index() != 0;
      scorer.Add(buffer[k]);
      if (!reached && scorer.target_index() != 0) {
        out.target_ns = static_cast<double>(slice_end[k / kInteractiveSlice]);
      }
    }
  }
  out.emit_ns = static_cast<double>(elapsed);
  return out;
}

/// Adds the answer and emission metrics of one drain. time_to_recall90_s
/// is composed at the end of the run from the medians of its two parts:
/// setup_s and recall90_emit_s (emission time until recall 0.9).
void ReportDrain(Report& report, const DrainOutcome& d,
                 const StreamScorer& scorer) {
  report.Add("recall90_emit_s", "s", d.target_ns * 1e-9);
  report.Add("drain_ns_per_cmp", "ns",
             d.emit_ns / static_cast<double>(scorer.emitted()));
  report.Add("recall_final", "ratio", scorer.recall());
  report.Add("auc_ec10", "ratio", scorer.Auc());
}

/// Sums consecutive groups of `group` slice times (a trailing partial group
/// is dropped): the wait for a slice `group` times as large.
std::vector<double> Coarsen(const std::vector<double>& slice_ns,
                            std::size_t group) {
  std::vector<double> out;
  for (std::size_t k = 0; k + group <= slice_ns.size(); k += group) {
    double sum = 0.0;
    for (std::size_t x = k; x < k + group; ++x) sum += slice_ns[x];
    out.push_back(sum);
  }
  return out;
}

/// The in-process latency metrics of an offline drain: how long a caller
/// pulling the stream directly waits for its next slice. The median is
/// taken over slices of 64, the tails over slices of 2048 (lat_p99_ms) and
/// 16384 (batch_lat_p99_ms): a PBS refill lands in fewer than 1% of the
/// 64-slices, so their p99 would flip between a pop and a refill with the
/// seed, while nearly a third of the 2048-slices hold one.
void ReportSliceLatency(Report& report, const DrainOutcome& d) {
  report.Add("lat_p50_ms", "ms",
             perfbench::NearestRank(d.slice_ns, 0.5) * 1e-6);
  report.Add("lat_p99_ms", "ms",
             perfbench::NearestRank(
                 Coarsen(d.slice_ns, kBatchSlice / kInteractiveSlice), 0.99) *
                 1e-6);
  report.Add("batch_lat_p99_ms", "ms",
             perfbench::NearestRank(
                 Coarsen(d.slice_ns, kScoreBuffer / kInteractiveSlice), 0.99) *
                 1e-6);
  double total = 0.0;
  for (double ns : d.slice_ns) total += ns;
  report.Add("max_rate_rps", "req/s",
             static_cast<double>(d.slice_ns.size()) / (total * 1e-9));
}

/// Each drained stream must equal the first one of the run, and its answer
/// metrics must too (they are pure functions of the seed).
struct StreamIdentity {
  std::optional<net::StreamDigest> digest;
  std::size_t matches = 0;
  double auc = 0.0;

  void Check(Checks& checks, const StreamScorer& s, const char* what) {
    if (!digest) {
      digest = s.digest();
      matches = s.matches();
      auc = s.Auc();
      return;
    }
    checks.Expect(s.digest() == *digest,
                  std::string(what) + " digest " + DigestHex(s.digest()) +
                      " != " + DigestHex(*digest));
    checks.Expect(s.matches() == matches && s.Auc() == auc,
                  std::string(what) + " answers differ between iterations");
  }
};

// ---------------------------------------------------------------------------
// The step-by-step pipeline (refill-only stream).
// ---------------------------------------------------------------------------

/// TokenBlocking -> BlockPurging -> BlockFiltering -> emitter ctor, with
/// the options Resolver::Create derives from `options`; one span and one
/// metric per step, all children of one "stepwise.build" span.
std::unique_ptr<BatchSource> BuildStepwise(const ProfileStore& store,
                                           const ResolverOptions& options,
                                           Tracer& tracer, Report& report) {
  const std::size_t threads = options.num_threads;
  const std::uint32_t build = tracer.Begin("stepwise.build");
  const auto timed = [&](std::string_view span, const char* metric,
                         auto&& step) {
    const std::uint32_t id = tracer.Begin(span, build);
    auto result = step();
    tracer.End(id);
    report.Add(metric, "s", tracer.Seconds(id));
    return result;
  };

  BlockCollection blocks =
      timed("blocking.token_blocking", "blocking.token_blocking_s", [&] {
        TokenBlockingOptions tb = options.workflow.token_blocking;
        tb.num_threads = threads;
        return TokenBlocking(store, tb);
      });
  blocks = timed("blocking.purging", "blocking.purging_s", [&] {
    BlockPurgingOptions purging = options.workflow.purging;
    purging.num_threads = threads;
    return BlockPurging(blocks, store.size(), purging);
  });
  const double cardinality_before =
      static_cast<double>(blocks.AggregateCardinality());
  blocks = timed("blocking.filtering", "blocking.filtering_s", [&] {
    BlockFilteringOptions filtering = options.workflow.filtering;
    filtering.num_threads = threads;
    return BlockFiltering(blocks, filtering);
  });
  report.Add("blocking.blocks", "count", static_cast<double>(blocks.size()));
  report.Add("blocking.cardinality", "count",
             static_cast<double>(blocks.AggregateCardinality()));
  report.Add("blocking.filter_keep_ratio", "ratio",
             static_cast<double>(blocks.AggregateCardinality()) /
                 cardinality_before);

  std::unique_ptr<BatchSource> source = timed(
      "progressive.build", "progressive.build_s",
      [&]() -> std::unique_ptr<BatchSource> {
        if (options.method == MethodId::kPps) {
          PpsOptions pps;
          pps.scheme = options.scheme;
          pps.kmax = options.pps_kmax;
          pps.num_threads = threads;
          return std::make_unique<PpsEmitter>(store, std::move(blocks), pps);
        }
        PbsOptions pbs;
        pbs.scheme = options.scheme;
        pbs.num_threads = threads;
        return std::make_unique<PbsEmitter>(store, blocks, pbs);
      });
  tracer.End(build);
  return source;
}

/// The refill-only stream, advanced in lockstep with a resolver serving the
/// same stream. Produce(n) runs ProduceBatch (timed, one span per call)
/// until n comparisons are buffered; Take(n) moves n of them into the
/// stream, outside the clock, and returns the refill time of exactly those
/// positions (each batch's time spread evenly over its comparisons, so a
/// large PBS block is charged to the requests that consume it). Timing a
/// refill and the resolver call that needs it back to back cancels the
/// host's drift out of their difference.
class RefillCursor {
 public:
  RefillCursor(BatchSource& source, StreamScorer& scorer, Tracer& tracer)
      : source_(source), scorer_(scorer), tracer_(tracer) {}

  /// Makes `n` comparisons available (fewer at the end of the stream).
  void Produce(std::uint64_t n) {
    while (pending_.size() - head_ < n && !exhausted_) {
      const std::uint64_t t0 = NowNs();
      const bool more = source_.ProduceBatch(list_);
      const std::uint64_t t1 = NowNs();
      if (!more) {
        exhausted_ = true;
        break;
      }
      tracer_.Add("progressive.refill", t0, t1, parent_);
      const double ns = static_cast<double>(t1 - t0);
      call_ns_.push_back(ns);
      total_ns_ += ns;
      const std::size_t size = list_.remaining();
      while (!list_.Empty()) {
        pending_.push_back({list_.PopFirst(), ns / static_cast<double>(size)});
      }
    }
  }

  /// Appends the next `n` buffered comparisons to the refill-only stream
  /// and returns their refill ns.
  double Take(std::uint64_t n) {
    n = std::min<std::uint64_t>(n, pending_.size() - head_);
    double ns = 0.0;
    for (std::uint64_t k = 0; k < n; ++k) {
      const Pending& p = pending_[head_ + k];
      scorer_.Add(p.comparison);
      stream_.push_back(p.comparison);
      ns += p.refill_ns;
    }
    head_ += n;
    if (head_ == pending_.size()) {
      pending_.clear();
      head_ = 0;
    }
    return ns;
  }

  /// Refill spans recorded from now on are children of span `parent`.
  void set_parent(std::uint32_t parent) { parent_ = parent; }

  /// True once ProduceBatch reported the end and every comparison was taken.
  bool Finished() {
    Produce(1);
    return exhausted_ && pending_.size() == head_;
  }

  double total_ns() const { return total_ns_; }
  const std::vector<double>& call_ns() const { return call_ns_; }
  const std::vector<Comparison>& stream() const { return stream_; }

 private:
  BatchSource& source_;
  StreamScorer& scorer_;
  Tracer& tracer_;
  std::uint32_t parent_ = 0;
  struct Pending {
    Comparison comparison;
    double refill_ns;
  };
  ComparisonList list_;
  std::vector<Pending> pending_;
  std::size_t head_ = 0;
  bool exhausted_ = false;
  double total_ns_ = 0.0;
  std::vector<double> call_ns_;
  std::vector<Comparison> stream_;
};

// ---------------------------------------------------------------------------
// Offline workloads.
// ---------------------------------------------------------------------------

void RunOfflineUntraced(const Args& args, const DatasetBundle& data,
                        Report& report, Checks& checks, std::size_t* runs) {
  const ResolverOptions options = MakeOptions(*args.workload);
  StreamIdentity identity;
  const std::uint64_t start = NowNs();
  const std::uint64_t budget_ns = args.seconds * 1'000'000'000ull;
  const auto in_budget = [&] { return NowNs() - start < budget_ns; };
  // Every iteration creates a resolver (a setup_s sample); it also drains
  // the whole stream while the run is within --seconds, and at least once.
  constexpr std::size_t kMinSetups = 3;
  std::size_t setups = 0;
  std::size_t drains = 0;
  while (setups < kMinSetups || in_budget()) {
    const std::uint64_t t0 = NowNs();
    std::unique_ptr<Resolver> resolver = CreateOrDie(data.store, options);
    report.Add("setup_s", "s", static_cast<double>(NowNs() - t0) * 1e-9);
    ++setups;
    if (drains > 0 && !in_budget()) continue;
    StreamScorer scorer(data.truth, kAucAt, kRecallTarget);
    Resolver* r = resolver.get();
    const DrainOutcome d = TimedDrain(
        [r](Comparison* c) {
          std::optional<Comparison> next = r->Next();
          if (!next) return false;
          *c = *next;
          return true;
        },
        scorer);
    ++drains;
    ++checks.attempted;
    checks.Expect(scorer.target_index() != 0,
                  "stream never reached recall 0.9");
    identity.Check(checks, scorer, "Resolver::Next");
    ReportDrain(report, d, scorer);
    ReportSliceLatency(report, d);
  }
  *runs = drains;
  std::printf("digest %s (Resolver::Next, %zu drains, %zu setups)\n",
              DigestHex(*identity.digest).c_str(), drains, setups);
}

// ---------------------------------------------------------------------------
// Serving.
// ---------------------------------------------------------------------------

struct ServedRequest {
  std::uint64_t scheduled_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t done_ns = 0;
  bool transport_ok = false;
  ResolveResult result;

  bool Succeeded() const {
    return transport_ok && result.outcome == ResolveOutcome::kServed;
  }
};

/// Waits until `due_ns`: sleeps while far away, spins the last stretch
/// (sleep granularity alone would show up as generator lateness).
void WaitUntil(std::uint64_t due_ns) {
  constexpr std::uint64_t kSpinNs = 200'000;
  while (true) {
    const std::uint64_t now = NowNs();
    if (now >= due_ns) return;
    if (due_ns - now > kSpinNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due_ns - now - kSpinNs));
    }
  }
}

/// Open-loop generator on one connection: request k is due at
/// start + k / rate. The protocol is strict request/response, so a request
/// that falls due while the previous one is in flight is sent as soon as
/// that one returns; its latency still counts from when it was due.
/// Returns how many requests were never sent: still unsent one latency
/// limit after the phase ended (the generator was behind its schedule), or
/// left over when the connection failed.
std::uint64_t OpenLoop(net::Client& client, double rate, std::uint64_t slice,
                       std::uint64_t deadline_ms, Priority priority,
                       std::uint64_t start_ns, std::uint64_t duration_ns,
                       std::vector<ServedRequest>& out) {
  const double interval = 1e9 / rate;
  const std::uint64_t end_ns = start_ns + duration_ns;
  const auto unsent_from = [&](std::uint64_t k) {
    return static_cast<std::uint64_t>(std::ceil(
               static_cast<double>(duration_ns) / interval)) - k;
  };
  for (std::uint64_t k = 0;; ++k) {
    const std::uint64_t due =
        start_ns +
        static_cast<std::uint64_t>(static_cast<double>(k) * interval);
    if (due >= end_ns) return 0;
    if (NowNs() >= end_ns + kDeadlineMs * 1'000'000) return unsent_from(k);
    WaitUntil(due);
    ResolveRequest request;
    request.budget = slice;
    request.max_batch = slice;
    request.deadline_ms = deadline_ms;
    request.priority = priority;
    ServedRequest r;
    r.scheduled_ns = due;
    r.sent_ns = NowNs();
    Result<ResolveResult> result = client.Resolve(request);
    r.done_ns = NowNs();
    r.transport_ok = result.ok();
    if (result.ok()) r.result = std::move(result).value();
    const bool transport_ok = r.transport_ok;
    out.push_back(std::move(r));
    if (!transport_ok) return unsent_from(k + 1);
  }
}

/// One open-loop phase: interactive and batch generators, each on its own
/// connection, against a fresh resolver + server.
struct Phase {
  double interactive_rate = 0.0;
  double setup_s = 0.0;
  std::vector<ServedRequest> interactive;
  std::vector<ServedRequest> batch;
  std::size_t queue_depth_max = 0;
  net::ServerStats server_stats;
  serving::ClassStats qos_interactive;
  serving::ClassStats qos_batch;
  bool ran_dry = false;
  bool fell_behind = false;

  bool valid() const { return !ran_dry && !fell_behind; }
  std::uint64_t sent() const { return interactive.size() + batch.size(); }
  /// Served requests; an interactive one must also have met the latency
  /// limit counted from its scheduled send (the deadline only counts from
  /// arrival at the server).
  std::uint64_t succeeded() const {
    std::uint64_t n = 0;
    for (const ServedRequest& r : interactive) {
      n += r.Succeeded() &&
           r.done_ns - r.scheduled_ns <= kDeadlineMs * 1'000'000;
    }
    for (const ServedRequest& r : batch) n += r.Succeeded();
    return n;
  }
  /// Latencies from the scheduled send. A failed request never meets the
  /// limit, so it counts as at least the limit late (a shed request returns
  /// at once and must not look fast).
  std::vector<double> LatenciesMs(bool of_interactive) const {
    std::vector<double> out;
    for (const ServedRequest& r : of_interactive ? interactive : batch) {
      const double ms = static_cast<double>(r.done_ns - r.scheduled_ns) * 1e-6;
      const double limit = static_cast<double>(kDeadlineMs);
      out.push_back(r.Succeeded() ? ms : std::max(ms, limit));
    }
    return out;
  }
  std::vector<double> InteractiveMs() const { return LatenciesMs(true); }
  std::vector<double> BatchMs() const { return LatenciesMs(false); }
  std::vector<double> LatenessMs() const {
    std::vector<double> out;
    for (const auto* v : {&interactive, &batch}) {
      for (const ServedRequest& r : *v) {
        out.push_back(static_cast<double>(r.sent_ns - r.scheduled_ns) * 1e-6);
      }
    }
    return out;
  }
  /// Admitted slices re-sorted by ticket.
  std::vector<const ResolveResult*> ByTicket() const {
    std::vector<const ResolveResult*> out;
    for (const auto* v : {&interactive, &batch}) {
      for (const ServedRequest& r : *v) {
        if (r.transport_ok && r.result.admitted()) out.push_back(&r.result);
      }
    }
    std::sort(out.begin(), out.end(),
              [](const ResolveResult* a, const ResolveResult* b) {
                return a->ticket < b->ticket;
              });
    return out;
  }
};

struct ServerHandle {
  std::unique_ptr<Resolver> resolver;
  std::unique_ptr<net::Server> server;
  double setup_s = 0.0;
};

ServerHandle StartServer(const DatasetBundle& data,
                         const ResolverOptions& options) {
  ServerHandle h;
  const std::uint64_t t0 = NowNs();
  h.resolver = CreateOrDie(data.store, options);
  Result<std::unique_ptr<net::Server>> server =
      net::Server::Start(*h.resolver, net::ServerOptions{});
  if (!server.ok()) Fail("Server::Start: " + server.status().ToString());
  h.server = std::move(server).value();
  h.setup_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return h;
}

net::Client ConnectOrDie(std::uint16_t port) {
  Result<net::Client> client = net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) Fail("Client::Connect: " + client.status().ToString());
  return std::move(client).value();
}

/// With `sample_queue` (traced runs only) a third thread reads the QoS
/// queue depth every millisecond.
Phase RunPhase(const DatasetBundle& data, const ResolverOptions& options,
               double interactive_rate, double duration_s, bool sample_queue) {
  Phase phase;
  phase.interactive_rate = interactive_rate;
  ServerHandle h = StartServer(data, options);
  phase.setup_s = h.setup_s;
  net::Client interactive = ConnectOrDie(h.server->port());
  net::Client batch = ConnectOrDie(h.server->port());
  const std::uint64_t duration_ns =
      static_cast<std::uint64_t>(duration_s * 1e9);
  const std::uint64_t start = NowNs() + 2'000'000;
  std::atomic<bool> sampling{sample_queue};
  std::thread sampler([&] {
    while (sampling.load()) {
      phase.queue_depth_max =
          std::max(phase.queue_depth_max, h.server->qos().queue_depth());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::uint64_t batch_unsent = 0;
  std::thread batch_thread([&] {
    batch_unsent = OpenLoop(batch, kBatchRate, kBatchSlice, 0,
                            Priority::kBatch, start, duration_ns, phase.batch);
  });
  const std::uint64_t unsent =
      OpenLoop(interactive, interactive_rate, kInteractiveSlice, kDeadlineMs,
               Priority::kInteractive, start, duration_ns, phase.interactive);
  batch_thread.join();
  phase.fell_behind = unsent + batch_unsent > 0;
  sampling.store(false);
  sampler.join();
  phase.server_stats = h.server->stats();
  phase.qos_interactive = h.server->qos().stats(Priority::kInteractive);
  phase.qos_batch = h.server->qos().stats(Priority::kBatch);
  interactive.Close();
  batch.Close();
  h.server->Shutdown();

  for (const auto* v : {&phase.interactive, &phase.batch}) {
    for (const ServedRequest& r : *v) {
      if (r.transport_ok && r.result.stream_exhausted) phase.ran_dry = true;
    }
  }
  // A backlog that grows: requests that fell due were never sent, or the
  // last tenth of the interactive requests went out, on average, later
  // than the latency limit. (A single refill stall delays a few requests;
  // it does not move this mean.)
  const std::vector<ServedRequest>& iv = phase.interactive;
  const std::size_t tail = std::max<std::size_t>(1, iv.size() / 10);
  double tail_lateness_ns = 0.0;
  for (std::size_t k = iv.size() - std::min(tail, iv.size()); k < iv.size();
       ++k) {
    tail_lateness_ns += static_cast<double>(iv[k].sent_ns - iv[k].scheduled_ns);
  }
  if (tail_lateness_ns / static_cast<double>(tail) >
      static_cast<double>(kDeadlineMs) * 1e6) {
    phase.fell_behind = true;
  }
  return phase;
}

/// Digest of the first `n` comparisons of a fresh resolver's stream.
net::StreamDigest PrefixDigest(const DatasetBundle& data,
                               const ResolverOptions& options,
                               std::uint64_t n) {
  std::unique_ptr<Resolver> resolver = CreateOrDie(data.store, options);
  net::StreamDigest digest;
  for (std::uint64_t k = 0; k < n; ++k) {
    std::optional<Comparison> c = resolver->Next();
    if (!c) break;
    digest.Fold(*c);
  }
  return digest;
}

/// The admitted slices of a phase, in ticket order, must be a bit-identical
/// prefix of the stream.
void CheckPhasePrefix(const DatasetBundle& data,
                      const ResolverOptions& options, const Phase& phase,
                      Checks& checks) {
  net::StreamDigest served;
  for (const ResolveResult* r : phase.ByTicket()) {
    for (const Comparison& c : r->comparisons) served.Fold(c);
  }
  const net::StreamDigest reference = PrefixDigest(data, options, served.count);
  checks.Expect(served == reference,
                "served slices by ticket " + DigestHex(served) +
                    " != stream prefix " + DigestHex(reference));
}

void PrintPhase(const char* label, const Phase& p) {
  const std::vector<double> lat = p.LatenciesMs(true);
  std::printf(
      "phase %-9s rate=%8.0f req/s setup=%.3f s sent=%llu succeeded=%llu "
      "failed=%llu p50=%.3f ms p99=%.3f ms lateness_p99=%.3f ms%s%s\n",
      label, p.interactive_rate, p.setup_s,
      static_cast<unsigned long long>(p.sent()),
      static_cast<unsigned long long>(p.succeeded()),
      static_cast<unsigned long long>(p.sent() - p.succeeded()),
      perfbench::NearestRank(lat, 0.5), perfbench::NearestRank(lat, 0.99),
      perfbench::NearestRank(p.LatenessMs(), 0.99),
      p.ran_dry ? " INVALID(stream ran dry)" : "",
      p.fell_behind ? " INVALID(generator fell behind)" : "");
}

/// The fixed-rate measurement: several short phases, each on a fresh
/// resolver + server, so that every phase serves the same head of the
/// stream (how deep a phase reaches decides which PBS blocks it must
/// refill). An invalid phase is reported and run again, at most `count`
/// extra times. Every valid phase's slices are checked against the stream.
std::vector<Phase> RunFixedPhases(const DatasetBundle& data,
                                  const ResolverOptions& options,
                                  std::size_t count, bool sample_queue,
                                  Report& report, Checks& checks) {
  std::vector<Phase> phases;
  for (std::size_t tries = 0; phases.size() < count && tries < 2 * count;
       ++tries) {
    Phase p = RunPhase(data, options, kInteractiveRate, kFixedPhaseSeconds,
                       sample_queue);
    report.Add("setup_s", "s", p.setup_s);
    PrintPhase("fixed", p);
    if (!p.valid()) continue;
    checks.attempted += p.sent();
    checks.failed += p.sent() - p.succeeded();
    CheckPhasePrefix(data, options, p, checks);
    phases.push_back(std::move(p));
  }
  checks.Expect(phases.size() == count, "too few valid fixed-rate phases");
  return phases;
}

std::size_t FixedPhaseCount(const Args& args) {
  return std::max<std::size_t>(3, args.seconds / 2);
}

std::vector<double> Pooled(const std::vector<Phase>& phases,
                           std::vector<double> (Phase::*samples)() const) {
  std::vector<double> out;
  for (const Phase& p : phases) {
    const std::vector<double> v = (p.*samples)();
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

double LadderRate(int k) {
  return kLadderBase * std::pow(2.0, static_cast<double>(k) / kLadderSteps);
}

/// A ladder step passes when it ran valid and its interactive p99 is
/// within the deadline.
bool StepPasses(const Phase& p) {
  return p.valid() && perfbench::NearestRank(p.LatenciesMs(true), 0.99) <=
                          static_cast<double>(kDeadlineMs);
}

void RunServeUntraced(const Args& args, const DatasetBundle& data,
                      Report& report, Checks& checks, std::size_t* runs) {
  const ResolverOptions options = MakeOptions(*args.workload);

  // 1. Closed-loop drain of the whole stream over the wire, in batch
  //    slices: the remote counterpart of the offline drain metrics.
  {
    ServerHandle h = StartServer(data, options);
    net::Client client = ConnectOrDie(h.server->port());
    StreamScorer scorer(data.truth, kAucAt, kRecallTarget);
    double elapsed = 0.0;
    double target_ns = 0.0;
    ResolveRequest request;
    request.budget = kBatchSlice;
    request.max_batch = kBatchSlice;
    request.priority = Priority::kBatch;
    while (true) {
      const std::uint64_t t0 = NowNs();
      Result<ResolveResult> r = client.Resolve(request);
      elapsed += static_cast<double>(NowNs() - t0);
      ++checks.attempted;
      if (!r.ok() || r.value().outcome != ResolveOutcome::kServed) {
        ++checks.failed;
        checks.Expect(false, "wire drain request failed");
        break;
      }
      const bool reached = scorer.target_index() != 0;
      for (const Comparison& c : r.value().comparisons) scorer.Add(c);
      if (!reached && scorer.target_index() != 0) target_ns = elapsed;
      if (r.value().stream_exhausted && r.value().comparisons.empty()) break;
    }
    client.Close();
    h.server->Shutdown();
    DrainOutcome d;
    d.emit_ns = elapsed;
    d.target_ns = target_ns;
    report.Add("setup_s", "s", h.setup_s);
    ReportDrain(report, d, scorer);
    const net::StreamDigest reference =
        PrefixDigest(data, options, std::numeric_limits<std::uint64_t>::max());
    checks.Expect(scorer.digest() == reference,
                  "wire drain digest " + DigestHex(scorer.digest()) +
                      " != Resolver::Next digest " + DigestHex(reference));
    checks.Expect(scorer.target_index() != 0,
                  "stream never reached recall 0.9");
    std::printf("digest %s (wire drain, Resolver::Next: %s)\n",
                DigestHex(scorer.digest()).c_str(),
                scorer.digest() == reference ? "same" : "DIFFERENT");
  }

  // 2. The fixed-rate phases: interactive latency and batch latency.
  const std::vector<Phase> fixed =
      RunFixedPhases(data, options, FixedPhaseCount(args), false, report,
                     checks);
  // Interactive percentiles are the median over the phases of each
  // phase's percentile (each phase holds 6000 interactive requests), so a
  // host stall in one phase does not move them; the batch p99 pools the
  // phases to have ten samples beyond it.
  std::vector<double> p50;
  std::vector<double> p99;
  for (const Phase& p : fixed) {
    p50.push_back(perfbench::NearestRank(p.InteractiveMs(), 0.5));
    p99.push_back(perfbench::NearestRank(p.InteractiveMs(), 0.99));
  }
  report.Add("lat_p50_ms", "ms", perfbench::ComputeQuartiles(p50).median);
  report.Add("lat_p99_ms", "ms", perfbench::ComputeQuartiles(p99).median);
  report.Add("batch_lat_p99_ms", "ms",
             perfbench::NearestRank(Pooled(fixed, &Phase::BatchMs), 0.99));

  // 3. The rate ladder. Probe failures are how the ladder finds its top
  //    step; they are reported per step, not as failed operations.
  // A step that misses is tried once more: one host stall must not end the
  // ladder early.
  const auto probe = [&](int k) {
    const double rate = LadderRate(k);
    const double seconds = std::max(0.6, 1200.0 / rate);
    for (int attempt = 0; attempt < 2; ++attempt) {
      Phase p = RunPhase(data, options, rate, seconds, false);
      report.Add("setup_s", "s", p.setup_s);
      char label[32];
      std::snprintf(label, sizeof(label), "ladder%d", k);
      PrintPhase(label, p);
      if (StepPasses(p)) return true;
    }
    return false;
  };
  int pass = -1;  // highest passing ladder index found so far
  int fail = -1;  // lowest failing ladder index above `pass`
  for (int k = 0; k <= kLadderMaxK; k += kLadderSteps) {
    if (probe(k)) {
      pass = k;
    } else {
      fail = k;
      break;
    }
  }
  if (fail < 0) fail = kLadderMaxK + 1;
  while (pass >= 0 && fail - pass > 1 && fail <= kLadderMaxK) {
    const int mid = (pass + fail) / 2;
    if (probe(mid)) {
      pass = mid;
    } else {
      fail = mid;
    }
  }
  checks.Expect(pass >= 0, "even the lowest ladder rate missed the limit");
  report.Add("max_rate_rps", "req/s", pass < 0 ? 0.0 : LadderRate(pass));
  *runs = 1;
}

// ---------------------------------------------------------------------------
// The traced run.
// ---------------------------------------------------------------------------

/// The library's own evaluator over a recorded stream must find the same
/// matches, recall and AUC* as the benchmark's scorer.
void CheckAgainstEvaluator(const DatasetBundle& data,
                           const std::vector<Comparison>& stream,
                           const StreamScorer& scorer, Checks& checks) {
  EvalOptions eval;
  eval.ecstar_max = 2.0 * static_cast<double>(stream.size()) /
                        static_cast<double>(data.truth.num_matches()) +
                    1.0;
  eval.auc_at = {kAucAt};
  const RunResult run = ProgressiveEvaluator(data.truth, eval).Run(
      [&] { return std::make_unique<perfbench::ReplayEmitter>(stream); });
  ++checks.attempted;
  checks.Expect(run.matches_found == scorer.matches(),
                "distinct matches differ from ProgressiveEvaluator");
  checks.Expect(run.final_recall == scorer.recall() &&
                    run.auc_norm.at(0) == scorer.Auc(),
                "recall/AUC* differ from ProgressiveEvaluator");
}

void RunTraced(const Args& args, const DatasetBundle& data, Report& report,
               Checks& checks, Tracer& tracer) {
  const ResolverOptions options = MakeOptions(*args.workload);
  std::unique_ptr<BatchSource> source =
      BuildStepwise(data.store, options, tracer, report);
  const std::uint32_t create = tracer.Begin("engine.create");
  std::unique_ptr<Resolver> resolver = CreateOrDie(data.store, options);
  tracer.End(create);

  // The resolver's stream is consumed by per-request segments (in-process
  // Serve of 64 and of 2048, then uncontended QoS admission of 64) and then
  // by a Resolver::Next drain, each step in lockstep with the refill-only
  // cursor over the same positions. Each layer's own cost is its time
  // minus the refill time of those positions.
  StreamScorer refill_scorer(data.truth, kAucAt, kRecallTarget);
  StreamScorer engine_scorer(data.truth, kAucAt, kRecallTarget);
  RefillCursor cursor(*source, refill_scorer, tracer);
  std::vector<ResolveResult> results;
  std::uint64_t request_id = 0;
  struct SegmentCost {
    double total_ns = 0.0;
    double refill_ns = 0.0;
    std::size_t requests = 0;
    double OwnNsPerRequest() const {
      return (total_ns - refill_ns) / static_cast<double>(requests);
    }
  };
  const auto segment = [&](const char* segment_name, const char* span_name,
                           std::size_t requests, std::uint64_t slice,
                           auto&& call) {
    SegmentCost cost;
    cost.requests = requests;
    const std::uint32_t span = tracer.Begin(segment_name);
    cursor.set_parent(span);
    for (std::size_t k = 0; k < requests; ++k) {
      cursor.Produce(slice);
      ResolveRequest request;
      request.budget = slice;
      request.max_batch = slice;
      const std::uint64_t t0 = NowNs();
      ResolveResult result = call(request);
      const std::uint64_t t1 = NowNs();
      tracer.Add(span_name, t0, t1, span, ++request_id);
      cost.total_ns += static_cast<double>(t1 - t0);
      cost.refill_ns += cursor.Take(result.comparisons.size());
      for (const Comparison& c : result.comparisons) engine_scorer.Add(c);
      results.push_back(std::move(result));
    }
    tracer.End(span);
    return cost;
  };
  const SegmentCost serve64 =
      segment("segment.serve_64", "engine.serve", kSegmentRequests64,
              kInteractiveSlice,
              [&](const ResolveRequest& q) { return resolver->Serve(q); });
  const net::StreamDigest prefix_digest = refill_scorer.digest();
  const SegmentCost serve2048 =
      segment("segment.serve_2048", "engine.serve", kSegmentRequests2048,
              kBatchSlice,
              [&](const ResolveRequest& q) { return resolver->Serve(q); });
  report.Add("engine.serve_us_per_req.64", "us",
             serve64.OwnNsPerRequest() * 1e-3);
  report.Add("engine.serve_us_per_req.2048", "us",
             serve2048.OwnNsPerRequest() * 1e-3);
  double admit_ns = 0.0;
  {
    serving::QosAdmissionController qos(*resolver, serving::QosOptions{});
    admit_ns = segment("segment.qos_64", "serving.resolve",
                       kSegmentRequests64, kInteractiveSlice,
                       [&](const ResolveRequest& q) { return qos.Resolve(q); })
                   .OwnNsPerRequest() -
               serve64.OwnNsPerRequest();
    if (!args.workload->serve) {
      const serving::ClassStats s = qos.stats(Priority::kInteractive);
      report.Add("serving.admitted", "count", static_cast<double>(s.admitted));
      report.Add("serving.sheds", "count", static_cast<double>(s.sheds));
      report.Add("serving.evictions", "count",
                 static_cast<double>(s.evictions));
      report.Add("serving.queue_depth_max", "count", 0.0);
    }
  }
  report.Add("serving.admit_us_per_req", "us", admit_ns * 1e-3);

  {
    const std::uint32_t drain = tracer.Begin("engine.drain");
    cursor.set_parent(drain);
    std::vector<Comparison> buffer(kScoreBuffer);
    double pull_ns = 0.0;
    double refill_ns = 0.0;
    std::uint64_t pulled = 0;
    for (bool done = false; !done;) {
      cursor.Produce(kScoreBuffer);
      std::size_t n = 0;
      const std::uint64_t t0 = NowNs();
      while (n < kScoreBuffer) {
        std::optional<Comparison> c = resolver->Next();
        if (!c) {
          done = true;
          break;
        }
        buffer[n++] = *c;
      }
      pull_ns += static_cast<double>(NowNs() - t0);
      for (std::size_t k = 0; k < n; ++k) engine_scorer.Add(buffer[k]);
      refill_ns += cursor.Take(n);
      pulled += n;
    }
    tracer.End(drain);
    const double pull = pull_ns / static_cast<double>(pulled);
    report.Add("engine.pull_ns_per_cmp", "ns", pull);
    report.Add("engine.overhead_ns_per_cmp", "ns",
               pull - refill_ns / static_cast<double>(pulled));
  }
  resolver.reset();
  ++checks.attempted;
  checks.Expect(cursor.Finished(), "refill-only stream is longer");
  checks.Expect(engine_scorer.digest() == refill_scorer.digest(),
                "Resolver Serve/QoS/Next stream " +
                    DigestHex(engine_scorer.digest()) +
                    " != refill-only stream " +
                    DigestHex(refill_scorer.digest()));
  std::printf("digest %s (refill-only; Resolver Serve+QoS+Next: %s)\n",
              DigestHex(refill_scorer.digest()).c_str(),
              engine_scorer.digest() == refill_scorer.digest() ? "same"
                                                               : "DIFFERENT");

  const double emitted = static_cast<double>(refill_scorer.emitted());
  const std::vector<double>& calls = cursor.call_ns();
  report.Add("progressive.refill_ns_per_cmp", "ns",
             cursor.total_ns() / emitted);
  report.Add("progressive.refills", "count", static_cast<double>(calls.size()));
  report.Add("progressive.cmp_per_refill", "count",
             emitted / static_cast<double>(calls.size()));
  report.Add("progressive.refill_p99_us", "us",
             perfbench::NearestRank(calls, 0.99) * 1e-3);
  {
    std::vector<std::uint64_t> keys;
    keys.reserve(cursor.stream().size());
    for (const Comparison& c : cursor.stream()) {
      keys.push_back(PairKey(c.i, c.j));
    }
    std::sort(keys.begin(), keys.end());
    const double distinct = static_cast<double>(
        std::unique(keys.begin(), keys.end()) - keys.begin());
    report.Add("progressive.distinct_ratio", "ratio", distinct / emitted);
  }
  const double horizon = std::min(
      emitted, kAucAt * static_cast<double>(data.truth.num_matches()));
  report.Add("progressive.matches_per_1k", "per_1k_cmp",
             static_cast<double>(refill_scorer.matches_at_horizon()) /
                 horizon * 1000.0);
  CheckAgainstEvaluator(data, cursor.stream(), refill_scorer, checks);

  // Wire encode/decode of every slice the segments served.
  {
    double encode_ns = 0.0;
    double decode_ns = 0.0;
    double bytes = 0.0;
    double cmps = 0.0;
    const std::uint32_t codec = tracer.Begin("segment.wire_codec");
    for (const ResolveResult& result : results) {
      const std::uint64_t id = result.ticket + 1;
      std::uint64_t t0 = NowNs();
      const std::string frame = net::EncodeResolveResultFrame(result);
      std::uint64_t t1 = NowNs();
      tracer.Add("net.encode", t0, t1, codec, id);
      encode_ns += static_cast<double>(t1 - t0);
      t0 = NowNs();
      Result<ResolveResult> decoded =
          net::DecodeResolveResult(std::string_view(frame).substr(4));
      t1 = NowNs();
      tracer.Add("net.decode", t0, t1, codec, id);
      decode_ns += static_cast<double>(t1 - t0);
      checks.Expect(decoded.ok() && decoded.value().comparisons.size() ==
                                        result.comparisons.size(),
                    "wire round trip of a served slice failed");
      bytes += static_cast<double>(frame.size());
      cmps += static_cast<double>(result.comparisons.size());
    }
    tracer.End(codec);
    report.Add("net.encode_ns_per_cmp", "ns", encode_ns / cmps);
    report.Add("net.decode_ns_per_cmp", "ns", decode_ns / cmps);
    report.Add("net.bytes_per_cmp", "B", bytes / cmps);
  }

  // Closed loop over the wire on a fresh stream: the same positions as the
  // serve64 segment, so its refill time is known from there.
  {
    const std::uint32_t create2 = tracer.Begin("engine.create");
    std::unique_ptr<Resolver> fresh = CreateOrDie(data.store, options);
    tracer.End(create2);
    Result<std::unique_ptr<net::Server>> server =
        net::Server::Start(*fresh, net::ServerOptions{});
    if (!server.ok()) Fail("Server::Start: " + server.status().ToString());
    net::Client client = ConnectOrDie(server.value()->port());
    net::StreamDigest wire_digest;
    double total_ns = 0.0;
    bool transport_ok = true;
    const std::uint32_t net_segment = tracer.Begin("segment.net_64");
    for (std::size_t k = 0; k < kSegmentRequests64 && transport_ok; ++k) {
      ResolveRequest request;
      request.budget = kInteractiveSlice;
      request.max_batch = kInteractiveSlice;
      const std::uint64_t t0 = NowNs();
      Result<ResolveResult> r = client.Resolve(request);
      const std::uint64_t t1 = NowNs();
      tracer.Add("net.round_trip", t0, t1, net_segment, ++request_id);
      total_ns += static_cast<double>(t1 - t0);
      transport_ok = r.ok();
      if (r.ok()) {
        for (const Comparison& c : r.value().comparisons) wire_digest.Fold(c);
      }
    }
    tracer.End(net_segment);
    ++checks.attempted;
    checks.Expect(transport_ok, "closed-loop client request failed");
    checks.Expect(wire_digest == prefix_digest,
                  "wire slices " + DigestHex(wire_digest) +
                      " != refill-only prefix " + DigestHex(prefix_digest));
    const double rtt_ns =
        (total_ns - serve64.refill_ns) /
            static_cast<double>(kSegmentRequests64) -
        serve64.OwnNsPerRequest() - admit_ns;
    report.Add("net.rtt_us_per_req", "us", rtt_ns * 1e-3);
    client.Close();
    const net::ServerStats stats = server.value()->stats();
    server.value()->Shutdown();
    if (!args.workload->serve) {
      report.Add("net.errors", "count",
                 static_cast<double>(stats.read_errors + stats.write_errors +
                                     stats.protocol_errors));
    }
  }
}

/// The traced run's load phases (serve-cora): QoS, server and generator
/// counters under the fixed-rate mix. The offline workloads have no load,
/// so their generator counters read 0.
void RunTracedLoad(const Args& args, const DatasetBundle& data,
                   Report& report, Checks& checks) {
  const ResolverOptions options = MakeOptions(*args.workload);
  if (args.workload->serve) {
    const std::vector<Phase> phases =
        RunFixedPhases(data, options, FixedPhaseCount(args), true, report,
                       checks);
    double admitted = 0, sheds = 0, evictions = 0, depth = 0, errors = 0;
    double sent = 0, succeeded = 0;
    for (const Phase& p : phases) {
      admitted += static_cast<double>(p.qos_interactive.admitted +
                                      p.qos_batch.admitted);
      sheds += static_cast<double>(p.qos_interactive.sheds + p.qos_batch.sheds);
      evictions += static_cast<double>(p.qos_interactive.evictions +
                                       p.qos_batch.evictions);
      depth = std::max(depth, static_cast<double>(p.queue_depth_max));
      errors += static_cast<double>(p.server_stats.read_errors +
                                    p.server_stats.write_errors +
                                    p.server_stats.protocol_errors);
      sent += static_cast<double>(p.sent());
      succeeded += static_cast<double>(p.succeeded());
    }
    report.Add("serving.admitted", "count", admitted);
    report.Add("serving.sheds", "count", sheds);
    report.Add("serving.evictions", "count", evictions);
    report.Add("serving.queue_depth_max", "count", depth);
    report.Add("net.errors", "count", errors);
    report.Add("loadgen.sent", "count", sent);
    report.Add("loadgen.succeeded", "count", succeeded);
    report.Add("loadgen.failed", "count", sent - succeeded);
    report.Add("loadgen.lateness_p99_ms", "ms",
               perfbench::NearestRank(Pooled(phases, &Phase::LatenessMs),
                                      0.99));
  } else {
    for (const char* name :
         {"loadgen.sent", "loadgen.succeeded", "loadgen.failed"}) {
      report.Add(name, "count", 0.0);
    }
    report.Add("loadgen.lateness_p99_ms", "ms", 0.0);
  }
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

// The metric sets BENCHMARK.json names, in its order. max_rate_rps is
// measured and printed but not gated: on serve-cora it is the capacity of
// one request/response connection, which moves with the host's thread
// wake-up latency by more than any bound the benchmark may set.
const std::vector<std::string> kEndToEnd = {
    "setup_s",          "time_to_recall90_s", "drain_ns_per_cmp",
    "recall_final",     "auc_ec10",           "peak_rss_mb",
    "lat_p50_ms",       "lat_p99_ms",         "batch_lat_p99_ms"};
const std::vector<std::string> kPerLayer = {
    "blocking.token_blocking_s",     "blocking.purging_s",
    "blocking.filtering_s",          "blocking.blocks",
    "blocking.cardinality",          "blocking.filter_keep_ratio",
    "progressive.build_s",           "progressive.refill_ns_per_cmp",
    "progressive.refills",           "progressive.cmp_per_refill",
    "progressive.refill_p99_us",     "progressive.distinct_ratio",
    "progressive.matches_per_1k",    "engine.pull_ns_per_cmp",
    "engine.overhead_ns_per_cmp",    "engine.serve_us_per_req.64",
    "engine.serve_us_per_req.2048",  "serving.admit_us_per_req",
    "serving.admitted",              "serving.sheds",
    "serving.evictions",             "serving.queue_depth_max",
    "net.encode_ns_per_cmp",         "net.decode_ns_per_cmp",
    "net.bytes_per_cmp",             "net.rtt_us_per_req",
    "net.errors",                    "loadgen.sent",
    "loadgen.succeeded",             "loadgen.failed",
    "loadgen.lateness_p99_ms",       "trace.spans",
    "trace.wall_s"};

std::string JsonEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void PrintResults(const Args& args, const Report& report, const Checks& checks,
                  std::size_t runs) {
  const std::vector<std::string>& wanted = args.trace ? kPerLayer : kEndToEnd;
  std::printf("\n%-32s %14s %-7s %14s %14s %4s\n", "metric", "median", "unit",
              "q1", "q3", "n");
  for (const std::string& name : report.order()) {
    const Metric& m = report.at(name);
    const perfbench::Quartiles q = perfbench::ComputeQuartiles(m.samples);
    std::printf("%-32s %14.6g %-7s %14.6g %14.6g %4zu\n", name.c_str(),
                q.median, m.unit.c_str(), q.q1, q.q3, q.n);
  }
  const double fail_frac =
      checks.attempted == 0
          ? 0.0
          : static_cast<double>(checks.failed) /
                static_cast<double>(checks.attempted);
  std::printf("%-32s %14.6g %-7s (failed %llu of %llu attempted)\n",
              "fail_frac", fail_frac, "ratio",
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.attempted));
  std::printf("checks: %s\n\n", checks.ok ? "all passed" : "FAILED");

  // The self-describing record.
  std::string record = "{\"record\":{";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\"workload\":\"%s\",\"dataset\":\"%s\",\"scale\":%g,"
                "\"seed\":%llu,\"seconds\":%llu,\"trace\":%d,\"runs\":%zu,"
                "\"nproc\":%zu,\"compiler\":\"%s\",\"build_type\":\"%s\","
                "\"git_sha\":\"%s\",\"src_digest\":\"%s\",\"metrics\":{",
                std::string(args.workload->name).c_str(),
                std::string(args.workload->dataset).c_str(),
                args.workload->scale,
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(args.seconds),
                args.trace ? 1 : 0, runs, Nproc(),
                JsonEscape("gcc-compatible " __VERSION__).c_str(),
                PERFBENCH_BUILD_TYPE, JsonEscape(args.git_sha).c_str(),
                JsonEscape(args.src_digest).c_str());
  record += buf;
  bool first = true;
  for (const std::string& name : report.order()) {
    const Metric& m = report.at(name);
    const perfbench::Quartiles q = perfbench::ComputeQuartiles(m.samples);
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"unit\":\"%s\",\"median\":%.10g,\"q1\":%.10g,"
                  "\"q3\":%.10g,\"n\":%zu,\"samples\":[",
                  first ? "" : ",", name.c_str(), m.unit.c_str(), q.median,
                  q.q1, q.q3, q.n);
    record += buf;
    for (std::size_t k = 0; k < m.samples.size(); ++k) {
      std::snprintf(buf, sizeof(buf), "%s%.10g", k == 0 ? "" : ",",
                    m.samples[k]);
      record += buf;
    }
    record += "]}";
    first = false;
  }
  std::snprintf(buf, sizeof(buf), "},\"fail_frac\":%.10g}}", fail_frac);
  record += buf;
  std::printf("%s\n", record.c_str());

  bool complete = true;
  std::string line = "{\"correct\":";
  line += checks.ok ? "true" : "false";
  std::snprintf(buf, sizeof(buf), ",\"attempted\":%llu,\"failed\":%llu,",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed));
  line += buf;
  line += "\"metrics\":{";
  first = true;
  for (const std::string& name : wanted) {
    if (!report.Has(name)) {
      std::fprintf(stderr, "sperbench: metric %s was not measured\n",
                   name.c_str());
      complete = false;
      continue;
    }
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"value\":%.10g,\"unit\":\"%s\"}",
                  first ? "" : ",", name.c_str(), report.Median(name),
                  report.at(name).unit.c_str());
    line += buf;
    first = false;
  }
  line += "}}";
  if (!complete) Fail("incomplete metric set");
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  DatagenOptions gen;
  gen.seed = args.seed;
  gen.scale = args.workload->scale;
  Result<DatasetBundle> generated =
      GenerateDataset(args.workload->dataset, gen);
  if (!generated.ok()) {
    Fail("GenerateDataset: " + generated.status().ToString());
  }
  const DatasetBundle data = std::move(generated).value();
  if (data.truth.num_matches() == 0) Fail("dataset has no ground truth");
  std::printf("workload %s: %s x%g seed %llu, %zu profiles, %zu matches, "
              "%zu init threads\n",
              std::string(args.workload->name).c_str(),
              std::string(args.workload->dataset).c_str(), args.workload->scale,
              static_cast<unsigned long long>(args.seed), data.store.size(),
              data.truth.num_matches(),
              MakeOptions(*args.workload).num_threads);

  Report report;
  Checks checks;
  std::size_t runs = 1;
  const std::uint64_t t0 = NowNs();
  if (args.trace) {
    Tracer tracer;
    RunTraced(args, data, report, checks, tracer);
    RunTracedLoad(args, data, report, checks);
    report.Add("trace.spans", "count",
               static_cast<double>(tracer.spans().size()));
    report.Add("trace.wall_s", "s", static_cast<double>(NowNs() - t0) * 1e-9);
    std::string path = args.trace_file;
    if (path.empty()) {
      path = ".bench_build/trace-" + std::string(args.workload->name) +
             "-seed" + std::to_string(args.seed) + ".json";
    }
    if (!tracer.Write(path)) Fail("cannot write trace file " + path);
    std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                path.c_str());
  } else if (args.workload->serve) {
    RunServeUntraced(args, data, report, checks, &runs);
  } else {
    RunOfflineUntraced(args, data, report, checks, &runs);
  }
  if (!args.trace) {
    report.Add("time_to_recall90_s", "s",
               report.Median("setup_s") + report.Median("recall90_emit_s"));
    report.Add("peak_rss_mb", "MB", PeakRssMb());
  }
  std::printf("measured wall time %.3f s\n",
              static_cast<double>(NowNs() - t0) * 1e-9);

  PrintResults(args, report, checks, runs);
  return checks.ok ? 0 : 1;
}
