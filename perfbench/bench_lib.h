#ifndef SPER_PERFBENCH_BENCH_LIB_H_
#define SPER_PERFBENCH_BENCH_LIB_H_

// The benchmark's own metric code: strict flag-value parsing, percentile
// and quartile definitions, the stream scorer (digest, recall, AUC*,
// time-to-recall), a replay emitter and the in-memory span recorder. Kept apart from the
// workloads so perfbench_selftest can check it against the library's
// ProgressiveEvaluator and hand-computed samples.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/comparison.h"
#include "core/ground_truth.h"
#include "net/wire.h"
#include "progressive/emitter.h"

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Strict parsing: the whole token must be a number, or the flag is rejected.
// ---------------------------------------------------------------------------

/// Decimal digits only (no sign, no whitespace, no suffix), no overflow.
inline bool ParseU64(std::string_view token, std::uint64_t* out) {
  if (token.empty() || token.size() > 20) return false;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
  }
  const std::string copy(token);
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(copy.c_str(), &end, 10);
  if (errno != 0 || end != copy.c_str() + copy.size()) return false;
  *out = value;
  return true;
}

// ---------------------------------------------------------------------------
// Order statistics.
// ---------------------------------------------------------------------------

/// Nearest-rank percentile: the smallest sample such that at least q of
/// the samples are <= it, i.e. sorted[ceil(q * n) - 1]. q in (0, 1].
inline double NearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

/// Median and quartiles of a run's repeated samples, computed as Python's
/// statistics.quantiles(data, n=4) (the "exclusive" method) computes them,
/// so the record and the acceptance check agree on what a quartile is.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

inline Quartiles ComputeQuartiles(std::vector<double> samples) {
  Quartiles out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) {
    out.q1 = out.median = out.q3 = samples[0];
    return out;
  }
  const auto at = [&](int i) {
    // statistics.quantiles, method='exclusive': m = n + 1,
    // j = i * m // 4, delta = i * m - j * 4, clamped into [1, n - 1].
    const long long n = static_cast<long long>(samples.size());
    const long long m = n + 1;
    long long j = i * m / 4;
    const long long delta = i * m - j * 4;
    if (j < 1) return samples[0];
    if (j > n - 1) return samples[n - 1];
    return (samples[j - 1] * static_cast<double>(4 - delta) +
            samples[j] * static_cast<double>(delta)) /
           4.0;
  };
  out.q1 = at(1);
  out.median = at(2);
  out.q3 = at(3);
  return out;
}

// ---------------------------------------------------------------------------
// Stream scoring.
// ---------------------------------------------------------------------------

/// Folds an emitted comparison stream, in emission order, into everything
/// the benchmark checks and reports about its answers: the FNV-1a digest
/// (the same fold as net::StreamDigest), distinct matches, final recall,
/// normalized AUC* at ec* = auc_at (with ProgressiveEvaluator's arithmetic,
/// in the same order, so the values agree to the bit), and the emission
/// index at which recall first reaches `recall_target`.
class StreamScorer {
 public:
  StreamScorer(const sper::GroundTruth& truth, double auc_at,
               double recall_target)
      : truth_(truth),
        num_matches_(static_cast<double>(truth.num_matches())),
        auc_horizon_(auc_at * num_matches_),
        recall_target_(recall_target) {
    found_.reserve(truth.num_matches());
  }

  void Add(const sper::Comparison& c) {
    digest_.Fold(c);
    ++emitted_;
    if (truth_.AreMatching(c.i, c.j)) {
      found_.insert(sper::PairKey(c.i, c.j));
    }
    if (target_index_ == 0 &&
        static_cast<double>(found_.size()) >= recall_target_ * num_matches_) {
      target_index_ = emitted_;
    }
    if (!auc_done_) {
      const double recall = static_cast<double>(found_.size()) / num_matches_;
      auc_sum_ += recall;
      ideal_sum_ +=
          std::min(static_cast<double>(emitted_), num_matches_) / num_matches_;
      if (static_cast<double>(emitted_) >= auc_horizon_) {
        auc_done_ = true;
        matches_at_horizon_ = found_.size();
      }
    }
  }

  const sper::net::StreamDigest& digest() const { return digest_; }
  std::uint64_t emitted() const { return emitted_; }
  std::size_t matches() const { return found_.size(); }
  double recall() const {
    return static_cast<double>(found_.size()) / num_matches_;
  }
  /// 1-based emission index at which recall reached the target; 0 = never.
  std::uint64_t target_index() const { return target_index_; }
  /// Distinct matches within the first ec* = auc_at emissions.
  std::size_t matches_at_horizon() const {
    return auc_done_ ? matches_at_horizon_ : found_.size();
  }

  /// AUC*@auc_at. A stream shorter than the horizon is extended with its
  /// final recall, as ProgressiveEvaluator does.
  double Auc() const {
    if (auc_done_) return ideal_sum_ > 0 ? auc_sum_ / ideal_sum_ : 0.0;
    const double recall = this->recall();
    double auc = auc_sum_;
    double ideal = ideal_sum_;
    for (double k = static_cast<double>(emitted_) + 1; k <= auc_horizon_;
         k += 1.0) {
      auc += recall;
      ideal += std::min(k, num_matches_) / num_matches_;
    }
    return ideal > 0 ? auc / ideal : 0.0;
  }

 private:
  const sper::GroundTruth& truth_;
  const double num_matches_;
  const double auc_horizon_;
  const double recall_target_;
  sper::net::StreamDigest digest_;
  std::uint64_t emitted_ = 0;
  std::unordered_set<std::uint64_t> found_;
  std::uint64_t target_index_ = 0;
  double auc_sum_ = 0.0;
  double ideal_sum_ = 0.0;
  bool auc_done_ = false;
  std::size_t matches_at_horizon_ = 0;
};

/// Replays a recorded stream through the ProgressiveEmitter interface, so
/// ProgressiveEvaluator can score exactly the stream the benchmark scored.
class ReplayEmitter : public sper::ProgressiveEmitter {
 public:
  explicit ReplayEmitter(const std::vector<sper::Comparison>& stream)
      : stream_(stream) {}
  std::optional<sper::Comparison> Next() override {
    if (next_ == stream_.size()) return std::nullopt;
    return stream_[next_++];
  }
  std::string_view name() const override { return "replay"; }

 private:
  const std::vector<sper::Comparison>& stream_;
  std::size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

/// One recorded span. `parent` is the id of the enclosing span (0 = root);
/// `request` groups the spans of one served request (0 = none).
struct Span {
  std::string_view name;  // always a string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint64_t request = 0;
};

/// Spans kept in memory and written once, at the end, as a Chrome
/// trace-event file (see perfbench/README.md for how to read it).
class Tracer {
 public:
  /// Opens a span and returns its id; close it with End(id).
  std::uint32_t Begin(std::string_view name, std::uint32_t parent = 0) {
    const std::uint64_t now = NowNs();
    Add(name, now, now, parent);
    return static_cast<std::uint32_t>(spans_.size());
  }
  void End(std::uint32_t id) { spans_[id - 1].end_ns = NowNs(); }

  /// Records an already-timed span.
  void Add(std::string_view name, std::uint64_t start_ns, std::uint64_t end_ns,
           std::uint32_t parent = 0, std::uint64_t request = 0) {
    spans_.push_back({name, start_ns, end_ns,
                      static_cast<std::uint32_t>(spans_.size() + 1), parent,
                      request});
  }

  const std::vector<Span>& spans() const { return spans_; }
  double Seconds(std::uint32_t id) const {
    const Span& s = spans_[id - 1];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  /// Writes every span as a complete ("ph":"X") trace event. Timestamps
  /// are microseconds since the first span; span id, parent and request
  /// travel in "args".
  bool Write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    const std::uint64_t origin = spans_.empty() ? 0 : spans_[0].start_ns;
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    char buf[320];
    for (std::size_t k = 0; k < spans_.size(); ++k) {
      const Span& s = spans_[k];
      std::snprintf(
          buf, sizeof(buf),
          "%s\n{\"name\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
          "\"request\":%llu}}",
          k == 0 ? "" : ",", static_cast<int>(s.name.size()), s.name.data(),
          static_cast<unsigned long long>(s.request == 0 ? 1 : 2),
          static_cast<double>(s.start_ns - origin) * 1e-3,
          static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id, s.parent,
          static_cast<unsigned long long>(s.request));
      out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // SPER_PERFBENCH_BENCH_LIB_H_
