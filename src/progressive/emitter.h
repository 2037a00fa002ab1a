#ifndef SPER_PROGRESSIVE_EMITTER_H_
#define SPER_PROGRESSIVE_EMITTER_H_

#include <optional>
#include <string_view>

#include "core/comparison.h"
#include "progressive/comparison_list.h"

/// \file emitter.h
/// The streaming interface every progressive method implements.
///
/// The paper splits a progressive method into an *initialization phase*
/// (build data structures, produce the overall best comparison) and an
/// *emission phase* (return the next best comparison on demand). Here the
/// constructor is the initialization phase and Next() the emission phase —
/// the RocksDB-iterator idiom for the paper's pay-as-you-go contract: the
/// caller can stop after any number of Next() calls.

namespace sper {

/// Pull-based stream of comparisons in non-increasing estimated matching
/// likelihood (within each internal refill batch).
///
/// Lifetime: emitters keep a reference to the ProfileStore they were
/// constructed with (like a RocksDB Iterator references its DB). The
/// store must outlive the emitter; do not pass a temporary.
class ProgressiveEmitter {
 public:
  virtual ~ProgressiveEmitter() = default;

  /// Emission phase: the next best comparison, or std::nullopt once the
  /// method is exhausted. Naïve methods (SA-PSN, SA-PSAB) may emit the
  /// same pair more than once, exactly as in the paper; callers that need
  /// distinct pairs deduplicate via PairKey.
  virtual std::optional<Comparison> Next() = 0;

  /// Short method acronym, e.g. "PPS".
  virtual std::string_view name() const = 0;
};

/// Optional capability of the Comparison-List methods (PBS, PPS): exposes
/// the deterministic refill boundary, so the engine (engine/
/// progressive_engine.h) can check cancellation and contain failures
/// between refills instead of inside Next().
///
/// Contract: batches must be requested strictly in order by one caller at
/// a time — a refill mutates method state the following refills depend on
/// (PPS's checkedEntities, PBS's block cursor). Interleaving ProduceBatch
/// with Next() on the same emitter is undefined: both advance the same
/// refill cursor.
class BatchSource {
 public:
  virtual ~BatchSource() = default;

  /// Fills `out` (previous content discarded) with the next *non-empty*
  /// refill batch in non-increasing likelihood order. Returns false once
  /// the method is exhausted. Consuming every batch front to back yields
  /// exactly the serial Next() sequence.
  virtual bool ProduceBatch(ComparisonList& out) = 0;
};

}  // namespace sper

#endif  // SPER_PROGRESSIVE_EMITTER_H_
