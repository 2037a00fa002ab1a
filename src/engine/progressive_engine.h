#ifndef SPER_ENGINE_PROGRESSIVE_ENGINE_H_
#define SPER_ENGINE_PROGRESSIVE_ENGINE_H_

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/comparison.h"
#include "core/profile_store.h"
#include "core/status.h"
#include "parallel/cancel.h"
#include "progressive/comparison_list.h"
#include "progressive/emitter.h"

/// \file progressive_engine.h
/// The one engine behind the serving API: profiles in, ranked comparisons
/// out. The engine wires the Token Blocking Workflow, meta-blocking edge
/// weighting and the chosen progressive method behind a single
/// constructor, runs every initialization hot path on `num_threads`
/// threads (identical output at every thread count), and enforces an
/// optional pay-as-you-go comparison budget on emission. Emission is a
/// serial pull-based stream: Pull() computes refills inline.
///
/// On top of the stream the engine carries the robustness contract the
/// `Resolver` builds on: cancellable pulls (Pull), sticky failure
/// containment (status), and graceful teardown (Drain).

namespace sper {

struct ResolverOptions;

/// One timed step of the engine's initialization. Phase names are the
/// telemetry phase names ("token_blocking", "block_purging",
/// "block_filtering", "method_build").
struct InitPhase {
  std::string name;
  double seconds = 0.0;
};

/// Aggregate facts about the engine's initialization phase (diagnostics /
/// benches).
struct InitStats {
  /// Wall-clock seconds spent in the engine's constructor; the per-phase
  /// breakdown is in `phases`.
  double init_seconds = 0.0;
  /// |B| of the workflow collection (0 for the sort-based methods).
  std::size_t num_blocks = 0;
  /// ||B|| of the workflow collection (0 for the sort-based methods).
  std::uint64_t aggregate_cardinality = 0;
  /// Per-phase breakdown of init_seconds, in execution order.
  std::vector<InitPhase> phases;
};

/// Outcome of one ProgressiveEngine::Pull.
enum class PullStatus {
  kOk,         // `out` holds the next comparison of the stream
  kExhausted,  // stream over (source drained, budget spent, or engine
               // drained) — terminal for this request AND the stream
  kCancelled,  // the token fired first; the stream is fully intact and the
               // next Pull (any token) continues bit-identically
  kError,      // the engine is poisoned — see status(); terminal, sticky
};

/// Facade emitter: owns the inner method emitter and its inputs. Being a
/// ProgressiveEmitter itself, it composes with every existing consumer
/// (evaluator, benches, dedup loops).
///
/// Not thread-safe: one consumer drains Next()/Pull() at a time
/// (`Resolver::Serve` serializes concurrent requests on top of this), and
/// Drain() must likewise be externally serialized against pulls.
///
/// Direct construction is internal: public callers use `Resolver::Create`
/// (engine/resolver.h), which validates the options first.
class ProgressiveEngine : public ProgressiveEmitter {
 public:
  /// Initialization phase: builds blocking structures (in parallel when
  /// options.num_threads > 1) and the method emitter. The store must
  /// outlive the engine. kPsn requires options.schema_key.
  ProgressiveEngine(const ProfileStore& store, const ResolverOptions& options);

  /// Emission phase: the next best comparison, honoring the budget.
  std::optional<Comparison> Next() override {
    Comparison out;
    return Pull(out, CancelToken()) == PullStatus::kOk
               ? std::optional<Comparison>(out)
               : std::nullopt;
  }

  /// The inner method's acronym, e.g. "PPS".
  std::string_view name() const override { return inner_->name(); }

  /// The cancellable pull: like Next(), but gives up (kCancelled) when
  /// `token` fires at a refill boundary, and reports producer failures as
  /// kError instead of throwing. A null token never fires, making this a
  /// strict superset of Next().
  PullStatus Pull(Comparison& out, const CancelToken& token);

  /// Comparisons emitted so far.
  std::uint64_t emitted() const { return emitted_; }

  /// True once the configured pay-as-you-go budget has been spent (never
  /// for budget 0, which means unlimited).
  bool BudgetExhausted() const {
    return budget_ != 0 && emitted_ >= budget_;
  }

  /// Initialization diagnostics.
  const InitStats& init_stats() const { return stats_; }

  /// Why the engine is poisoned; ok() while healthy. Sticky: once a
  /// refill failure is contained here, every later Pull returns kError
  /// with this same status.
  const Status& status() const { return status_; }

  /// Stops the stream for good: every later Pull returns kExhausted.
  /// Idempotent; must not race Pull (see class comment).
  void Drain() { drained_ = true; }

 private:
  /// The inner method's next comparison, ignoring the budget. For the
  /// batch methods the engine drives ProduceBatch itself (same sequence
  /// per the BatchSource contract) so the token check, fault seam, and
  /// failure containment sit at the true refill boundary; sort-based
  /// methods pull Next().
  PullStatus PullUnbudgeted(Comparison& out, const CancelToken& token);

  /// Contains a refill failure: sticky status with the batch cursor.
  PullStatus Poison(std::exception_ptr error);

  std::unique_ptr<ProgressiveEmitter> inner_;
  /// inner_ viewed through its refill-batch capability; nullptr for the
  /// sort-based methods.
  BatchSource* batch_source_ = nullptr;
  InitStats stats_;
  /// Maximum emissions before the stream reads as exhausted; 0 =
  /// unlimited.
  std::uint64_t budget_ = 0;
  std::uint64_t emitted_ = 0;
  /// Sticky poison; set (once) on a refill failure.
  Status status_ = Status::Ok();
  bool drained_ = false;
  /// The current refill batch (batch methods); persists across cancelled
  /// pulls so the stream continues losslessly.
  ComparisonList batch_;
  /// Refill batches produced so far (error context).
  std::size_t batch_index_ = 0;
};

}  // namespace sper

#endif  // SPER_ENGINE_PROGRESSIVE_ENGINE_H_
