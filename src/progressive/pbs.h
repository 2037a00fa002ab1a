#ifndef SPER_PROGRESSIVE_PBS_H_
#define SPER_PROGRESSIVE_PBS_H_

#include "blocking/block_collection.h"
#include "blocking/profile_index.h"
#include "core/profile_store.h"
#include "metablocking/edge_weighting.h"
#include "obs/telemetry.h"
#include "progressive/comparison_list.h"
#include "progressive/emitter.h"

/// \file pbs.h
/// Progressive Block Scheduling (PBS, paper Sec. 5.2.1, Algorithms 3-4).
///
/// Equality-based: works on the redundancy-positive blocks of any
/// schema-agnostic blocking workflow. Blocks are scheduled by increasing
/// cardinality (weight 1/||b||: small blocks carry distinctive keys);
/// inside every block, repeated comparisons are discarded with the Least
/// Common Block Index (LeCoBI) test and the survivors are ordered by their
/// blocking-graph edge weight.

namespace sper {

/// Options of PBS.
struct PbsOptions {
  /// Blocking-graph scheme used to order comparisons inside a block.
  WeightingScheme scheme = WeightingScheme::kArcs;
  /// Threads for the initialization phase (the kEjs degree pass; the rest
  /// of PBS initialization is already lazy). Emission stays sequential.
  std::size_t num_threads = 1;
  /// Telemetry sink for the initialization phase timers
  /// ("block_scheduling", "edge_weighting").
  obs::TelemetryScope telemetry;
};

/// The PBS emitter.
class PbsEmitter : public ProgressiveEmitter, public BatchSource {
 public:
  /// Initialization phase (Algorithm 3): schedules `blocks` by increasing
  /// cardinality, builds the Profile Index over the scheduled collection
  /// and processes the first block. `blocks` should come from a
  /// redundancy-positive workflow, e.g. BuildTokenWorkflowBlocks().
  PbsEmitter(const ProfileStore& store, const BlockCollection& blocks,
             const PbsOptions& options = {});

  /// Emission phase (Algorithm 4): pops the next best comparison of the
  /// current block; when the block's list empties, processes the next
  /// scheduled block. nullopt once every block has been processed.
  std::optional<Comparison> Next() override;

  /// Refill boundary for the engine: one batch per scheduled
  /// block, in schedule order (blocks whose comparisons were all
  /// LeCoBI-filtered are skipped). See BatchSource for the single-caller
  /// contract.
  bool ProduceBatch(ComparisonList& out) override;

  std::string_view name() const override { return "PBS"; }

  /// The scheduled block collection (diagnostics / tests).
  const BlockCollection& scheduled_blocks() const { return scheduled_; }

 private:
  /// Algorithm 3 lines 4-12 for block `id`: LeCoBI-filter and weight its
  /// comparisons into `out`.
  void ProcessBlock(BlockId id, ComparisonList& out);

  const ProfileStore& store_;
  BlockCollection scheduled_;
  ProfileIndex index_;
  EdgeWeighter weighter_;
  BlockId next_block_ = 0;
  ComparisonList comparisons_;
};

}  // namespace sper

#endif  // SPER_PROGRESSIVE_PBS_H_
