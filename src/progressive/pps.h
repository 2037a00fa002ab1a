#ifndef SPER_PROGRESSIVE_PPS_H_
#define SPER_PROGRESSIVE_PPS_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "blocking/block_collection.h"
#include "blocking/profile_index.h"
#include "core/profile_store.h"
#include "metablocking/edge_weighting.h"
#include "obs/telemetry.h"
#include "progressive/comparison_list.h"
#include "progressive/emitter.h"
#include "progressive/top_k.h"

/// \file pps.h
/// Progressive Profile Scheduling (PPS, paper Sec. 5.2.2, Algorithms 5-6).
///
/// Entity-centric: every profile gets a *duplication likelihood* — the
/// average weight of its incident blocking-graph edges — and profiles are
/// resolved in decreasing order of it (the Sorted Profile List). The
/// initialization phase additionally collects the single best comparison
/// of every node, so the globally best edges are emitted first; during
/// emission each profile contributes its Kmax best comparisons, skipping
/// neighbors that were already processed (checkedEntities).

namespace sper {

/// Options of PPS.
struct PpsOptions {
  /// Blocking-graph edge-weighting scheme.
  WeightingScheme scheme = WeightingScheme::kArcs;
  /// Top-weighted comparisons kept per profile during emission. Must
  /// exceed the largest plausible equivalence-cluster size, or recall is
  /// capped (a cluster of k duplicates needs up to k-1 emissions from one
  /// profile). Use SIZE_MAX to retain whole neighborhoods (then every
  /// graph edge is eventually emitted — the Same Eventual Quality
  /// configuration).
  std::size_t kmax = 100;
  /// Threads for the initialization phase (per-profile duplication
  /// likelihoods + top comparisons). Emission stays sequential. The
  /// emitted sequence is identical at every thread count.
  std::size_t num_threads = 1;
  /// Telemetry sink for the initialization phase timers
  /// ("edge_weighting", "profile_scheduling").
  obs::TelemetryScope telemetry;
};

/// The PPS emitter.
class PpsEmitter : public ProgressiveEmitter, public BatchSource {
 public:
  /// Initialization phase (Algorithm 5): builds the Profile Index over
  /// `blocks`, computes per-profile duplication likelihoods, the Sorted
  /// Profile List and the top-weighted comparison of every node. Takes the
  /// collection by value (move it in to avoid the copy).
  PpsEmitter(const ProfileStore& store, BlockCollection blocks,
             const PpsOptions& options = {});

  /// Emission phase (Algorithm 6): pops from the Comparison List; when it
  /// empties, processes the next profile of the Sorted Profile List,
  /// gathering its Kmax best comparisons among not-yet-checked neighbors.
  std::optional<Comparison> Next() override;

  /// Refill boundary for the engine: the initial top-comparison
  /// list first, then one batch per Sorted Profile List entry (empty
  /// refills skipped). See BatchSource for the single-caller contract.
  bool ProduceBatch(ComparisonList& out) override;

  std::string_view name() const override { return "PPS"; }

  /// The Sorted Profile List as (profile, duplication likelihood) pairs in
  /// processing order (diagnostics / tests).
  const std::vector<std::pair<ProfileId, double>>& sorted_profiles() const {
    return sorted_profiles_;
  }

 private:
  /// Gathers the Kmax top-weighted comparisons of profile `i` among
  /// unchecked neighbors into `out`.
  void ProcessProfile(ProfileId i, ComparisonList& out);

  const ProfileStore& store_;
  BlockCollection blocks_;
  ProfileIndex index_;
  EdgeWeighter weighter_;
  PpsOptions options_;

  std::vector<std::pair<ProfileId, double>> sorted_profiles_;
  std::size_t cursor_ = 0;  // next Sorted Profile List entry
  std::vector<bool> checked_;  // checkedEntities of Algorithm 6
  ComparisonList initial_;  // batch 0: every node's top comparison
  bool initial_pending_ = true;
  ComparisonList comparisons_;  // serial-path buffer (Next())

  // Sparse neighborhood accumulator (weights[] of Algorithms 5-6) and the
  // reusable SortedStack replacement — refill scratch, allocation-free
  // once warm.
  std::vector<double> weights_;
  std::vector<ProfileId> touched_;
  TopKBuffer topk_;
};

}  // namespace sper

#endif  // SPER_PROGRESSIVE_PPS_H_
