#ifndef SPER_PROGRESSIVE_COMPARISON_LIST_H_
#define SPER_PROGRESSIVE_COMPARISON_LIST_H_

#include <algorithm>
#include <span>
#include <vector>

#include "core/comparison.h"

/// \file comparison_list.h
/// The Comparison List shared by all advanced methods (paper Sec. 5): a
/// batch of comparisons sorted in non-increasing matching likelihood,
/// consumed front to back and refilled when empty.

namespace sper {

/// Sorted comparison buffer with O(1) pop.
class ComparisonList {
 public:
  /// Appends a comparison to the unsorted tail.
  void Add(const Comparison& c) { items_.push_back(c); }

  /// Pre-allocates for `n` comparisons (refills that know their upper
  /// bound, e.g. a block's cardinality, avoid regrowth).
  void Reserve(std::size_t n) { items_.reserve(n); }

  /// Sorts the whole buffer by descending weight (deterministic ties) and
  /// rewinds the cursor. Call once per refill, after the Adds — the path
  /// for producers with no useful order (PBS blocks, the PPS initial
  /// top-comparison set).
  void SortDescending() {
    std::sort(items_.begin(), items_.end(), ByWeightDesc());
    cursor_ = 0;
  }

  /// Replaces the buffer with `ascending` reversed. The path for
  /// producers whose natural output order is non-decreasing likelihood —
  /// a bounded top-k drain (PPS refills) — already a total order under
  /// ByWeightDesc read backwards, so an O(n) reverse replaces the
  /// O(n log n) re-sort of SortDescending().
  void FillFromAscending(std::span<const Comparison> ascending) {
    items_.assign(ascending.rbegin(), ascending.rend());
    cursor_ = 0;
  }

  /// True when every buffered comparison has been popped.
  bool Empty() const { return cursor_ >= items_.size(); }

  /// Pops the highest-weighted remaining comparison.
  Comparison PopFirst() { return items_[cursor_++]; }

  /// Drops all content (start of a refill). Capacity is retained, so a
  /// reused list (the engine's refill batch) stops allocating once warm.
  void Clear() {
    items_.clear();
    cursor_ = 0;
  }

  /// Comparisons not yet popped.
  std::size_t remaining() const { return items_.size() - cursor_; }

 private:
  std::vector<Comparison> items_;
  std::size_t cursor_ = 0;
};

}  // namespace sper

#endif  // SPER_PROGRESSIVE_COMPARISON_LIST_H_
