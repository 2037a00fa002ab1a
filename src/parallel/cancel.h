#ifndef SPER_PARALLEL_CANCEL_H_
#define SPER_PARALLEL_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "obs/clock.h"

/// \file cancel.h
/// Cooperative cancellation for the serving stack: a `CancelToken` is a
/// cheap shared handle that long-running pulls (Resolver::Serve draw
/// loops, engine refills) poll at batch granularity. Cancellation is
/// *advisory* — a fired token never tears state down; it makes the
/// current pull return "cancelled" with every buffer intact, so the next
/// pull (the next request's) continues the stream bit-identically.
///
/// Two ways a token fires:
///   - explicitly, through the owning CancelSource's Cancel();
///   - by deadline, when the token was derived with WithDeadline() and
///     the wall clock passes it (the per-request `deadline_ms` path).
/// Deadline expiry is latched on first observation, so later checks cost
/// one relaxed load instead of a clock read.

namespace sper {

/// Why a token fired. kNone while the token is live.
enum class CancelReason : std::uint8_t {
  kNone = 0,
  kCancelled,  // explicit CancelSource::Cancel()
  kDeadline,   // the deadline passed
};

class CancelSource;

/// Shared cancellation handle. Copyable and cheap (one shared_ptr); a
/// default-constructed token is *null*: it never fires and costs one
/// pointer test per check. Tokens derived via WithDeadline() chain to
/// their parent: either firing cancels the child.
class CancelToken {
 public:
  // The library's one monotonic clock (obs/clock.h): deadlines and the
  // waits that honor them must read the same time source as every other
  // timing site — tools/lint_determinism.py bans raw std::chrono clocks
  // outside that header.
  using Clock = obs::Stopwatch::Clock;

  CancelToken() = default;

  /// False for a null token — checks are free in that case.
  bool valid() const { return state_ != nullptr; }

  /// True once the source cancelled, the deadline passed, or a chained
  /// parent fired. Reads the clock only until expiry latches.
  bool cancelled() const {
    const State* s = state_.get();
    while (s != nullptr) {
      if (s->reason.load(std::memory_order_relaxed) != CancelReason::kNone) {
        return true;
      }
      if (s->has_deadline && Clock::now() >= s->deadline) {
        CancelReason expected = CancelReason::kNone;
        s->reason.compare_exchange_strong(expected, CancelReason::kDeadline,
                                          std::memory_order_relaxed);
        return true;
      }
      s = s->parent.get();
    }
    return false;
  }

  /// Why the token fired; kNone while live (or for a null token).
  CancelReason reason() const {
    for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
      const CancelReason r = s->reason.load(std::memory_order_relaxed);
      if (r != CancelReason::kNone) return r;
    }
    return CancelReason::kNone;
  }

  /// True when this token (or a chained parent) carries a deadline.
  bool has_deadline() const {
    for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
      if (s->has_deadline) return true;
    }
    return false;
  }

  /// The earliest deadline along the parent chain. Only meaningful when
  /// has_deadline().
  Clock::time_point deadline() const {
    Clock::time_point earliest = Clock::time_point::max();
    for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
      if (s->has_deadline && s->deadline < earliest) earliest = s->deadline;
    }
    return earliest;
  }

  /// A child token that additionally fires `timeout` from now. Works on a
  /// null token too (the result is a pure deadline token). The parent
  /// keeps its own state: cancelling the parent fires the child, not the
  /// other way round.
  CancelToken WithDeadline(std::chrono::nanoseconds timeout) const {
    auto state = std::make_shared<State>();
    state->has_deadline = true;
    state->deadline = Clock::now() + timeout;
    state->parent = state_;
    CancelToken child;
    child.state_ = std::move(state);
    return child;
  }

 private:
  friend class CancelSource;

  struct State {
    mutable std::atomic<CancelReason> reason{CancelReason::kNone};
    bool has_deadline = false;
    Clock::time_point deadline{};
    std::shared_ptr<State> parent;
  };

  std::shared_ptr<State> state_;
};

/// Owner side of a cancellation relationship: hands out tokens and fires
/// them. Copyable (copies share the same state).
class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<CancelToken::State>()) {}

  /// Fires every token handed out by this source. Idempotent; a deadline
  /// that already latched keeps its kDeadline reason.
  void Cancel() {
    CancelReason expected = CancelReason::kNone;
    state_->reason.compare_exchange_strong(expected, CancelReason::kCancelled,
                                           std::memory_order_relaxed);
  }

  /// A token observing this source.
  CancelToken token() const {
    CancelToken t;
    t.state_ = state_;
    return t;
  }

 private:
  std::shared_ptr<CancelToken::State> state_;
};

}  // namespace sper

#endif  // SPER_PARALLEL_CANCEL_H_
