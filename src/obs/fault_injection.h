#ifndef SPER_OBS_FAULT_INJECTION_H_
#define SPER_OBS_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/mutex.h"
#include "core/thread_annotations.h"

/// \file fault_injection.h
/// Deterministic fault-injection harness for the serving stack, gated by
/// the SPER_FAULT_INJECT compile option (CMake -DSPER_FAULT_INJECT=ON).
///
/// Library code marks *seams* with SPER_FAULT_HIT("site") — a no-op in
/// normal builds. In a fault build, tests and benches Arm() a site with a
/// FaultPlan (stall for N ms, or throw) and the seam fires according to
/// the plan's deterministic schedule: hit counters plus a seeded
/// splitmix64 Bernoulli gate, never wall-clock or thread timing, so a
/// failing run replays exactly.
///
/// Instrumented seams (site names are part of the test/bench contract):
///   - "refill"                   one refill-batch production
///   - "session.admit"            one Resolver::Serve admission
///   - "qos.admit"                one QosAdmissionController::Resolve entry
///   - "qos.shed"                 one QoS load-shed (rate limit or queue
///                                bound), on the requester's thread
///   - "qos.evict"                one QoS doomed-request eviction
///   - "net.accept"               one net::Server accepted connection,
///                                before its worker thread starts
///   - "net.read"                 one connection read turn, before the
///                                request frame is read
///   - "net.write"                one connection write turn, before the
///                                response frame is written
///
/// The registry is process-global (seams live in templates and hot loops
/// that have no injection context to thread a handle through), guarded by
/// a mutex, and fast when idle: an armed-site count lets Hit() return on
/// one relaxed atomic load when nothing is armed.

namespace sper {
namespace obs {

/// What an armed site does, and on which hits. All scheduling fields are
/// deterministic functions of the site's hit counter and `seed`.
struct FaultPlan {
  enum class Action {
    kStall,  // sleep stall_ms, then continue normally
    kThrow,  // throw FaultInjectedError(message)
  };
  Action action = Action::kStall;

  /// Milliseconds to sleep per fire (kStall).
  std::uint64_t stall_ms = 1;
  /// Exception message (kThrow).
  std::string message = "injected fault";

  /// Hits to let pass untouched before the schedule starts.
  std::uint64_t start_after = 0;
  /// Fire on every k-th scheduled hit (1 = every hit past start_after).
  std::uint64_t every = 1;
  /// Maximum number of fires; 0 = unlimited.
  std::uint64_t limit = 0;
  /// Bernoulli gate on each scheduled hit, decided by
  /// splitmix64(seed ^ hit_index) — deterministic per (seed, hit).
  double probability = 1.0;
  std::uint64_t seed = 0;
};

/// The exception kThrow sites raise — distinguishable from organic
/// failures in test assertions.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Process-global site registry. Thread-safe.
class FaultRegistry {
 public:
  static FaultRegistry& Global();

  /// Arms (or re-arms, resetting counters of) one site.
  void Arm(std::string site, FaultPlan plan);

  /// Disarms one site, keeping no counters.
  void Disarm(const std::string& site);

  /// Disarms every site (test teardown).
  void Reset();

  /// Times an armed site's seam was reached / actually fired; 0 for
  /// unarmed sites.
  std::uint64_t hits(const std::string& site) const;
  std::uint64_t fires(const std::string& site) const;

  /// True when any site is armed (the fast-path gate).
  bool armed() const {
    return armed_sites_.load(std::memory_order_relaxed) > 0;
  }

  /// The seam call: decides under the plan and stalls or throws. Called
  /// through SPER_FAULT_HIT so normal builds compile it out entirely.
  void Hit(std::string_view site);

 private:
  struct SiteState {
    FaultPlan plan;
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
  };

  mutable Mutex mutex_;
  /// Looked up by key only, never iterated — hash order cannot leak into
  /// any output (tools/lint_determinism.py rule unordered-iteration).
  std::unordered_map<std::string, SiteState> sites_ SPER_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> armed_sites_{0};
};

#ifdef SPER_FAULT_INJECT
inline constexpr bool kFaultInjectionEnabled = true;
#define SPER_FAULT_HIT(site) ::sper::obs::FaultRegistry::Global().Hit(site)
#else
/// Normal builds: seams vanish; the registry class stays available so
/// fault tests compile (and skip themselves via this flag).
inline constexpr bool kFaultInjectionEnabled = false;
#define SPER_FAULT_HIT(site) ((void)0)
#endif

}  // namespace obs
}  // namespace sper

#endif  // SPER_OBS_FAULT_INJECTION_H_
