// Simulator invariant checking (always compiled, unlike KAMI_ASSERT).
//
// The cycle model's credibility rests on a handful of structural invariants:
// warp clocks only move forward, resource timelines never charge more busy
// cycles than they reserve, and register files never exceed capacity.
// KAMI_INVARIANT enforces them in every build type (the default Release build
// compiles KAMI_ASSERT out, which is exactly when a cycle-accounting bug
// would go unnoticed); define KAMI_CHECK_INVARIANTS=0 to compile the checks
// out of the hot paths.
//
// FaultHooks is the test-only back door: kami_verify and the verify tests
// inject accounting faults through it to prove the invariant layer actually
// fires (see invariant_selftest in verify/differential.hpp).
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

#include "util/require.hpp"

#ifndef KAMI_CHECK_INVARIANTS
#define KAMI_CHECK_INVARIANTS 1
#endif

namespace kami::verify {

/// Thrown when a simulator-internal consistency condition fails. Deliberately
/// NOT a PreconditionError: callers treat PreconditionError as "infeasible
/// configuration", while an InvariantViolation always means a simulator bug
/// (or an injected fault) and must never be swallowed by feasibility logic.
class InvariantViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

[[noreturn]] inline void invariant_failed(const char* expr, const std::string& msg,
                                          const std::source_location loc) {
  std::string what = std::string(loc.file_name()) + ":" + std::to_string(loc.line()) +
                     ": simulator invariant violated: " + expr;
  if (!msg.empty()) what += " (" + msg + ")";
  throw InvariantViolation(what);
}

}  // namespace detail

/// Test-only fault injection into the cycle-accounting hot paths. All fields
/// are zero/disarmed in normal operation; tests set them through ScopedFault
/// to verify that the invariant layer catches the corresponding class of bug,
/// and the serving layer's chaos campaign (src/serve/chaos.hpp) uses them as
/// its transient-fault source.
struct FaultHooks {
  /// Added to every warp op's end time before the clock-monotonicity check;
  /// a negative value emulates an op that rewinds the warp clock.
  double warp_advance_skew = 0.0;
  /// Added to the occupancy a PortTimeline charges to its busy counter (but
  /// not to its reservation), emulating double-charged port cycles.
  double port_busy_skew = 0.0;
  /// How many more *runs* the skews above stay live: negative = every run
  /// (a permanent fault, the pre-existing behavior), 0 = disarmed, positive =
  /// a transient fault that clears after that many failing runs. The retry
  /// loop in serve::GemmServer decrements a positive count each time it
  /// catches an injected InvariantViolation, modeling a fault that goes away
  /// when the request is retried.
  int armed_runs = -1;
  /// When >= 0, the countdown-th register-file allocation from now throws
  /// RegisterOverflow ("injected allocation failure") and the hook disarms
  /// itself (one-shot). Emulates a transient allocation failure that a
  /// degradation rung or retry can recover from.
  long long alloc_fail_countdown = -1;
};

/// The per-thread hook block (shared across translation units). Thread-local
/// so concurrent simulations under the execution engine can't observe (or
/// consume) each other's armed faults; the engine snapshots the submitting
/// thread's hooks and re-installs them in each worker via ScopedFault, so a
/// fault armed around a parallel_for applies to every task exactly as it
/// would to every iteration of the serial loop.
inline FaultHooks& fault_hooks() {
  thread_local FaultHooks hooks;
  return hooks;
}

/// Is any cycle-accounting skew currently live? The serving layer uses this
/// to tell an injected (and therefore retryable) InvariantViolation from a
/// genuine simulator bug: a violation with no armed fault source is always
/// classified as an internal invariant failure.
inline bool faults_armed() {
  const FaultHooks& h = fault_hooks();
  return h.armed_runs != 0 &&
         (h.warp_advance_skew != 0.0 || h.port_busy_skew != 0.0);
}

/// RAII fault injection: installs `hooks` for the enclosing scope and always
/// restores the previous state, including when an InvariantViolation unwinds.
class ScopedFault {
 public:
  explicit ScopedFault(const FaultHooks& hooks) : saved_(fault_hooks()) {
    fault_hooks() = hooks;
  }
  ~ScopedFault() { fault_hooks() = saved_; }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  FaultHooks saved_;
};

}  // namespace kami::verify

#if KAMI_CHECK_INVARIANTS
#define KAMI_INVARIANT(expr, ...)                                                   \
  do {                                                                              \
    if (!(expr)) [[unlikely]] {                                                     \
      ::kami::verify::detail::invariant_failed(#expr, ::std::string{__VA_ARGS__},   \
                                               ::std::source_location::current());  \
    }                                                                               \
  } while (false)
/// Value pass-through that applies the named FaultHooks skew while the hooks
/// are armed (identity when invariant checking — and with it fault
/// injection — is compiled out, and while armed_runs == 0).
#define KAMI_FAULT_SKEW(field, value)                                               \
  ((value) + (::kami::verify::fault_hooks().armed_runs != 0                         \
                  ? ::kami::verify::fault_hooks().field                             \
                  : 0.0))
#else
#define KAMI_INVARIANT(expr, ...) ((void)0)
#define KAMI_FAULT_SKEW(field, value) (value)
#endif
