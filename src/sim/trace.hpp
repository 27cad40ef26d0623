// Execution tracing: an optional per-block event recorder.
//
// When enabled on a ThreadBlock, every cycle-charged operation appends a
// TraceEvent (warp, kind, start/end cycle, bytes or flops). Uses:
//   * invariant checking — tests assert that no two occupancy intervals on
//     a serial resource overlap and that every warp's events are ordered;
//   * debugging and teaching — obs::dump_chrome_trace_with_regions
//     (obs/trace_analysis.hpp) emits the Chrome about://tracing JSON format
//     so a kernel's phase structure can be inspected visually;
//   * profiling — per-kind aggregation independent of the CycleBreakdown.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/resources.hpp"
#include "verify/invariants.hpp"

namespace kami::sim {

enum class OpKind : std::uint8_t {
  SmemStore,
  SmemLoad,
  RegCopy,
  Mma,
  VectorOp,
  GmemLoad,
  GmemStore,
  SyncWait,
  Overhead,
};

const char* op_kind_name(OpKind k) noexcept;

struct TraceEvent {
  int warp = 0;
  OpKind kind = OpKind::SmemStore;
  Cycles issue = 0.0;   ///< warp clock when the op was issued
  Cycles start = 0.0;   ///< when the resource began serving it
  Cycles end = 0.0;     ///< when the warp's clock advanced to
  double amount = 0.0;  ///< bytes moved or flops executed
};

class Trace {
 public:
  void record(TraceEvent ev) {
#if KAMI_CHECK_INVARIANTS
    KAMI_INVARIANT(ev.warp >= 0, "trace event warp id must be non-negative");
    KAMI_INVARIANT(ev.amount >= 0.0, "trace event amount must be non-negative");
    KAMI_INVARIANT(0.0 <= ev.issue && ev.issue <= ev.start && ev.start <= ev.end,
                   "trace event must satisfy 0 <= issue <= start <= end");
    const auto w = static_cast<std::size_t>(ev.warp);
    if (w >= last_issue_.size()) last_issue_.resize(w + 1, 0.0);
    KAMI_INVARIANT(ev.issue >= last_issue_[w],
                   "a warp's trace events must be issued in non-decreasing order");
    last_issue_[w] = ev.issue;
#endif
    events_.push_back(ev);
  }

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }
  void clear() noexcept {
    events_.clear();
#if KAMI_CHECK_INVARIANTS
    last_issue_.clear();
#endif
  }

  /// Total `amount` across events of one kind.
  double total_amount(OpKind kind) const;

  /// Events of one warp, in issue order.
  std::vector<TraceEvent> warp_events(int warp) const;

 private:
  std::vector<TraceEvent> events_;
#if KAMI_CHECK_INVARIANTS
  std::vector<Cycles> last_issue_;  ///< per-warp issue-ordering watermark
#endif
};

}  // namespace kami::sim
