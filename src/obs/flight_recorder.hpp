// FlightRecorder: a bounded in-memory ring of recent request traces, plus a
// separately bounded store of every trace that ended in a typed error.
//
// A serving process cannot afford to keep every trace, but the traces worth
// keeping are exactly the ones that are gone by the time someone asks: the
// last few requests before an incident, and every request that failed. The
// recorder therefore keeps two bounded stores:
//
//   * completed ring — the most recent kCompletedCapacity ok traces;
//     recording past capacity evicts the oldest ok trace;
//   * error store — traces whose root carries a non-ok "code" attribute,
//     bounded by kErrorCapacity (its own ring, so an error storm cannot
//     grow without bound either) — ok-trace churn never evicts an error.
//
// All methods are thread-safe. snapshot()/to_json() return traces in record
// order (a monotone sequence number stamped under the lock), so a recorder
// fed deterministically — the chaos campaign folds per-point traces in seed
// order — dumps byte-identical JSON at every worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace_span.hpp"

namespace kami::obs {

class FlightRecorder {
 public:
  static constexpr std::size_t kCompletedCapacity = 64;  ///< last-K ring of ok traces
  static constexpr std::size_t kErrorCapacity = 256;     ///< typed-error traces retained

  /// Record one finished trace; routes on RequestTrace::is_error().
  void record(RequestTrace trace);

  std::size_t completed_count() const;
  std::size_t error_count() const;
  std::size_t size() const;

  /// All retained traces in record order (errors and completions
  /// interleaved as they happened).
  std::vector<RequestTrace> snapshot() const;

  /// {"schema": "kami.obs.flight", "schema_version": 1, "completed_capacity",
  ///  "error_capacity", "recorded", "traces": [...]}
  Json to_json() const;
  /// Pretty-printed to_json() plus a trailing newline.
  void dump(std::ostream& os) const;

  /// Validating load of a dump's traces (throws obs::SchemaError).
  static std::vector<RequestTrace> traces_from_json(const Json& doc);

  void clear();

 private:
  using Entry = std::pair<std::uint64_t, RequestTrace>;  ///< (sequence, trace)

  mutable std::mutex mu_;
  std::uint64_t next_seq_ = 0;  ///< total traces ever recorded
  std::deque<Entry> completed_;
  std::deque<Entry> errors_;
};

}  // namespace kami::obs
