// Request-scoped span traces: the per-request observability primitive the
// serving layer builds on.
//
// A RequestTrace is a tree of named, attributed spans on a *simulated-cycle*
// timeline: admit -> per-rung plan/attempt spans -> complete. Nothing in a trace comes from a wall clock — span begin/end
// are driven by a logical cycle clock the instrumented code advances with
// deterministic quantities (a kernel attempt advances by its simulated
// latency, a retry backoff by its configured penalty) — so the same request
// produces the byte-identical trace on every run, every thread count, and
// every machine. That is what lets the chaos campaign diff flight-recorder
// dumps across worker counts and what makes every recorded failure exactly
// replayable.
//
// TraceBuilder is the write side: a stack of open spans plus the logical
// clock. It is deliberately single-threaded (one request is built by one
// thread at a time); cross-thread fan-out goes through the execution
// engine, which snapshots the submitting thread's builder via
// current_tracer(), gives each task a shard builder rooted at a "task[i]"
// span, and grafts the shards back in task-index order — the same
// determinism contract metric shards already follow (DESIGN §10/§11).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "util/require.hpp"

namespace kami::obs {

inline constexpr const char* kFlightSchemaName = "kami.obs.flight";
inline constexpr int kFlightSchemaVersion = 1;

/// One node of a span tree. Spans are stored flat in their trace, indexed
/// by id, with parents always preceding children (id order is open order).
struct Span {
  std::uint32_t id = 0;
  std::int32_t parent = -1;  ///< -1 = root (only span 0)
  std::string name;
  double begin_cycles = 0.0;
  double end_cycles = 0.0;
  /// Insertion-ordered key/value attributes; values are strings (numbers go
  /// through json_number so they round-trip exactly).
  std::vector<std::pair<std::string, std::string>> attrs;

  double duration_cycles() const noexcept { return end_cycles - begin_cycles; }
  const std::string* find_attr(std::string_view key) const noexcept;
};

/// A finished request trace: id, free-form metadata, and the span tree.
class RequestTrace {
 public:
  std::string request_id;
  /// Insertion-ordered metadata (e.g. the chaos seed that generated the
  /// request); not part of the span tree.
  std::vector<std::pair<std::string, std::string>> meta;
  std::vector<Span> spans;  ///< spans[i].id == i; spans[0] is the root

  void set_meta(std::string key, std::string value);
  const std::string* find_meta(std::string_view key) const noexcept;

  const Span* root() const noexcept { return spans.empty() ? nullptr : &spans[0]; }
  /// First span with this name in id (open) order; nullptr when absent.
  const Span* find_span(std::string_view name) const noexcept;
  std::vector<const Span*> find_all(std::string_view name) const;
  /// Child span ids of `id` in open order.
  std::vector<std::uint32_t> children_of(std::uint32_t id) const;

  /// True when the root carries a "code" attribute other than "ok" — the
  /// flight recorder's keep-errors policy routes on this.
  bool is_error() const noexcept;

  /// {"request_id", "meta"?, "spans": [{id, parent, name, begin_cycles,
  ///  end_cycles, attrs}]}
  Json to_json() const;
  /// Validating load (throws obs::SchemaError on malformed trees: ids out
  /// of order, a parent after its child, end before begin).
  static RequestTrace from_json(const Json& doc);

  /// Deterministic text form — one indented line per span with its interval
  /// and attributes. Tests bit-compare this across worker counts, and
  /// kami_trace prints it.
  std::string canonical_text() const;
};

/// Chrome trace-event JSON for a set of traces: one tid per trace (named by
/// request id), spans as "X" events under the 1 cycle = 1 us mapping the
/// simulator's op traces also use.
void dump_chrome_traces(std::ostream& os, const std::vector<RequestTrace>& traces);

/// Write side of a RequestTrace: an open-span stack plus the logical cycle
/// clock. Single-threaded by design; see the header comment for how the
/// execution engine fans a builder out across workers.
class TraceBuilder {
 public:
  /// Starts with one open root span named `root_name` at `start_cycles`.
  explicit TraceBuilder(std::string request_id, std::string root_name = "request",
                        double start_cycles = 0.0);
  TraceBuilder(TraceBuilder&&) = default;
  TraceBuilder& operator=(TraceBuilder&&) = default;
  TraceBuilder(const TraceBuilder&) = delete;
  TraceBuilder& operator=(const TraceBuilder&) = delete;

  /// Open a child of the innermost open span at the current clock.
  std::uint32_t open(std::string_view name);
  /// Close the innermost open span at the current clock (the root can only
  /// be closed by finish()).
  void close();
  /// Close spans until only `depth` remain open (1 = just the root).
  void close_to(int depth);
  int depth() const noexcept { return static_cast<int>(stack_.size()); }

  /// Attribute on the innermost open span.
  void attr(std::string_view key, std::string_view value);
  void attr_num(std::string_view key, double v);
  /// Attribute on the root span (outcome fields stamped at completion).
  void root_attr(std::string_view key, std::string_view value);
  void root_attr_num(std::string_view key, double v);
  void set_meta(std::string key, std::string value);

  /// Advance the logical clock by a non-negative number of cycles.
  void advance(double cycles);
  /// Move the logical clock forward to `cycles` exactly (no rounding through
  /// a difference), for callers that mirror an external simulated clock.
  void advance_to(double cycles);
  double clock() const noexcept { return clock_; }

  /// Append a finished trace's spans under the innermost open span,
  /// re-basing ids and parents (the child's root becomes a child here).
  /// The clock is not advanced — concurrent shards advance the parent by
  /// the max shard clock once, at the call site.
  void graft(RequestTrace child);

  /// Close every open span (root included) at the current clock and move
  /// the trace out. The builder must not be used afterwards.
  RequestTrace finish();

 private:
  RequestTrace trace_;
  std::vector<std::uint32_t> stack_;  ///< open span ids, root first
  double clock_ = 0.0;
  bool finished_ = false;
};

/// The builder the current thread's instrumented code should append spans
/// to, or nullptr when no trace is being built. The execution engine
/// snapshots this to propagate span context into its workers.
TraceBuilder* current_tracer() noexcept;

/// RAII install of a builder (or nullptr) as this thread's current tracer.
class ScopedTracer {
 public:
  explicit ScopedTracer(TraceBuilder* tracer);
  ~ScopedTracer();
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

 private:
  TraceBuilder* prev_;
};

}  // namespace kami::obs
