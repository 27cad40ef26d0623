// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around each public call and
// each layer replay; nothing inside the library is instrumented. A span is
// (name, start, end, parent, op id) on the host steady clock; spans live in
// memory and are written once, at exit, as one JSON document that
// check_trace.py validates.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;  ///< index of the enclosing span, -1 = root
    std::int64_t op = -1;      ///< op id (-1 = not tied to one op)
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while open
  };

  Tracer();

  /// Open a span as a child of the innermost open span; returns its index.
  int open(std::string_view name, std::int64_t op);
  /// Close the innermost open span, which must be `index`; returns its
  /// duration in seconds.
  double close(int index);

  /// {"format": "perfbench.trace/1", "meta": {...}, "names": [...],
  ///  "spans": [[name, start_ns, end_ns, parent, op], ...],
  ///  "metrics": {...}} — the per-layer metrics the run reported, so the
  /// checker can recompute them from the spans.
  void write_json(const std::string& path, const std::map<std::string, std::string>& meta,
                  const std::map<std::string, double>& metrics) const;

 private:
  std::uint32_t intern(std::string_view name);
  std::int64_t now_ns() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> ids_;
};

/// RAII span; a null tracer makes it a no-op.
class SpanScope {
 public:
  SpanScope(Tracer* t, std::string_view name, std::int64_t op)
      : t_(t), index_(t ? t->open(name, op) : -1) {}
  ~SpanScope() {
    if (t_ && index_ >= 0) t_->close(index_);
  }
  /// Close early and return the duration in seconds (0 without a tracer).
  double close() {
    if (!t_ || index_ < 0) return 0.0;
    const double s = t_->close(index_);
    index_ = -1;
    return s;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
  int index_;
};

}  // namespace perfbench
