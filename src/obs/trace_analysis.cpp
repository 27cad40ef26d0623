#include "obs/trace_analysis.hpp"

#include <map>
#include <ostream>
#include <set>

#include "obs/json.hpp"

namespace kami::obs {

namespace {

/// A span's slash-joined name path from the root, and its depth (root = 1).
struct SpanPath {
  std::string path;
  int depth = 0;
};

/// SpanPath of every span, in span order. Parents precede children, so one
/// pass suffices.
std::vector<SpanPath> span_paths(const RequestTrace& phases) {
  std::vector<SpanPath> out;
  out.reserve(phases.spans.size());
  for (const auto& s : phases.spans) {
    if (s.parent < 0) {
      out.push_back({s.name, 1});
    } else {
      const SpanPath& p = out[static_cast<std::size_t>(s.parent)];
      out.push_back({p.path + "/" + s.name, p.depth + 1});
    }
  }
  return out;
}

}  // namespace

std::vector<RegionOpBreakdown> region_op_breakdown(const sim::Trace& trace,
                                                   const RequestTrace& phases) {
  // Innermost-first: deeper spans win; same-depth spans are disjoint in
  // time, so at most one of them matches.
  const std::vector<SpanPath> paths = span_paths(phases);
  std::map<std::string, std::map<std::string, double>> acc;  // path -> kind -> cycles
  for (const auto& ev : trace.events()) {
    const SpanPath* best = nullptr;
    for (std::size_t i = 0; i < phases.spans.size(); ++i) {
      const Span& s = phases.spans[i];
      if (ev.issue < s.begin_cycles || ev.issue >= s.end_cycles) continue;
      if (best == nullptr || paths[i].depth > best->depth) best = &paths[i];
    }
    const std::string path = best != nullptr ? best->path : std::string("(outside)");
    acc[path][sim::op_kind_name(ev.kind)] += ev.end - ev.issue;
  }
  std::vector<RegionOpBreakdown> out;
  for (auto& [path, kinds] : acc) {
    RegionOpBreakdown rb;
    rb.path = path;
    for (auto& [kind, cycles] : kinds) rb.op_cycles.emplace_back(kind, cycles);
    out.push_back(std::move(rb));
  }
  return out;
}

void dump_chrome_trace_with_regions(std::ostream& os, const sim::Trace& trace,
                                    const RequestTrace* phases,
                                    std::string_view process_name) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& event_json) {
    if (!first) os << ",";
    first = false;
    os << event_json;
  };

  // Process / thread naming metadata so Perfetto labels the tracks.
  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"" +
       json_escape(process_name) + "\"}}");
  std::set<int> warps;
  for (const auto& ev : trace.events()) warps.insert(ev.warp);
  for (const int w : warps)
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(w) +
         ",\"args\":{\"name\":\"warp " + std::to_string(w) + "\"}}");

  for (const auto& ev : trace.events())
    emit("{\"name\":\"" + json_escape(sim::op_kind_name(ev.kind)) +
         "\",\"ph\":\"X\",\"pid\":0,\"tid\":" + std::to_string(ev.warp) +
         ",\"ts\":" + json_number(ev.start) + ",\"dur\":" + json_number(ev.end - ev.start) +
         ",\"args\":{\"amount\":" + json_number(ev.amount) +
         ",\"issue\":" + json_number(ev.issue) + "}}");

  if (phases != nullptr) {
    // One track per nesting depth so overlapping parent/child phases render
    // as a flame-graph-style stack under the warps.
    const std::vector<SpanPath> paths = span_paths(*phases);
    std::set<int> depths;
    for (const auto& p : paths) depths.insert(p.depth);
    for (const int d : depths)
      emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" +
           std::to_string(1000 + d) + ",\"args\":{\"name\":\"phases (depth " +
           std::to_string(d) + ")\"}}");
    for (std::size_t i = 0; i < phases->spans.size(); ++i) {
      const Span& s = phases->spans[i];
      emit("{\"name\":\"" + json_escape(s.name) +
           "\",\"ph\":\"X\",\"pid\":0,\"tid\":" + std::to_string(1000 + paths[i].depth) +
           ",\"ts\":" + json_number(s.begin_cycles) +
           ",\"dur\":" + json_number(s.duration_cycles()) +
           ",\"args\":{\"path\":\"" + json_escape(paths[i].path) + "\"}}");
    }
  }
  os << "]}";
}

}  // namespace kami::obs
