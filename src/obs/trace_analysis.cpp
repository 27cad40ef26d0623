#include "obs/trace_analysis.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>

#include "sim/bank_conflicts.hpp"

namespace kami::obs {

const char* resource_name(Resource r) noexcept {
  switch (r) {
    case Resource::TensorCore: return "tensor_core";
    case Resource::SmemPort: return "smem_port";
    case Resource::GmemPort: return "gmem_port";
    case Resource::VectorPipe: return "vector_pipe";
  }
  return "?";
}

namespace {

struct BusyInterval {
  Resource resource;
  double start;
  double end;
};

/// Reconstruct the resource-occupancy interval of one event. The warp-side
/// end includes latency for loads, and MMA time is dilated by the issue
/// efficiency; both are undone here so the interval matches what the
/// PortTimeline/UnitPool booked.
bool busy_interval_of(const sim::TraceEvent& ev, const sim::DeviceSpec& dev,
                      BusyInterval& out) {
  switch (ev.kind) {
    case sim::OpKind::SmemStore:
      out = {Resource::SmemPort, ev.start, ev.end};
      return true;
    case sim::OpKind::SmemLoad:
      out = {Resource::SmemPort, ev.start, ev.end - dev.smem_latency_cycles};
      return true;
    case sim::OpKind::GmemLoad:
    case sim::OpKind::GmemStore:
      out = {Resource::GmemPort, ev.start, ev.end - dev.gmem_latency_cycles};
      return true;
    case sim::OpKind::Mma:
      out = {Resource::TensorCore, ev.start,
             ev.start + (ev.end - ev.start) * dev.mma_efficiency};
      return true;
    case sim::OpKind::VectorOp:
      out = {Resource::VectorPipe, ev.start, ev.end};
      return true;
    case sim::OpKind::RegCopy:
    case sim::OpKind::SyncWait:
    case sim::OpKind::Overhead: return false;  // private to the warp
  }
  return false;
}

}  // namespace

UtilizationTimeline utilization_timeline(const sim::Trace& trace,
                                         const sim::DeviceSpec& dev,
                                         std::size_t buckets) {
  KAMI_REQUIRE(buckets >= 1, "need at least one bucket");
  UtilizationTimeline out;
  for (std::size_t r = 0; r < kNumResources; ++r)
    out.resources.emplace_back(resource_name(static_cast<Resource>(r)));
  out.busy.assign(kNumResources, std::vector<double>(buckets, 0.0));

  double wall = 0.0;
  for (const auto& ev : trace.events()) wall = std::max(wall, ev.end);
  out.wall_cycles = wall;
  if (wall <= 0.0) {
    out.bucket_cycles = 0.0;
    return out;
  }
  out.bucket_cycles = wall / static_cast<double>(buckets);

  const double units[kNumResources] = {
      static_cast<double>(dev.tensor_cores_per_sm), 1.0, 1.0, 1.0};

  for (const auto& ev : trace.events()) {
    BusyInterval bi{};
    if (!busy_interval_of(ev, dev, bi)) continue;
    if (bi.end <= bi.start) continue;
    const auto res = static_cast<std::size_t>(bi.resource);
    // Spread the interval's occupancy over the buckets it overlaps.
    const auto first =
        static_cast<std::size_t>(std::min(bi.start / out.bucket_cycles,
                                          static_cast<double>(buckets - 1)));
    for (std::size_t b = first; b < buckets; ++b) {
      const double b0 = static_cast<double>(b) * out.bucket_cycles;
      const double b1 = b0 + out.bucket_cycles;
      if (bi.start >= b1) continue;
      if (bi.end <= b0) break;
      const double overlap = std::min(bi.end, b1) - std::max(bi.start, b0);
      out.busy[res][b] += overlap / out.bucket_cycles / units[res];
    }
  }
  // Guard against floating-point spill past 1.0 on saturated buckets.
  for (auto& series : out.busy)
    for (double& frac : series) frac = std::min(frac, 1.0);
  return out;
}

CriticalWarpReport critical_warp_analysis(const sim::Trace& trace) {
  std::map<int, WarpActivity> by_warp;
  for (const auto& ev : trace.events()) {
    auto& w = by_warp[ev.warp];
    w.warp = ev.warp;
    const double dt = ev.end - ev.issue;
    if (ev.kind == sim::OpKind::SyncWait)
      w.sync_wait_cycles += ev.amount;
    else
      w.busy_cycles += dt;
    w.finish_cycles = std::max(w.finish_cycles, ev.end);
  }
  CriticalWarpReport out;
  for (const auto& [id, w] : by_warp) out.warps.push_back(w);
  std::size_t best = 0;
  for (std::size_t i = 1; i < out.warps.size(); ++i)
    if (out.warps[i].busy_cycles > out.warps[best].busy_cycles) best = i;
  if (!out.warps.empty()) out.critical_warp = out.warps[best].warp;
  return out;
}

BankConflictHeatmap bank_conflict_heatmap(const sim::DeviceSpec& dev,
                                          std::size_t element_bytes,
                                          const std::vector<std::size_t>& strides) {
  KAMI_REQUIRE(element_bytes > 0);
  BankConflictHeatmap out;
  out.banks = static_cast<std::size_t>(dev.smem_banks);
  out.element_bytes = element_bytes;
  const auto width = static_cast<std::size_t>(dev.bank_width_bytes);
  KAMI_REQUIRE(out.banks > 0 && width > 0);

  for (const std::size_t stride : strides) {
    // Same word-coalescing rule as sim::strided_access_theta: lanes hitting
    // the same bank word broadcast; wide elements touch several words.
    std::set<std::size_t> words;
    for (std::size_t lane = 0; lane < 32; ++lane) {
      const std::size_t first = lane * stride * element_bytes;
      for (std::size_t b = first / width; b <= (first + element_bytes - 1) / width; ++b)
        words.insert(b);
    }
    std::vector<std::size_t> per_bank(out.banks, 0);
    for (const std::size_t wordi : words) per_bank[wordi % out.banks] += 1;
    out.strides.push_back(stride);
    out.theta.push_back(sim::strided_access_theta(dev, element_bytes, stride));
    out.word_hits.push_back(std::move(per_bank));
  }
  return out;
}

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
