// Analysis passes over the simulator's op-level Trace, read next to a
// kernel's phase spans (GemmResult::regions): per-phase op-kind attribution,
// and a Chrome/Perfetto trace export enriched with phase tracks.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace_span.hpp"
#include "sim/trace.hpp"

namespace kami::obs {

/// Warp-cycles per op-kind attributed to the innermost phase span whose
/// [begin, end) interval contains the event's issue time — the kernel ->
/// phase -> op-kind level of the breakdown. Events outside every span land
/// in "(outside)". `phases` is a kernel's GemmResult::regions.
struct RegionOpBreakdown {
  std::string path;  ///< slash-joined span names from the root
  std::vector<std::pair<std::string, double>> op_cycles;  ///< kind -> cycles
};

std::vector<RegionOpBreakdown> region_op_breakdown(const sim::Trace& trace,
                                                   const RequestTrace& phases);

/// Chrome trace-event JSON: process/thread metadata, op events per warp, and,
/// when `phases` is given, one X event per span on a "phases (depth N)" track
/// (the root span is depth 1).
void dump_chrome_trace_with_regions(std::ostream& os, const sim::Trace& trace,
                                    const RequestTrace* phases,
                                    std::string_view process_name = "kami");

}  // namespace kami::obs
