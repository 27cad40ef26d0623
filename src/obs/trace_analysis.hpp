// Analysis passes over the simulator's op-level Trace: per-resource
// utilization timelines, critical-warp identification, bank-conflict
// heatmaps, per-region op-kind attribution, and a Chrome/Perfetto trace
// export enriched with phase metadata.
//
// These passes reconstruct *resource* busy intervals from the recorded
// events using the device's latency constants (an SmemLoad's port occupancy
// ends L_sm before the warp's clock does; a tensor-core unit is booked at
// the ideal rate while the warp experiences the issue-efficiency-scaled
// time), so the utilization numbers agree with the PortTimeline/UnitPool
// accounting the throughput model uses.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/report.hpp"
#include "obs/trace_span.hpp"
#include "sim/device.hpp"
#include "sim/trace.hpp"

namespace kami::obs {

/// Resource order used by utilization_timeline(); index with this enum.
enum class Resource : std::size_t { TensorCore = 0, SmemPort, GmemPort, VectorPipe };
inline constexpr std::size_t kNumResources = 4;
const char* resource_name(Resource r) noexcept;

/// Busy fraction per resource per time bucket over the traced run.
/// `buckets` divides the wall time; tensor-core busy is normalized by the
/// device's unit count so a fraction of 1.0 always means saturated.
UtilizationTimeline utilization_timeline(const sim::Trace& trace,
                                         const sim::DeviceSpec& dev,
                                         std::size_t buckets = 64);

/// Per-warp activity totals reconstructed from the trace.
struct WarpActivity {
  int warp = 0;
  double busy_cycles = 0.0;       ///< warp time in non-sync operations
  double sync_wait_cycles = 0.0;  ///< time parked at barriers
  double finish_cycles = 0.0;     ///< the warp's last event end
};

struct CriticalWarpReport {
  std::vector<WarpActivity> warps;  ///< by warp id
  /// The warp with the most busy (non-sync) cycles — the one every barrier
  /// waits on; ties break to the lowest id.
  int critical_warp = -1;
};

CriticalWarpReport critical_warp_analysis(const sim::Trace& trace);

/// Lane-to-bank collision counts for a family of strided access patterns —
/// the data behind a stride x bank heatmap of shared-memory conflicts.
struct BankConflictHeatmap {
  std::size_t banks = 0;
  std::size_t element_bytes = 0;
  std::vector<std::size_t> strides;                 ///< row per stride
  std::vector<std::vector<std::size_t>> word_hits;  ///< [stride][bank]
  std::vector<double> theta;                        ///< attained BW fraction
};

BankConflictHeatmap bank_conflict_heatmap(const sim::DeviceSpec& dev,
                                          std::size_t element_bytes,
                                          const std::vector<std::size_t>& strides);

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
