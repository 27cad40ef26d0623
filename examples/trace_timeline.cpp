// Execution-trace example: record the op-level timeline AND the phase
// spans of one KAMI-1D block, then emit:
//   * an enriched Chrome/Perfetto trace (op events per warp + named phase
//     tracks) — the simulator's equivalent of an Nsight timeline;
//   * the kernel -> phase span trace, one line per phase occurrence;
//   * warp-cycles per op kind attributed to the innermost phase.
//
//   $ ./trace_timeline          # writes kami_1d_64.trace.json
//   # open https://ui.perfetto.dev (or chrome://tracing) and load the file
#include <fstream>
#include <iostream>
#include <map>

#include "core/kami.hpp"
#include "obs/trace_analysis.hpp"
#include "util/table.hpp"

int main() {
  using namespace kami;
  const auto& dev = sim::gh200();

  Rng rng(11);
  const auto A = random_matrix<fp16_t>(64, 64, rng);
  const auto B = random_matrix<fp16_t>(64, 64, rng);
  GemmOptions opt;
  opt.warps = 4;
  opt.smem_ratio = 0.0;
  opt.record_trace = true;
  opt.record_regions = true;
  const auto r = gemm(Algo::OneD, dev, A, B, opt);

  const char* path = "kami_1d_64.trace.json";
  {
    std::ofstream out(path);
    obs::dump_chrome_trace_with_regions(out, *r.trace, r.regions.get(),
                                        "kami_1d 64x64 fp16");
  }

  // Per-kind summary.
  std::map<sim::OpKind, std::pair<int, double>> agg;  // kind -> (count, cycles)
  for (const auto& ev : r.trace->events()) {
    agg[ev.kind].first += 1;
    agg[ev.kind].second += ev.end - ev.start;
  }
  TablePrinter t({"op kind", "events", "warp-cycles", "amount (B or flops)"});
  for (const auto& [kind, stats] : agg) {
    t.add_row({sim::op_kind_name(kind), std::to_string(stats.first),
               fmt_double(stats.second, 0), fmt_double(r.trace->total_amount(kind), 0)});
  }
  t.print(std::cout, "KAMI-1D 64x64 FP16 on GH200: op-level timeline summary");

  std::cout << "\nPhase spans (simulated cycles):\n" << r.regions->canonical_text();

  // kernel -> phase -> op-kind: warp-cycles per op attributed to the
  // innermost phase span whose interval contains the op's issue time.
  TablePrinter po({"phase", "op kind", "warp-cycles"});
  for (const auto& rb : obs::region_op_breakdown(*r.trace, *r.regions))
    for (const auto& [kind, cycles] : rb.op_cycles)
      po.add_row({rb.path, kind, fmt_double(cycles, 0)});
  std::cout << "\n";
  po.print(std::cout, "Warp-cycles per phase and op kind");

  std::cout << "\nblock latency: " << fmt_double(r.profile.latency, 0)
            << " cycles across " << r.trace->size() << " events\n"
            << "Chrome trace written to " << path
            << " (open https://ui.perfetto.dev and load it)\n";
  return 0;
}
