// Execution-trace example: record the phase spans of one KAMI-1D block, then
// emit:
//   * a Chrome/Perfetto trace of the kernel span and its phase spans — the
//     simulator's equivalent of an Nsight timeline;
//   * the kernel -> phase span trace, one line per phase occurrence;
//   * cycles per phase kind, summed over the kernel's phase occurrences;
//   * per-warp cycles per resource (the Fig 15 breakdown).
//
//   $ ./trace_timeline          # writes kami_1d_64.trace.json
//   # open https://ui.perfetto.dev (or chrome://tracing) and load the file
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/kami.hpp"
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
  opt.record_regions = true;
  const auto r = gemm(Algo::OneD, dev, A, B, opt);
  const obs::RequestTrace& phases = *r.regions;

  const char* path = "kami_1d_64.trace.json";
  {
    std::ofstream out(path);
    obs::dump_chrome_traces(out, {phases});
  }

  std::cout << "Phase spans (simulated cycles):\n" << phases.canonical_text();

  // Phase kinds in first-occurrence order. The root's children tile
  // [0, latency], so the kinds' cycles sum to the block latency.
  struct Kind {
    std::string name;
    int occurrences = 0;
    double cycles = 0.0;
  };
  std::vector<Kind> kinds;
  for (const std::uint32_t id : phases.children_of(0)) {
    const obs::Span& s = phases.spans[id];
    auto it = std::find_if(kinds.begin(), kinds.end(),
                           [&](const Kind& k) { return k.name == s.name; });
    if (it == kinds.end()) it = kinds.insert(kinds.end(), Kind{s.name});
    it->occurrences += 1;
    it->cycles += s.duration_cycles();
  }
  TablePrinter pk({"phase", "occurrences", "cycles", "% of latency"});
  for (const Kind& k : kinds)
    pk.add_row({k.name, std::to_string(k.occurrences), fmt_double(k.cycles, 0),
                fmt_double(100.0 * k.cycles / r.profile.latency, 1)});
  std::cout << "\n";
  pk.print(std::cout, "Cycles per phase kind");

  const sim::CycleBreakdown& bd = r.profile.mean_breakdown;
  TablePrinter pr({"resource", "cycles per warp"});
  for (const auto& [name, cycles] :
       {std::pair{"smem", bd.smem_comm}, std::pair{"gmem", bd.gmem},
        std::pair{"reg copy", bd.reg_copy}, std::pair{"compute", bd.compute},
        std::pair{"sync wait", bd.sync_wait}, std::pair{"total", bd.total()}})
    pr.add_row({name, fmt_double(cycles, 0)});
  std::cout << "\n";
  pr.print(std::cout, "Cycles per resource (mean over warps, Fig 15)");

  std::cout << "\nblock latency: " << fmt_double(r.profile.latency, 0) << " cycles across "
            << phases.spans.size() - 1 << " phase spans\n"
            << "Chrome trace written to " << path
            << " (open https://ui.perfetto.dev and load it)\n";
  return 0;
}
