#include "core/planner.hpp"

#include <array>
#include <cmath>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/register_file.hpp"
#include "util/require.hpp"

namespace kami::core {

namespace {

constexpr std::array<double, 5> kRatioPresets{0.0, 0.25, 0.5, 0.75, 0.875};

bool shape_divisible(Algo algo, std::size_t m, std::size_t n, std::size_t k, int p) {
  const auto g = static_cast<std::size_t>(warp_grid(algo, p));
  switch (algo) {
    case Algo::OneD: return m % g == 0;  // B stripes decouple k from p
    case Algo::TwoD:
    case Algo::ThreeD: return m % g == 0 && n % g == 0 && k % g == 0;
  }
  return false;
}

/// Build the candidate plan for (algo, p, ratio); layouts only, no demand.
Plan make_candidate(Algo algo, std::size_t m, std::size_t n, std::size_t k, int p,
                    double ratio, std::size_t slice_pref) {
  Plan plan;
  plan.algo = algo;
  plan.p = p;
  plan.grid = warp_grid(algo, p);
  plan.smem_ratio = ratio;
  const auto g = static_cast<std::size_t>(plan.grid);
  switch (algo) {
    case Algo::OneD: {
      // A_i: (m/p x k) column-sliced over its FULL k extent (§4.7: the
      // k-slices span the whole operand, so the spill fraction applies
      // globally and stages whose slice is spilled stream it from shared
      // memory). B is split into k/slice_w broadcast stripes assigned
      // contiguously to warps; the per-warp B layout below is the worst
      // case (ceil(stripes/p) stripes).
      plan.slice_w = pick_slice_width(k, slice_pref);
      const std::size_t stripes = k / plan.slice_w;
      const std::size_t q = (stripes + g - 1) / g;
      plan.a = SliceLayout::make(m / g, k, SliceAxis::Cols, plan.slice_w, 0, ratio);
      plan.b = SliceLayout::make(q * plan.slice_w, n, SliceAxis::Rows, plan.slice_w, 0,
                                 ratio);
      break;
    }
    case Algo::TwoD:
    case Algo::ThreeD: {
      const std::size_t chunk = k / g;
      plan.slice_w = pick_slice_width(chunk, slice_pref);
      plan.a = SliceLayout::make(m / g, chunk, SliceAxis::Cols, plan.slice_w, 0, ratio);
      plan.b = SliceLayout::make(chunk, n / g, SliceAxis::Rows, plan.slice_w, 0, ratio);
      break;
    }
  }
  return plan;
}

/// Shared-memory footprint of a candidate: every owner's spill region plus
/// the broadcast/staging tiles. Candidates whose spills exceed the device's
/// shared memory are rejected (e.g. 3D FP64 at order 128, where A + B alone
/// are 256 KiB — beyond GH200's combined on-chip capacity in this layout).
std::size_t smem_demand_bytes(const Plan& plan, Precision prec, std::size_t m,
                              std::size_t n) {
  const std::size_t se = element_bytes(prec);
  const std::size_t sa = model::accumulator_bytes(prec);
  const auto g = static_cast<std::size_t>(plan.grid);
  switch (plan.algo) {
    case Algo::OneD: {
      // Every warp spills its A portion; B owners spill theirs; one
      // broadcast tile.
      return static_cast<std::size_t>(plan.p) * plan.a.smem_bytes(se) +
             static_cast<std::size_t>(plan.p) * plan.b.smem_bytes(se) +
             plan.b.slice_elems() * se;
    }
    case Algo::TwoD: {
      return static_cast<std::size_t>(plan.p) *
                 (plan.a.smem_bytes(se) + plan.b.smem_bytes(se)) +
             g * (plan.a.slice_elems() + plan.b.slice_elems()) * se;
    }
    case Algo::ThreeD: {
      const std::size_t nc = plan.n_chunk == 0 ? n / g : plan.n_chunk;
      const std::size_t red_cols = nc < 16 ? nc : 16;
      return g * g * (plan.a.smem_bytes(se) + plan.b.smem_bytes(se)) +
             g * g * (plan.a.slice_elems() * se + plan.b.slice_rows() * nc * se) +
             g * g * (m / g) * red_cols * sa;
    }
  }
  return 0;
}

}  // namespace

int warp_grid(Algo algo, int p) {
  switch (algo) {
    case Algo::OneD: return p;
    case Algo::TwoD: {
      const int q = static_cast<int>(std::lround(std::sqrt(static_cast<double>(p))));
      KAMI_REQUIRE(q * q == p, "2D algorithm requires a perfect-square warp count, got p=" +
                                   std::to_string(p));
      return q;
    }
    case Algo::ThreeD: {
      const int c = static_cast<int>(std::lround(std::cbrt(static_cast<double>(p))));
      KAMI_REQUIRE(c * c * c == p, "3D algorithm requires a perfect-cube warp count, got p=" +
                                       std::to_string(p));
      return c;
    }
  }
  return 0;
}

std::size_t register_demand_bytes(const Plan& plan, Precision prec, std::size_t m,
                                  std::size_t n, std::size_t k) {
  (void)k;
  const std::size_t se = element_bytes(prec);
  const std::size_t sa = model::accumulator_bytes(prec);
  const auto g = static_cast<std::size_t>(plan.grid);

  std::size_t bytes = plan.a.reg_bytes(se) + plan.b.reg_bytes(se);
  switch (plan.algo) {
    case Algo::OneD:
      bytes += (m / g) * n * sa;                         // C_i accumulator
      bytes += plan.b.slice_elems() * se;                // BRecv slice
      if (plan.smem_ratio > 0.0) bytes += plan.a.slice_elems() * se;  // A fetch scratch
      break;
    case Algo::TwoD:
      bytes += (m / g) * (n / g) * sa;                   // C_i
      bytes += plan.a.slice_elems() * se;                // ARecv
      bytes += plan.b.slice_elems() * se;                // BRecv
      break;
    case Algo::ThreeD: {
      const std::size_t nc = plan.n_chunk == 0 ? n / g : plan.n_chunk;
      bytes += (m / g) * nc * sa;                        // partial C (chunked)
      bytes += plan.a.slice_elems() * se;                // ARecv
      bytes += plan.b.slice_rows() * nc * se;            // BRecv (chunk columns)
      // Reduction scratch chunk (m/c x <=16 columns at accumulator width).
      bytes += (m / g) * (nc < 16 ? nc : 16) * sa;
      break;
    }
  }
  return bytes;
}

Plan plan_gemm(Algo algo, const sim::DeviceSpec& dev, Precision prec, std::size_t m,
               std::size_t n, std::size_t k, const GemmOptions& opt) {
  KAMI_REQUIRE(m > 0 && n > 0 && k > 0,
               "matrix dimensions must be positive, got m=" + std::to_string(m) +
                   " n=" + std::to_string(n) + " k=" + std::to_string(k));
  KAMI_REQUIRE(dev.supports(prec),
               std::string(precision_name(prec)) + " not supported on " + dev.name);

  std::vector<int> warp_candidates;
  if (opt.warps > 0) {
    warp_candidates.push_back(opt.warps);
  } else {
    switch (algo) {
      case Algo::OneD: warp_candidates = {4, 8, 16, 2}; break;
      case Algo::TwoD: warp_candidates = {4, 16}; break;
      case Algo::ThreeD: warp_candidates = {8, 27}; break;
    }
  }

  std::vector<double> ratio_candidates;
  if (opt.smem_ratio >= 0.0) {
    ratio_candidates.push_back(opt.smem_ratio);
  } else {
    ratio_candidates.assign(kRatioPresets.begin(), kRatioPresets.end());
  }

  // Wide elements can make even one broadcast stripe too large for the
  // receive buffer; narrower slices trade a few extra stages for registers.
  std::vector<std::size_t> slice_prefs{opt.slice_pref};
  for (std::size_t s = opt.slice_pref / 2; s >= 4; s /= 2) slice_prefs.push_back(s);

  const std::size_t capacity = dev.reg_bytes_per_warp();
  std::string last_error =
      opt.warps > 0
          ? "warp count p=" + std::to_string(opt.warps) +
                " does not divide the problem shape (1D needs m % grid == 0; "
                "2D/3D need m, n, k % grid == 0)"
          : "no warp candidate divides the problem shape (1D needs m % grid == 0; "
            "2D/3D need m, n, k % grid == 0)";
  std::vector<std::size_t> chunk_candidates{0};
  if (algo == Algo::ThreeD) chunk_candidates.push_back(16);

  // Planner decisions are part of the observability contract: how many
  // candidate (p, ratio, slice) configurations were examined and why the
  // losers were rejected.
  auto& metrics = obs::MetricRegistry::current();
  obs::Counter& tried = metrics.counter("planner.candidates_tried");
  obs::Counter& rejected_regs = metrics.counter("planner.candidates_rejected_registers");
  obs::Counter& rejected_smem = metrics.counter("planner.candidates_rejected_smem");
  metrics.counter("planner.plans_requested").increment();

  for (int p : warp_candidates) {
    if (!shape_divisible(algo, m, n, k, p)) continue;
    for (std::size_t nchunk : chunk_candidates) {
      if (nchunk != 0 && (n / static_cast<std::size_t>(warp_grid(algo, p))) % nchunk != 0)
        continue;
      for (std::size_t pref : slice_prefs) {
        for (double ratio : ratio_candidates) {
          Plan plan = make_candidate(algo, m, n, k, p, ratio, pref);
          plan.n_chunk = nchunk;
          plan.reg_demand_bytes = register_demand_bytes(plan, prec, m, n, k);
          const std::size_t smem_need = smem_demand_bytes(plan, prec, m, n);
          tried.increment();
          if (plan.reg_demand_bytes <= capacity &&
              smem_need <= dev.smem_bytes_per_block) {
            metrics.histogram("planner.reg_demand_bytes")
                .observe(static_cast<double>(plan.reg_demand_bytes));
            return plan;
          }
          if (plan.reg_demand_bytes > capacity) {
            rejected_regs.increment();
            last_error = "register demand " + std::to_string(plan.reg_demand_bytes) +
                         " B exceeds the " + std::to_string(capacity) +
                         " B register file (p=" + std::to_string(p) +
                         ", ratio=" + std::to_string(ratio) + ")";
          } else {
            rejected_smem.increment();
            last_error = "spill footprint " + std::to_string(smem_need) +
                         " B exceeds the " + std::to_string(dev.smem_bytes_per_block) +
                         " B shared memory (p=" + std::to_string(p) +
                         ", ratio=" + std::to_string(ratio) + ")";
          }
        }
      }
    }
  }
  metrics.counter("planner.infeasible").increment();
  // Name the request alongside the failed constraint so callers (and chaos
  // logs) can reproduce the rejection without a debugger.
  const char* algo_tag = algo == Algo::OneD ? "1d" : (algo == Algo::TwoD ? "2d" : "3d");
  throw sim::RegisterOverflow(
      "no feasible launch plan for algo=" + std::string(algo_tag) + " prec=" +
      precision_name(prec) + " m=" + std::to_string(m) + " n=" + std::to_string(n) +
      " k=" + std::to_string(k) + " on " + dev.name + ": " + last_error);
}

}  // namespace kami::core
