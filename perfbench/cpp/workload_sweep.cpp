// sweep_full: what a reader regenerating the paper runs. Closed loop, one
// caller, one op per public call:
//
//   * Fig 8's seven panels in Full mode: KAMI-1D/2D/3D plus the
//     cuBLASDx-, CUTLASS- and SYCL-Bench-like baselines (143 calls);
//   * Fig 12-style FP64 batches through kami_batched_gemm on real operands;
//   * Fig 15's single-block points with record_regions on.
//
// Numerics are about half its host time and the baselines a third, so the
// host numeric kernel, the batched fast path and the span model show here
// and nowhere else.
#include <algorithm>
#include <memory>
#include <optional>
#include <span>

#include "baselines/cublasdx_like.hpp"
#include "baselines/cutlass_like.hpp"
#include "baselines/reference.hpp"
#include "baselines/syclbench_like.hpp"
#include "core/batched.hpp"
#include "core/kami.hpp"
#include "core/numeric_path.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using kami::Matrix;
using kami::Precision;
using kami::Scalar;
using kami::core::Algo;
namespace sim = kami::sim;
namespace baselines = kami::baselines;

enum Series { kKami1D, kKami2D, kKami3D, kCublasDx, kCutlass, kSycl };

/// Per-layer accounting, summed over the traced passes (untraced ops add
/// nothing: their spans measure 0).
struct LayerTotals {
  double call_kami_s = 0, call_baseline_s = 0, call_batched_s = 0;
  double sim_s = 0, sim_cycles = 0;
  std::size_t sim_replays = 0;
  double numerics_s = 0, numerics_flops = 0, numerics_peak_flop = 0;
  std::size_t batched_entries = 0;

  double calls_s() const { return call_kami_s + call_baseline_s + call_batched_s; }
};

class Case {
 public:
  virtual ~Case() = default;
  virtual void make_inputs(kami::Rng& rng) = 0;
  /// The op. With a tracer: a span around the public call plus replays.
  virtual void run(Tracer* t, std::int64_t op, const Options& opt, LayerTotals& lt) = 0;
  /// Verify the outputs of the last run; true when the op counts as ok.
  virtual bool check(Report& r) = 0;
  virtual void digest(Digest& d) const = 0;
  virtual void digest_inputs(Digest& d) const = 0;
  /// Fig 8 point (for the speed-up error), when this op is one.
  virtual std::optional<Fig8Point> fig8() const { return std::nullopt; }
  /// Simulated block latency of a feasible KAMI op (for sim_p99_kcycles).
  virtual std::optional<double> kami_latency() const { return std::nullopt; }
};

std::string where(const sim::DeviceSpec& dev, Precision prec, std::size_t n) {
  return dev.name + " " + kami::precision_name(prec) + " order " + std::to_string(n);
}

template <Scalar T>
class KamiCase final : public Case {
 public:
  KamiCase(char panel, const sim::DeviceSpec& dev, Algo algo, std::size_t n, int warps,
           bool regions, bool expect_infeasible, sim::ExecMode mode = sim::ExecMode::Full)
      : panel_(panel), dev_(dev), algo_(algo), n_(n), expect_infeasible_(expect_infeasible) {
    opt_.warps = warps;
    opt_.record_regions = regions;
    opt_.mode = mode;
  }

  void make_inputs(kami::Rng& rng) override {
    A_ = kami::random_matrix<T>(n_, n_, rng);
    B_ = kami::random_matrix<T>(n_, n_, rng);
  }

  void run(Tracer* t, std::int64_t op, const Options& opt, LayerTotals& lt) override {
    res_.reset();
    timing_.reset();
    SpanScope root(t, "op", op);
    {
      SpanScope call(t, "call.kami", op);
      try {
        res_.emplace(kami::gemm(algo_, dev_, A_, B_, opt_));
      } catch (const kami::PreconditionError& e) {
        error_ = e.what();
      }
      lt.call_kami_s += call.close();
    }
    if (!t || !res_) return;
    kami::obs::ScopedMetricShard quiet(replay_registry());
    {
      SpanScope sim_span(t, "replay.sim", op);
      timing_.emplace(kami::gemm(algo_, dev_, A_, B_, timing_options()));
      lt.sim_s += sim_span.close();
    }
    lt.sim_cycles += timing_->profile.latency;
    ++lt.sim_replays;
    {
      SpanScope num_span(t, "replay.numerics", op);
      const Matrix<T> C = kami::core::numeric_gemm(A_, B_, layers());
      const double s = num_span.close();
      const double flops = 2.0 * static_cast<double>(n_ * n_ * n_);
      const bool wide = std::is_same_v<typename kami::num_traits<T>::acc_t, double>;
      lt.numerics_s += s;
      lt.numerics_flops += flops;
      lt.numerics_peak_flop += s * 1e9 * (wide ? opt.peak_gflops_f64 : opt.peak_gflops_f32);
    }
    replay_registry().reset_values();
  }

  bool check(Report& r) override {
    const std::string at = std::string(kami::algo_name(algo_)) + " " +
                           where(dev_, kami::num_traits<T>::precision, n_);
    if (expect_infeasible_) {
      if (res_) {
        r.fail(at + ": expected a typed PreconditionError, but the call succeeded");
        return false;
      }
      try {
        (void)kami::gemm(algo_, dev_, A_, B_, timing_options());
        r.fail(at + ": Full rejected the point but TimingOnly accepted it");
        return false;
      } catch (const kami::PreconditionError&) {
        return true;
      }
    }
    if (!res_) {
      r.fail(at + ": unexpected PreconditionError: " + error_);
      return false;
    }
    if (opt_.record_regions && !res_->regions) {
      r.fail(at + ": record_regions produced no phase tree");
      return false;
    }
    if (!timing_) timing_.emplace(kami::gemm(algo_, dev_, A_, B_, timing_options()));
    if (const std::string d = profile_diff(res_->profile, timing_->profile); !d.empty()) {
      r.fail(at + ": Full profile differs from its TimingOnly replay in " + d);
      return false;
    }
    if (!bits_equal(kami::core::numeric_gemm(A_, B_, layers()), res_->C)) {
      r.fail(at + ": numeric_gemm differs from the Full result");
      return false;
    }
    if (algo_ == Algo::ThreeD) {
      const Matrix<double> ref = baselines::reference_gemm_fp64(A_, B_);
      const double bound = reassociation_tolerance(kami::num_traits<T>::precision) *
                           static_cast<double>(n_);
      if (!(kami::max_abs_diff(res_->C, ref) <= bound)) {
        r.fail(at + ": C outside the KAMI-3D tolerance of the FP64 reference");
        return false;
      }
    } else if (!bits_equal(res_->C, baselines::reference_gemm(A_, B_))) {
      r.fail(at + ": C is not bit-identical to reference_gemm");
      return false;
    }
    return true;
  }

  void digest(Digest& d) const override {
    d.u64(res_ ? 1 : 0);
    if (!res_) return;
    d.matrix(res_->C);
    d.profile(res_->profile);
  }

  void digest_inputs(Digest& d) const override {
    d.matrix(A_);
    d.matrix(B_);
  }

  std::optional<Fig8Point> fig8() const override {
    if (panel_ == 0) return std::nullopt;
    Fig8Point p;
    p.panel = panel_;
    p.series = static_cast<int>(algo_);
    p.order = n_;
    p.tflops = res_ ? sim::throughput_tflops(dev_, res_->profile, kBlocks) : 0.0;
    return p;
  }

  std::optional<double> kami_latency() const override {
    if (!res_) return std::nullopt;
    return res_->profile.latency;
  }

 private:
  kami::core::GemmOptions timing_options() const {
    kami::core::GemmOptions o = opt_;
    o.mode = sim::ExecMode::TimingOnly;
    o.record_regions = false;
    return o;
  }
  /// KAMI-3D reduces across its layers; the numeric path mirrors that.
  std::size_t layers() const {
    if (algo_ != Algo::ThreeD) return 1;
    std::size_t c = 1;
    while ((c + 1) * (c + 1) * (c + 1) <= static_cast<std::size_t>(res_->warps)) ++c;
    return c;
  }

  char panel_;  ///< Fig 8 panel, 0 for the Fig 15 points
  const sim::DeviceSpec& dev_;
  Algo algo_;
  std::size_t n_;
  bool expect_infeasible_;
  kami::core::GemmOptions opt_;
  Matrix<T> A_, B_;
  std::optional<kami::core::GemmResult<T>> res_;
  std::optional<kami::core::GemmResult<T>> timing_;
  std::string error_;
};

template <Scalar T>
class BaselineCase final : public Case {
 public:
  BaselineCase(char panel, const sim::DeviceSpec& dev, Series series, std::size_t n,
               bool expect_infeasible, sim::ExecMode mode)
      : panel_(panel), dev_(dev), series_(series), n_(n),
        expect_infeasible_(expect_infeasible), mode_(mode) {}

  void make_inputs(kami::Rng& rng) override {
    A_ = kami::random_matrix<T>(n_, n_, rng);
    B_ = kami::random_matrix<T>(n_, n_, rng);
  }

  void run(Tracer* t, std::int64_t op, const Options&, LayerTotals& lt) override {
    SpanScope root(t, "op", op);
    SpanScope call(t, "call.baseline", op);
    res_ = call_baseline(mode_);
    lt.call_baseline_s += call.close();
  }

  bool check(Report& r) override {
    const std::string at = name() + " " + where(dev_, kami::num_traits<T>::precision, n_);
    if (expect_infeasible_ != !res_.feasible) {
      r.fail(at + (expect_infeasible_ ? ": expected infeasible, but it ran"
                                      : ": unexpectedly infeasible: " + res_.note));
      return false;
    }
    if (!res_.feasible) return true;
    const auto timing = call_baseline(sim::ExecMode::TimingOnly);
    if (const std::string d = profile_diff(res_.profile, timing.profile); !d.empty()) {
      r.fail(at + ": Full profile differs from its TimingOnly replay in " + d);
      return false;
    }
    const Matrix<double> ref = baselines::reference_gemm_fp64(A_, B_);
    const double bound =
        reassociation_tolerance(kami::num_traits<T>::precision) * static_cast<double>(n_);
    if (!(kami::max_abs_diff(res_.C, ref) <= bound)) {
      const std::string what = at + ": C outside the differential tolerance of the FP64 reference";
      if (known_wrong_result()) r.known_defects.push_back(what + kDxEscalationDefect);
      else r.fail(what);
      return false;
    }
    return true;
  }

  void digest_inputs(Digest& d) const override {
    d.matrix(A_);
    d.matrix(B_);
  }

  void digest(Digest& d) const override {
    d.u64(res_.feasible ? 1 : 0);
    if (!res_.feasible) return;
    d.matrix(res_.C);
    d.profile(res_.profile);
  }

  std::optional<Fig8Point> fig8() const override {
    Fig8Point p;
    p.panel = panel_;
    p.series = series_;
    p.order = n_;
    p.tflops = res_.feasible ? sim::throughput_tflops(dev_, res_.profile, kBlocks) : 0.0;
    return p;
  }

 private:
  /// cuBLASDx-like escalates its warp count when the C accumulator does not
  /// fit the register file, but builds its ThreadBlock with the requested
  /// count, so only the first row chunks of C are computed. In Fig 8 that
  /// happens at GH200 FP16 order 192 (4 -> 16 warps).
  bool known_wrong_result() const {
    return series_ == kCublasDx && &dev_ == &sim::gh200() &&
           kami::num_traits<T>::precision == Precision::FP16 && n_ == 192;
  }
  static constexpr const char* kDxEscalationDefect =
      " (the baseline escalates p for the register file but simulates the "
      "unescalated warp count)";

  std::string name() const {
    return series_ == kCublasDx ? "cuBLASDx-like"
           : series_ == kCutlass ? "CUTLASS-like"
                                 : "SYCL-Bench-like";
  }
  baselines::BaselineResult<T> call_baseline(sim::ExecMode mode) const {
    switch (series_) {
      case kCublasDx: return baselines::cublasdx_gemm(dev_, A_, B_, 4, false, mode);
      // CUTLASS's mainloop streams A/B from global memory every iteration,
      // so its block-level profile charges global IO (as bench/ does).
      case kCutlass: return baselines::cutlass_gemm(dev_, A_, B_, true, nullptr, mode);
      default: return baselines::syclbench_gemm(dev_, A_, B_, 4, false, mode);
    }
  }

  char panel_;
  const sim::DeviceSpec& dev_;
  Series series_;
  std::size_t n_;
  bool expect_infeasible_;
  sim::ExecMode mode_;
  Matrix<T> A_, B_;
  baselines::BaselineResult<T> res_;
};

/// Fig 12-style batch: FP64 on GH200, every matrix fetched from global memory.
class BatchedCase final : public Case {
 public:
  BatchedCase(std::size_t n, std::size_t batch) : n_(n), batch_(batch) {}

  void make_inputs(kami::Rng& rng) override {
    As_.clear();
    Bs_.clear();
    for (std::size_t i = 0; i < batch_; ++i) {
      As_.push_back(kami::random_matrix<double>(n_, n_, rng));
      Bs_.push_back(kami::random_matrix<double>(n_, n_, rng));
    }
  }

  void run(Tracer* t, std::int64_t op, const Options&, LayerTotals& lt) override {
    SpanScope root(t, "op", op);
    SpanScope call(t, "call.batched", op);
    res_ = kami::core::kami_batched_gemm<double>(sim::gh200(), std::span(As_),
                                                 std::span(Bs_), Algo::OneD);
    lt.call_batched_s += call.close();
    if (t) lt.batched_entries += batch_;
  }

  bool check(Report& r) override {
    const std::string at = "kami_batched_gemm FP64 order " + std::to_string(n_);
    if (res_.C.size() != batch_ || !(res_.tflops > 0.0)) {
      r.fail(at + ": wrong batch size or no throughput");
      return false;
    }
    for (std::size_t i = 0; i < batch_; ++i)
      if (!bits_equal(res_.C[i], baselines::reference_gemm(As_[i], Bs_[i]))) {
        r.fail(at + ": entry " + std::to_string(i) + " differs from reference_gemm");
        return false;
      }
    return true;
  }

  void digest(Digest& d) const override {
    for (const auto& c : res_.C) d.matrix(c);
    d.num(res_.tflops);
  }

  void digest_inputs(Digest& d) const override {
    for (std::size_t i = 0; i < batch_; ++i) {
      d.matrix(As_[i]);
      d.matrix(Bs_[i]);
    }
  }

 private:
  std::size_t n_, batch_;
  std::vector<Matrix<double>> As_, Bs_;
  kami::core::BatchedResult<double> res_;
};

// -- the op list ----------------------------------------------------------------

/// Fig 8 points the committed results show as infeasible; each must fail
/// the same way every run (a typed error for KAMI, feasible=false for the
/// baselines).
bool kami_infeasible(char panel, Algo algo, std::size_t n) {
  return algo == Algo::ThreeD && ((panel == 'a' && n == 128) || (panel == 'e' && n == 256));
}
bool cublasdx_infeasible(char panel, std::size_t n) {
  return (panel == 'a' && n == 128) || (panel == 'c' && n == 128) ||
         (panel == 'd' && n == 192) || (panel == 'e' && n == 256);
}

template <Scalar T>
void add_panel(std::vector<std::unique_ptr<Case>>& cases, sim::ExecMode mode, char panel,
               const sim::DeviceSpec& dev, std::vector<std::size_t> orders,
               bool nvidia_baselines, bool sycl) {
  for (const std::size_t n : orders) {
    for (const Algo algo : {Algo::OneD, Algo::TwoD, Algo::ThreeD})
      cases.push_back(std::make_unique<KamiCase<T>>(
          panel, dev, algo, n, 0, false, kami_infeasible(panel, algo, n), mode));
    if (nvidia_baselines) {
      cases.push_back(std::make_unique<BaselineCase<T>>(
          panel, dev, kCublasDx, n, cublasdx_infeasible(panel, n), mode));
      cases.push_back(
          std::make_unique<BaselineCase<T>>(panel, dev, kCutlass, n, false, mode));
    }
    if (sycl)
      cases.push_back(std::make_unique<BaselineCase<T>>(panel, dev, kSycl, n, false, mode));
  }
}

std::vector<std::unique_ptr<Case>> fig8_cases(sim::ExecMode mode) {
  std::vector<std::unique_ptr<Case>> cases;
  const std::vector<std::size_t> base{16, 32, 64, 128};
  const std::vector<std::size_t> fp16{16, 32, 64, 128, 192};
  const std::vector<std::size_t> fp8{16, 32, 64, 128, 256};
  add_panel<double>(cases, mode, 'a', sim::gh200(), base, true, false);
  add_panel<kami::fp16_t>(cases, mode, 'b', sim::gh200(), fp16, true, false);
  add_panel<kami::tf32_t>(cases, mode, 'c', sim::rtx5090(), base, true, false);
  add_panel<kami::fp16_t>(cases, mode, 'd', sim::rtx5090(), fp16, true, false);
  add_panel<kami::fp8_e4m3_t>(cases, mode, 'e', sim::rtx5090(), fp8, true, false);
  add_panel<kami::fp16_t>(cases, mode, 'f', sim::amd7900xtx(), base, false, false);
  add_panel<kami::fp16_t>(cases, mode, 'g', sim::intel_max1100(), base, false, true);
  return cases;
}

std::vector<std::unique_ptr<Case>> sweep_cases() {
  std::vector<std::unique_ptr<Case>> cases = fig8_cases(sim::ExecMode::Full);
  // Fig 12: batch sizes shrink with the order so each call is comparable work.
  for (const auto& [n, batch] : {std::pair<std::size_t, std::size_t>{16, 64},
                                 {32, 32}, {64, 8}, {128, 2}})
    cases.push_back(std::make_unique<BatchedCase>(n, batch));
  // Fig 15: one block per point, 4 warps for 1D/2D and 8 for 3D, phases on.
  for (const sim::DeviceSpec* dev : {&sim::gh200(), &sim::rtx5090()})
    for (const std::size_t n : {32u, 64u, 96u, 128u})
      for (const auto& [algo, warps] :
           {std::pair{Algo::OneD, 4}, {Algo::TwoD, 4}, {Algo::ThreeD, 8}})
        cases.push_back(
            std::make_unique<KamiCase<kami::fp16_t>>(0, *dev, algo, n, warps, true, false));
  return cases;
}

}  // namespace

double fig8_speedup_error_pct(const std::vector<Fig8Point>& points) {
  // The paper's average speed-ups (EXPERIMENTS.md, Fig 8): KAMI-1D/2D/3D over
  // cuBLASDx and CUTLASS for panels a-e, over SYCL-Bench for panel g.
  struct Paper {
    char panel;
    int baseline;
    double speedup[3];
  };
  static constexpr Paper kPaper[] = {
      {'a', kCublasDx, {4.02, 2.29, 2.08}}, {'a', kCutlass, {3.65, 1.90, 1.70}},
      {'b', kCublasDx, {2.56, 1.62, 1.67}}, {'b', kCutlass, {4.54, 2.88, 2.95}},
      {'c', kCublasDx, {2.72, 2.50, 2.28}}, {'c', kCutlass, {14.38, 12.66, 11.22}},
      {'d', kCublasDx, {2.46, 2.25, 2.24}}, {'d', kCutlass, {19.98, 17.25, 17.01}},
      {'e', kCublasDx, {1.83, 1.81, 1.74}}, {'e', kCutlass, {5.40, 3.39, 2.06}},
      {'g', kSycl, {4.97, 2.20, 2.00}},
  };
  const auto series_tflops = [&](char panel, int series) {
    std::map<std::size_t, double> by_order;
    for (const Fig8Point& p : points)
      if (p.panel == panel && p.series == series && p.tflops > 0.0)
        by_order[p.order] = p.tflops;
    return by_order;
  };
  double err_sum = 0.0;
  int terms = 0;
  for (const Paper& ref : kPaper) {
    const auto base = series_tflops(ref.panel, ref.baseline);
    for (int s = 0; s < 3; ++s) {
      std::vector<double> ratios;
      for (const auto& [order, tflops] : series_tflops(ref.panel, s))
        if (const auto it = base.find(order); it != base.end())
          ratios.push_back(tflops / it->second);
      if (ratios.empty()) continue;
      double mean = 0.0;
      for (const double x : ratios) mean += x;
      mean /= static_cast<double>(ratios.size());
      err_sum += std::abs(mean / ref.speedup[s] - 1.0);
      ++terms;
    }
  }
  return terms > 0 ? 100.0 * err_sum / terms : 0.0;
}

double fig8_timing_replay_error_pct() {
  // The speed-ups depend only on profiles, which TimingOnly produces exactly.
  std::vector<std::unique_ptr<Case>> cases = fig8_cases(sim::ExecMode::TimingOnly);
  std::vector<Fig8Point> points;
  kami::Rng rng(1);
  kami::obs::MetricRegistry side;
  kami::obs::ScopedMetricShard quiet(side);
  LayerTotals unused;
  for (auto& c : cases) {
    c->make_inputs(rng);
    c->run(nullptr, -1, Options{}, unused);
    if (const auto p = c->fig8()) points.push_back(*p);
  }
  return fig8_speedup_error_pct(points);
}

Report run_sweep_full(const Options& opt, Tracer* tracer) {
  Report report;
  std::vector<std::unique_ptr<Case>> cases = sweep_cases();
  std::unique_ptr<kami::obs::MetricRegistry> registry;
  LayerTotals lt;

  PassHooks hooks;
  hooks.set_up = [&] {
    kami::Rng rng(opt.seed);
    for (auto& c : cases) c->make_inputs(rng);
    registry = std::make_unique<kami::obs::MetricRegistry>();
  };
  hooks.run = [&](std::vector<double>& op_ms, Tracer* t) {
    kami::obs::ScopedMetricShard shard(*registry);
    PassResult r;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      const double before = lt.calls_s();
      cases[i]->run(t, static_cast<std::int64_t>(i), opt, lt);
      // Traced: the public call's span only, not its replays.
      op_ms.push_back(1e3 * (t ? lt.calls_s() - before : seconds_between(t0, Clock::now())));
    }
    Digest d;
    for (const auto& c : cases) c->digest(d);
    r.digest = d.value();
    return r;
  };
  hooks.check = [&](Report& rep) {
    std::vector<Fig8Point> points;
    std::vector<double> kami_tflops, latencies;
    Digest inputs;
    for (const auto& c : cases) c->digest_inputs(inputs);
    rep.input_digest = inputs.value();
    for (auto& c : cases) {
      ++rep.attempted;
      if (c->check(rep)) ++rep.ok;
      else ++rep.failed;
      if (const auto p = c->fig8()) {
        points.push_back(*p);
        if (p->series <= kKami3D && p->tflops > 0.0) kami_tflops.push_back(p->tflops);
      }
      if (const auto lat = c->kami_latency()) latencies.push_back(*lat);
    }
    rep.metrics["sim_tflops_geomean"] = geomean(kami_tflops);
    rep.metrics["sim_speedup_err_pct"] = fig8_speedup_error_pct(points);
    rep.metrics["sim_p99_kcycles"] = percentile(latencies, 99.0) / 1e3;
    // No op carries a deadline, so none can miss one.
    rep.metrics["slo_attain_pct"] = 100.0;
    rep.metrics["obs.histogram_samples"] = histogram_samples(*registry);
  };

  HostSamples traced;
  const HostSamples s = run_passes(opt, hooks, report, tracer, tracer ? &traced : nullptr);
  host_metrics(s, report, tracer ? &traced : nullptr);

  if (tracer) {
    zero_layer_metrics(report);
    auto& m = report.metrics;
    const double call_s = lt.calls_s();
    m["sim.timing_us"] = lt.sim_replays ? 1e6 * lt.sim_s / static_cast<double>(lt.sim_replays) : 0;
    m["sim.ns_per_cycle"] = lt.sim_cycles > 0 ? 1e9 * lt.sim_s / lt.sim_cycles : 0;
    m["core.numerics_gflops"] = lt.numerics_s > 0 ? lt.numerics_flops / lt.numerics_s / 1e9 : 0;
    m["core.numerics_peak_pct"] =
        lt.numerics_peak_flop > 0 ? 100.0 * lt.numerics_flops / lt.numerics_peak_flop : 0;
    m["core.numerics_share_pct"] = 100.0 * lt.numerics_s / call_s;
    m["core.full_coupling_pct"] = 100.0 * (lt.call_kami_s - lt.sim_s - lt.numerics_s) / call_s;
    m["core.batched_us_per_entry"] =
        lt.batched_entries ? 1e6 * lt.call_batched_s / static_cast<double>(lt.batched_entries) : 0;
    m["baselines.share_pct"] = 100.0 * lt.call_baseline_s / call_s;
    report.context["sim.share_pct"] = 100.0 * lt.sim_s / call_s;
    report.context["core.batched_share_pct"] = 100.0 * lt.call_batched_s / call_s;
  }
  return report;
}

}  // namespace perfbench
