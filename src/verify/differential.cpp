#include "verify/differential.hpp"

#include <cstring>
#include <iomanip>
#include <optional>
#include <sstream>

#include "baselines/reference.hpp"
#include "exec/engine.hpp"
#include "util/rng.hpp"
#include "verify/data_plane.hpp"
#include "verify/invariants.hpp"

namespace kami::verify {
namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

// Device names contain spaces ("RTX 5090"); specs are whitespace-tokenized.
std::string encode_name(std::string s) {
  for (char& c : s)
    if (c == ' ') c = '_';
  return s;
}
std::string decode_name(std::string s) {
  for (char& c : s)
    if (c == '_') c = ' ';
  return s;
}

constexpr Precision kPrecisions[] = {Precision::FP64, Precision::FP32,
                                     Precision::TF32, Precision::FP16,
                                     Precision::BF16, Precision::FP8E4M3};

Precision precision_from_token(const std::string& tok) {
  for (const Precision p : kPrecisions)
    if (tok == precision_name(p)) return p;
  throw PreconditionError("unknown precision token: " + tok);
}

const char* algo_token(core::Algo a) {
  switch (a) {
    case core::Algo::OneD: return "1d";
    case core::Algo::TwoD: return "2d";
    case core::Algo::ThreeD: return "3d";
  }
  return "?";
}

core::Algo algo_from_token(const std::string& tok) {
  if (tok == "1d") return core::Algo::OneD;
  if (tok == "2d") return core::Algo::TwoD;
  if (tok == "3d") return core::Algo::ThreeD;
  throw PreconditionError("unknown algo token: " + tok);
}

template <Scalar T>
bool bits_equal(const Matrix<T>& a, const Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Relative tolerance (scaled by k, the reduction length) for KAMI-3D vs the
/// FP64 reference; matches tests/core/kami_correctness_test.cpp.
double reference_tolerance(Precision p) {
  switch (p) {
    case Precision::FP64: return 1e-12;
    case Precision::FP32: return 1e-5;
    case Precision::TF32: return 1e-2;
    case Precision::FP16: return 1e-2;
    case Precision::BF16: return 1e-1;
    case Precision::FP8E4M3: return 8e-2;
  }
  return 1e-2;
}

template <Scalar T>
CheckResult check_impl(const CheckPoint& p) {
  const sim::DeviceSpec& dev = sim::device_by_name(p.device);
  if (!dev.supports(num_traits<T>::precision))
    return {true, true,
            std::string(precision_name(num_traits<T>::precision)) +
                " not supported on " + dev.name};

  Rng rng(p.data_seed);
  const Matrix<T> A = random_matrix<T>(p.m, p.k, rng);
  const Matrix<T> B = random_matrix<T>(p.k, p.n, rng);

  core::GemmOptions full = p.options;
  full.mode = sim::ExecMode::Full;
  full.record_trace = false;
  full.record_regions = false;
  core::GemmOptions timing = full;
  timing.mode = sim::ExecMode::TimingOnly;
  core::GemmOptions numeric = full;
  numeric.mode = sim::ExecMode::NumericsOnly;

  // The data plane is the reference the three front-door modes answer to.
  std::optional<core::GemmResult<T>> d;
  try {
    d.emplace(data_plane_gemm(p.algo, dev, A, B, full));
  } catch (const InvariantViolation&) {
    throw;  // always a simulator bug, never an infeasible point
  } catch (const PreconditionError& e) {
    // Infeasible point. Feasibility must be mode-independent: the front
    // door's Full and TimingOnly see the same planner and allocators and
    // must reject it with the same error.
    for (const core::GemmOptions& opt : {full, timing}) {
      try {
        (void)kami::gemm(p.algo, dev, A, B, opt);
      } catch (const InvariantViolation&) {
        throw;
      } catch (const PreconditionError& f) {
        if (std::string(f.what()) != e.what())
          return {false, false,
                  std::string(sim::exec_mode_name(opt.mode)) +
                      " rejected the point differently from the data plane (" + f.what() +
                      " vs " + e.what() + ")"};
        continue;
      }
      return {false, false,
              std::string("the data plane rejected the point but ") +
                  sim::exec_mode_name(opt.mode) + " accepted it (data plane: " + e.what() +
                  ")"};
    }
    return {true, true, std::string("infeasible: ") + e.what()};
  }

  for (const core::GemmOptions& opt : {full, timing}) {
    const auto r = kami::gemm(p.algo, dev, A, B, opt);
    const std::string mode = sim::exec_mode_name(opt.mode);
    if (const std::string diff = profile_diff(r.profile, d->profile); !diff.empty())
      return {false, false, mode + " profile diverges from the data plane: " + diff};
    if (r.warps != d->warps || r.smem_ratio != d->smem_ratio)
      return {false, false, mode + " resolved a different plan than the data plane"};
    if (opt.mode == sim::ExecMode::Full && !bits_equal(r.C, d->C))
      return {false, false,
              "Full result diverges from the data plane (max |delta| = " +
                  fmt(max_abs_diff(r.C, d->C)) + ")"};
  }

  const auto nres = kami::gemm(p.algo, dev, A, B, numeric);
  if (!bits_equal(nres.C, d->C))
    return {false, false,
            "NumericsOnly result diverges from the data plane (max |delta| = " +
                fmt(max_abs_diff(nres.C, d->C)) + ")"};

  if (p.algo == core::Algo::ThreeD) {
    const Matrix<double> ref = baselines::reference_gemm_fp64(A, B);
    const double bound =
        reference_tolerance(num_traits<T>::precision) * static_cast<double>(p.k);
    const double err = max_abs_diff(d->C, ref);
    if (!(err <= bound))
      return {false, false,
              "KAMI-3D deviates from the FP64 reference: max |delta| = " + fmt(err) +
                  " > " + fmt(bound)};
  } else {
    const Matrix<T> ref = baselines::reference_gemm(A, B);
    if (!bits_equal(d->C, ref))
      return {false, false,
              std::string(algo_name(p.algo)) +
                  " must match the reference bit-for-bit (max |delta| = " +
                  fmt(max_abs_diff(d->C, ref)) + ")"};
  }
  return {true, false, ""};
}

}  // namespace

std::string to_string(const CheckPoint& p) {
  std::ostringstream os;
  os << "device=" << encode_name(p.device) << " prec=" << precision_name(p.precision)
     << " algo=" << algo_token(p.algo) << " m=" << p.m << " n=" << p.n << " k=" << p.k
     << " warps=" << p.options.warps << " smem_ratio=" << fmt(p.options.smem_ratio)
     << " slice_pref=" << p.options.slice_pref
     << " io=" << (p.options.charge_global_io ? 1 : 0)
     << " theta_r=" << fmt(p.options.theta_r) << " theta_w=" << fmt(p.options.theta_w)
     << " seed=" << p.data_seed;
  return os.str();
}

CheckPoint point_from_string(const std::string& line) {
  CheckPoint p;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    const auto eq = tok.find('=');
    KAMI_REQUIRE(eq != std::string::npos,
                 "check-point token must be key=value, got: " + tok);
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    if (key == "device") {
      p.device = decode_name(val);
    } else if (key == "prec") {
      p.precision = precision_from_token(val);
    } else if (key == "algo") {
      p.algo = algo_from_token(val);
    } else if (key == "m") {
      p.m = std::stoul(val);
    } else if (key == "n") {
      p.n = std::stoul(val);
    } else if (key == "k") {
      p.k = std::stoul(val);
    } else if (key == "warps") {
      p.options.warps = std::stoi(val);
    } else if (key == "smem_ratio") {
      p.options.smem_ratio = std::stod(val);
    } else if (key == "slice_pref") {
      p.options.slice_pref = std::stoul(val);
    } else if (key == "io") {
      p.options.charge_global_io = val != "0";
    } else if (key == "theta_r") {
      p.options.theta_r = std::stod(val);
    } else if (key == "theta_w") {
      p.options.theta_w = std::stod(val);
    } else if (key == "seed") {
      p.data_seed = std::stoull(val);
    } else {
      throw PreconditionError("unknown check-point key: " + key);
    }
  }
  return p;
}

std::string profile_diff(const sim::KernelProfile& a, const sim::KernelProfile& b) {
  std::ostringstream os;
  const auto field = [&os](const char* name, double x, double y) {
    if (x != y) os << name << ": " << fmt(x) << " vs " << fmt(y) << "; ";
  };
  field("latency", a.latency, b.latency);
  field("tc_busy", a.tc_busy, b.tc_busy);
  field("smem_busy", a.smem_busy, b.smem_busy);
  field("gmem_busy", a.gmem_busy, b.gmem_busy);
  field("vector_busy", a.vector_busy, b.vector_busy);
  field("useful_flops", a.useful_flops, b.useful_flops);
  field("reg_bytes_per_warp", static_cast<double>(a.reg_bytes_per_warp),
        static_cast<double>(b.reg_bytes_per_warp));
  field("smem_bytes", static_cast<double>(a.smem_bytes),
        static_cast<double>(b.smem_bytes));
  field("num_warps", a.num_warps, b.num_warps);
  field("breakdown.smem_comm", a.mean_breakdown.smem_comm, b.mean_breakdown.smem_comm);
  field("breakdown.gmem", a.mean_breakdown.gmem, b.mean_breakdown.gmem);
  field("breakdown.reg_copy", a.mean_breakdown.reg_copy, b.mean_breakdown.reg_copy);
  field("breakdown.compute", a.mean_breakdown.compute, b.mean_breakdown.compute);
  field("breakdown.sync_wait", a.mean_breakdown.sync_wait, b.mean_breakdown.sync_wait);
  return os.str();
}

CheckResult check_point(const CheckPoint& p) {
  switch (p.precision) {
    case Precision::FP64: return check_impl<double>(p);
    case Precision::FP32: return check_impl<float>(p);
    case Precision::TF32: return check_impl<tf32_t>(p);
    case Precision::FP16: return check_impl<fp16_t>(p);
    case Precision::BF16: return check_impl<bf16_t>(p);
    case Precision::FP8E4M3: return check_impl<fp8_e4m3_t>(p);
  }
  throw PreconditionError("unknown precision in check point");
}

CheckPoint random_point(std::uint64_t seed) {
  Rng rng(seed);
  CheckPoint p;
  p.data_seed = seed * 0x9e3779b97f4a7c15ull + 1;

  static constexpr const char* kDevices[] = {"GH200", "RTX 5090", "7900 XTX",
                                             "Max 1100"};
  p.device = kDevices[rng.uniform_index(4)];
  const sim::DeviceSpec& dev = sim::device_by_name(p.device);

  p.precision = kPrecisions[rng.uniform_index(6)];
  for (int tries = 0; tries < 8 && !dev.supports(p.precision); ++tries)
    p.precision = kPrecisions[rng.uniform_index(6)];
  if (!dev.supports(p.precision)) p.precision = Precision::FP16;

  static constexpr core::Algo kAlgos[] = {core::Algo::OneD, core::Algo::TwoD,
                                          core::Algo::ThreeD};
  p.algo = kAlgos[rng.uniform_index(3)];

  // Multiples of 16 keep shapes MMA-aligned; infeasible combinations (e.g.
  // 27 warps with a dimension not divisible by 3) exercise the consistent-
  // rejection path rather than being avoided.
  static constexpr std::size_t kDims[] = {16, 32, 48, 64, 96};
  p.m = kDims[rng.uniform_index(5)];
  p.n = kDims[rng.uniform_index(5)];
  p.k = kDims[rng.uniform_index(5)];

  if (rng.bernoulli(0.4)) {
    switch (p.algo) {
      case core::Algo::OneD: {
        static constexpr int kW[] = {2, 4, 8, 16};
        p.options.warps = kW[rng.uniform_index(4)];
        break;
      }
      case core::Algo::TwoD: p.options.warps = rng.bernoulli(0.5) ? 4 : 16; break;
      case core::Algo::ThreeD: p.options.warps = rng.bernoulli(0.5) ? 8 : 27; break;
    }
  }
  if (rng.bernoulli(0.3)) {
    static constexpr double kRatios[] = {0.0, 0.25, 0.5, 0.75, 0.875};
    p.options.smem_ratio = kRatios[rng.uniform_index(5)];
  }
  if (rng.bernoulli(0.2)) p.options.slice_pref = 8;
  p.options.charge_global_io = rng.bernoulli(0.25);
  static constexpr double kThetas[] = {1.0, 1.0, 0.5, 0.25};
  p.options.theta_r = kThetas[rng.uniform_index(4)];
  p.options.theta_w = kThetas[rng.uniform_index(4)];
  return p;
}

const std::vector<CheckPoint>& smoke_points() {
  static const std::vector<CheckPoint> points = [] {
    std::vector<CheckPoint> ps;
    const auto add = [&ps](const char* device, Precision prec, core::Algo algo,
                           std::size_t m, std::size_t n, std::size_t k,
                           core::GemmOptions opt = {}) {
      ps.push_back(CheckPoint{device, prec, algo, m, n, k, opt, 101});
    };
    core::GemmOptions io;
    io.charge_global_io = true;
    core::GemmOptions conflict;
    conflict.theta_r = 0.5;
    conflict.theta_w = 0.5;
    core::GemmOptions spill;
    spill.smem_ratio = 0.5;
    core::GemmOptions warps8;
    warps8.warps = 8;
    core::GemmOptions warps27;
    warps27.warps = 27;

    add("GH200", Precision::FP16, core::Algo::OneD, 64, 64, 64);
    add("GH200", Precision::FP16, core::Algo::TwoD, 64, 64, 64);
    add("GH200", Precision::FP16, core::Algo::ThreeD, 48, 48, 48);
    add("GH200", Precision::FP64, core::Algo::OneD, 64, 64, 64, warps8);
    add("GH200", Precision::FP8E4M3, core::Algo::OneD, 64, 64, 64);
    add("GH200", Precision::FP16, core::Algo::OneD, 64, 64, 128, spill);
    // Two resident B stripes per owner warp: the only smoke point whose
    // broadcast publishes a stripe other than the owner's first.
    add("GH200", Precision::FP16, core::Algo::OneD, 64, 64, 128);
    add("GH200", Precision::FP16, core::Algo::OneD, 64, 64, 64, io);
    add("GH200", Precision::FP16, core::Algo::TwoD, 32, 32, 32, conflict);
    add("RTX 5090", Precision::BF16, core::Algo::OneD, 64, 64, 64);
    add("7900 XTX", Precision::FP16, core::Algo::TwoD, 32, 32, 32);
    add("Max 1100", Precision::FP16, core::Algo::OneD, 32, 32, 32);
    // RTX 5090 has no FP64 tensor path: must skip, not fail.
    add("RTX 5090", Precision::FP64, core::Algo::OneD, 64, 64, 64);
    // Deliberately infeasible (27 warps need dimensions divisible by 3):
    // exercises the consistent-rejection branch of the checker.
    add("GH200", Precision::FP16, core::Algo::ThreeD, 64, 64, 64, warps27);
    return ps;
  }();
  return points;
}

FuzzReport run_fuzz(std::uint64_t base_seed, std::size_t iters, int workers) {
  // Fuzz points are seeded independently, so they fan out across the
  // execution engine; each point's outcome lands in its seed-indexed slot
  // and the report is folded serially, making the report (including
  // failure order) bit-identical for every worker count.
  const exec::ExecutionEngine engine(workers);
  struct Outcome {
    CheckResult result;
    std::string spec;
  };
  const auto outcomes = engine.parallel_map<Outcome>(iters, [&](std::size_t i) {
    const CheckPoint p = random_point(base_seed + i);
    Outcome o;
    o.spec = to_string(p);
    try {
      o.result = check_point(p);
    } catch (const std::exception& e) {
      o.result = CheckResult{false, false, std::string("exception: ") + e.what()};
    }
    return o;
  });

  FuzzReport rep;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    ++rep.ran;
    if (!o.result.ok)
      rep.failures.push_back({base_seed + i, o.result.detail + " [" + o.spec + "]"});
    else if (o.result.skipped)
      ++rep.skipped;
    else
      ++rep.passed;
  }
  return rep;
}

std::string invariant_selftest() {
#if KAMI_CHECK_INVARIANTS
  const sim::DeviceSpec& dev = sim::gh200();
  Rng rng(7);
  const Matrix<fp16_t> A = random_matrix<fp16_t>(32, 32, rng);
  const Matrix<fp16_t> B = random_matrix<fp16_t>(32, 32, rng);
  {
    FaultHooks fault;
    fault.warp_advance_skew = -1e9;  // rewinds every warp op's end time
    const ScopedFault guard(fault);
    try {
      (void)kami::gemm(core::Algo::OneD, dev, A, B);
      return "clock-rewind fault was not caught by the invariant layer";
    } catch (const InvariantViolation&) {
    }
  }
  {
    FaultHooks fault;
    fault.port_busy_skew = 1e6;  // double-charges the port busy counter
    const ScopedFault guard(fault);
    try {
      (void)kami::gemm(core::Algo::OneD, dev, A, B);
      return "port double-charge fault was not caught by the invariant layer";
    } catch (const InvariantViolation&) {
    }
  }
  try {
    (void)kami::gemm(core::Algo::OneD, dev, A, B);
  } catch (const std::exception& e) {
    return std::string("fault-free run failed after fault injection: ") + e.what();
  }
  return "";
#else
  return "";  // invariants compiled out; nothing to test
#endif
}

}  // namespace kami::verify
