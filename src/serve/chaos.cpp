#include "serve/chaos.hpp"

#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <iomanip>
#include <sstream>
#include <utility>

#include "baselines/reference.hpp"
#include "exec/engine.hpp"
#include "util/rng.hpp"

namespace kami::serve {
namespace {

/// Shortest round-trip-exact decimal rendering (violation messages and
/// replay digests compare byte-for-byte).
std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

/// KAMI-3D's tolerance vs the FP64 reference, per element, scaled by k at
/// the call site (same table as verify::check_point).
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

/// The fault-injection hooks one ChaosFault arms (AllocFailure consumes
/// `alloc_countdown`; the other faults ignore it).
verify::FaultHooks hooks_for(ChaosFault f, long long alloc_countdown) {
  verify::FaultHooks hooks;
  hooks.armed_runs = 0;  // start disarmed; each case arms exactly its fault
  switch (f) {
    case ChaosFault::None:
      break;
    case ChaosFault::TransientWarpSkew:
      hooks.warp_advance_skew = -1e9;
      hooks.armed_runs = 1;
      break;
    case ChaosFault::TransientPortSkew:
      hooks.port_busy_skew = 1.0;
      hooks.armed_runs = 1;
      break;
    case ChaosFault::PermanentWarpSkew:
      hooks.warp_advance_skew = -1e9;
      hooks.armed_runs = -1;
      break;
    case ChaosFault::AllocFailure:
      hooks.alloc_fail_countdown = alloc_countdown;
      break;
  }
  return hooks;
}

template <Scalar T>
bool bits_equal(const Matrix<T>& a, const Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// The bit-correct-or-typed contract on one finished ServeResult. Returns ""
/// when the contract holds, else the violation detail.
template <Scalar T>
std::string contract_violation(const ServeResult<T>& res, const Matrix<T>& A,
                               const Matrix<T>& B, sim::ExecMode mode,
                               double deadline_cycles) {
  if (res.ok()) {
    // TimingOnly KAMI rungs carry no numerics to check; the reference rung
    // and degenerate shapes always compute.
    const bool computed =
        res.from_reference || res.degenerate || sim::mode_computes(mode);
    if (!computed) return "";
    if (res.from_reference || res.degenerate || res.served != core::Algo::ThreeD) {
      const Matrix<T> ref = baselines::reference_gemm(A, B);
      if (!bits_equal(res.C, ref))
        return "silent corruption: " + res.rung_label +
               " result does not match the reference rounding model bit-for-bit";
    } else {
      const Matrix<double> ref = baselines::reference_gemm_fp64(A, B);
      const double bound = reference_tolerance(num_traits<T>::precision) *
                           static_cast<double>(A.cols());
      const double err = max_abs_diff(res.C, ref);
      if (!(err <= bound))
        return "silent corruption: kami_3d deviates from the FP64 reference "
               "(max |delta| = " + fmt(err) + " > " + fmt(bound) + ")";
    }
    return "";
  }
  if (res.message.empty())
    return std::string("typed error ") + error_code_name(res.code) +
           " carries an empty message";
  if (res.code == ErrorCode::InternalInvariant)
    return "injected fault misclassified as a simulator bug: " + res.message;
  if (res.code == ErrorCode::DeadlineExceeded && deadline_cycles <= 0.0)
    return "deadline error without a deadline: " + res.message;
  return "";
}

FleetConfig fleet_config_for(const ChaosPoint& p,
                             const std::shared_ptr<obs::FlightRecorder>& flight,
                             const std::shared_ptr<SloTracker>& slo,
                             const std::string& prefix) {
  FleetConfig cfg;
  for (const std::string& name : p.devices) {
    FleetDeviceConfig dev;
    dev.spec = sim::device_by_name(name);
    dev.queue_depth = p.queue_depth;
    cfg.devices.push_back(std::move(dev));
  }
  // Manual drain: no worker threads, so queue fill order, overflow reroutes,
  // and execution order are functions of the point alone.
  cfg.async_workers_per_device = 0;
  cfg.probe_cooldown_requests = p.probe_cooldown;
  cfg.blackout_failure_threshold = 1;
  cfg.hedge_deadline_requests = p.hedge;
  cfg.route_skew = p.route_skew;
  // Hermetic planner state: routing must not read (or warm) the process-wide
  // ProfileCache/Predictor, or a replay would route differently.
  cfg.profile_cache = std::make_shared<core::ProfileCache>();
  cfg.predictor = std::make_shared<model::Predictor>();
  cfg.flight = flight;
  cfg.slo = slo;
  cfg.request_id_prefix = prefix;
  return cfg;
}

/// One storm request's operands (kept so its result can be bit-checked).
struct StormRequest {
  Matrix<fp16_t> A;
  Matrix<fp16_t> B;
  std::future<FleetResult<fp16_t>> future;
};

template <Scalar T>
ChaosOutcome run_scenario(const ChaosPoint& p,
                          const std::shared_ptr<obs::FlightRecorder>& flight,
                          const std::shared_ptr<SloTracker>& slo,
                          const std::string& prefix, std::string* digest) {
  ChaosOutcome out;
  FleetServer fleet(fleet_config_for(p, flight, slo, prefix));
  for (std::size_t i = 0; i < fleet.device_count(); ++i)
    if (p.blackout_mask & (1u << i)) fleet.set_blackout(i, true);

  Rng rng(p.base.data_seed);
  const Matrix<T> A = random_matrix<T>(p.base.m, p.base.k, rng);
  const Matrix<T> B = random_matrix<T>(p.base.k, p.base.n, rng);

  core::GemmOptions opt = p.base.options;
  opt.mode = p.mode;
  opt.record_trace = false;
  opt.record_regions = false;
  opt.deadline_cycles = p.deadline_cycles;

  // -- queue-overflow storm: a burst of tiny async requests against the
  // point's deliberately small shard queues, then one deterministic drain.
  std::vector<StormRequest> storm;
  storm.reserve(static_cast<std::size_t>(p.storm_requests));
  Rng storm_rng(p.base.data_seed ^ 0x5702A11B5ull);
  for (int i = 0; i < p.storm_requests; ++i) {
    const std::size_t dims[] = {16, 32};
    const std::size_t m = dims[storm_rng.uniform_index(2)];
    const std::size_t n = dims[storm_rng.uniform_index(2)];
    const std::size_t k = dims[storm_rng.uniform_index(2)];
    StormRequest req{random_matrix<fp16_t>(m, k, storm_rng),
                     random_matrix<fp16_t>(k, n, storm_rng), {}};
    req.future = fleet.submit_async<fp16_t>(core::Algo::OneD, req.A, req.B);
    storm.push_back(std::move(req));
  }
  fleet.drain();
  for (std::size_t i = 0; i < storm.size(); ++i) {
    StormRequest& req = storm[i];
    if (!req.future.valid() ||
        req.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      out.violation = true;
      out.detail = "request lost: storm future " + std::to_string(i) +
                   " not ready after drain()";
      out.rung_label = "crash";
      return out;
    }
    const FleetResult<fp16_t> r = req.future.get();
    if (r.ok())
      ++out.storm_ok;
    else if (r.result.code == ErrorCode::ResourceExhausted)
      ++out.storm_rejected;
    const std::string detail =
        contract_violation(r.result, req.A, req.B, sim::ExecMode::Full, 0.0);
    if (!detail.empty()) {
      out.violation = true;
      out.detail = "storm request " + std::to_string(i) + ": " + detail;
      out.rung_label = "error";
      return out;
    }
  }

  // -- the main request, under the point's injected fault.
  FleetResult<T> res;
  {
    const verify::ScopedFault guard(hooks_for(p.fault, p.alloc_countdown));
    try {
      res = fleet.serve<T>(p.base.algo, A, B, opt);
    } catch (const std::exception& e) {
      out.violation = true;
      out.detail = std::string("exception escaped FleetServer::serve(): ") + e.what();
      out.rung_label = "crash";
      return out;
    } catch (...) {
      out.violation = true;
      out.detail = "non-std exception escaped FleetServer::serve()";
      out.rung_label = "crash";
      return out;
    }
  }
  out.code = res.result.code;
  out.message = res.result.message;
  out.rung_label = res.ok() ? res.result.rung_label : "error";
  out.device = res.device;
  out.failovers = res.failovers;
  out.hedged = res.hedged;

  std::string detail =
      contract_violation(res.result, A, B, p.mode, p.deadline_cycles);
  if (detail.empty() && res.result.code == ErrorCode::DeviceUnavailable &&
      p.blackout_mask == 0)
    detail = "device_unavailable error with no blacked-out device: " + res.result.message;
  if (!detail.empty()) {
    out.violation = true;
    out.detail = detail;
    return out;
  }

  // -- failover bit-identity: fault-free success must be bit-identical to a
  // direct serve on the device the fleet says it used — failover and hedging
  // may change *where* a request ran, never *what* it produced.
  if (p.fault == ChaosFault::None && res.ok() && res.device_index >= 0 &&
      !res.result.degenerate &&
      (res.result.from_reference || sim::mode_computes(p.mode))) {
    GemmServer direct;
    const ServeResult<T> d = direct.serve<T>(
        p.base.algo, fleet.device(static_cast<std::size_t>(res.device_index)), A, B, opt);
    if (!d.ok()) {
      out.violation = true;
      out.detail = "failover identity: direct serve on \"" + res.device +
                   "\" failed (" + error_code_name(d.code) + ") where the fleet served ok";
      return out;
    }
    if (!bits_equal(res.result.C, d.C)) {
      out.violation = true;
      out.detail = "failover identity: fleet result on \"" + res.device +
                   "\" is not bit-identical to a direct serve on the same device";
      return out;
    }
  }

  // -- recovery: with the blackout cleared, the probe state machine must
  // return every marked-down device to Healthy within cooldown + 2 requests.
  if (p.blackout_mask != 0) {
    for (std::size_t i = 0; i < fleet.device_count(); ++i) fleet.set_blackout(i, false);
    Rng pump_rng(p.base.data_seed ^ 0x9ECB0EEull);
    const Matrix<fp16_t> pa = random_matrix<fp16_t>(16, 16, pump_rng);
    const Matrix<fp16_t> pb = random_matrix<fp16_t>(16, 16, pump_rng);
    for (int i = 0; i < p.probe_cooldown + 2; ++i)
      fleet.serve<fp16_t>(core::Algo::OneD, pa, pb);
    for (std::size_t i = 0; i < fleet.device_count(); ++i) {
      if (fleet.health(i) != DeviceHealth::Healthy) {
        out.violation = true;
        out.detail = "device \"" + fleet.device(i).name + "\" stuck " +
                     device_health_name(fleet.health(i)) + " after the blackout cleared "
                     "and " + std::to_string(p.probe_cooldown + 2) + " probe requests";
        return out;
      }
    }
  }

  if (digest != nullptr) {
    std::ostringstream os;
    os << error_code_name(out.code) << '|' << out.message << '|' << out.device << '|'
       << out.failovers << '|' << out.rung_label << '|' << fmt(res.end_to_end_cycles)
       << '|' << out.storm_ok << '|' << out.storm_rejected;
    *digest = os.str();
  }
  return out;
}

template <Scalar T>
ChaosOutcome run_point_impl(const ChaosPoint& p,
                            const std::shared_ptr<obs::FlightRecorder>& flight,
                            const std::shared_ptr<SloTracker>& slo,
                            const std::string& prefix) {
  std::string first_digest;
  ChaosOutcome out = run_scenario<T>(p, flight, slo, prefix, &first_digest);
  if (out.violation) return out;

  // Deterministic replay: the whole scenario again from scratch — fresh
  // fleet, fresh hermetic planner state, same ids — must reproduce the same
  // outcome byte-for-byte. (Observability detached: it must not matter.)
  std::string replay_digest;
  const ChaosOutcome replay = run_scenario<T>(p, nullptr, nullptr, prefix, &replay_digest);
  if (replay.violation) return replay;
  if (first_digest != replay_digest) {
    out.violation = true;
    out.detail = "nondeterministic replay: \"" + first_digest + "\" vs \"" +
                 replay_digest + "\"";
  }
  return out;
}

void fold_outcome(ChaosReport& report, std::uint64_t seed, const ChaosPoint& p,
                  const ChaosOutcome& o) {
  ++report.ran;
  ++report.by_fault[chaos_fault_name(p.fault)];
  ++report.by_rung[o.rung_label];
  ++report.by_fleet[std::to_string(p.devices.size()) +
                    (p.devices.size() == 1 ? " device" : " devices")];
  if (o.code == ErrorCode::Ok && !o.violation) ++report.served_ok;
  if (o.code != ErrorCode::Ok) {
    ++report.typed_errors;
    ++report.by_code[error_code_name(o.code)];
  }
  report.failovers += static_cast<std::size_t>(o.failovers);
  if (o.hedged) ++report.hedged;
  report.storm_requests += static_cast<std::size_t>(p.storm_requests);
  report.storm_rejected += static_cast<std::size_t>(o.storm_rejected);
  if (!o.device.empty()) ++report.by_device[o.device];
  if (o.violation)
    report.violations.push_back(ChaosViolation{seed, to_string(p), o.detail});
}

}  // namespace

const char* chaos_fault_name(ChaosFault f) noexcept {
  switch (f) {
    case ChaosFault::None: return "none";
    case ChaosFault::TransientWarpSkew: return "transient_warp_skew";
    case ChaosFault::TransientPortSkew: return "transient_port_skew";
    case ChaosFault::PermanentWarpSkew: return "permanent_warp_skew";
    case ChaosFault::AllocFailure: return "alloc_failure";
  }
  return "unknown";
}

ChaosPoint chaos_point(std::uint64_t seed) {
  ChaosPoint p;
  p.base = verify::random_point(seed);
  // Independent stream for the chaos conditions so the underlying verify
  // point is exactly the one `kami_verify repro <seed>` rebuilds.
  Rng rng(seed ^ 0xC4A05C4A05ull);

  const double fault_roll = rng.uniform();
  if (fault_roll < 0.45) {
    p.fault = ChaosFault::None;
  } else if (fault_roll < 0.60) {
    p.fault = ChaosFault::TransientWarpSkew;
  } else if (fault_roll < 0.70) {
    p.fault = ChaosFault::TransientPortSkew;
  } else if (fault_roll < 0.82) {
    p.fault = ChaosFault::PermanentWarpSkew;
  } else {
    p.fault = ChaosFault::AllocFailure;
    p.alloc_countdown = static_cast<long long>(rng.uniform_index(4));
  }

  // Log-uniform deadlines straddle typical kernel latencies, so the campaign
  // sees both deadline aborts and under-budget completions.
  if (rng.bernoulli(0.3))
    p.deadline_cycles = std::exp(rng.uniform(std::log(100.0), std::log(1e6)));

  const double mode_roll = rng.uniform();
  p.mode = mode_roll < 0.70  ? sim::ExecMode::Full
           : mode_roll < 0.85 ? sim::ExecMode::TimingOnly
                               : sim::ExecMode::NumericsOnly;

  // Half the points serve on a one-device fleet of the verify point's own
  // device (the single-server case); the rest on the Table-3 fleet.
  if (rng.bernoulli(0.5)) {
    p.devices = {p.base.device};
  } else {
    for (const FleetDeviceConfig& dev : table3_fleet().devices)
      p.devices.push_back(dev.spec.name);
  }
  const std::size_t n = p.devices.size();

  // Blackouts cover a nonempty subset of the fleet, possibly all of it — a
  // full outage must still come back as a typed error, never a crash. A
  // one-device blackout is always a full outage, so it is rarer there and
  // most single-device points reach the ladder under their fault.
  if (rng.bernoulli(n == 1 ? 0.15 : 0.55))
    p.blackout_mask =
        1u + static_cast<std::uint32_t>(rng.uniform_index((std::size_t{1} << n) - 1));
  // Routing skew and hedging need a second device to route to.
  if (n > 1) {
    if (rng.bernoulli(0.4)) {
      p.route_skew.resize(n);
      for (double& s : p.route_skew)
        s = std::exp(rng.uniform(std::log(0.25), std::log(4.0)));
    }
    p.hedge = rng.bernoulli(0.25);
  }
  if (rng.bernoulli(0.35)) {
    p.storm_requests = 4 + static_cast<int>(rng.uniform_index(13));
    p.queue_depth = 1 + rng.uniform_index(3);
  }
  p.probe_cooldown = 1 + static_cast<int>(rng.uniform_index(3));
  return p;
}

std::string to_string(const ChaosPoint& p) {
  std::ostringstream os;
  os << verify::to_string(p.base) << " devices=" << p.devices.size()
     << " fault=" << chaos_fault_name(p.fault);
  if (p.fault == ChaosFault::AllocFailure) os << " alloc_countdown=" << p.alloc_countdown;
  os << " deadline=" << fmt(p.deadline_cycles) << " exec=" << sim::exec_mode_name(p.mode)
     << " blackout=0x" << std::hex << p.blackout_mask << std::dec;
  if (!p.route_skew.empty()) {
    os << " skew=[";
    for (std::size_t i = 0; i < p.route_skew.size(); ++i)
      os << (i ? "," : "") << fmt(p.route_skew[i]);
    os << "]";
  }
  os << " hedge=" << (p.hedge ? "true" : "false") << " storm=" << p.storm_requests
     << " qdepth=" << p.queue_depth << " cooldown=" << p.probe_cooldown;
  return os.str();
}

ChaosOutcome run_chaos_point(const ChaosPoint& p,
                             const std::shared_ptr<obs::FlightRecorder>& flight,
                             const std::shared_ptr<SloTracker>& slo,
                             const std::string& request_id_prefix) {
  switch (p.base.precision) {
    case Precision::FP64: return run_point_impl<double>(p, flight, slo, request_id_prefix);
    case Precision::FP32: return run_point_impl<float>(p, flight, slo, request_id_prefix);
    case Precision::TF32: return run_point_impl<tf32_t>(p, flight, slo, request_id_prefix);
    case Precision::FP16: return run_point_impl<fp16_t>(p, flight, slo, request_id_prefix);
    case Precision::BF16: return run_point_impl<bf16_t>(p, flight, slo, request_id_prefix);
    case Precision::FP8E4M3:
      return run_point_impl<fp8_e4m3_t>(p, flight, slo, request_id_prefix);
  }
  ChaosOutcome out;
  out.violation = true;
  out.detail = "unknown precision in chaos point";
  out.rung_label = "crash";
  return out;
}

ChaosReport run_campaign(std::uint64_t base_seed, std::size_t points, int workers,
                         const std::shared_ptr<obs::FlightRecorder>& flight,
                         const std::shared_ptr<SloTracker>& slo) {
  // Every point gets a fresh fleet (hermetic planner state included), so
  // points never interact and the campaign is order-independent. Outcomes
  // land in seed-indexed slots and the report folds serially in seed order —
  // bit-identical (counts, map contents, violation order) for every worker
  // count. Observability rides the same mechanism: each point traces into
  // its own recorder/tracker, folded into `flight`/`slo` in seed order.
  const exec::ExecutionEngine engine(workers);
  struct PointRun {
    ChaosPoint point;
    ChaosOutcome outcome;
    std::vector<obs::RequestTrace> traces;
    std::shared_ptr<SloTracker> slo;
  };
  const auto runs = engine.parallel_map<PointRun>(points, [&](std::size_t i) {
    PointRun run;
    const std::uint64_t seed = base_seed + i;
    run.point = chaos_point(seed);
    std::shared_ptr<obs::FlightRecorder> point_flight;
    if (flight) point_flight = std::make_shared<obs::FlightRecorder>(flight->config());
    if (slo) run.slo = std::make_shared<SloTracker>();
    run.outcome = run_chaos_point(run.point, point_flight, run.slo,
                                  "seed" + std::to_string(seed));
    if (point_flight) run.traces = point_flight->snapshot();
    return run;
  });

  ChaosReport report;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const PointRun& run = runs[i];
    fold_outcome(report, base_seed + i, run.point, run.outcome);
    if (flight)
      for (const obs::RequestTrace& t : run.traces) flight->record(t);
    if (slo) slo->merge_from(*run.slo);
  }
  return report;
}

}  // namespace kami::serve
