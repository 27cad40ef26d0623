// serve_fit and serve_burst: the four-device Table-3 fleet in TimingOnly
// mode, driven with serve_load's request mix.
//
//   serve_fit   closed loop, one client, synchronous FleetServer::serve on
//               the tiny/small/medium mix. No numerics and almost no
//               reference rung: the request is routing, ladder/breaker/SLO
//               bookkeeping and one TimingOnly block.
//   serve_burst open loop on serve_load's logical slot clock: Poisson
//               arrivals on a diurnal ramp with 6x bursts in 3 of every 37
//               slots, the full mix including the 384^3 FP32/FP64 tail,
//               queue depth 32 and one manual drain() per slot. Typed
//               refusals, reroutes, failover and the reference rung run
//               only here.
//
// Both run with async_workers_per_device = 0 (no threads; the async path
// would turn host queue wait into simulated cycles) and with the
// process-wide ProfileCache and Predictor cleared at the start of every
// pass, so every pass replays the same routing decisions.
#include <algorithm>
#include <memory>
#include <optional>

#include "baselines/reference.hpp"
#include "core/analytic_planner.hpp"
#include "serve/fleet.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using kami::Matrix;
using kami::Precision;
using kami::Scalar;
using kami::core::Algo;
namespace core = kami::core;
namespace serve = kami::serve;
namespace sim = kami::sim;

// -- the request trace (serve_load's mix) -------------------------------------

struct Request {
  std::size_t m = 0, n = 0, k = 0;
  Precision prec = Precision::FP16;
  Algo algo = Algo::OneD;
  double deadline_cycles = 0.0;
  std::uint32_t variant = 0;  ///< which pooled operand pair of this shape
};

constexpr std::uint32_t kVariants = 4;

/// The request trace is part of the workload's definition and is drawn from
/// this fixed seed; --seed draws every operand value. A seed therefore
/// changes the inputs and nothing else: the routing, the outcomes and every
/// simulated metric are the same for every seed, and host-time spread
/// between seeds is host noise, not a different mix.
constexpr std::uint64_t kTraceSeed = 1;

/// serve_load's heavy-tailed mix: 55% tiny, 30% small, 12% medium and (with
/// the large tail) 3% 384^3 FP32/FP64 jobs; FP16-heavy with an FP64 sliver,
/// 40/30/30 KAMI-1D/2D/3D, 2% degenerate, 25% with a log-uniform deadline.
Request draw_request(kami::Rng& rng, bool with_large) {
  static constexpr std::size_t kTiny[] = {16, 32, 48};
  static constexpr std::size_t kSmall[] = {64, 96};
  static constexpr std::size_t kMedium[] = {128, 160, 192};
  Request r;
  const auto dims = [&](const std::size_t* set, std::size_t count) {
    r.m = set[rng.uniform_index(count)];
    r.n = set[rng.uniform_index(count)];
    r.k = set[rng.uniform_index(count)];
  };
  const double c = rng.uniform() * (with_large ? 1.0 : 0.97);
  bool large = false;
  if (c < 0.55) dims(kTiny, 3);
  else if (c < 0.85) dims(kSmall, 2);
  else if (c < 0.97) dims(kMedium, 3);
  else {
    r.m = r.n = r.k = 384;
    large = true;
  }
  if (rng.bernoulli(0.02)) {
    const std::uint64_t axis = rng.uniform_index(3);
    (axis == 0 ? r.m : axis == 1 ? r.n : r.k) = 0;
  }
  const double p = rng.uniform();
  if (large) r.prec = p < 0.6 ? Precision::FP32 : Precision::FP64;
  else
    r.prec = p < 0.70 ? Precision::FP16
             : p < 0.85 ? Precision::FP32
             : p < 0.95 ? Precision::BF16
                        : Precision::FP64;
  const double a = rng.uniform();
  r.algo = a < 0.40 ? Algo::OneD : a < 0.70 ? Algo::TwoD : Algo::ThreeD;
  if (rng.bernoulli(0.25))
    r.deadline_cycles = std::exp(rng.uniform(std::log(1e3), std::log(3e6)));
  r.variant = static_cast<std::uint32_t>(rng.uniform_index(kVariants));
  return r;
}

// -- pooled operands ------------------------------------------------------------

/// Seeded operands, kVariants per (precision, rows, cols). Requests share
/// them: TimingOnly serving never reads values, and the reference rung's
/// result depends only on the pair it is given.
class OperandPool {
 public:
  void build(const std::vector<Request>& requests, std::uint64_t seed) {
    kami::Rng rng(seed);
    f16_.clear();
    f32_.clear();
    b16_.clear();
    f64_.clear();
    for (const Request& r : requests) {
      add(r.prec, r.m, r.k, rng);
      add(r.prec, r.k, r.n, rng);
    }
  }
  template <Scalar T>
  const Matrix<T>& get(std::size_t rows, std::size_t cols, std::uint32_t variant) const {
    return table<T>().at({rows, cols})[variant];
  }
  void digest(Digest& d) const {
    const auto each = [&](const auto& table) {
      for (const auto& [key, mats] : table)
        for (const auto& m : mats) d.matrix(m);
    };
    each(f16_);
    each(f32_);
    each(b16_);
    each(f64_);
  }

 private:
  using Key = std::pair<std::size_t, std::size_t>;
  template <Scalar T>
  using Table = std::map<Key, std::vector<Matrix<T>>>;

  template <Scalar T>
  const Table<T>& table() const {
    if constexpr (std::is_same_v<T, kami::fp16_t>) return f16_;
    else if constexpr (std::is_same_v<T, float>) return f32_;
    else if constexpr (std::is_same_v<T, kami::bf16_t>) return b16_;
    else return f64_;
  }
  template <Scalar T>
  static void fill(Table<T>& t, std::size_t rows, std::size_t cols, kami::Rng& rng) {
    auto& v = t[{rows, cols}];
    if (!v.empty()) return;
    for (std::uint32_t i = 0; i < kVariants; ++i)
      v.push_back(kami::random_matrix<T>(rows, cols, rng));
  }
  void add(Precision p, std::size_t rows, std::size_t cols, kami::Rng& rng) {
    switch (p) {
      case Precision::FP16: fill(f16_, rows, cols, rng); break;
      case Precision::FP32: fill(f32_, rows, cols, rng); break;
      case Precision::BF16: fill(b16_, rows, cols, rng); break;
      default: fill(f64_, rows, cols, rng); break;
    }
  }

  Table<kami::fp16_t> f16_;
  Table<float> f32_;
  Table<kami::bf16_t> b16_;
  Table<double> f64_;
};

template <typename F>
decltype(auto) with_type(Precision p, F&& f) {
  switch (p) {
    case Precision::FP16: return f(kami::fp16_t{});
    case Precision::FP32: return f(float{});
    case Precision::BF16: return f(kami::bf16_t{});
    default: return f(double{});
  }
}

// -- outcomes and their checks ---------------------------------------------------

/// What the fleet returned for one request (matrices reduced to a digest).
struct Outcome {
  serve::ErrorCode code = serve::ErrorCode::InternalInvariant;
  int device = -1;
  int failovers = 0;
  bool hedged = false;
  bool degraded = false;
  bool from_reference = false;
  bool degenerate = false;
  Algo served = Algo::OneD;
  int warps = 0;
  sim::KernelProfile profile;
  double end_to_end_cycles = 0.0;
  std::uint64_t c_digest = 0;

  bool ok() const { return code == serve::ErrorCode::Ok; }
  bool rejected() const {
    return code == serve::ErrorCode::ResourceExhausted && device < 0;
  }
  bool kami_served() const { return ok() && !from_reference && !degenerate; }
};

template <Scalar T>
std::uint64_t matrix_digest(const Matrix<T>& m) {
  Digest d;
  d.matrix(m);
  return d.value();
}

template <Scalar T>
Outcome outcome_of(serve::FleetResult<T>&& r) {
  Outcome o;
  o.code = r.result.code;
  o.device = r.device_index;
  o.failovers = r.failovers;
  o.hedged = r.hedged;
  o.degraded = r.result.degraded;
  o.from_reference = r.result.from_reference;
  o.degenerate = r.result.degenerate;
  o.served = r.result.served;
  o.warps = r.result.warps;
  o.profile = r.result.profile;
  o.end_to_end_cycles = r.end_to_end_cycles;
  if (o.ok() && (o.from_reference || o.degenerate)) o.c_digest = matrix_digest(r.result.C);
  return o;
}

void digest_outcome(Digest& d, const Outcome& o) {
  d.u64(static_cast<std::uint64_t>(o.code));
  d.u64(static_cast<std::uint64_t>(o.device + 1));
  d.u64(static_cast<std::uint64_t>(o.failovers));
  d.u64((o.hedged ? 1u : 0u) | (o.degraded ? 2u : 0u) | (o.from_reference ? 4u : 0u));
  d.u64(static_cast<std::uint64_t>(o.served));
  d.profile(o.profile);
  d.num(o.end_to_end_cycles);
  d.u64(o.c_digest);
}

core::GemmOptions request_options(const Request& r) {
  core::GemmOptions opt;
  opt.mode = sim::ExecMode::TimingOnly;
  opt.deadline_cycles = r.deadline_cycles;
  return opt;
}

/// Verify one request's outcome; true when it counts as ok for ok_pct.
/// Missed deadlines and admission refusals are correct typed outcomes that
/// count against ok_pct; any other failure code is a check failure.
bool check_outcome(const Request& r, const Outcome& o, const OperandPool& pool,
                   serve::FleetServer& fleet, std::size_t index, Report& rep) {
  const std::string at = "request " + std::to_string(index) + " (" +
                         kami::precision_name(r.prec) + " " + std::to_string(r.m) + "x" +
                         std::to_string(r.n) + "x" + std::to_string(r.k) + ")";
  if (!o.ok()) {
    if (o.code == serve::ErrorCode::DeadlineExceeded && r.deadline_cycles > 0.0) return false;
    if (o.rejected()) return false;
    rep.fail(at + ": unexpected " + serve::error_code_name(o.code));
    ++rep.failed;
    return false;
  }
  return with_type(r.prec, [&](auto tag) {
    using T = decltype(tag);
    const Matrix<T>& A = pool.get<T>(r.m, r.k, r.variant);
    const Matrix<T>& B = pool.get<T>(r.k, r.n, r.variant);
    if (o.degenerate) {
      if (o.c_digest == matrix_digest(Matrix<T>(r.m, r.n))) return true;
      rep.fail(at + ": degenerate result is not the zero matrix");
    } else if (o.from_reference) {
      if (o.c_digest == matrix_digest(kami::baselines::reference_gemm(A, B))) return true;
      rep.fail(at + ": reference-rung C differs from reference_gemm");
    } else {
      core::GemmOptions direct;
      direct.mode = sim::ExecMode::TimingOnly;
      const auto t = kami::gemm(o.served, fleet.device(static_cast<std::size_t>(o.device)),
                                A, B, direct);
      const std::string d = profile_diff(o.profile, t.profile);
      if (d.empty() && t.warps == o.warps) return true;
      rep.fail(at + ": served profile differs from a direct TimingOnly run" +
               (d.empty() ? " (warps)" : " in " + d));
    }
    ++rep.failed;
    return false;
  });
}

/// Digest of the generated requests and their operands.
std::uint64_t input_digest(const std::vector<Request>& requests, const OperandPool& pool) {
  Digest d;
  for (const Request& r : requests) {
    d.u64(r.m);
    d.u64(r.n);
    d.u64(r.k);
    d.u64(static_cast<std::uint64_t>(r.prec) << 8 | static_cast<std::uint64_t>(r.algo));
    d.num(r.deadline_cycles);
    d.u64(r.variant);
  }
  pool.digest(d);
  return d.value();
}

/// End-to-end deterministic metrics of a serving pass.
void serving_metrics(const std::vector<Outcome>& outcomes, serve::FleetServer& fleet,
                     const kami::obs::MetricRegistry& reg, Report& rep) {
  std::vector<double> tflops;
  double hedged = 0, failovers = 0, degraded = 0, rejected = 0, ok = 0;
  for (const Outcome& o : outcomes) {
    hedged += o.hedged;
    failovers += o.failovers;
    rejected += o.rejected();
    ok += o.ok();
    degraded += o.ok() && o.degraded;
    if (o.kami_served())
      tflops.push_back(sim::throughput_tflops(
          fleet.device(static_cast<std::size_t>(o.device)), o.profile, kBlocks));
  }
  const double n = static_cast<double>(outcomes.size());
  const kami::obs::Json slo = fleet.config().slo->to_json();
  double with_deadline = 0, met = 0, slo_samples = 0;
  for (const kami::obs::Json& c : slo.at("classes").as_array()) {
    with_deadline += c.at("deadline").at("with_deadline").as_number();
    met += c.at("deadline").at("met").as_number();
    slo_samples += c.at("latency_cycles").at("count").as_number();
  }
  const kami::obs::Histogram* e2e = reg.find_histogram("fleet.end_to_end_cycles");
  auto& m = rep.metrics;
  m["slo_attain_pct"] = with_deadline > 0 ? 100.0 * met / with_deadline : 100.0;
  m["sim_p99_kcycles"] = e2e ? e2e->percentile(99.0) / 1e3 : 0.0;
  m["sim_tflops_geomean"] = geomean(tflops);
  m["serve.hedged_pct"] = 100.0 * hedged / n;
  m["serve.failovers"] = failovers;
  m["serve.degraded_pct"] = ok > 0 ? 100.0 * degraded / ok : 0.0;
  m["serve.rejected_pct"] = 100.0 * rejected / n;
  const double trusted = counter(reg, "fleet.route.cache") + counter(reg, "fleet.route.analytic");
  const double routes =
      trusted + counter(reg, "fleet.route.unplanned") + counter(reg, "fleet.route.heuristic");
  m["model.trusted_route_pct"] = routes > 0 ? 100.0 * trusted / routes : 0.0;
  m["obs.histogram_samples"] = histogram_samples(reg) + slo_samples;
  model_layer_metrics(reg, rep);
}

serve::FleetConfig fleet_config(std::size_t queue_depth, const char* prefix) {
  serve::FleetConfig cfg = serve::table3_fleet();
  for (serve::FleetDeviceConfig& dev : cfg.devices) dev.queue_depth = queue_depth;
  cfg.async_workers_per_device = 0;
  cfg.hedge_deadline_requests = true;
  cfg.slo = std::make_shared<serve::SloTracker>();
  cfg.request_id_prefix = prefix;
  return cfg;
}

/// Host time of the layer replays a traced request ran after its call.
struct Replays {
  double route_s = 0, estimate_s = 0, sim_s = 0, sim_cycles = 0, reference_s = 0;
  std::size_t routes = 0, estimates = 0, sims = 0, references = 0;
  double total() const { return route_s + estimate_s + sim_s + reference_s; }
};

/// Replay the route decision a request is about to get (route_order is
/// const: it reads the fleet's health, queues and affinity only).
std::vector<int> replay_route(Tracer* t, std::int64_t op, serve::FleetServer& fleet,
                              const Request& r, Replays& rp) {
  kami::obs::ScopedMetricShard quiet(replay_registry());
  SpanScope s(t, "replay.route", op);
  std::vector<int> order = fleet.route_order(r.algo, r.prec, r.m, r.n, r.k, request_options(r));
  rp.route_s += s.close();
  ++rp.routes;
  return order;
}

/// Replay the served request's planner estimate, TimingOnly block(s) and
/// reference rung, each as a span under the request's op span.
void replay_layers(Tracer* t, std::int64_t op, serve::FleetServer& fleet,
                   const OperandPool& pool, const Request& r, const Outcome& o,
                   const std::vector<int>& order, Replays& rp) {
  if (!o.ok() || o.degenerate) return;
  kami::obs::ScopedMetricShard quiet(replay_registry());
  // A hedged request was dispatched to the two best-ranked devices.
  const bool two_arms = o.hedged && order.size() >= 2;
  with_type(r.prec, [&](auto tag) {
    using T = decltype(tag);
    const Matrix<T>& A = pool.get<T>(r.m, r.k, r.variant);
    const Matrix<T>& B = pool.get<T>(r.k, r.n, r.variant);
    if (o.from_reference) {
      for (int arm = 0; arm < (two_arms ? 2 : 1); ++arm) {
        SpanScope s(t, "replay.reference", op);
        const Matrix<T> C = kami::baselines::reference_gemm(A, B);
        rp.reference_s += s.close();
        ++rp.references;
      }
      return;
    }
    const sim::DeviceSpec& dev = fleet.device(static_cast<std::size_t>(o.device));
    {
      SpanScope s(t, "replay.estimate_plan", op);
      try {
        (void)core::estimate_plan(core::ProfileCache::global(), kami::model::Predictor::global(),
                                  o.served, dev, r.prec, r.m, r.n, r.k, request_options(r));
      } catch (const std::exception&) {
      }
      rp.estimate_s += s.close();
      ++rp.estimates;
    }
    std::vector<int> devices{o.device};
    if (two_arms) devices = {order[0], order[1]};
    core::GemmOptions timing;
    timing.mode = sim::ExecMode::TimingOnly;
    for (const int d : devices) {
      SpanScope s(t, "replay.sim", op);
      try {
        const auto res = kami::gemm(o.served, fleet.device(static_cast<std::size_t>(d)), A, B,
                                    timing);
        rp.sim_cycles += res.profile.latency;
      } catch (const std::exception&) {
      }
      rp.sim_s += s.close();
      ++rp.sims;
    }
  });
  replay_registry().reset_values();
}

void replay_metrics(const Replays& rp, double call_s, std::size_t requests, Report& rep) {
  auto& m = rep.metrics;
  const auto per = [](double s, std::size_t n, double scale) {
    return n ? scale * s / static_cast<double>(n) : 0.0;
  };
  m["serve.route_us"] = per(rp.route_s, rp.routes, 1e6);
  m["core.estimate_plan_us"] = per(rp.estimate_s, rp.estimates, 1e6);
  m["sim.timing_us"] = per(rp.sim_s, rp.sims, 1e6);
  m["sim.ns_per_cycle"] = rp.sim_cycles > 0 ? 1e9 * rp.sim_s / rp.sim_cycles : 0.0;
  m["baselines.reference_ms"] = per(rp.reference_s, rp.references, 1e3);
  m["baselines.reference_share_pct"] = 100.0 * rp.reference_s / call_s;
  m["serve.self_us"] = per(call_s - rp.total(), requests, 1e6);
  rep.context["serve.route_share_pct"] = 100.0 * rp.route_s / call_s;
  rep.context["core.estimate_plan_share_pct"] = 100.0 * rp.estimate_s / call_s;
  rep.context["sim.share_pct"] = 100.0 * rp.sim_s / call_s;
  rep.context["serve.self_share_pct"] = 100.0 * (call_s - rp.total()) / call_s;
}

/// Fresh planning state: every pass routes and plans from the same start.
void reset_planning_state() {
  core::ProfileCache::global().clear();
  kami::model::Predictor::global().reset();
}

}  // namespace

// -- serve_fit ----------------------------------------------------------------------

Report run_serve_fit(const Options& opt, Tracer* tracer) {
  constexpr std::size_t kRequests = 6000;
  constexpr std::size_t kWarmup = 300;
  Report report;
  std::vector<Request> warmup, requests;
  OperandPool pool;
  std::unique_ptr<serve::FleetServer> fleet;
  std::unique_ptr<kami::obs::MetricRegistry> registry;
  std::vector<Outcome> outcomes(kRequests);
  Replays rp;
  double traced_call_s = 0.0;
  std::size_t traced_requests = 0;

  const auto serve_request = [&](const Request& r) {
    return with_type(r.prec, [&](auto tag) {
      using T = decltype(tag);
      return outcome_of(fleet->serve<T>(r.algo, pool.get<T>(r.m, r.k, r.variant),
                                        pool.get<T>(r.k, r.n, r.variant),
                                        request_options(r)));
    });
  };

  PassHooks hooks;
  hooks.set_up = [&] {
    kami::Rng rng(kTraceSeed);
    std::vector<Request> trace;
    for (std::size_t i = 0; i < kWarmup + kRequests; ++i) trace.push_back(draw_request(rng, false));
    warmup.assign(trace.begin(), trace.begin() + kWarmup);
    requests.assign(trace.begin() + kWarmup, trace.end());
    pool.build(trace, opt.seed);
    reset_planning_state();
    fleet.reset();
    fleet = std::make_unique<serve::FleetServer>(fleet_config(64, "fit"));
    // A serving fleet is warm: its planner has seen traffic before the
    // client measured. Warm-up metrics and SLO records are discarded.
    kami::obs::MetricRegistry warm;
    kami::obs::ScopedMetricShard shard(warm);
    for (const Request& r : warmup) (void)serve_request(r);
    fleet->config().slo->clear();
    registry = std::make_unique<kami::obs::MetricRegistry>();
  };
  hooks.run = [&](std::vector<double>& op_ms, Tracer* t) {
    kami::obs::ScopedMetricShard shard(*registry);
    PassResult res;
    Digest d;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const Request& r = requests[i];
      const auto op = static_cast<std::int64_t>(i);
      SpanScope root(t, "op", op);
      std::vector<int> order;
      if (t) order = replay_route(t, op, *fleet, r, rp);
      SpanScope call(t, "call.serve", op);
      const Clock::time_point t0 = Clock::now();
      outcomes[i] = serve_request(r);
      const double s = seconds_between(t0, Clock::now());
      const double span_s = call.close();
      op_ms.push_back(s * 1e3);
      if (t) {
        replay_layers(t, op, *fleet, pool, r, outcomes[i], order, rp);
        traced_call_s += span_s;
        ++traced_requests;
      }
      digest_outcome(d, outcomes[i]);
    }
    res.digest = d.value();
    return res;
  };
  hooks.check = [&](Report& rep) {
    rep.input_digest = input_digest(requests, pool);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ++rep.attempted;
      rep.ok += check_outcome(requests[i], outcomes[i], pool, *fleet, i, rep);
    }
    serving_metrics(outcomes, *fleet, *registry, rep);
    rep.metrics["sim_speedup_err_pct"] = fig8_timing_replay_error_pct();
  };

  HostSamples traced;
  const HostSamples s = run_passes(opt, hooks, report, tracer, tracer ? &traced : nullptr);
  host_metrics(s, report, tracer ? &traced : nullptr);
  if (tracer) {
    zero_layer_metrics(report);
    replay_metrics(rp, traced_call_s, traced_requests, report);
  }
  return report;
}

// -- serve_burst ----------------------------------------------------------------------

namespace {

/// True when slot t sits in a burst window (3 of every 37 slots, offset so a
/// pass opens with baseline traffic), as in serve_load.
bool burst_slot(std::size_t t) { return t % 37 >= 2 && t % 37 < 5; }

double arrival_rate(std::size_t t) {
  constexpr double kBaseRate = 24.0;
  constexpr double kDiurnalPeriod = 50.0;
  constexpr double kDiurnalAmplitude = 0.6;
  constexpr double kBurstFactor = 6.0;
  double rate = kBaseRate * (1.0 + kDiurnalAmplitude *
                                       std::sin(2.0 * 3.14159265358979323846 *
                                                static_cast<double>(t) / kDiurnalPeriod));
  if (burst_slot(t)) rate *= kBurstFactor;
  return rate;
}

/// One slot's async requests of one scalar type: operand copies prepared
/// before the slot's clock starts, then the futures submit_async returned.
template <Scalar T>
struct Lane {
  std::vector<std::size_t> index;
  std::vector<Matrix<T>> A, B;
  std::vector<std::future<serve::FleetResult<T>>> futures;

  void prepare(std::size_t i, const Matrix<T>& a, const Matrix<T>& b) {
    index.push_back(i);
    A.push_back(a);
    B.push_back(b);
  }
  void submit(serve::FleetServer& fleet, Algo algo, const core::GemmOptions& opt) {
    const std::size_t j = futures.size();
    futures.push_back(fleet.submit_async<T>(algo, std::move(A[j]), std::move(B[j]), opt));
  }
  void collect(std::vector<Outcome>& outcomes) {
    for (std::size_t j = 0; j < futures.size(); ++j)
      outcomes[index[j]] = outcome_of(futures[j].get());
  }
};

struct SlotLanes {
  Lane<kami::fp16_t> f16;
  Lane<float> f32;
  Lane<kami::bf16_t> b16;
  Lane<double> f64;

  template <Scalar T>
  Lane<T>& lane() {
    if constexpr (std::is_same_v<T, kami::fp16_t>) return f16;
    else if constexpr (std::is_same_v<T, float>) return f32;
    else if constexpr (std::is_same_v<T, kami::bf16_t>) return b16;
    else return f64;
  }
  void collect(std::vector<Outcome>& outcomes) {
    f16.collect(outcomes);
    f32.collect(outcomes);
    b16.collect(outcomes);
    f64.collect(outcomes);
  }
};

int poisson(kami::Rng& rng, double lambda) {
  const double limit = std::exp(-lambda);
  int k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng.uniform();
  } while (p > limit);
  return k - 1;
}

}  // namespace

Report run_serve_burst(const Options& opt, Tracer* tracer) {
  constexpr std::size_t kSlots = 37;  // one burst cycle: 34 baseline slots, 3 burst slots
  Report report;
  std::vector<Request> requests;
  std::vector<std::size_t> slot_start;  ///< first request of each slot (+ end)
  OperandPool pool;
  std::unique_ptr<serve::FleetServer> fleet;
  std::unique_ptr<kami::obs::MetricRegistry> registry;
  std::vector<Outcome> outcomes;
  Replays rp;
  double traced_call_s = 0.0, drain_s = 0.0, queue_max = 0.0;
  std::size_t traced_requests = 0, drains = 0;

  PassHooks hooks;
  hooks.set_up = [&] {
    kami::Rng rng(kTraceSeed);
    requests.clear();
    slot_start.clear();
    for (std::size_t t = 0; t < kSlots; ++t) {
      slot_start.push_back(requests.size());
      const int arrivals = poisson(rng, arrival_rate(t));
      for (int a = 0; a < arrivals; ++a) requests.push_back(draw_request(rng, true));
    }
    slot_start.push_back(requests.size());
    outcomes.assign(requests.size(), Outcome{});
    pool.build(requests, opt.seed);
    reset_planning_state();
    fleet.reset();
    fleet = std::make_unique<serve::FleetServer>(fleet_config(32, "burst"));
    registry = std::make_unique<kami::obs::MetricRegistry>();
  };

  hooks.run = [&](std::vector<double>& op_ms, Tracer* t) {
    kami::obs::ScopedMetricShard shard(*registry);
    PassResult res;
    Digest d;
    for (std::size_t slot = 0; slot < kSlots; ++slot) {
      const std::size_t first = slot_start[slot], last = slot_start[slot + 1];
      // submit_async takes its operands by value; the copies are made before
      // the slot's clock starts, as input preparation.
      SlotLanes lanes;
      for (std::size_t i = first; i < last; ++i) {
        const Request& r = requests[i];
        with_type(r.prec, [&](auto tag) {
          using T = decltype(tag);
          lanes.lane<T>().prepare(i, pool.get<T>(r.m, r.k, r.variant),
                                  pool.get<T>(r.k, r.n, r.variant));
        });
      }
      std::vector<std::vector<int>> orders(last - first);

      SpanScope slot_span(t, "slot", static_cast<std::int64_t>(first));
      double slot_s = 0.0, slot_span_s = 0.0;
      for (std::size_t i = first; i < last; ++i) {
        const Request& r = requests[i];
        const auto op = static_cast<std::int64_t>(i);
        if (t) orders[i - first] = replay_route(t, op, *fleet, r, rp);
        SpanScope call(t, "call.submit", op);
        const Clock::time_point t0 = Clock::now();
        with_type(r.prec, [&](auto tag) {
          lanes.lane<decltype(tag)>().submit(*fleet, r.algo, request_options(r));
        });
        slot_s += seconds_between(t0, Clock::now());
        slot_span_s += call.close();
      }
      double depth = 0.0;
      for (std::size_t dev = 0; dev < fleet->device_count(); ++dev)
        depth += static_cast<double>(fleet->queue_size(dev));
      queue_max = std::max(queue_max, depth);
      {
        SpanScope call(t, "call.drain", -1);
        const Clock::time_point t0 = Clock::now();
        fleet->drain();
        const double s = seconds_between(t0, Clock::now());
        slot_s += s;
        slot_span_s += call.close();
        drain_s += s;
        ++drains;
      }
      lanes.collect(outcomes);
      // Every request of the slot waited from the slot's start to the end
      // of its drain.
      op_ms.insert(op_ms.end(), last - first, slot_s * 1e3);
      if (t) {
        for (std::size_t i = first; i < last; ++i)
          replay_layers(t, static_cast<std::int64_t>(i), *fleet, pool, requests[i],
                        outcomes[i], orders[i - first], rp);
        traced_call_s += slot_span_s;
        traced_requests += last - first;
      }
      slot_span.close();
      res.segment_s.push_back(slot_s);
    }
    for (const Outcome& o : outcomes) digest_outcome(d, o);
    res.digest = d.value();
    return res;
  };

  hooks.check = [&](Report& rep) {
    rep.input_digest = input_digest(requests, pool);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ++rep.attempted;
      rep.ok += check_outcome(requests[i], outcomes[i], pool, *fleet, i, rep);
    }
    serving_metrics(outcomes, *fleet, *registry, rep);
    rep.metrics["sim_speedup_err_pct"] = fig8_timing_replay_error_pct();
    rep.metrics["serve.queue_depth_max"] = queue_max;
    drain_s = 0.0;  // the drain layer is timed on the passes after the check
    drains = 0;
  };

  HostSamples traced;
  const HostSamples s = run_passes(opt, hooks, report, tracer, tracer ? &traced : nullptr);
  host_metrics(s, report, tracer ? &traced : nullptr);
  if (tracer) {
    zero_layer_metrics(report);
    replay_metrics(rp, traced_call_s, traced_requests, report);
    report.metrics["serve.drain_ms"] = drains ? 1e3 * drain_s / static_cast<double>(drains) : 0.0;
  }
  return report;
}

}  // namespace perfbench
