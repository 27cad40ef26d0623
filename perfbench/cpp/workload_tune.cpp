// tune_grid: autotune_gemm decisions across the four devices and their
// precisions. Closed loop, one caller, one op per decision.
//
// Shapes come from a seeded pool whose candidate profiles outnumber the
// ProfileCache's 4096 entries: a hot set that repeats plus a long tail,
// with ragged (non-power-of-two) dims. Every pass starts from an empty
// cache and predictor, so the analytic prescreen and the cache's
// insert/evict path run here and in no other workload.
#include <memory>

#include "core/autotune.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using kami::Matrix;
using kami::Precision;
using kami::Scalar;
namespace core = kami::core;
namespace sim = kami::sim;

struct Decision {
  const sim::DeviceSpec* dev = nullptr;
  Precision prec = Precision::FP16;
  std::size_t m = 0, n = 0, k = 0;
  /// Known infeasible: every candidate overflows the device, so the call
  /// must raise a typed PreconditionError.
  bool expect_infeasible = false;
};

struct Outcome {
  bool threw = false;
  core::TuneResult result;
};

template <typename F>
decltype(auto) with_type(Precision p, F&& f) {
  switch (p) {
    case Precision::FP64: return f(double{});
    case Precision::FP32: return f(float{});
    case Precision::TF32: return f(kami::tf32_t{});
    case Precision::FP16: return f(kami::fp16_t{});
    case Precision::BF16: return f(kami::bf16_t{});
    default: return f(kami::fp8_e4m3_t{});
  }
}

/// Every (device, precision) the Table-3 devices support.
std::vector<std::pair<const sim::DeviceSpec*, Precision>> device_precisions() {
  std::vector<std::pair<const sim::DeviceSpec*, Precision>> out;
  for (const sim::DeviceSpec* dev :
       {&sim::gh200(), &sim::rtx5090(), &sim::amd7900xtx(), &sim::intel_max1100()})
    for (const Precision p : {Precision::FP64, Precision::FP32, Precision::TF32,
                              Precision::FP16, Precision::BF16, Precision::FP8E4M3})
      if (dev->supports(p)) out.emplace_back(dev, p);
  return out;
}

/// The decision multiset is part of the workload's definition (drawn from
/// a fixed seed); --seed only shuffles its order. The winners and every
/// simulated metric are therefore the same for every seed, while the cache
/// and predictor see a different sequence. Dims are drawn from 8..160
/// (every device and precision has a feasible candidate there), a quarter
/// of them ragged.
std::vector<Decision> make_decisions(std::uint64_t seed, std::size_t count) {
  constexpr std::uint64_t kMixSeed = 1;
  constexpr std::size_t kHot = 48;
  constexpr std::size_t kTail = 3000;
  static constexpr std::size_t kRagged[] = {12, 20, 36, 44, 60, 76, 100, 124};
  const auto combos = device_precisions();
  kami::Rng rng(kMixSeed);
  const auto dim = [&] {
    return rng.bernoulli(0.25) ? kRagged[rng.uniform_index(8)]
                               : 8 * (1 + static_cast<std::size_t>(rng.uniform_index(20)));
  };
  std::vector<Decision> pool(kHot + kTail);
  for (Decision& d : pool) {
    const auto& [dev, prec] = combos[rng.uniform_index(combos.size())];
    d.dev = dev;
    d.prec = prec;
    d.m = dim();
    d.n = dim();
    d.k = dim();
  }
  std::vector<Decision> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // One decision in 64 asks for FP64 at order 256 on GH200, which no
    // candidate fits: the typed-refusal path.
    if (i % 64 == 63) {
      out.push_back(Decision{&sim::gh200(), Precision::FP64, 256, 256, 256, true});
      continue;
    }
    // Half the decisions repeat a small hot set; the rest spread over a
    // tail whose candidate profiles overflow the cache.
    out.push_back(rng.bernoulli(0.5) ? pool[rng.uniform_index(kHot)]
                                     : pool[kHot + rng.uniform_index(kTail)]);
  }
  kami::Rng order(seed);
  for (std::size_t i = out.size(); i > 1; --i)
    std::swap(out[i - 1], out[order.uniform_index(i)]);
  return out;
}

Outcome decide(const Decision& d) {
  Outcome o;
  with_type(d.prec, [&](auto tag) {
    using T = decltype(tag);
    try {
      o.result = core::autotune_gemm<T>(*d.dev, d.m, d.n, d.k);
    } catch (const kami::PreconditionError&) {
      o.threw = true;
    }
  });
  return o;
}

core::GemmOptions winner_options(const core::TuneResult& r) {
  core::GemmOptions opt;
  opt.warps = r.config.warps;
  opt.smem_ratio = r.config.smem_ratio;
  opt.mode = sim::ExecMode::TimingOnly;
  return opt;
}

/// Direct TimingOnly simulation of the winning configuration.
template <Scalar T>
core::GemmResult<T> simulate_winner(const Decision& d, const core::TuneResult& r) {
  return kami::gemm(r.config.algo, *d.dev, Matrix<T>(d.m, d.k), Matrix<T>(d.k, d.n),
                    winner_options(r));
}

/// A known-infeasible decision must have raised the typed error; every
/// other winner's TFLOPS and profile must match a direct simulation.
bool check_decision(const Decision& d, const Outcome& o, std::size_t i, Report& rep) {
  const std::string at = "decision " + std::to_string(i) + " (" + d.dev->name + " " +
                         kami::precision_name(d.prec) + " " + std::to_string(d.m) + "x" +
                         std::to_string(d.n) + "x" + std::to_string(d.k) + ")";
  if (o.threw != d.expect_infeasible) {
    rep.fail(at + (o.threw ? ": unexpected PreconditionError"
                           : ": expected a typed PreconditionError"));
    return false;
  }
  if (o.threw) return true;
  return with_type(d.prec, [&](auto tag) {
    const auto direct = simulate_winner<decltype(tag)>(d, o.result);
    if (sim::throughput_tflops(*d.dev, direct.profile, kBlocks) == o.result.tflops &&
        profile_diff(direct.profile, o.result.profile).empty())
      return true;
    rep.fail(at + ": winner's TFLOPS differ from a direct simulation of its config");
    return false;
  });
}

/// Replay of the prescreen's per-candidate work: plan, cache peek,
/// prediction and predicted throughput.
void replay_prescreen(const Decision& d) {
  const core::ProfileCache& cache = core::ProfileCache::global();
  const kami::model::Predictor& pred = kami::model::Predictor::global();
  for (const core::TuneCandidate& cand : core::default_candidates()) {
    core::GemmOptions opt;
    opt.warps = cand.warps;
    opt.smem_ratio = cand.smem_ratio;
    try {
      const core::Plan plan = core::plan_gemm(cand.algo, *d.dev, d.prec, d.m, d.n, d.k, opt);
      const auto key = core::ProfileKey::make(cand.algo, *d.dev, d.prec, d.m, d.n, d.k, opt, plan);
      (void)cache.try_get(key);
      const kami::model::Prediction p = pred.predict(*d.dev, cand.algo, d.prec, d.m, d.n, d.k,
                                                     plan.p, core::predict_options(opt));
      (void)core::predicted_tflops(*d.dev, d.prec, plan, d.m, d.n, d.k, p, opt, kBlocks);
    } catch (const kami::PreconditionError&) {
    }
  }
}

}  // namespace

Report run_tune_grid(const Options& opt, Tracer* tracer) {
  constexpr std::size_t kDecisions = 1500;
  Report report;
  std::vector<Decision> decisions;
  std::vector<Outcome> outcomes(kDecisions);
  std::unique_ptr<kami::obs::MetricRegistry> registry;
  double prescreen_s = 0, sim_s = 0, sim_cycles = 0, call_s = 0, sim_in_calls_s = 0;
  std::size_t prescreens = 0, sims = 0;
  kami::obs::MetricRegistry& global = kami::obs::MetricRegistry::global();
  double hits0 = 0, misses0 = 0, evictions0 = 0;

  PassHooks hooks;
  hooks.set_up = [&] {
    decisions = make_decisions(opt.seed, kDecisions);
    core::ProfileCache::global().clear();
    kami::model::Predictor::global().reset();
    registry = std::make_unique<kami::obs::MetricRegistry>();
    hits0 = counter(global, "profile_cache.hits");
    misses0 = counter(global, "profile_cache.misses");
    evictions0 = counter(global, "profile_cache.evictions");
  };
  hooks.run = [&](std::vector<double>& op_ms, Tracer* t) {
    kami::obs::ScopedMetricShard shard(*registry);
    PassResult res;
    Digest dg;
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      const Decision& d = decisions[i];
      const auto op = static_cast<std::int64_t>(i);
      SpanScope root(t, "op", op);
      const double misses_before = counter(global, "profile_cache.misses");
      SpanScope call(t, "call.autotune", op);
      const Clock::time_point t0 = Clock::now();
      outcomes[i] = decide(d);
      const double s = seconds_between(t0, Clock::now());
      const double span_s = call.close();
      const double simulated = counter(global, "profile_cache.misses") - misses_before;
      op_ms.push_back(s * 1e3);
      const Outcome& o = outcomes[i];
      if (t) {
        kami::obs::ScopedMetricShard quiet(replay_registry());
        call_s += span_s;
        {
          SpanScope span(t, "replay.prescreen", op);
          replay_prescreen(d);
          prescreen_s += span.close();
          ++prescreens;
        }
        if (!o.threw) {
          SpanScope span(t, "replay.sim", op);
          with_type(d.prec, [&](auto tag) {
            sim_cycles += simulate_winner<decltype(tag)>(d, o.result).profile.latency;
          });
          const double replay_s = span.close();
          sim_s += replay_s;
          ++sims;
          // The call simulated one candidate per cache miss; each costs
          // about what the winner's replay did.
          sim_in_calls_s += simulated * replay_s;
        }
        replay_registry().reset_values();
      }
      dg.u64(o.threw ? 1 : 0);
      dg.num(o.result.tflops);
      dg.profile(o.result.profile);
      dg.u64(static_cast<std::uint64_t>(o.result.evaluated * 1000 + o.result.pruned));
    }
    res.digest = dg.value();
    return res;
  };
  hooks.check = [&](Report& rep) {
    std::vector<double> tflops, latencies;
    double pruned = 0, evaluated = 0;
    Digest inputs;
    for (const Decision& d : decisions) {
      inputs.bytes(d.dev->name.data(), d.dev->name.size());
      inputs.u64(static_cast<std::uint64_t>(d.prec));
      inputs.u64(d.m);
      inputs.u64(d.n);
      inputs.u64(d.k);
    }
    rep.input_digest = inputs.value();
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      const Outcome& o = outcomes[i];
      ++rep.attempted;
      if (!check_decision(decisions[i], o, i, rep)) {
        ++rep.failed;
        continue;
      }
      ++rep.ok;
      if (o.threw) continue;
      tflops.push_back(o.result.tflops);
      latencies.push_back(o.result.profile.latency);
      pruned += o.result.pruned;
      evaluated += o.result.evaluated;
    }
    auto& m = rep.metrics;
    m["sim_tflops_geomean"] = geomean(tflops);
    m["sim_p99_kcycles"] = percentile(latencies, 99.0) / 1e3;
    // No decision carries a deadline, so none can miss one.
    m["slo_attain_pct"] = 100.0;
    m["sim_speedup_err_pct"] = fig8_timing_replay_error_pct();
    const double hits = counter(global, "profile_cache.hits") - hits0;
    const double misses = counter(global, "profile_cache.misses") - misses0;
    m["autotune.pruned_pct"] = pruned + evaluated > 0 ? 100.0 * pruned / (pruned + evaluated) : 0;
    m["autotune.simulated_per_decision"] = misses / static_cast<double>(decisions.size());
    m["cache.hit_pct"] = hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0;
    m["cache.evictions"] = counter(global, "profile_cache.evictions") - evictions0;
    m["obs.histogram_samples"] = histogram_samples(*registry);
    model_layer_metrics(*registry, rep);
  };

  HostSamples traced;
  const HostSamples s = run_passes(opt, hooks, report, tracer, tracer ? &traced : nullptr);
  host_metrics(s, report, tracer ? &traced : nullptr);
  if (tracer) {
    zero_layer_metrics(report);
    auto& m = report.metrics;
    m["autotune.prescreen_us"] = prescreens ? 1e6 * prescreen_s / static_cast<double>(prescreens) : 0;
    m["sim.timing_us"] = sims ? 1e6 * sim_s / static_cast<double>(sims) : 0;
    m["sim.ns_per_cycle"] = sim_cycles > 0 ? 1e9 * sim_s / sim_cycles : 0;
    report.context["autotune.prescreen_share_pct"] = 100.0 * prescreen_s / call_s;
    report.context["sim.share_pct"] = 100.0 * sim_in_calls_s / call_s;
    report.context["autotune.self_share_pct"] =
        100.0 * (call_s - prescreen_s - sim_in_calls_s) / call_s;
  }
  return report;
}

}  // namespace perfbench
