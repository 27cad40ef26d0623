// GemmServer: the resilient execution layer around the KAMI kernels.
//
// A production caller cannot afford throw-on-first-error semantics: an
// infeasible plan, an injected fault, or a runaway simulation must degrade,
// retry, or fail *typed* — never crash, hang, or silently corrupt. serve()
// wraps kami::gemm with four policies, generalizing the paper's §4.7
// register -> shared-memory fallback into a system-wide discipline:
//
//   * degradation ladder — on infeasible or resource-exhausted plans the
//     request walks KAMI-3D -> KAMI-2D -> KAMI-1D -> host reference GEMM
//     (starting at the requested algorithm; tuning overrides are relaxed to
//     planner-auto on degraded rungs). The rung that served is recorded in
//     the returned ServeResult and in serve.served.* counters. The
//     reference rung runs the production host kernel (core::numeric_gemm:
//     the sequential-k rounding model, bit-identical to the oracle in
//     baselines/reference.hpp). That oracle is only what the tests,
//     verify/ and the chaos contract check the rung against, so serving
//     never runs the code that checks it.
//   * retry with bounded exponential backoff — transient faults (injected
//     through verify::FaultHooks, the chaos campaign's fault source) are
//     retried up to max_attempts_per_rung times per rung.
//   * cycle-budget watchdog — GemmOptions::deadline_cycles aborts runaway
//     simulations deterministically; deadline errors are terminal (the
//     budget is spent — degrading would spend more) and surface as
//     ErrorCode::DeadlineExceeded.
//   * circuit breaker — per (device, precision, shape, algorithm) rung:
//     after breaker_failure_threshold consecutive failures the rung is
//     skipped outright (straight to the next rung) for
//     breaker_cooldown_requests requests, then a half-open probe decides
//     whether to close it again.
//
// Every request is additionally observable: it gets a request id, its
// end-to-end latency lands in the serve.end_to_end_cycles histogram and the
// attached SloTracker, and — when a FlightRecorder is attached — a full
// span trace (admit -> per-rung plan/attempt/backoff -> typed completion)
// on the deterministic logical-cycle timeline obs::TraceBuilder defines.
//
// GemmServer is synchronous: one device's ladder, called on the caller's
// thread. Queueing, async submission and worker threads live one level up,
// in FleetServer (serve/fleet.hpp); a single device is a one-device fleet.
//
// Everything is deterministic: same request + same fault state => same
// result, same rung, same error message, same trace bytes.
#pragma once

#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/analytic_planner.hpp"
#include "core/kami.hpp"
#include "core/profile_cache.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "serve/error.hpp"
#include "serve/slo.hpp"
#include "sim/device.hpp"
#include "sim/exec_mode.hpp"
#include "verify/invariants.hpp"

namespace kami::serve {

struct ServeConfig {
  bool allow_degradation = true;        ///< walk lower rungs on plan failures
  bool allow_reference_fallback = true; ///< host reference GEMM as the last rung
  int max_attempts_per_rung = 3;        ///< 1 initial try + 2 transient-fault retries
  /// Host-side exponential backoff between transient-fault retries:
  /// min(backoff_base_ms * 2^(attempt-1), backoff_max_ms), published to the
  /// serve.backoff_ms counter. 0 (the default — simulated faults clear
  /// instantly) disables the wait entirely.
  double backoff_base_ms = 0.0;
  double backoff_max_ms = 8.0;
  int breaker_failure_threshold = 3;    ///< consecutive failures that trip a rung
  int breaker_cooldown_requests = 8;    ///< open requests before a half-open probe

  /// Build a span trace per request. Traces are only materialized when a
  /// flight recorder is attached, so the default configuration pays nothing.
  bool tracing = true;
  /// Request ids are "<prefix>-<n>" with n counting from 1 per server; the
  /// chaos campaign stamps a per-seed prefix so ids stay unique (and
  /// deterministic) across its per-point servers.
  std::string request_id_prefix = "req";
  /// Destination for finished request traces (shared so dashboards and the
  /// server can outlive each other); nullptr disables tracing entirely.
  std::shared_ptr<obs::FlightRecorder> flight;
  /// Per-shape-class SLO accounting; works with or without tracing.
  std::shared_ptr<SloTracker> slo;
};

enum class BreakerState { Closed, Open, HalfOpen };

const char* breaker_state_name(BreakerState s) noexcept;

template <Scalar T>
struct ServeResult {
  ErrorCode code = ErrorCode::InternalInvariant;
  std::string message;       ///< empty on success, failure detail otherwise
  Matrix<T> C;               ///< valid when ok()
  sim::KernelProfile profile;  ///< zero when served by reference or degenerate
  core::Algo requested = core::Algo::OneD;
  core::Algo served = core::Algo::OneD;  ///< meaningful when ok() && !from_reference
  std::string rung_label;    ///< "kami_3d" / "kami_2d" / "kami_1d" / "reference" / "degenerate"
  bool from_reference = false;
  bool degenerate = false;   ///< zero-dimension request served trivially
  bool degraded = false;     ///< served below the requested rung
  int rung = -1;             ///< ladder index that served (0 = requested algo)
  int attempts = 0;          ///< kernel attempts across all rungs
  int warps = 0;
  double smem_ratio = 0.0;
  /// The request's final logical clock: per-attempt kernel latency +
  /// configured backoff (+ the spent budget on a deadline abort), in
  /// simulated cycles. This is the quantity the serve.end_to_end_cycles
  /// histogram and the SLO tracker observe; FleetServer reads it to account
  /// a whole failover chain as one fleet request.
  double end_to_end_cycles = 0.0;

  bool ok() const noexcept { return code == ErrorCode::Ok; }
};

class GemmServer {
 public:
  /// Construction is passive, but it does pre-register the serve.* metrics
  /// at zero, so a server that is constructed and destroyed without ever
  /// serving exports zero-valued (not absent) counters.
  explicit GemmServer(ServeConfig cfg = {});
  GemmServer(const GemmServer&) = delete;
  GemmServer& operator=(const GemmServer&) = delete;

  /// Serve one request through the ladder. Never throws; every failure is
  /// typed. Safe to call from several threads at once (breaker state is
  /// mutex-guarded).
  template <Scalar T>
  ServeResult<T> serve(core::Algo algo, const sim::DeviceSpec& dev, const Matrix<T>& A,
                       const Matrix<T>& B, core::GemmOptions opt = {});

  const ServeConfig& config() const noexcept { return cfg_; }

  /// Breaker state for one rung key (for tests and dashboards).
  BreakerState breaker_state(const std::string& device, core::Algo algo, Precision prec,
                             std::size_t m, std::size_t n, std::size_t k) const;

  /// Drop all breaker state (e.g. between chaos campaign phases).
  void reset_breakers();

 private:
  struct RungKey {
    std::string device;
    core::Algo algo = core::Algo::OneD;
    Precision prec = Precision::FP16;
    std::size_t m = 0, n = 0, k = 0;
    friend auto operator<=>(const RungKey&, const RungKey&) = default;
  };
  struct Breaker {
    BreakerState state = BreakerState::Closed;
    int consecutive_failures = 0;
    int cooldown_remaining = 0;
    ErrorCode last_code = ErrorCode::InfeasiblePlan;  ///< reported on short-circuit
    std::string last_message;
  };

  /// One rung of the degradation ladder.
  struct Rung {
    bool reference = false;
    core::Algo algo = core::Algo::OneD;
    const char* label = "";
  };

  static std::vector<Rung> build_ladder(core::Algo requested, const ServeConfig& cfg);

  std::string next_request_id() {
    return cfg_.request_id_prefix + "-" +
           std::to_string(request_counter_.fetch_add(1, std::memory_order_relaxed) + 1);
  }

  /// Admission decision: true = run the rung (Closed, or Open whose cooldown
  /// just expired — the half-open probe). False = short-circuit; *out gets
  /// the breaker's stored failure for the typed error. `observed` (optional)
  /// receives the state the decision saw — Open for a short-circuit,
  /// HalfOpen for the probe — for the rung span's breaker attribute.
  bool breaker_admit(const RungKey& key, ServeError* out,
                     BreakerState* observed = nullptr);
  void breaker_record(const RungKey& key, bool success, ErrorCode code,
                      const std::string& message);

  /// Sleep (when configured) and publish the bounded exponential backoff for
  /// retry number `attempt` (1-based count of the attempt that just failed).
  /// Returns the applied delay in milliseconds (0 when disabled) so the
  /// request trace can advance its logical clock by the same quantity.
  double backoff(int attempt) const;

  ServeConfig cfg_;
  std::atomic<std::uint64_t> request_counter_{0};
  mutable std::mutex mu_;
  std::map<RungKey, Breaker> breakers_;
};

// ---------------------------------------------------------------------------
// implementation

template <Scalar T>
ServeResult<T> GemmServer::serve(core::Algo algo, const sim::DeviceSpec& dev,
                                 const Matrix<T>& A, const Matrix<T>& B,
                                 core::GemmOptions opt) {
  auto& metrics = obs::MetricRegistry::current();
  metrics.counter("serve.requests").increment();

  ServeResult<T> out;
  out.requested = algo;

  const std::size_t m = A.rows(), k = A.cols(), n = B.cols();

  // The request's logical clock: begins at 0, advances only by deterministic
  // simulated quantities (kernel latency, deadline budget, configured
  // backoff). It exists whether or not a trace is built — the
  // serve.end_to_end_cycles histogram and the SLO tracker read it.
  double clock = 0.0;
  std::optional<obs::TraceBuilder> trace;
  if (cfg_.tracing && cfg_.flight) {
    trace.emplace(next_request_id());
    trace->set_meta("algo", algo_name(algo));
    trace->set_meta("device", dev.name);
    trace->set_meta("precision", precision_name(num_traits<T>::precision));
    trace->set_meta("m", std::to_string(m));
    trace->set_meta("n", std::to_string(n));
    trace->set_meta("k", std::to_string(k));
  }
  const auto advance = [&](double cycles) {
    clock += cycles;
    if (trace) trace->advance(cycles);
  };

  // Completion funnel: every exit path lands here exactly once to publish
  // the latency histograms, the SLO record, and the finished trace
  // (TraceBuilder::finish closes any still-open spans at the final clock).
  const auto complete = [&] {
    out.end_to_end_cycles = clock;
    metrics.histogram("serve.end_to_end_cycles").observe(clock);
    if (cfg_.slo)
      cfg_.slo->record(m, n, k, out.code, out.rung_label, clock, opt.deadline_cycles);
    if (trace) {
      trace->root_attr("code", error_code_name(out.code));
      if (!out.message.empty()) trace->root_attr("error", out.message);
      if (!out.rung_label.empty()) trace->root_attr("rung_label", out.rung_label);
      trace->root_attr_num("rung", static_cast<double>(out.rung));
      trace->root_attr_num("attempts", static_cast<double>(out.attempts));
      trace->root_attr("degraded", out.degraded ? "true" : "false");
      cfg_.flight->record(trace->finish());
    }
  };

  const auto fail = [&](ErrorCode code, const std::string& message) {
    out.code = code;
    out.message = message;
    metrics.counter("serve.errors").increment();
    metrics.counter(std::string("serve.error.") + error_code_name(code)).increment();
    complete();
    return out;
  };

  // -- admission: typed validation errors, never exceptions.
  if (trace) trace->open("admit");
  try {
    sim::validate_device(dev);
  } catch (const std::exception& e) {
    return fail(ErrorCode::InvalidRequest, e.what());
  }
  if (algo != core::Algo::OneD && algo != core::Algo::TwoD && algo != core::Algo::ThreeD)
    return fail(ErrorCode::InvalidRequest,
                "unknown algorithm: " + std::to_string(static_cast<int>(algo)));
  if (A.cols() != B.rows())
    return fail(ErrorCode::InvalidRequest,
                "inner dimensions disagree: A is " + std::to_string(A.rows()) + "x" +
                    std::to_string(A.cols()) + " but B is " + std::to_string(B.rows()) +
                    "x" + std::to_string(B.cols()));
  if (trace) {
    trace->attr("result", "admitted");
    trace->close();
  }

  // -- degenerate shapes are well-defined, mode-independent no-ops: an empty
  // product (m or n zero) or an empty reduction (k zero, C = 0).
  if (m == 0 || n == 0 || k == 0) {
    out.code = ErrorCode::Ok;
    out.C = Matrix<T>(m, n);  // zero-filled
    out.degenerate = true;
    out.rung_label = "degenerate";
    out.rung = 0;
    metrics.counter("serve.ok").increment();
    metrics.counter("serve.served.degenerate").increment();
    complete();
    return out;
  }

  const std::vector<Rung> ladder = build_ladder(algo, cfg_);
  ServeError last{ErrorCode::InfeasiblePlan, "no rung admitted the request"};

  for (std::size_t r = 0; r < ladder.size(); ++r) {
    const Rung& rung = ladder[r];
    const RungKey key{dev.name, rung.algo, num_traits<T>::precision, m, n, k};

    if (trace) {
      trace->open("rung[" + std::to_string(r) + "]");
      trace->attr("label", rung.label);
      trace->attr("algo", rung.reference ? "reference" : algo_name(rung.algo));
    }

    if (!rung.reference) {
      ServeError short_circuit;
      BreakerState observed = BreakerState::Closed;
      const bool admitted = breaker_admit(key, &short_circuit, &observed);
      if (trace) trace->attr("breaker", breaker_state_name(observed));
      if (!admitted) {
        if (trace) {
          trace->attr("skipped", "breaker_open");
          trace->close_to(1);
        }
        last = short_circuit;
        continue;  // breaker open: route straight to the next rung
      }
    }

    // Tuning overrides were chosen for the requested configuration; degraded
    // rungs fall back to the planner's auto selection.
    core::GemmOptions ropt = opt;
    if (r > 0) {
      ropt.warps = 0;
      ropt.smem_ratio = -1.0;
    }

    if (rung.reference) {
      ++out.attempts;
      out.code = ErrorCode::Ok;
      out.C = core::numeric_gemm(A, B);
      out.from_reference = true;
      out.degraded = true;
      out.rung = static_cast<int>(r);
      out.rung_label = rung.label;
      metrics.counter("serve.ok").increment();
      metrics.counter("serve.degraded").increment();
      metrics.counter("serve.served.reference").increment();
      metrics.histogram("serve.rung").observe(static_cast<double>(r));
      if (trace) {
        trace->attr("result", "ok");
        trace->close_to(1);
      }
      complete();
      return out;
    }

    // The plan estimate is an observation, not a decision: the analytic fast
    // path answers from the ProfileCache (one race-free try_get copy-out) or
    // the calibrated closed form and NEVER simulates — the serving hot
    // path's contract. A cold/untrusted calibration bucket is simply
    // recorded as unplanned. The trace reports only request-determined
    // quantities (cache state, raw analytic cycles, resolved plan) so
    // campaign trace dumps stay worker-count invariant; the calibrated
    // split lands in the serve.plan.* counters instead.
    std::optional<core::PlanEstimate> estimate;
    if (trace) trace->open("plan");
    try {
      estimate = core::estimate_plan(core::ProfileCache::global(),
                                     model::Predictor::global(), rung.algo, dev,
                                     num_traits<T>::precision, m, n, k, ropt);
      metrics
          .counter(std::string("serve.plan.") +
                   core::plan_source_name(estimate->source))
          .increment();
      if (trace) {
        trace->attr("profile_cache",
                    estimate->source == core::PlanSource::Cache ? "hit" : "miss");
        trace->attr_num("analytic_cycles", estimate->prediction.analytic_cycles);
        trace->attr_num("warps", static_cast<double>(estimate->plan.p));
        trace->attr_num("smem_ratio", estimate->plan.smem_ratio);
      }
    } catch (const std::exception& e) {
      if (trace) trace->attr("plan_error", e.what());
    }
    if (trace) trace->close();

    for (int attempt = 1; attempt <= cfg_.max_attempts_per_rung; ++attempt) {
      ++out.attempts;
      if (trace) {
        trace->open("attempt[" + std::to_string(attempt) + "]");
        trace->attr("exec_mode", sim::exec_mode_name(ropt.mode));
      }
      try {
        core::GemmResult<T> res = kami::gemm(rung.algo, dev, A, B, ropt);
        breaker_record(key, true, ErrorCode::Ok, "");
        out.code = ErrorCode::Ok;
        out.C = std::move(res.C);
        out.profile = res.profile;
        out.served = rung.algo;
        out.degraded = r > 0;
        out.rung = static_cast<int>(r);
        out.rung_label = rung.label;
        out.warps = res.warps;
        out.smem_ratio = res.smem_ratio;
        metrics.counter("serve.ok").increment();
        if (out.degraded) metrics.counter("serve.degraded").increment();
        metrics.counter(std::string("serve.served.") + rung.label).increment();
        metrics.histogram("serve.rung").observe(static_cast<double>(r));
        if (res.profile.latency > 0.0) {
          // Every timed completion is ground truth: it calibrates the
          // predictor (so later estimates for this bucket turn analytic) and
          // scores the estimate this request was served under.
          model::Observation ob;
          ob.device = dev.name;
          ob.algo = rung.algo;
          ob.precision = num_traits<T>::precision;
          ob.m = m;
          ob.n = n;
          ob.k = k;
          ob.p = res.warps;
          ob.options = core::predict_options(ropt);
          ob.simulated_cycles = res.profile.latency;
          model::Predictor::global().observe(ob);
          if (estimate && estimate->source != core::PlanSource::Unplanned)
            metrics.histogram("model.prediction_error_pct")
                .observe(100.0 * std::abs(res.profile.latency - estimate->cycles) /
                         res.profile.latency);
        }
        advance(res.profile.latency);
        if (trace) {
          trace->attr("result", "ok");
          trace->attr_num("latency_cycles", res.profile.latency);
          trace->close_to(1);
        }
        complete();
        return out;
      } catch (...) {
        const ErrorCode code = classify_exception(std::current_exception());
        std::string message = "(unknown failure)";
        try {
          throw;
        } catch (const std::exception& e) {
          message = e.what();
        } catch (...) {
        }
        if (trace) {
          trace->attr("result", error_code_name(code));
          trace->attr("error", message);
        }

        if (code == ErrorCode::DeadlineExceeded) {
          // The cycle budget is spent; a lower rung would spend more. Typed,
          // terminal, and deterministic (same request => same abort point).
          advance(opt.deadline_cycles > 0.0 ? opt.deadline_cycles : 0.0);
          return fail(code, message);
        }
        if (code == ErrorCode::InternalInvariant) {
          // A simulator bug with no fault source must never be masked by
          // degradation — surface it immediately.
          breaker_record(key, false, code, message);
          return fail(code, message);
        }
        if (code == ErrorCode::TransientFault && attempt < cfg_.max_attempts_per_rung) {
          // The injected fault cleared if its armed_runs budget ran out; a
          // positive budget models "goes away when retried".
          if (auto& hooks = verify::fault_hooks(); hooks.armed_runs > 0)
            --hooks.armed_runs;
          metrics.counter("serve.retries").increment();
          if (trace) trace->close_to(2);  // close the attempt, keep the rung
          const double delay_ms = backoff(attempt);
          if (delay_ms > 0.0) {
            if (trace) {
              trace->open("backoff");
              trace->attr_num("delay_ms", delay_ms);
            }
            // 1 GHz = 1 cycle/ns, so ms * GHz * 1e6 = simulated cycles.
            advance(delay_ms * dev.boost_clock_ghz * 1e6);
            if (trace) trace->close();
          }
          continue;
        }
        // Infeasible plan, exhausted resources, or a transient fault that
        // outlived its retries: count it against the breaker, degrade.
        breaker_record(key, false, code, message);
        last = ServeError{code, message};
        if (trace) trace->close_to(1);
        break;
      }
    }
  }
  return fail(last.code, last.message);
}

}  // namespace kami::serve
