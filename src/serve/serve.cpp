#include "serve/serve.hpp"

#include <chrono>
#include <cmath>
#include <thread>

#include "sim/deadline.hpp"
#include "sim/register_file.hpp"

namespace kami::serve {

const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::Ok: return "ok";
    case ErrorCode::InvalidRequest: return "invalid_request";
    case ErrorCode::InfeasiblePlan: return "infeasible_plan";
    case ErrorCode::ResourceExhausted: return "resource_exhausted";
    case ErrorCode::DeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::TransientFault: return "transient_fault";
    case ErrorCode::DeviceUnavailable: return "device_unavailable";
    case ErrorCode::InternalInvariant: return "internal_invariant";
  }
  return "unknown";
}

const char* breaker_state_name(BreakerState s) noexcept {
  switch (s) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    case BreakerState::HalfOpen: return "half_open";
  }
  return "unknown";
}

ErrorCode classify_exception(const std::exception_ptr& ep) noexcept {
  if (!ep) return ErrorCode::Ok;
  try {
    std::rethrow_exception(ep);
  } catch (const sim::DeadlineExceeded&) {
    return ErrorCode::DeadlineExceeded;
  } catch (const sim::RegisterOverflow&) {
    // Most derived first: RegisterOverflow is a PreconditionError, but means
    // a concrete resource ran out (register file, or the planner exhausting
    // every spill ratio) rather than a structurally illegal request.
    return ErrorCode::ResourceExhausted;
  } catch (const verify::InvariantViolation&) {
    // An invariant trip is only "transient" while a fault source is armed;
    // with no injected fault it can only be a simulator bug.
    return verify::faults_armed() ? ErrorCode::TransientFault
                                  : ErrorCode::InternalInvariant;
  } catch (const PreconditionError&) {
    return ErrorCode::InfeasiblePlan;
  } catch (const std::bad_alloc&) {
    return ErrorCode::ResourceExhausted;
  } catch (...) {
    return ErrorCode::InternalInvariant;
  }
}

GemmServer::GemmServer(ServeConfig cfg) : cfg_(std::move(cfg)) {
  // Pre-register the serving metrics at zero. A server that is constructed
  // and torn down without a single request must still export the whole
  // serve.* namespace (dashboards distinguish "served nothing" from "metric
  // missing").
  auto& metrics = obs::MetricRegistry::current();
  for (const char* name :
       {"serve.requests", "serve.ok", "serve.errors", "serve.retries",
        "serve.degraded", "serve.backoff_ms", "serve.breaker.trips",
        "serve.breaker.closes", "serve.breaker.short_circuits",
        "serve.breaker.half_open_probes"})
    metrics.counter(name);
  for (const char* name : {"serve.end_to_end_cycles", "serve.rung"})
    metrics.histogram(name);
}

std::vector<GemmServer::Rung> GemmServer::build_ladder(core::Algo requested,
                                                       const ServeConfig& cfg) {
  std::vector<Rung> ladder;
  const auto push = [&](core::Algo a, const char* label) {
    ladder.push_back(Rung{false, a, label});
  };
  switch (requested) {
    case core::Algo::ThreeD:
      push(core::Algo::ThreeD, "kami_3d");
      if (cfg.allow_degradation) {
        push(core::Algo::TwoD, "kami_2d");
        push(core::Algo::OneD, "kami_1d");
      }
      break;
    case core::Algo::TwoD:
      push(core::Algo::TwoD, "kami_2d");
      if (cfg.allow_degradation) push(core::Algo::OneD, "kami_1d");
      break;
    case core::Algo::OneD:
    default:
      push(core::Algo::OneD, "kami_1d");
      break;
  }
  if (cfg.allow_degradation && cfg.allow_reference_fallback)
    ladder.push_back(Rung{true, core::Algo::OneD, "reference"});
  return ladder;
}

bool GemmServer::breaker_admit(const RungKey& key, ServeError* out,
                               BreakerState* observed) {
  std::lock_guard<std::mutex> lock(mu_);
  if (observed != nullptr) *observed = BreakerState::Closed;
  auto it = breakers_.find(key);
  if (it == breakers_.end()) return true;
  Breaker& b = it->second;
  if (observed != nullptr) *observed = b.state;
  switch (b.state) {
    case BreakerState::Closed:
    case BreakerState::HalfOpen:
      return true;
    case BreakerState::Open:
      if (b.cooldown_remaining > 0) {
        --b.cooldown_remaining;
        obs::MetricRegistry::current().counter("serve.breaker.short_circuits").increment();
        *out = ServeError{
            b.last_code,
            std::string(algo_name(key.algo)) + " rung short-circuited by open circuit "
                "breaker on " + key.device + " (" + precision_name(key.prec) + " m=" +
                std::to_string(key.m) + " n=" + std::to_string(key.n) + " k=" +
                std::to_string(key.k) + "); last failure: " + b.last_message};
        return false;
      }
      // Cooldown expired: this request is the half-open probe.
      b.state = BreakerState::HalfOpen;
      if (observed != nullptr) *observed = BreakerState::HalfOpen;
      obs::MetricRegistry::current().counter("serve.breaker.half_open_probes").increment();
      return true;
  }
  return true;
}

void GemmServer::breaker_record(const RungKey& key, bool success, ErrorCode code,
                                const std::string& message) {
  std::lock_guard<std::mutex> lock(mu_);
  Breaker& b = breakers_[key];
  if (success) {
    if (b.state != BreakerState::Closed)
      obs::MetricRegistry::current().counter("serve.breaker.closes").increment();
    b = Breaker{};  // closed, zero failures
    return;
  }
  b.last_code = code;
  b.last_message = message;
  ++b.consecutive_failures;
  const bool reopen = b.state == BreakerState::HalfOpen;  // failed probe
  if (reopen || b.consecutive_failures >= cfg_.breaker_failure_threshold) {
    if (b.state != BreakerState::Open)
      obs::MetricRegistry::current().counter("serve.breaker.trips").increment();
    b.state = BreakerState::Open;
    b.cooldown_remaining = cfg_.breaker_cooldown_requests;
  }
}

BreakerState GemmServer::breaker_state(const std::string& device, core::Algo algo,
                                       Precision prec, std::size_t m, std::size_t n,
                                       std::size_t k) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = breakers_.find(RungKey{device, algo, prec, m, n, k});
  return it == breakers_.end() ? BreakerState::Closed : it->second.state;
}

void GemmServer::reset_breakers() {
  std::lock_guard<std::mutex> lock(mu_);
  breakers_.clear();
}

double GemmServer::backoff(int attempt) const {
  if (cfg_.backoff_base_ms <= 0.0) return 0.0;
  const double ms =
      std::min(cfg_.backoff_base_ms * std::ldexp(1.0, attempt - 1), cfg_.backoff_max_ms);
  obs::MetricRegistry::current().counter("serve.backoff_ms").add(ms);
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  return ms;
}

}  // namespace kami::serve
