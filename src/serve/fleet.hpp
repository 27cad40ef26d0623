// FleetServer: sharded multi-device serving with health-aware, cost-model
// routing.
//
// KAMI's cost model picks the communication-optimal algorithm per device; at
// fleet scale the same decision happens *across* devices. A FleetServer
// shards requests over N simulated devices (by default the heterogeneous
// four-device Table-3 mix), each shard carrying its own GemmServer (ladder,
// retries, breakers), its own bounded MPMC request queue
// (exec::BoundedTaskQueue), and its own health state. On top of the
// per-device resilience the fleet adds:
//
//   * cost-model routing — per eligible device, core::estimate_plan's
//     cache -> formula -> Unplanned tiers predict the request's cycles
//     (never simulating); predictions are normalized to seconds at each
//     device's clock, scaled by (1 + queue_depth_penalty x queue depth), and
//     discounted by shape affinity (the device that last served this exact
//     (precision, algo, shape) keeps it, so warm ProfileCache/Predictor
//     state stays warm). Devices whose plan is infeasible as requested stay
//     routable on a peak-throughput heuristic: their ladder may still
//     degrade. Routing is deterministic: stable sort by (score, index).
//   * admission control — a request no healthy device can take (precision
//     unsupported, every queue full, fleet fully blacked out) is refused
//     with a typed ResourceExhausted before any rung, breaker, or retry is
//     touched.
//   * failover — a dispatch that comes back DeviceUnavailable (blackout),
//     ResourceExhausted, InfeasiblePlan, or TransientFault moves to the
//     next-best healthy device. InvalidRequest, DeadlineExceeded, and
//     InternalInvariant are terminal: another device cannot help, or must
//     not mask the bug. Failover never changes results: the operands are
//     device-independent, so the eventual ServeResult is bit-identical to
//     serving directly on the device that answered.
//   * health state machine — a device discovered blacked out at dispatch is
//     marked Down and leaves the routing set. The fleet's request counter is
//     its probe clock: after probe_cooldown_requests further fleet requests
//     the shard moves to Probing, and the next request's health tick pings
//     it (an out-of-band probe against the blackout flag): cleared -> back
//     to Healthy, still dark -> Down again with a fresh cooldown.
//   * hedged retries — optionally (hedge_deadline_requests), a
//     deadline-carrying request is dispatched to the two best-ranked devices
//     (sequentially, so the outcome is deterministic) and the faster success
//     wins; the fleet clock advances by the slower arm, modelling the
//     parallel hedge.
//
// Everything observable lands in the fleet.* metric namespace (pre-registered
// at zero on construction) and, when a SloTracker is attached, in per-shape-
// class SLO accounting where one fleet request — including its whole
// failover chain — is exactly one record.
//
// FleetServer is the one place requests queue. A single device is a
// one-device fleet: submit_async, bounded queues, worker threads and the
// typed admission refusal work the same at any fleet size.
//
// Logical cycles never read a host clock: a queued request is served with a
// logical queue wait of 0 in every mode, and the host time it spent queued
// lands in the host.queue_wait_ns histogram only.
//
// Determinism contract (the chaos campaign's ground): with manual drain
// (async_workers_per_device == 0) and a private ProfileCache/Predictor,
// identical request sequences against identical fleet state produce
// identical routing decisions, health transitions, results, and typed
// errors.
#pragma once

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/analytic_planner.hpp"
#include "exec/task_queue.hpp"
#include "serve/serve.hpp"
#include "sim/device.hpp"

namespace kami::serve {

enum class DeviceHealth { Healthy, Probing, Down };

const char* device_health_name(DeviceHealth h) noexcept;

/// One device shard's static configuration.
struct FleetDeviceConfig {
  sim::DeviceSpec spec;
  /// Capacity of this shard's bounded async request queue.
  std::size_t queue_depth = 64;
  /// Per-device ladder/retry/breaker policy. request_id_prefix is overridden
  /// by the fleet (ids become "<prefix>-d<i>-<n>"), and the SLO tracker is
  /// detached so one fleet request is one SLO record.
  ServeConfig serve;
};

struct FleetConfig {
  /// Empty = the four Table-3 devices with default shard settings.
  std::vector<FleetDeviceConfig> devices;

  /// Async worker threads per device shard (started lazily on the first
  /// submit_async). 0 = manual drain: no threads are ever created; queued
  /// requests run inline on drain(), in deterministic device order — the
  /// chaos campaign's mode.
  int async_workers_per_device = 1;

  // -- routing policy.
  bool shape_affinity = true;
  /// Score multiplier (< 1 favors) for the device that last served the
  /// request's exact (precision, algo, m, n, k).
  double affinity_bonus = 0.85;
  /// Predicted seconds are scaled by (1 + penalty * queued_requests).
  double queue_depth_penalty = 1.0;
  /// Max devices tried per request (failover chain length). 0 = all
  /// eligible devices.
  int max_route_attempts = 0;

  // -- health policy.
  /// Blackout refusals before a device is marked Down (1 = first refusal).
  int blackout_failure_threshold = 1;
  /// Fleet requests a Down device waits before it becomes Probing.
  int probe_cooldown_requests = 8;

  /// Hedge deadline-carrying requests across the two best-ranked devices.
  bool hedge_deadline_requests = false;

  /// Router misprediction injection (chaos): per-device multiplicative skew
  /// on the predicted score. Empty = no skew; shorter than the fleet = 1.0
  /// for the remainder.
  std::vector<double> route_skew;

  /// Planning state the router consults. nullptr = the process-wide
  /// ProfileCache::global() / Predictor::global(). The chaos campaign
  /// injects private instances so routing replays hermetically.
  std::shared_ptr<core::ProfileCache> profile_cache;
  std::shared_ptr<model::Predictor> predictor;

  std::string request_id_prefix = "fleet";
  std::shared_ptr<obs::FlightRecorder> flight;  ///< propagated to every shard
  std::shared_ptr<SloTracker> slo;              ///< fleet-level (one record/request)
};

/// The paper's heterogeneous evaluation fleet: GH200, RTX 5090, 7900 XTX,
/// Max 1100, default shard settings.
FleetConfig table3_fleet();

/// A ServeResult plus where (and how) the fleet produced it.
template <Scalar T>
struct FleetResult {
  ServeResult<T> result;
  int device_index = -1;  ///< shard that answered; -1 = fleet-level refusal
  std::string device;     ///< its DeviceSpec name ("" on refusal)
  int failovers = 0;      ///< failed dispatches before the one that answered
  bool hedged = false;    ///< served by a hedged dispatch pair
  /// Fleet end-to-end logical cycles: every dispatch attempt's
  /// end_to_end_cycles along the chain (hedges cost their slower arm).
  double end_to_end_cycles = 0.0;

  bool ok() const noexcept { return result.ok(); }
};

class FleetServer {
 public:
  /// Validates every device spec (sim::validate_device — typed
  /// PreconditionError naming the offending field) and pre-registers the
  /// fleet.* metrics at zero. No threads are created here; shard workers
  /// start lazily on the first submit_async (never in manual-drain mode), so
  /// construction + destruction with no requests is a strict no-op.
  explicit FleetServer(FleetConfig cfg = table3_fleet());

  /// Closes every shard queue, joins the workers, then drains anything still
  /// queued inline — a future returned by submit_async is always eventually
  /// ready.
  ~FleetServer();
  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Synchronous fleet serving: health tick, route, (optionally hedged)
  /// dispatch with failover. Never throws; every failure is typed.
  template <Scalar T>
  FleetResult<T> serve(core::Algo algo, const Matrix<T>& A, const Matrix<T>& B,
                       core::GemmOptions opt = {});

  /// Async fleet serving: route, then enqueue on the best-ranked device
  /// whose bounded queue has room (full queues fail over to the next
  /// candidate at submission — fleet.overflow_reroutes). When no eligible
  /// queue accepts, the returned future is already ready with a typed
  /// ResourceExhausted. The worker replays the submitting thread's
  /// FaultHooks and runs the full failover chain starting at the queue's
  /// device; the host time the request spent queued is observed in
  /// host.queue_wait_ns and never enters its logical cycles.
  template <Scalar T>
  std::future<FleetResult<T>> submit_async(core::Algo algo, Matrix<T> A, Matrix<T> B,
                                           core::GemmOptions opt = {});

  /// Manual-drain mode: run every queued request inline, shard by shard in
  /// device order, until all queues are empty. Deterministic. No-op when
  /// worker threads are draining the queues.
  void drain();

  std::size_t device_count() const noexcept { return shards_.size(); }
  const sim::DeviceSpec& device(std::size_t i) const { return shards_.at(i)->cfg.spec; }
  DeviceHealth health(std::size_t i) const;
  /// Queued-but-unclaimed requests on one shard.
  std::size_t queue_size(std::size_t i) const { return shards_.at(i)->queue->size(); }

  /// Simulated device blackout: while set, every dispatch to the shard is
  /// refused with a typed DeviceUnavailable (and counts toward marking it
  /// Down). Clearing it lets the next health probe recover the device.
  void set_blackout(std::size_t i, bool down);
  bool blackout(std::size_t i) const { return shards_.at(i)->blackout.load(); }

  /// The candidate dispatch order the router would produce right now
  /// (eligible devices, best first). Exposed for tests and dashboards.
  std::vector<int> route_order(core::Algo algo, Precision prec, std::size_t m,
                               std::size_t n, std::size_t k,
                               const core::GemmOptions& opt) const;

  /// Direct access to one shard's GemmServer (tests: breaker state).
  GemmServer& shard_server(std::size_t i) { return *shards_.at(i)->server; }

  const FleetConfig& config() const noexcept { return cfg_; }

 private:
  struct Shard {
    FleetDeviceConfig cfg;
    std::unique_ptr<GemmServer> server;
    std::unique_ptr<exec::BoundedTaskQueue> queue;
    std::vector<std::thread> workers;
    std::atomic<bool> blackout{false};
    // Health fields are guarded by the fleet's mu_.
    DeviceHealth health = DeviceHealth::Healthy;
    int consecutive_refusals = 0;
    int probe_cooldown = 0;
  };

  struct AffinityKey {
    Precision prec = Precision::FP16;
    core::Algo algo = core::Algo::OneD;
    std::size_t m = 0, n = 0, k = 0;
    friend auto operator<=>(const AffinityKey&, const AffinityKey&) = default;
  };

  std::string next_request_id() {
    return cfg_.request_id_prefix + "-" +
           std::to_string(request_counter_.fetch_add(1, std::memory_order_relaxed) + 1);
  }

  core::ProfileCache& route_cache() const;
  model::Predictor& route_predictor() const;

  /// Advance the health clock by one fleet request: Down shards count down
  /// toward Probing; Probing shards are pinged against their blackout flag.
  void tick_health();
  /// One blackout refusal: bump the shard's failure count, possibly mark it
  /// Down. Returns the typed error for the dispatch loop.
  ServeError note_blackout_refusal(int idx, std::size_t m, std::size_t n, std::size_t k);
  void note_success(int idx, const AffinityKey& key);
  void update_healthy_gauge();  ///< caller holds mu_

  static bool failover_eligible(ErrorCode code) noexcept {
    return code == ErrorCode::DeviceUnavailable || code == ErrorCode::ResourceExhausted ||
           code == ErrorCode::InfeasiblePlan || code == ErrorCode::TransientFault;
  }

  void ensure_workers_started();

  /// Dispatch one request to shard `idx`. Returns false (with *err set) on a
  /// blackout refusal — the device never saw the request; true otherwise
  /// with *res the shard's typed result.
  template <Scalar T>
  bool dispatch_one(int idx, core::Algo algo, const Matrix<T>& A, const Matrix<T>& B,
                    const core::GemmOptions& opt, ServeResult<T>* res, ServeError* err);

  /// The routed, failover-capable ladder shared by serve() and the async
  /// workers. `primary` >= 0 pins that shard to the front of the dispatch
  /// order (the queue the async request was accepted on).
  template <Scalar T>
  FleetResult<T> serve_fleet_request(const std::string& id, int primary, core::Algo algo,
                                     const Matrix<T>& A, const Matrix<T>& B,
                                     core::GemmOptions opt);

  FleetConfig cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> request_counter_{0};

  mutable std::mutex mu_;  ///< health, affinity
  std::map<AffinityKey, int> affinity_;

  std::mutex start_mu_;
  bool workers_started_ = false;
};

// ---------------------------------------------------------------------------
// implementation

template <Scalar T>
bool FleetServer::dispatch_one(int idx, core::Algo algo, const Matrix<T>& A,
                               const Matrix<T>& B, const core::GemmOptions& opt,
                               ServeResult<T>* res, ServeError* err) {
  Shard& s = *shards_[static_cast<std::size_t>(idx)];
  if (s.blackout.load(std::memory_order_relaxed)) {
    *err = note_blackout_refusal(idx, A.rows(), B.cols(), A.cols());
    return false;
  }
  *res = s.server->serve<T>(algo, s.cfg.spec, A, B, opt);
  return true;
}

template <Scalar T>
FleetResult<T> FleetServer::serve(core::Algo algo, const Matrix<T>& A,
                                  const Matrix<T>& B, core::GemmOptions opt) {
  return serve_fleet_request<T>(next_request_id(), -1, algo, A, B, opt);
}

template <Scalar T>
FleetResult<T> FleetServer::serve_fleet_request(const std::string& id, int primary,
                                                core::Algo algo, const Matrix<T>& A,
                                                const Matrix<T>& B,
                                                core::GemmOptions opt) {
  auto& metrics = obs::MetricRegistry::current();
  metrics.counter("fleet.requests").increment();
  tick_health();

  const Precision prec = num_traits<T>::precision;
  const std::size_t m = A.rows(), k = A.cols(), n = B.cols();

  FleetResult<T> out;
  out.result.requested = algo;

  std::vector<int> order = route_order(algo, prec, m, n, k, opt);
  if (primary >= 0) {
    // The async request was admitted onto `primary`'s queue; it dispatches
    // there first, then fails over along the current ranking.
    std::erase(order, primary);
    order.insert(order.begin(), primary);
  }

  const auto complete = [&](ErrorCode code) {
    metrics.histogram("fleet.end_to_end_cycles").observe(out.end_to_end_cycles);
    if (code == ErrorCode::Ok) {
      metrics.counter("fleet.ok").increment();
    } else {
      metrics.counter("fleet.errors").increment();
      metrics.counter(std::string("fleet.error.") + error_code_name(code)).increment();
    }
    if (cfg_.slo)
      cfg_.slo->record(m, n, k, code, out.result.rung_label, out.end_to_end_cycles,
                       opt.deadline_cycles);
  };

  if (order.empty()) {
    out.result.code = ErrorCode::ResourceExhausted;
    out.result.message = "fleet has no healthy device for precision " +
                         std::string(precision_name(prec)) + " (" + id + ")";
    metrics.counter("fleet.no_device").increment();
    complete(out.result.code);
    return out;
  }

  const std::size_t limit =
      cfg_.max_route_attempts > 0
          ? std::min(order.size(), static_cast<std::size_t>(cfg_.max_route_attempts))
          : order.size();

  ServeError last{ErrorCode::ResourceExhausted, "no device dispatched the request"};
  int tried = 0;
  std::size_t pos = 0;

  const auto finish_with = [&](ServeResult<T>&& r, int idx, bool hedged) {
    out.result = std::move(r);
    out.device_index = idx;
    out.device = shards_[static_cast<std::size_t>(idx)]->cfg.spec.name;
    out.failovers = tried - 1;
    out.hedged = hedged;
    metrics.histogram("fleet.route_position").observe(static_cast<double>(pos));
    if (out.failovers > 0)
      metrics.counter("fleet.failovers").add(static_cast<double>(out.failovers));
    std::string dev_metric = out.device;
    for (char& c : dev_metric)
      if (c == ' ') c = '_';
    metrics.counter("fleet.device." + dev_metric + ".served").increment();
    if (out.result.ok())
      note_success(idx, AffinityKey{prec, algo, m, n, k});
    complete(out.result.code);
    return std::move(out);
  };

  // Hedged dispatch: the two best-ranked devices, sequentially (so the
  // outcome is deterministic); the faster success wins and the fleet clock
  // pays the slower arm — the cost of a real parallel hedge.
  if (cfg_.hedge_deadline_requests && opt.deadline_cycles > 0.0 && order.size() >= 2) {
    metrics.counter("fleet.hedges").increment();
    ServeResult<T> arm[2];
    ServeError arm_err[2];
    bool responded[2] = {false, false};
    for (int h = 0; h < 2; ++h) {
      ++tried;
      responded[h] = dispatch_one<T>(order[static_cast<std::size_t>(h)], algo, A, B, opt,
                                     &arm[h], &arm_err[h]);
      if (!responded[h]) arm[h].code = arm_err[h].code;
    }
    out.end_to_end_cycles +=
        std::max(arm[0].end_to_end_cycles, arm[1].end_to_end_cycles);
    const bool ok0 = responded[0] && arm[0].ok();
    const bool ok1 = responded[1] && arm[1].ok();
    if (ok0 || ok1) {
      int win = 0;
      if (ok0 && ok1)
        win = arm[1].end_to_end_cycles < arm[0].end_to_end_cycles ? 1 : 0;
      else if (ok1)
        win = 1;
      if (win == 1) metrics.counter("fleet.hedge_wins_secondary").increment();
      pos = static_cast<std::size_t>(win);
      tried = win + 1;  // failovers counts the arms ranked ahead of the winner
      return finish_with(std::move(arm[win]), order[static_cast<std::size_t>(win)],
                         /*hedged=*/true);
    }
    // Both arms failed: terminal codes end the request, otherwise keep
    // failing over past the hedged pair.
    for (int h = 0; h < 2; ++h) {
      const ErrorCode code = responded[h] ? arm[h].code : arm_err[h].code;
      if (responded[h] && !failover_eligible(code)) {
        pos = static_cast<std::size_t>(h);
        return finish_with(std::move(arm[h]), order[static_cast<std::size_t>(h)],
                           /*hedged=*/true);
      }
      last = responded[h] ? ServeError{arm[h].code, arm[h].message} : arm_err[h];
    }
    pos = 2;
  }

  for (; pos < limit; ++pos) {
    const int idx = order[pos];
    ++tried;
    ServeResult<T> res;
    ServeError err;
    if (!dispatch_one<T>(idx, algo, A, B, opt, &res, &err)) {
      last = err;  // blackout refusal: costs no cycles, on to the next device
      continue;
    }
    out.end_to_end_cycles += res.end_to_end_cycles;
    if (res.ok() || !failover_eligible(res.code))
      return finish_with(std::move(res), idx, /*hedged=*/false);
    last = ServeError{res.code, res.message};
  }

  out.result.code = last.code;
  out.result.message = last.message + " (fleet exhausted " + std::to_string(tried) +
                       " of " + std::to_string(order.size()) + " candidate devices)";
  out.failovers = tried > 0 ? tried - 1 : 0;
  if (out.failovers > 0)
    metrics.counter("fleet.failovers").add(static_cast<double>(out.failovers));
  complete(out.result.code);
  return out;
}

template <Scalar T>
std::future<FleetResult<T>> FleetServer::submit_async(core::Algo algo, Matrix<T> A,
                                                      Matrix<T> B,
                                                      core::GemmOptions opt) {
  ensure_workers_started();
  auto& metrics = obs::MetricRegistry::current();
  metrics.counter("fleet.async.submitted").increment();

  auto promise = std::make_shared<std::promise<FleetResult<T>>>();
  std::future<FleetResult<T>> future = promise->get_future();

  const std::string id = next_request_id();
  const std::size_t rm = A.rows(), rk = A.cols(), rn = B.cols();
  const Precision prec = num_traits<T>::precision;
  const std::vector<int> order = route_order(algo, prec, rm, rn, rk, opt);

  // Shared (not moved-into-one-lambda) operands: a full queue passes them to
  // the next candidate's task untouched.
  auto a = std::make_shared<Matrix<T>>(std::move(A));
  auto b = std::make_shared<Matrix<T>>(std::move(B));
  const auto submitted = std::chrono::steady_clock::now();
  const verify::FaultHooks hooks = verify::fault_hooks();

  std::size_t full_queues = 0;
  for (const int idx : order) {
    Shard& s = *shards_[static_cast<std::size_t>(idx)];
    auto task = [this, promise, idx, algo, a, b, opt, hooks, id, submitted] {
      // Queue wait is host time: it goes to the host namespace, never into
      // the request's logical cycles.
      obs::MetricRegistry::current()
          .histogram("host.queue_wait_ns")
          .observe(std::chrono::duration<double, std::nano>(
                       std::chrono::steady_clock::now() - submitted)
                       .count());
      verify::ScopedFault fault(hooks);
      try {
        promise->set_value(serve_fleet_request<T>(id, idx, algo, *a, *b, opt));
      } catch (...) {
        promise->set_exception(std::current_exception());
      }
    };
    if (s.queue->try_push(std::move(task))) {
      metrics.counter("fleet.async.accepted").increment();
      if (full_queues > 0)
        metrics.counter("fleet.overflow_reroutes").add(static_cast<double>(full_queues));
      return future;
    }
    ++full_queues;
  }

  // Admission control: every eligible queue is full (or no device is
  // eligible at all). Typed refusal before any rung, breaker, or retry.
  metrics.counter("fleet.async.rejected").increment();
  metrics.counter("fleet.rejected").increment();
  if (cfg_.slo) cfg_.slo->record_rejected(rm, rn, rk);
  FleetResult<T> refused;
  refused.result.requested = algo;
  refused.result.code = ErrorCode::ResourceExhausted;
  refused.result.message =
      order.empty()
          ? "fleet has no healthy device for precision " +
                std::string(precision_name(prec)) + " (" + id + ")"
          : "every eligible fleet queue is full (" + std::to_string(order.size()) +
                " candidates); retry after in-flight requests drain (" + id + ")";
  promise->set_value(std::move(refused));
  return future;
}

}  // namespace kami::serve
