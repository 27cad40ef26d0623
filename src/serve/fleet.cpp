#include "serve/fleet.hpp"

#include <algorithm>
#include <functional>

namespace kami::serve {

const char* device_health_name(DeviceHealth h) noexcept {
  switch (h) {
    case DeviceHealth::Healthy: return "healthy";
    case DeviceHealth::Probing: return "probing";
    case DeviceHealth::Down: return "down";
  }
  return "unknown";
}

FleetConfig table3_fleet() {
  FleetConfig cfg;
  for (const sim::DeviceSpec* spec :
       {&sim::gh200(), &sim::rtx5090(), &sim::amd7900xtx(), &sim::intel_max1100()}) {
    FleetDeviceConfig dev;
    dev.spec = *spec;
    cfg.devices.push_back(std::move(dev));
  }
  return cfg;
}

FleetServer::FleetServer(FleetConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.devices.empty()) cfg_.devices = table3_fleet().devices;

  shards_.reserve(cfg_.devices.size());
  for (std::size_t i = 0; i < cfg_.devices.size(); ++i) {
    const FleetDeviceConfig& dev = cfg_.devices[i];
    sim::validate_device(dev.spec);
    auto shard = std::make_unique<Shard>();
    shard->cfg = dev;
    ServeConfig serve_cfg = dev.serve;
    serve_cfg.flight = cfg_.flight;
    // One fleet request is exactly one SLO record, accounted at fleet level
    // over the whole failover chain — shard servers must not double-count.
    serve_cfg.slo = nullptr;
    serve_cfg.request_id_prefix = cfg_.request_id_prefix + "-d" + std::to_string(i);
    shard->server = std::make_unique<GemmServer>(serve_cfg);
    shard->queue = std::make_unique<exec::BoundedTaskQueue>(dev.queue_depth);
    shards_.push_back(std::move(shard));
  }

  // Pre-register the fleet.* namespace at zero: a fleet constructed and torn
  // down without a single request still exports every metric, and dashboards
  // can tell "served nothing" from "metric missing".
  auto& metrics = obs::MetricRegistry::current();
  for (const char* name :
       {"fleet.requests", "fleet.ok", "fleet.errors", "fleet.rejected",
        "fleet.no_device", "fleet.failovers", "fleet.hedges",
        "fleet.hedge_wins_secondary", "fleet.blackout_refusals", "fleet.marked_down",
        "fleet.probes", "fleet.probes.recovered", "fleet.probes.failed",
        "fleet.overflow_reroutes", "fleet.async.submitted", "fleet.async.accepted",
        "fleet.async.rejected", "fleet.route.cache", "fleet.route.analytic",
        "fleet.route.unplanned", "fleet.route.heuristic"})
    metrics.counter(name);
  for (const char* name :
       {"fleet.end_to_end_cycles", "fleet.route_position", "host.queue_wait_ns"})
    metrics.histogram(name);
  metrics.gauge("fleet.devices").set(static_cast<double>(shards_.size()));
  metrics.gauge("fleet.devices_healthy").set(static_cast<double>(shards_.size()));
  metrics.gauge("fleet.async.workers").set(0.0);
}

FleetServer::~FleetServer() {
  for (auto& s : shards_) s->queue->close();
  for (auto& s : shards_)
    for (std::thread& t : s->workers) t.join();
  // Anything still queued (manual-drain mode, or pushed after the workers
  // left) runs inline now so every returned future resolves.
  drain();
}

DeviceHealth FleetServer::health(std::size_t i) const {
  std::lock_guard lock(mu_);
  return shards_.at(i)->health;
}

void FleetServer::set_blackout(std::size_t i, bool down) {
  shards_.at(i)->blackout.store(down, std::memory_order_relaxed);
}

core::ProfileCache& FleetServer::route_cache() const {
  return cfg_.profile_cache ? *cfg_.profile_cache : core::ProfileCache::global();
}

model::Predictor& FleetServer::route_predictor() const {
  return cfg_.predictor ? *cfg_.predictor : model::Predictor::global();
}

void FleetServer::update_healthy_gauge() {
  double healthy = 0.0;
  for (const auto& s : shards_)
    if (s->health == DeviceHealth::Healthy) healthy += 1.0;
  obs::MetricRegistry::current().gauge("fleet.devices_healthy").set(healthy);
}

void FleetServer::tick_health() {
  std::lock_guard lock(mu_);
  auto& metrics = obs::MetricRegistry::current();
  for (auto& sp : shards_) {
    Shard& s = *sp;
    switch (s.health) {
      case DeviceHealth::Healthy:
        break;
      case DeviceHealth::Down:
        // The fleet request counter is the probe clock: after the cooldown
        // the shard earns a probe on the next tick.
        if (--s.probe_cooldown <= 0) {
          s.health = DeviceHealth::Probing;
          metrics.counter("fleet.probes").increment();
        }
        break;
      case DeviceHealth::Probing:
        // Out-of-band ping: the probe checks the device directly instead of
        // waiting for the router to gamble a live request on it.
        if (s.blackout.load(std::memory_order_relaxed)) {
          s.health = DeviceHealth::Down;
          s.probe_cooldown = cfg_.probe_cooldown_requests;
          metrics.counter("fleet.probes.failed").increment();
        } else {
          s.health = DeviceHealth::Healthy;
          s.consecutive_refusals = 0;
          metrics.counter("fleet.probes.recovered").increment();
        }
        break;
    }
  }
  update_healthy_gauge();
}

ServeError FleetServer::note_blackout_refusal(int idx, std::size_t m, std::size_t n,
                                              std::size_t k) {
  auto& metrics = obs::MetricRegistry::current();
  metrics.counter("fleet.blackout_refusals").increment();
  Shard& s = *shards_[static_cast<std::size_t>(idx)];
  {
    std::lock_guard lock(mu_);
    ++s.consecutive_refusals;
    if (s.health != DeviceHealth::Down &&
        s.consecutive_refusals >= cfg_.blackout_failure_threshold) {
      s.health = DeviceHealth::Down;
      s.probe_cooldown = cfg_.probe_cooldown_requests;
      metrics.counter("fleet.marked_down").increment();
      update_healthy_gauge();
    }
  }
  return ServeError{ErrorCode::DeviceUnavailable,
                    "device \"" + s.cfg.spec.name + "\" is blacked out (refused " +
                        std::to_string(m) + "x" + std::to_string(k) + "x" +
                        std::to_string(n) + " at dispatch)"};
}

void FleetServer::note_success(int idx, const AffinityKey& key) {
  std::lock_guard lock(mu_);
  shards_[static_cast<std::size_t>(idx)]->consecutive_refusals = 0;
  if (cfg_.shape_affinity) affinity_[key] = idx;
}

std::vector<int> FleetServer::route_order(core::Algo algo, Precision prec,
                                          std::size_t m, std::size_t n, std::size_t k,
                                          const core::GemmOptions& opt) const {
  struct Candidate {
    double score = 0.0;
    int idx = 0;
  };
  std::vector<Candidate> candidates;
  auto& metrics = obs::MetricRegistry::current();

  std::lock_guard lock(mu_);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    if (s.health != DeviceHealth::Healthy) continue;
    const sim::DeviceSpec& spec = s.cfg.spec;
    if (!spec.supports(prec)) continue;

    // Predicted seconds for this request on this device: the analytic fast
    // path (cache -> calibrated formula, never simulating), normalized at the
    // device's clock so heterogeneous devices rank on one scale. Devices the
    // planner rejects as-requested stay routable on the peak-throughput
    // heuristic — their ladder may still degrade and serve.
    double seconds = 0.0;
    const char* source = "heuristic";
    try {
      const core::PlanEstimate est = core::estimate_plan(
          route_cache(), route_predictor(), algo, spec, prec, m, n, k, opt);
      if (est.cycles > 0.0 && est.source != core::PlanSource::Unplanned) {
        seconds = est.cycles / (spec.boost_clock_ghz * 1e9);
        source = core::plan_source_name(est.source);
      }
    } catch (const std::exception&) {
      // Infeasible as requested: heuristic ranking below.
    }
    if (seconds <= 0.0) {
      const double peak_flops =
          spec.peak_tflops(prec) * 1e12 *
          (spec.mma_efficiency > 0.0 ? spec.mma_efficiency : 1.0);
      const double flops =
          2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k);
      seconds = peak_flops > 0.0 ? flops / peak_flops : flops;
    }
    metrics.counter(std::string("fleet.route.") + source).increment();

    double score =
        seconds * (1.0 + cfg_.queue_depth_penalty * static_cast<double>(s.queue->size()));
    if (cfg_.shape_affinity) {
      const auto it = affinity_.find(AffinityKey{prec, algo, m, n, k});
      if (it != affinity_.end() && it->second == static_cast<int>(i))
        score *= cfg_.affinity_bonus;
    }
    if (i < cfg_.route_skew.size()) score *= cfg_.route_skew[i];
    candidates.push_back(Candidate{score, static_cast<int>(i)});
  }

  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     if (a.score != b.score) return a.score < b.score;
                     return a.idx < b.idx;
                   });
  std::vector<int> order;
  order.reserve(candidates.size());
  for (const Candidate& c : candidates) order.push_back(c.idx);
  return order;
}

void FleetServer::ensure_workers_started() {
  if (cfg_.async_workers_per_device == 0) return;  // manual drain
  std::lock_guard lock(start_mu_);
  if (workers_started_) return;
  workers_started_ = true;
  const int per_device = std::max(1, cfg_.async_workers_per_device);
  for (auto& sp : shards_) {
    Shard& s = *sp;
    s.workers.reserve(static_cast<std::size_t>(per_device));
    for (int w = 0; w < per_device; ++w)
      s.workers.emplace_back([q = s.queue.get()] {
        std::function<void()> task;
        // pop_blocking keeps returning queued tasks after close() until the
        // queue drains, so shutdown completes every accepted request.
        while (q->pop_blocking(task)) task();
      });
  }
  obs::MetricRegistry::current()
      .gauge("fleet.async.workers")
      .set(static_cast<double>(per_device) * static_cast<double>(shards_.size()));
}

void FleetServer::drain() {
  bool popped = true;
  while (popped) {
    popped = false;
    for (auto& sp : shards_) {
      std::function<void()> task;
      while (sp->queue->try_pop(task)) {
        popped = true;
        task();
      }
    }
  }
}

}  // namespace kami::serve
