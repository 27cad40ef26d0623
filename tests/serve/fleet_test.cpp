// FleetServer contract: deterministic cost-model routing (skew, shape
// affinity, queue pressure), the blackout -> Down -> Probing -> Healthy
// state machine, failover that changes *where* but never *what*, hedged
// deadline dispatch, typed admission control, manual drain, construction-time
// device validation, and the construct/destroy-is-a-no-op lifecycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "baselines/reference.hpp"
#include "obs/metrics.hpp"
#include "serve/fleet.hpp"
#include "serve/slo.hpp"
#include "util/rng.hpp"

namespace kami {
namespace {

using serve::DeviceHealth;
using serve::ErrorCode;
using serve::FleetConfig;
using serve::FleetDeviceConfig;
using serve::FleetResult;
using serve::FleetServer;
using serve::GemmServer;

double counter(const char* name) {
  return obs::MetricRegistry::global().counter(name).value();
}

template <Scalar T>
std::pair<Matrix<T>, Matrix<T>> operands(std::size_t m, std::size_t n, std::size_t k,
                                         std::uint64_t seed = 1) {
  Rng rng(seed);
  Matrix<T> A = random_matrix<T>(m, k, rng);
  Matrix<T> B = random_matrix<T>(k, n, rng);
  return {std::move(A), std::move(B)};
}

template <Scalar T>
bool bits_equal(const Matrix<T>& a, const Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Manual drain + private planner state: routing decisions and execution
/// order are functions of the test alone, never of what other tests warmed
/// into the process-wide ProfileCache/Predictor.
FleetConfig hermetic(FleetConfig cfg = serve::table3_fleet()) {
  cfg.async_workers_per_device = 0;
  cfg.profile_cache = std::make_shared<core::ProfileCache>();
  cfg.predictor = std::make_shared<model::Predictor>();
  return cfg;
}

/// Two bit-identical GH200 shards: base routing scores tie exactly, so the
/// stable (score, index) sort makes every preference the test applies — skew,
/// queue depth, affinity — the only thing that can reorder them.
FleetConfig twins(std::size_t queue_depth = 8) {
  FleetConfig cfg;
  FleetDeviceConfig a;
  a.spec = sim::gh200();
  a.queue_depth = queue_depth;
  FleetDeviceConfig b = a;
  b.spec.name = "GH200 B";
  cfg.devices = {a, b};
  return hermetic(std::move(cfg));
}

TEST(FleetRouting, DeterministicAndTieBrokenByIndex) {
  FleetServer fleet(hermetic());
  const auto order = fleet.route_order(Algo::OneD, Precision::FP16, 64, 64, 64, {});
  ASSERT_EQ(order.size(), 4u);  // every Table-3 device supports fp16
  EXPECT_EQ(order, fleet.route_order(Algo::OneD, Precision::FP16, 64, 64, 64, {}));
  // GH200's peak fp16 throughput dwarfs the rest of Table 3.
  EXPECT_EQ(order[0], 0);

  FleetServer tied(twins());
  const auto tie = tied.route_order(Algo::OneD, Precision::FP16, 64, 64, 64, {});
  EXPECT_EQ(tie, (std::vector<int>{0, 1}));
}

TEST(FleetRouting, UnsupportedPrecisionLeavesTheRoutingSet) {
  FleetServer fleet(hermetic());
  // Table 3: only GH200 carries an FP64 tensor path, so the fp64 routing set
  // is exactly one device — the others never see the request.
  const auto order = fleet.route_order(Algo::OneD, Precision::FP64, 64, 64, 64, {});
  EXPECT_EQ(order, std::vector<int>{0});
  // FP8 adds the RTX 5090 but still excludes AMD and Intel.
  const auto fp8 = fleet.route_order(Algo::OneD, Precision::FP8E4M3, 64, 64, 64, {});
  EXPECT_EQ(fp8.size(), 2u);
  EXPECT_EQ(std::find(fp8.begin(), fp8.end(), 2), fp8.end());
  EXPECT_EQ(std::find(fp8.begin(), fp8.end(), 3), fp8.end());

  const auto [A, B] = operands<double>(64, 64, 64);
  const auto r = fleet.serve<double>(Algo::OneD, A, B);
  ASSERT_TRUE(r.ok()) << r.result.message;
  EXPECT_EQ(r.device, "GH200");
  EXPECT_TRUE(bits_equal(r.result.C, baselines::reference_gemm(A, B)));
}

TEST(FleetRouting, SkewReordersButCorrectnessSurvivesBadPlacement) {
  FleetConfig cfg = hermetic();
  cfg.route_skew = {1e6, 1e6, 1e6, 1.0};  // misprediction: worst device first
  FleetServer fleet(std::move(cfg));
  const auto order = fleet.route_order(Algo::OneD, Precision::FP16, 64, 64, 64, {});
  ASSERT_FALSE(order.empty());
  EXPECT_EQ(order[0], 3);

  const auto [A, B] = operands<fp16_t>(64, 64, 64);
  const auto r = fleet.serve<fp16_t>(Algo::OneD, A, B);
  ASSERT_TRUE(r.ok()) << r.result.message;
  EXPECT_EQ(r.device, "Max 1100");
  EXPECT_EQ(r.failovers, 0);
  EXPECT_TRUE(bits_equal(r.result.C, baselines::reference_gemm(A, B)));
}

TEST(FleetRouting, QueuePressurePenalizesTheBusyShard) {
  FleetServer fleet(twins(/*queue_depth=*/4));
  EXPECT_EQ(fleet.route_order(Algo::OneD, Precision::FP16, 64, 64, 64, {}),
            (std::vector<int>{0, 1}));

  auto [A, B] = operands<fp16_t>(64, 64, 64);
  auto fut = fleet.submit_async<fp16_t>(Algo::OneD, std::move(A), std::move(B));
  EXPECT_EQ(fleet.queue_size(0), 1u);
  // One queued request doubles shard 0's score (penalty 1.0): the twin wins.
  EXPECT_EQ(fleet.route_order(Algo::OneD, Precision::FP16, 64, 64, 64, {}),
            (std::vector<int>{1, 0}));

  fleet.drain();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const auto r = fut.get();
  ASSERT_TRUE(r.ok()) << r.result.message;
  EXPECT_EQ(r.device, "GH200");  // admitted onto shard 0's queue, served there
  EXPECT_EQ(fleet.queue_size(0), 0u);
}

TEST(FleetRouting, AffinityKeepsAShapeOnTheDeviceThatServedIt) {
  FleetConfig cfg = twins();
  cfg.probe_cooldown_requests = 1;
  FleetServer fleet(std::move(cfg));

  // Force 48^3 onto the twin: shard 0 is dark, so the first serve fails over.
  fleet.set_blackout(0, true);
  const auto [A, B] = operands<fp16_t>(48, 48, 48);
  const auto r = fleet.serve<fp16_t>(Algo::OneD, A, B);
  ASSERT_TRUE(r.ok()) << r.result.message;
  EXPECT_EQ(r.device, "GH200 B");

  // Recover shard 0 (cooldown 1: one tick to Probing, one to Healthy).
  fleet.set_blackout(0, false);
  const auto [P, Q] = operands<fp16_t>(32, 32, 32, 7);
  (void)fleet.serve<fp16_t>(Algo::OneD, P, Q);
  (void)fleet.serve<fp16_t>(Algo::OneD, P, Q);
  ASSERT_EQ(fleet.health(0), DeviceHealth::Healthy);

  // Both shards tie on score; the affinity bonus keeps 48^3 where it landed,
  // while a shape nobody has served still falls to the index tie-break.
  EXPECT_EQ(fleet.route_order(Algo::OneD, Precision::FP16, 48, 48, 48, {}),
            (std::vector<int>{1, 0}));
  EXPECT_EQ(fleet.route_order(Algo::OneD, Precision::FP16, 96, 96, 96, {})[0], 0);
}

TEST(FleetHealth, BlackoutWalksDownProbingHealthy) {
  obs::ScopedMetricsReset reset;
  FleetConfig cfg = twins();
  cfg.probe_cooldown_requests = 2;
  FleetServer fleet(std::move(cfg));
  const auto [A, B] = operands<fp16_t>(64, 64, 64);
  const auto serve_once = [&] {
    const auto r = fleet.serve<fp16_t>(Algo::OneD, A, B);
    ASSERT_TRUE(r.ok()) << r.result.message;
  };

  fleet.set_blackout(0, true);
  {
    const auto r = fleet.serve<fp16_t>(Algo::OneD, A, B);
    ASSERT_TRUE(r.ok()) << r.result.message;
    EXPECT_EQ(r.device, "GH200 B");
    EXPECT_EQ(r.failovers, 1);
  }
  EXPECT_EQ(fleet.health(0), DeviceHealth::Down);  // threshold 1: first refusal
  EXPECT_EQ(counter("fleet.marked_down"), 1.0);
  EXPECT_EQ(counter("fleet.blackout_refusals"), 1.0);
  EXPECT_TRUE(fleet.route_order(Algo::OneD, Precision::FP16, 64, 64, 64, {}) ==
              std::vector<int>{1});

  serve_once();  // cooldown 2 -> 1: still Down
  EXPECT_EQ(fleet.health(0), DeviceHealth::Down);
  serve_once();  // cooldown 1 -> 0: earns a probe
  EXPECT_EQ(fleet.health(0), DeviceHealth::Probing);
  serve_once();  // probe pings a still-dark device: Down again, fresh cooldown
  EXPECT_EQ(fleet.health(0), DeviceHealth::Down);
  EXPECT_EQ(counter("fleet.probes.failed"), 1.0);

  fleet.set_blackout(0, false);
  serve_once();  // cooldown 2 -> 1
  serve_once();  // cooldown 1 -> 0: Probing
  serve_once();  // probe pings a clear device: Healthy
  EXPECT_EQ(fleet.health(0), DeviceHealth::Healthy);
  EXPECT_EQ(counter("fleet.probes"), 2.0);
  EXPECT_EQ(counter("fleet.probes.recovered"), 1.0);
  EXPECT_EQ(fleet.route_order(Algo::OneD, Precision::FP16, 64, 64, 64, {}).size(), 2u);
}

TEST(FleetFailover, ResultIsBitIdenticalToDirectServeOnTheAnsweringDevice) {
  FleetServer fleet(hermetic());
  fleet.set_blackout(0, true);  // knock out the router's first choice
  const auto [A, B] = operands<fp16_t>(64, 64, 64);
  const auto r = fleet.serve<fp16_t>(Algo::OneD, A, B);
  ASSERT_TRUE(r.ok()) << r.result.message;
  ASSERT_GE(r.device_index, 0);
  EXPECT_NE(r.device, "GH200");
  EXPECT_GE(r.failovers, 1);

  GemmServer direct;
  const auto d = direct.serve<fp16_t>(
      Algo::OneD, fleet.device(static_cast<std::size_t>(r.device_index)), A, B);
  ASSERT_TRUE(d.ok()) << d.message;
  EXPECT_TRUE(bits_equal(r.result.C, d.C));
  EXPECT_EQ(r.result.rung_label, d.rung_label);
}

TEST(FleetFailover, BlackoutRefusalsCostNoCycles) {
  FleetServer fleet(hermetic());
  fleet.set_blackout(0, true);
  const auto [A, B] = operands<fp16_t>(64, 64, 64);
  const auto r = fleet.serve<fp16_t>(Algo::OneD, A, B);
  ASSERT_TRUE(r.ok()) << r.result.message;
  ASSERT_GE(r.failovers, 1);
  // The refused dispatch never reached a device, so the fleet clock carries
  // exactly the serving attempt (queue wait is 0 on the synchronous path).
  EXPECT_GT(r.end_to_end_cycles, 0.0);
  EXPECT_DOUBLE_EQ(r.end_to_end_cycles, r.result.end_to_end_cycles);
}

TEST(FleetFailover, TerminalErrorsNeverFailOver) {
  obs::ScopedMetricsReset reset;
  FleetServer fleet(hermetic());
  const Matrix<fp16_t> A(32, 16), B(32, 32);  // inner dimensions disagree
  const auto r = fleet.serve<fp16_t>(Algo::OneD, A, B);
  EXPECT_EQ(r.result.code, ErrorCode::InvalidRequest);
  EXPECT_EQ(r.failovers, 0);  // a second device cannot fix a malformed request
  EXPECT_EQ(counter("fleet.failovers"), 0.0);
  EXPECT_EQ(counter("fleet.error.invalid_request"), 1.0);
}

TEST(FleetFailover, FullOutageIsTypedThenRoutingSetEmpties) {
  obs::ScopedMetricsReset reset;
  FleetServer fleet(hermetic());
  for (std::size_t i = 0; i < fleet.device_count(); ++i) fleet.set_blackout(i, true);
  const auto [A, B] = operands<fp16_t>(64, 64, 64);

  // First request: every dispatch refuses, the chain exhausts typed.
  const auto r1 = fleet.serve<fp16_t>(Algo::OneD, A, B);
  EXPECT_EQ(r1.result.code, ErrorCode::DeviceUnavailable);
  EXPECT_NE(r1.result.message.find("fleet exhausted 4 of 4"), std::string::npos)
      << r1.result.message;
  EXPECT_EQ(r1.device_index, -1);
  EXPECT_EQ(r1.failovers, 3);
  for (std::size_t i = 0; i < fleet.device_count(); ++i)
    EXPECT_EQ(fleet.health(i), DeviceHealth::Down) << "device " << i;

  // Second request: everything is marked Down, so admission refuses before
  // any dispatch — and says so without a DeviceUnavailable masquerade.
  const auto r2 = fleet.serve<fp16_t>(Algo::OneD, A, B);
  EXPECT_EQ(r2.result.code, ErrorCode::ResourceExhausted);
  EXPECT_NE(r2.result.message.find("no healthy device"), std::string::npos)
      << r2.result.message;
  EXPECT_EQ(counter("fleet.no_device"), 1.0);
}

TEST(FleetHedge, DeadlineRequestsHedgeAndTheFasterArmWins) {
  obs::ScopedMetricsReset reset;
  FleetConfig cfg;
  FleetDeviceConfig slow;
  slow.spec = sim::intel_max1100();
  FleetDeviceConfig fast;
  fast.spec = sim::gh200();
  cfg.devices = {slow, fast};
  cfg.hedge_deadline_requests = true;
  cfg.route_skew = {1.0, 1e6};  // mispredict: the slow device ranks first
  FleetServer fleet(hermetic(std::move(cfg)));

  const auto [A, B] = operands<fp16_t>(64, 64, 64);
  GemmOptions opt;
  opt.deadline_cycles = 1e15;
  const auto r = fleet.serve<fp16_t>(Algo::OneD, A, B, opt);
  ASSERT_TRUE(r.ok()) << r.result.message;
  EXPECT_TRUE(r.hedged);
  EXPECT_EQ(r.device, "GH200");  // the secondary arm finished first
  EXPECT_EQ(counter("fleet.hedges"), 1.0);
  EXPECT_EQ(counter("fleet.hedge_wins_secondary"), 1.0);
  // The fleet clock pays the slower arm — the real cost of a parallel hedge.
  EXPECT_GT(r.end_to_end_cycles, r.result.end_to_end_cycles);
  EXPECT_TRUE(bits_equal(r.result.C, baselines::reference_gemm(A, B)));

  // No deadline, no hedge.
  const auto plain = fleet.serve<fp16_t>(Algo::OneD, A, B);
  ASSERT_TRUE(plain.ok()) << plain.result.message;
  EXPECT_FALSE(plain.hedged);
  EXPECT_EQ(counter("fleet.hedges"), 1.0);
}

TEST(FleetAsync, OverflowReroutesThenRefusesTypedAndDrainCompletesAll) {
  obs::ScopedMetricsReset reset;
  FleetConfig cfg = twins(/*queue_depth=*/1);
  // Queue pressure alone would steer the second submission away from the
  // full shard. Skew shard 0 to a quarter of its score: one queued request
  // doubles it to half the twin's, so the router still ranks the full shard
  // first and the overflow reroute path (queue full at try_push) is the
  // thing under test.
  cfg.route_skew = {0.25, 1.0};
  FleetServer fleet(std::move(cfg));
  std::vector<Matrix<fp16_t>> as, bs;
  std::vector<std::future<FleetResult<fp16_t>>> futures;
  for (std::uint64_t s = 0; s < 3; ++s) {
    auto [A, B] = operands<fp16_t>(32, 32, 32, s + 1);
    as.push_back(A);
    bs.push_back(B);
    futures.push_back(fleet.submit_async<fp16_t>(Algo::OneD, std::move(A), std::move(B)));
  }
  // Depth-1 twin queues: the first submission fills shard 0, the second
  // reroutes to shard 1, the third finds every queue full and is refused
  // with an already-ready typed future — before any rung or breaker.
  ASSERT_EQ(futures[2].wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const auto refused = futures[2].get();
  EXPECT_EQ(refused.result.code, ErrorCode::ResourceExhausted);
  EXPECT_NE(refused.result.message.find("every eligible fleet queue is full (2"),
            std::string::npos)
      << refused.result.message;
  EXPECT_EQ(refused.device_index, -1);
  EXPECT_EQ(counter("fleet.async.submitted"), 3.0);
  EXPECT_EQ(counter("fleet.async.accepted"), 2.0);
  EXPECT_EQ(counter("fleet.async.rejected"), 1.0);
  EXPECT_EQ(counter("fleet.overflow_reroutes"), 1.0);

  fleet.drain();
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)), std::future_status::ready);
    const auto r = futures[i].get();
    ASSERT_TRUE(r.ok()) << r.result.message;
    EXPECT_TRUE(bits_equal(r.result.C, baselines::reference_gemm(as[i], bs[i])))
        << "entry " << i;
  }
}

TEST(FleetSlo, OneFleetRequestIsOneRecordAcrossItsFailoverChain) {
  FleetConfig cfg = twins();
  const auto slo = std::make_shared<serve::SloTracker>();
  cfg.slo = slo;
  FleetServer fleet(std::move(cfg));
  fleet.set_blackout(0, true);
  const auto [A, B] = operands<fp16_t>(64, 64, 64);
  const auto r = fleet.serve<fp16_t>(Algo::OneD, A, B);
  ASSERT_TRUE(r.ok()) << r.result.message;
  ASSERT_GE(r.failovers, 1);  // the chain touched two shards...
  EXPECT_EQ(slo->total_requests(), 1u);  // ...but accounts as one request
}

TEST(FleetLifecycle, ConstructDestroyIsANoOpWithZeroValuedMetrics) {
  obs::ScopedMetricsReset reset;
  { FleetServer fleet; }  // no requests: no threads, no queue activity
  { GemmServer server; }
  const auto& metrics = obs::MetricRegistry::global();
  // Dashboards must be able to tell "served nothing" from "metric missing":
  // the whole namespace exists, at zero.
  for (const char* name :
       {"fleet.requests", "fleet.ok", "fleet.errors", "fleet.failovers",
        "fleet.hedges", "fleet.blackout_refusals", "fleet.overflow_reroutes",
        "fleet.async.submitted", "fleet.async.rejected", "serve.requests",
        "serve.ok", "serve.errors"}) {
    const auto* c = metrics.find_counter(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_EQ(c->value(), 0.0) << name;
  }
  const auto* fleet_workers = metrics.find_gauge("fleet.async.workers");
  ASSERT_NE(fleet_workers, nullptr);
  EXPECT_EQ(fleet_workers->value(), 0.0);  // lazy workers never started
  const auto* devices = metrics.find_gauge("fleet.devices");
  ASSERT_NE(devices, nullptr);
  EXPECT_EQ(devices->value(), 4.0);
}

TEST(FleetConstruction, InvalidDeviceSpecIsRefusedNamingTheField) {
  FleetConfig cfg = serve::table3_fleet();
  cfg.devices[2].spec.num_sms = 0;  // would divide-by-zero deep in the model
  try {
    FleetServer fleet(std::move(cfg));
    FAIL() << "constructing a fleet around an invalid DeviceSpec must throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("num_sms"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("7900 XTX"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace kami
