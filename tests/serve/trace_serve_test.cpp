// Request-scoped tracing on the serving path: span-tree shapes for the
// ladder's outcomes (clean serve, retry, degradation, breaker short-circuit,
// deadline abort), SLO accounting, the serve.* latency histograms, and the
// chaos campaign's worker-count-independent flight-recorder dump.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/profile_cache.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "serve/chaos.hpp"
#include "serve/fleet.hpp"
#include "serve/serve.hpp"
#include "serve/slo.hpp"
#include "sim/device.hpp"
#include "util/rng.hpp"
#include "verify/invariants.hpp"

namespace kami {
namespace {

using obs::FlightRecorder;
using obs::RequestTrace;
using serve::ErrorCode;
using serve::GemmServer;
using serve::ServeConfig;
using serve::SloTracker;

template <Scalar T>
std::pair<Matrix<T>, Matrix<T>> operands(std::size_t m, std::size_t n, std::size_t k,
                                         std::uint64_t seed = 1) {
  Rng rng(seed);
  Matrix<T> A = random_matrix<T>(m, k, rng);
  Matrix<T> B = random_matrix<T>(k, n, rng);
  return {std::move(A), std::move(B)};
}

const std::string* attr(const obs::Span* s, const char* key) {
  return s != nullptr ? s->find_attr(key) : nullptr;
}

std::string attr_or(const obs::Span* s, const char* key, const char* fallback = "") {
  const std::string* v = attr(s, key);
  return v != nullptr ? *v : std::string(fallback);
}

TEST(TraceServe, CleanServeProducesTheCanonicalSpanTree) {
  // The plan span's profile_cache attribute reads the process-wide cache;
  // start from a known-cold state regardless of test order.
  core::ProfileCache::global().clear();
  const auto flight = std::make_shared<FlightRecorder>();
  ServeConfig cfg;
  cfg.flight = flight;
  GemmServer server(cfg);
  const auto [A, B] = operands<fp16_t>(64, 64, 64);
  const auto r = server.serve<fp16_t>(Algo::OneD, sim::gh200(), A, B);
  ASSERT_TRUE(r.ok()) << r.message;

  const auto traces = flight->snapshot();
  ASSERT_EQ(traces.size(), 1u);
  const RequestTrace& t = traces[0];
  EXPECT_EQ(t.request_id, "req-1");
  EXPECT_EQ(*t.find_meta("algo"), "KAMI-1D");
  EXPECT_EQ(*t.find_meta("m"), "64");
  EXPECT_FALSE(t.is_error());

  // request -> admit, rung[0] -> plan, attempt[1].
  EXPECT_EQ(attr_or(t.root(), "code"), "ok");
  EXPECT_EQ(attr_or(t.root(), "rung_label"), "kami_1d");
  EXPECT_EQ(attr_or(t.root(), "attempts"), "1");
  EXPECT_EQ(attr_or(t.root(), "degraded"), "false");
  EXPECT_EQ(attr_or(t.find_span("admit"), "result"), "admitted");

  const obs::Span* rung = t.find_span("rung[0]");
  ASSERT_NE(rung, nullptr);
  EXPECT_EQ(attr_or(rung, "label"), "kami_1d");
  EXPECT_EQ(attr_or(rung, "breaker"), "closed");
  // The plan span reports the resolved configuration and cache state (a
  // fresh process has no cached profile for this key).
  const obs::Span* plan = t.find_span("plan");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->parent, static_cast<std::int32_t>(rung->id));
  EXPECT_EQ(attr_or(plan, "profile_cache"), "miss");
  EXPECT_NE(attr(plan, "warps"), nullptr);

  const obs::Span* att = t.find_span("attempt[1]");
  ASSERT_NE(att, nullptr);
  EXPECT_EQ(att->parent, static_cast<std::int32_t>(rung->id));
  EXPECT_EQ(attr_or(att, "result"), "ok");
  // The attempt interval is exactly the simulated kernel latency, and the
  // root span ends on the same deterministic clock.
  EXPECT_EQ(att->duration_cycles(), r.profile.latency);
  EXPECT_EQ(t.root()->end_cycles, r.profile.latency);

  // Warm the cache for this configuration (mode is excluded from the key,
  // so the timing profile lands on exactly the key the plan span checks);
  // the next request's plan span flips to a hit.
  (void)core::timing_profile<fp16_t>(core::ProfileCache::global(), Algo::OneD,
                                     sim::gh200(), 64, 64, 64);
  (void)server.serve<fp16_t>(Algo::OneD, sim::gh200(), A, B);
  const auto again = flight->snapshot();
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[1].request_id, "req-2");
  EXPECT_EQ(attr_or(again[1].find_span("plan"), "profile_cache"), "hit");
}

TEST(TraceServe, RetryPathRecordsFailedAttemptAndBackoffSpan) {
  const auto flight = std::make_shared<FlightRecorder>();
  ServeConfig cfg;
  cfg.flight = flight;
  cfg.backoff_base_ms = 0.25;
  GemmServer server(cfg);
  const auto [A, B] = operands<fp16_t>(64, 64, 64);

  verify::FaultHooks fault;
  fault.warp_advance_skew = -1e9;
  fault.armed_runs = 1;
  const verify::ScopedFault guard(fault);

  const auto r = server.serve<fp16_t>(Algo::OneD, sim::gh200(), A, B);
  ASSERT_TRUE(r.ok()) << r.message;
  ASSERT_EQ(r.attempts, 2);

  const auto traces = flight->snapshot();
  ASSERT_EQ(traces.size(), 1u);
  const RequestTrace& t = traces[0];
  EXPECT_EQ(attr_or(t.find_span("attempt[1]"), "result"), "transient_fault");
  EXPECT_NE(attr(t.find_span("attempt[1]"), "error"), nullptr);
  EXPECT_EQ(attr_or(t.find_span("attempt[2]"), "result"), "ok");
  const obs::Span* backoff = t.find_span("backoff");
  ASSERT_NE(backoff, nullptr);
  EXPECT_EQ(attr_or(backoff, "delay_ms"), "0.25");
  // 0.25 ms at the device boost clock, in cycles.
  EXPECT_EQ(backoff->duration_cycles(), 0.25 * sim::gh200().boost_clock_ghz * 1e6);
  EXPECT_EQ(attr_or(t.root(), "attempts"), "2");
}

TEST(TraceServe, DegradationWalksRungsInOneTrace) {
  const auto flight = std::make_shared<FlightRecorder>();
  ServeConfig cfg;
  cfg.flight = flight;
  GemmServer server(cfg);
  const auto [A, B] = operands<double>(128, 128, 128);
  const auto r = server.serve<double>(Algo::ThreeD, sim::gh200(), A, B);
  ASSERT_TRUE(r.ok()) << r.message;
  ASSERT_TRUE(r.degraded);

  const RequestTrace t = flight->snapshot().front();
  EXPECT_EQ(attr_or(t.root(), "degraded"), "true");
  EXPECT_EQ(attr_or(t.root(), "rung_label"), "kami_2d");
  const obs::Span* r0 = t.find_span("rung[0]");
  const obs::Span* r1 = t.find_span("rung[1]");
  ASSERT_NE(r0, nullptr);
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(attr_or(r0, "label"), "kami_3d");
  EXPECT_EQ(attr_or(r1, "label"), "kami_2d");
  // 3D at 128^3 FP64 is planner-infeasible: its attempt fails typed and the
  // plan span carries the planner's explanation instead of a configuration.
  const std::vector<const obs::Span*> attempts = t.find_all("attempt[1]");
  ASSERT_EQ(attempts.size(), 2u);
  EXPECT_EQ(attr_or(attempts[0], "result"), "resource_exhausted");
  EXPECT_EQ(attr_or(attempts[1], "result"), "ok");
  const std::vector<const obs::Span*> plans = t.find_all("plan");
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_NE(attr(plans[0], "plan_error"), nullptr);
}

TEST(TraceServe, BreakerShortCircuitIsVisibleInTheRungSpan) {
  const auto flight = std::make_shared<FlightRecorder>();
  ServeConfig cfg;
  cfg.flight = flight;
  cfg.breaker_failure_threshold = 1;
  cfg.breaker_cooldown_requests = 1;
  GemmServer server(cfg);
  const auto& dev = sim::gh200();
  const auto [A, B] = operands<fp16_t>(64, 64, 64);

  {
    verify::FaultHooks fault;
    fault.warp_advance_skew = -1e9;
    fault.armed_runs = -1;
    const verify::ScopedFault guard(fault);
    (void)server.serve<fp16_t>(Algo::OneD, dev, A, B);  // trips the breaker
  }
  (void)server.serve<fp16_t>(Algo::OneD, dev, A, B);  // short-circuited
  (void)server.serve<fp16_t>(Algo::OneD, dev, A, B);  // half-open probe

  const auto traces = flight->snapshot();
  ASSERT_EQ(traces.size(), 3u);
  const obs::Span* blocked = traces[1].find_span("rung[0]");
  EXPECT_EQ(attr_or(blocked, "breaker"), "open");
  EXPECT_EQ(attr_or(blocked, "skipped"), "breaker_open");
  // The short-circuited rung never opens a plan or attempt span; the request
  // is served by the reference rung in the same trace.
  EXPECT_EQ(traces[1].children_of(blocked->id).size(), 0u);
  EXPECT_EQ(attr_or(traces[1].root(), "rung_label"), "reference");
  EXPECT_EQ(attr_or(traces[2].find_span("rung[0]"), "breaker"), "half_open");
}

TEST(TraceServe, DeadlineAbortIsATypedErrorTrace) {
  const auto flight = std::make_shared<FlightRecorder>();
  ServeConfig cfg;
  cfg.flight = flight;
  GemmServer server(cfg);
  const auto [A, B] = operands<fp16_t>(64, 64, 64);
  GemmOptions opt;
  opt.deadline_cycles = 50.0;
  const auto r = server.serve<fp16_t>(Algo::OneD, sim::gh200(), A, B, opt);
  ASSERT_EQ(r.code, ErrorCode::DeadlineExceeded);

  ASSERT_EQ(flight->error_count(), 1u);
  const RequestTrace t = flight->snapshot().front();
  EXPECT_TRUE(t.is_error());
  EXPECT_EQ(attr_or(t.root(), "code"), "deadline_exceeded");
  EXPECT_EQ(r.message, attr_or(t.root(), "error"));
  EXPECT_EQ(attr_or(t.find_span("attempt[1]"), "result"), "deadline_exceeded");
  // The abort charges exactly the spent budget to the logical clock.
  EXPECT_EQ(t.root()->end_cycles, 50.0);
}

TEST(TraceServe, InvalidRequestFailsInsideTheAdmitSpan) {
  const auto flight = std::make_shared<FlightRecorder>();
  ServeConfig cfg;
  cfg.flight = flight;
  GemmServer server(cfg);
  const Matrix<fp16_t> A(16, 8), B(16, 16);
  const auto r = server.serve<fp16_t>(Algo::OneD, sim::gh200(), A, B);
  ASSERT_EQ(r.code, ErrorCode::InvalidRequest);
  const RequestTrace t = flight->snapshot().front();
  EXPECT_TRUE(t.is_error());
  EXPECT_EQ(attr_or(t.root(), "code"), "invalid_request");
  // Rejected before any rung ran.
  EXPECT_EQ(t.find_span("rung[0]"), nullptr);
}

TEST(TraceServe, TracingOffOrNoRecorderCostsNothing) {
  // No recorder attached (the default): no traces anywhere, results intact.
  GemmServer plain;
  const auto [A, B] = operands<fp16_t>(64, 64, 64);
  ASSERT_TRUE(plain.serve<fp16_t>(Algo::OneD, sim::gh200(), A, B).ok());

  // Recorder attached but tracing disabled: the recorder stays empty.
  const auto flight = std::make_shared<FlightRecorder>();
  ServeConfig cfg;
  cfg.flight = flight;
  cfg.tracing = false;
  GemmServer server(cfg);
  ASSERT_TRUE(server.serve<fp16_t>(Algo::OneD, sim::gh200(), A, B).ok());
  EXPECT_EQ(flight->size(), 0u);
}

TEST(TraceServe, FreshServersProduceByteIdenticalTraces) {
  const auto [A, B] = operands<fp16_t>(64, 64, 64);
  const auto run_once = [&] {
    const auto flight = std::make_shared<FlightRecorder>();
    ServeConfig cfg;
    cfg.flight = flight;
    GemmServer server(cfg);
    (void)server.serve<fp16_t>(Algo::OneD, sim::gh200(), A, B);
    return flight->snapshot().front().canonical_text();
  };
  EXPECT_EQ(run_once(), run_once());
}

// Async requests through a threaded one-device fleet are traced like
// synchronous ones; their queue wait is host time, so it is measured in
// host.queue_wait_ns and never appears on the logical-cycle trace.
TEST(TraceServe, AsyncRequestsAreTracedWithQueueWait) {
  obs::ScopedMetricsReset reset;
  const auto flight = std::make_shared<FlightRecorder>();
  serve::FleetConfig cfg;
  serve::FleetDeviceConfig dev;
  dev.spec = sim::gh200();
  cfg.devices = {dev};
  cfg.async_workers_per_device = 2;
  cfg.flight = flight;
  serve::FleetServer fleet(cfg);
  const auto [A, B] = operands<fp16_t>(64, 64, 64);
  auto f1 = fleet.submit_async<fp16_t>(Algo::OneD, A, B);
  auto f2 = fleet.submit_async<fp16_t>(Algo::OneD, A, B);
  const auto r1 = f1.get();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(f2.get().ok());

  const auto traces = flight->snapshot();
  ASSERT_EQ(traces.size(), 2u);
  for (const RequestTrace& t : traces) {
    EXPECT_FALSE(t.is_error());
    EXPECT_EQ(t.find_span("queue_wait"), nullptr);
    EXPECT_EQ(attr_or(t.root(), "code"), "ok");
    EXPECT_EQ(t.root()->end_cycles, r1.end_to_end_cycles);
  }
  const obs::Histogram* wait =
      obs::MetricRegistry::global().find_histogram("host.queue_wait_ns");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count(), 2u);
}

TEST(SloAccounting, ShapeClassesBucketByFlops) {
  EXPECT_EQ(serve::shape_class(0, 64, 64), "degenerate");
  EXPECT_EQ(serve::shape_class(16, 16, 16), "tiny");       // 2*16^3 = 8192
  EXPECT_EQ(serve::shape_class(64, 64, 64), "small");      // 2^19
  EXPECT_EQ(serve::shape_class(128, 128, 128), "medium");  // 2^22
  EXPECT_EQ(serve::shape_class(512, 512, 512), "large");   // 2^28
}

TEST(SloAccounting, TrackerAccountsPerClassWithAttainment) {
  SloTracker slo;
  slo.record(64, 64, 64, ErrorCode::Ok, "kami_1d", 1000.0, 2000.0);   // met
  slo.record(64, 64, 64, ErrorCode::Ok, "kami_1d", 3000.0, 2000.0);  // missed
  slo.record(64, 64, 64, ErrorCode::DeadlineExceeded, "", 2000.0, 2000.0);
  slo.record(64, 64, 64, ErrorCode::Ok, "kami_2d", 500.0, 0.0);  // no deadline
  slo.record(0, 64, 64, ErrorCode::Ok, "degenerate", 0.0, 0.0);
  EXPECT_EQ(slo.total_requests(), 5u);

  const obs::Json doc = slo.to_json();
  const obs::Json& classes = doc.at("classes");
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes.at(0).at("class").as_string(), "degenerate");
  const obs::Json& small = classes.at(1);
  EXPECT_EQ(small.at("class").as_string(), "small");
  EXPECT_EQ(small.at("requests").as_number(), 4.0);
  EXPECT_EQ(small.at("ok").as_number(), 3.0);
  EXPECT_EQ(small.at("errors").as_number(), 1.0);
  EXPECT_EQ(small.at("by_rung").at("kami_1d").as_number(), 2.0);
  EXPECT_EQ(small.at("by_code").at("deadline_exceeded").as_number(), 1.0);
  EXPECT_EQ(small.at("deadline").at("with_deadline").as_number(), 3.0);
  EXPECT_EQ(small.at("deadline").at("met").as_number(), 1.0);
  EXPECT_NEAR(small.at("deadline").at("attainment").as_number(), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(small.at("latency_cycles").at("count").as_number(), 4.0);
  EXPECT_EQ(small.at("latency_cycles").at("max").as_number(), 3000.0);

  slo.clear();
  EXPECT_EQ(slo.total_requests(), 0u);
}

TEST(SloAccounting, MergePreservesObservationOrder) {
  SloTracker a, b;
  a.record(64, 64, 64, ErrorCode::Ok, "kami_1d", 100.0, 0.0);
  b.record(64, 64, 64, ErrorCode::Ok, "kami_1d", 200.0, 0.0);
  a.merge_from(b);
  EXPECT_EQ(a.total_requests(), 2u);

  SloTracker direct;
  direct.record(64, 64, 64, ErrorCode::Ok, "kami_1d", 100.0, 0.0);
  direct.record(64, 64, 64, ErrorCode::Ok, "kami_1d", 200.0, 0.0);
  EXPECT_EQ(a.to_json().dump(), direct.to_json().dump());
}

// The empty-distribution contract end to end: a shape class whose every
// request was refused at admission has requests/errors/by_code accounting
// but zero latency samples, and its export must still carry a complete,
// NaN-free latency_cycles block with count 0 (the old export dropped the
// block entirely, so consumers branched on presence — or crashed).
TEST(SloAccounting, RejectedOnlyClassExportsZeroLatencyBlock) {
  SloTracker slo;
  slo.record_rejected(64, 64, 64);
  slo.record_rejected(64, 64, 64);
  EXPECT_EQ(slo.total_requests(), 2u);

  const obs::Json doc = slo.to_json();
  const obs::Json& cls = doc.at("classes").at(0);
  EXPECT_EQ(cls.at("class").as_string(), "small");
  EXPECT_EQ(cls.at("requests").as_number(), 2.0);
  EXPECT_EQ(cls.at("ok").as_number(), 0.0);
  EXPECT_EQ(cls.at("errors").as_number(), 2.0);
  EXPECT_EQ(cls.at("by_code").at("resource_exhausted").as_number(), 2.0);
  const obs::Json& lat = cls.at("latency_cycles");
  for (const char* stat : {"count", "mean", "p50", "p90", "p99", "max"}) {
    EXPECT_DOUBLE_EQ(lat.at(stat).as_number(), 0.0) << stat;
    EXPECT_FALSE(std::isnan(lat.at(stat).as_number())) << stat;
  }
  // The serialized form is parseable JSON with no NaN tokens.
  EXPECT_EQ(slo.to_json().dump().find("nan"), std::string::npos);
}

TEST(SloAccounting, ServerFeedsTheAttachedTracker) {
  const auto slo = std::make_shared<SloTracker>();
  ServeConfig cfg;
  cfg.slo = slo;  // SLO accounting works without a flight recorder
  GemmServer server(cfg);
  const auto [A, B] = operands<fp16_t>(64, 64, 64);
  ASSERT_TRUE(server.serve<fp16_t>(Algo::OneD, sim::gh200(), A, B).ok());
  GemmOptions opt;
  opt.deadline_cycles = 50.0;
  ASSERT_FALSE(server.serve<fp16_t>(Algo::OneD, sim::gh200(), A, B, opt).ok());

  EXPECT_EQ(slo->total_requests(), 2u);
  const obs::Json doc = slo->to_json();
  const obs::Json& cls = doc.at("classes").at(0);
  EXPECT_EQ(cls.at("class").as_string(), "small");
  EXPECT_EQ(cls.at("deadline").at("with_deadline").as_number(), 1.0);
  EXPECT_EQ(cls.at("deadline").at("met").as_number(), 0.0);
}

TEST(TraceServe, LatencyHistogramsAreExported) {
  obs::ScopedMetricsReset reset;
  GemmServer server;
  const auto [A, B] = operands<fp16_t>(64, 64, 64);
  const auto r = server.serve<fp16_t>(Algo::OneD, sim::gh200(), A, B);
  ASSERT_TRUE(r.ok()) << r.message;

  auto& metrics = obs::MetricRegistry::global();
  const auto& e2e = metrics.histogram("serve.end_to_end_cycles");
  EXPECT_EQ(e2e.count(), 1u);
  EXPECT_EQ(e2e.max(), r.profile.latency);  // end-to-end == kernel latency
}

// The campaign determinism contract: the flight-recorder dump (traces
// harvested from per-point fleets, folded in seed order) and the SLO export
// are byte-identical at every worker count.
TEST(CampaignTraceDeterminism, FlightDumpAndSloAreWorkerCountInvariant) {
  const auto run = [](int workers) {
    const auto flight = std::make_shared<FlightRecorder>();
    const auto slo = std::make_shared<SloTracker>();
    const serve::ChaosReport rep =
        serve::run_campaign(/*base_seed=*/7, /*points=*/24, workers, flight, slo);
    EXPECT_TRUE(rep.clean());
    std::ostringstream dump;
    flight->dump(dump);
    return std::pair<std::string, std::string>{dump.str(), slo->to_json().dump()};
  };
  const auto serial = run(1);
  EXPECT_GT(serial.first.size(), 2u);
  for (const int workers : {2, 4, 8}) {
    const auto parallel = run(workers);
    EXPECT_EQ(parallel.first, serial.first) << "workers=" << workers;
    EXPECT_EQ(parallel.second, serial.second) << "workers=" << workers;
  }

  // Every request a shard dispatched is traced, and ok churn never evicts an
  // error trace: the ok ring overflows, yet each deadline abort in the report
  // (a dispatched request that ended typed) is still retained.
  const auto flight = std::make_shared<FlightRecorder>();
  const serve::ChaosReport rep = serve::run_campaign(7, 24, 2, flight, nullptr);
  EXPECT_EQ(flight->completed_count(), flight->config().completed_capacity);
  const auto deadline_aborts = rep.by_code.find("deadline_exceeded");
  ASSERT_NE(deadline_aborts, rep.by_code.end());
  EXPECT_GE(flight->error_count(), deadline_aborts->second);
}

}  // namespace
}  // namespace kami
