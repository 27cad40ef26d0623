// Chaos campaign: deterministic point generation that covers every fault,
// execution mode and fleet size, a clean single-server mini campaign, a
// clean fixed-seed campaign, a worker-count-invariant report, and targeted
// single points that pin the campaign's hardest conditions (full blackout,
// storms against depth-1 queues, hedged dispatch, router misprediction) to a
// zero-violation outcome. (The 500-point campaign is the kami_chaos
// acceptance run; its 120-point smoke runs as the kami_chaos_smoke and
// kami_chaos_fleet_smoke ctest jobs.)
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "serve/chaos.hpp"
#include "serve/slo.hpp"

namespace kami::serve {
namespace {

std::vector<std::string> table3_names() {
  std::vector<std::string> names;
  for (const FleetDeviceConfig& dev : table3_fleet().devices) names.push_back(dev.spec.name);
  return names;
}

// The single-server scenario: a one-device fleet of the verify point's own
// device, nothing dark, nothing to route or hedge to.
ChaosPoint single_server(ChaosPoint p) {
  p.devices = {p.base.device};
  p.blackout_mask = 0;
  p.route_skew.clear();
  p.hedge = false;
  return p;
}

TEST(ChaosPoints, GenerationIsDeterministic) {
  for (const std::uint64_t seed : {0ull, 1ull, 42ull, 12345ull})
    EXPECT_EQ(to_string(chaos_point(seed)), to_string(chaos_point(seed)));
}

TEST(FleetChaos, PointGenerationIsDeterministic) {
  for (const std::uint64_t seed : {1ull, 7ull, 123456789ull}) {
    const ChaosPoint a = chaos_point(seed);
    const ChaosPoint b = chaos_point(seed);
    EXPECT_EQ(to_string(a), to_string(b)) << "seed " << seed;
    EXPECT_FALSE(to_string(a).empty());
  }
  EXPECT_NE(to_string(chaos_point(1)), to_string(chaos_point(2)));
}

TEST(FleetChaos, EveryFaultModeAndFleetSizeAppears) {
  std::set<std::string> faults;
  std::set<sim::ExecMode> modes;
  std::set<std::size_t> fleet_sizes;
  std::size_t with_deadline = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const ChaosPoint p = chaos_point(seed);
    faults.insert(chaos_fault_name(p.fault));
    modes.insert(p.mode);
    fleet_sizes.insert(p.devices.size());
    if (p.deadline_cycles > 0.0) ++with_deadline;
    // A one-device fleet is the verify point's own device; a blackout never
    // names a device the fleet does not have.
    if (p.devices.size() == 1) {
      EXPECT_EQ(p.devices[0], p.base.device) << seed;
    }
    EXPECT_EQ(p.blackout_mask >> p.devices.size(), 0u) << seed;
  }
  EXPECT_EQ(faults.size(), 5u);  // none + 2 transient + permanent + alloc
  EXPECT_EQ(modes.size(), 3u);
  EXPECT_EQ(fleet_sizes, (std::set<std::size_t>{1, 4}));
  EXPECT_GE(with_deadline, 20u);   // 10 % of 200
  EXPECT_LE(with_deadline, 180u);  // 90 % of 200
}

// The old single-server campaign, now one-device fleet points: 40 seeds
// serve violation-free (each point replays in full), and with a full ladder
// and no device dark the only typed error left is a deadline abort.
TEST(ChaosCampaign, MiniCampaignHasZeroViolations) {
  std::size_t served_ok = 0;
  std::size_t typed_errors = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const ChaosPoint p = single_server(chaos_point(seed));
    const ChaosOutcome o = run_chaos_point(p);
    EXPECT_FALSE(o.violation) << "seed " << seed << ": " << o.detail
                              << "\n  point: " << to_string(p);
    if (o.code == ErrorCode::Ok) {
      ++served_ok;
      EXPECT_EQ(o.device, p.base.device) << seed;
    } else {
      ++typed_errors;
      EXPECT_EQ(o.code, ErrorCode::DeadlineExceeded) << seed << ": " << o.message;
      EXPECT_GT(p.deadline_cycles, 0.0) << seed;
    }
    EXPECT_EQ(o.failovers, 0) << seed;
  }
  EXPECT_EQ(served_ok + typed_errors, 40u);
  EXPECT_GT(served_ok, 0u);
  EXPECT_GT(typed_errors, 0u);
}

TEST(FleetChaos, FixedSeedSmokeCampaignIsClean) {
  const auto slo = std::make_shared<SloTracker>();
  const ChaosReport rep = run_campaign(1, 40, /*workers=*/1, nullptr, slo);
  EXPECT_TRUE(rep.clean()) << rep.violations.size() << " violations, first: "
                           << (rep.violations.empty() ? std::string()
                                                      : rep.violations[0].point + ": " +
                                                            rep.violations[0].detail);
  EXPECT_EQ(rep.ran, 40u);
  EXPECT_EQ(rep.served_ok + rep.typed_errors, rep.ran);
  EXPECT_FALSE(rep.by_rung.empty());
  // 40 seeds comfortably cover both sides of every distribution: both fleet
  // sizes, some points serve, some refuse typed.
  EXPECT_EQ(rep.by_fleet.size(), 2u);
  EXPECT_GT(rep.served_ok, 0u);
  EXPECT_GT(rep.typed_errors, 0u);
  // One fleet request (plus storm and recovery traffic) per point, recorded
  // at fleet level only — the SLO tracker must have seen every point.
  EXPECT_GE(slo->total_requests(), rep.ran);
}

TEST(FleetChaos, CampaignReportIsWorkerCountInvariant) {
  const ChaosReport serial = run_campaign(11, 16, /*workers=*/1);
  const ChaosReport fanned = run_campaign(11, 16, /*workers=*/4);
  EXPECT_TRUE(serial.clean());
  EXPECT_TRUE(fanned.clean());
  EXPECT_EQ(serial.ran, fanned.ran);
  EXPECT_EQ(serial.served_ok, fanned.served_ok);
  EXPECT_EQ(serial.typed_errors, fanned.typed_errors);
  EXPECT_EQ(serial.failovers, fanned.failovers);
  EXPECT_EQ(serial.hedged, fanned.hedged);
  EXPECT_EQ(serial.storm_requests, fanned.storm_requests);
  EXPECT_EQ(serial.storm_rejected, fanned.storm_rejected);
  EXPECT_EQ(serial.by_code, fanned.by_code);
  EXPECT_EQ(serial.by_rung, fanned.by_rung);
  EXPECT_EQ(serial.by_device, fanned.by_device);
  EXPECT_EQ(serial.by_fault, fanned.by_fault);
  EXPECT_EQ(serial.by_fleet, fanned.by_fleet);
}

// The campaign's worst corner, pinned explicitly so a distribution change in
// chaos_point() can never silently stop covering it: all four devices dark,
// a storm against depth-1 queues, and hedging armed. The point must run
// violation-free — the full outage comes back typed, every storm future
// resolves, and the devices recover once the blackout clears.
TEST(FleetChaos, FullBlackoutWithStormAndHedgeIsViolationFree) {
  ChaosPoint p = chaos_point(3);
  p.devices = table3_names();
  p.fault = ChaosFault::None;
  p.blackout_mask = 0xF;
  p.storm_requests = 8;
  p.queue_depth = 1;
  p.hedge = true;
  p.probe_cooldown = 1;
  const ChaosOutcome o = run_chaos_point(p);
  EXPECT_FALSE(o.violation) << o.detail;
  // A dark fleet serves nothing: storm futures come back as typed admission
  // refusals or dark-dispatch errors, never results.
  EXPECT_EQ(o.storm_ok, 0);
  EXPECT_GT(o.storm_rejected, 0);
  EXPECT_NE(o.code, ErrorCode::Ok);  // nothing can serve a fully dark fleet
}

TEST(FleetChaos, RouterMispredictionPointIsViolationFree) {
  ChaosPoint p = chaos_point(5);
  p.devices = table3_names();
  p.fault = ChaosFault::None;
  p.blackout_mask = 0;
  p.route_skew = {64.0, 0.25, 4.0, 1.0};  // deliberately wrong ranking
  const ChaosOutcome o = run_chaos_point(p);
  EXPECT_FALSE(o.violation) << o.detail;
}

TEST(FleetChaos, InjectedFaultPointsStayWithinTheContract) {
  // A handful of fixed seeds spanning the fault kinds, each run on both fleet
  // sizes; each point internally asserts bit-correct-or-typed, failover
  // identity, recovery, and replay.
  for (const std::uint64_t seed : {2ull, 9ull, 17ull, 33ull, 41ull}) {
    for (const bool one_device : {true, false}) {
      ChaosPoint p = chaos_point(seed);
      if (one_device) {
        p.devices = {p.base.device};
        p.blackout_mask &= 1u;
        p.route_skew.clear();
        p.hedge = false;
      } else {
        p.devices = table3_names();
      }
      const ChaosOutcome o = run_chaos_point(p);
      EXPECT_FALSE(o.violation) << "seed " << seed << ": " << o.detail
                                << "\n  point: " << to_string(p);
    }
  }
}

}  // namespace
}  // namespace kami::serve
