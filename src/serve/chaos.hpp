// Chaos campaign: randomized resilience fuzzing of the serving layer.
//
// Every chaos point is a fleet scenario. The fleet is either one device —
// the point's own verify device, i.e. the single-server case — or the four
// Table-3 devices, where routing decides. On top of a verify::CheckPoint
// (device, precision, algorithm, shape, tuning, data seed) a point layers:
//
//   * request adversity — an injected fault (transient or permanent
//     cycle-accounting skew, a one-shot register allocation failure), a
//     randomized cycle deadline, and a randomized execution mode;
//   * seeded blackouts — a random subset of the fleet (possibly all of it)
//     is dark before the request arrives, so dispatch refusals, mark-down,
//     and failover all fire;
//   * router misprediction — per-device multiplicative skew on the routing
//     score, so the request is deliberately sent to the "wrong" device
//     first and correctness must survive bad placement;
//   * queue-overflow storms — a burst of async submissions against
//     deliberately tiny shard queues in manual-drain mode, so overflow
//     reroute and typed admission refusals exercise deterministically.
//
// run_chaos_point() serves the point through a fresh FleetServer and checks
// the contract:
//
//   * bit-correct-or-typed — for the main request and every storm request:
//     no exception escapes; a success matches the reference rounding model
//     bit-for-bit (KAMI-3D: stays inside the precision tolerance vs the FP64
//     reference) — faults may slow or degrade a request but never corrupt
//     it; a failure carries a non-empty message, is never InternalInvariant
//     (faults are injected only through armed sources, which classify as
//     transient), is DeadlineExceeded only when the point set a deadline,
//     and is DeviceUnavailable only when a device was dark;
//   * no request lost — every storm future is ready after drain();
//   * failover bit-identity — a fault-free success is bit-identical to
//     serving the same operands directly on the device the fleet reports it
//     used: failover may change *where*, never *what*;
//   * recovery — once blackouts clear, the probe state machine returns
//     every marked-down device to Healthy within cooldown + 2 requests;
//   * deterministic replay — the whole scenario rerun from scratch (fresh
//     fleet, fresh hermetic planner state) reproduces the same code,
//     byte-identical message, serving device, failover count, rung,
//     end-to-end cycles, and storm outcome.
//
// Points are generated from a seed, so every violation is replayable:
// `kami_chaos --seed <s> --points 1`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/fleet.hpp"
#include "serve/slo.hpp"
#include "verify/differential.hpp"

namespace kami::serve {

enum class ChaosFault {
  None,               ///< no injection: the point must serve on its merits
  TransientWarpSkew,  ///< clock-rewind skew that clears after one failing run
  TransientPortSkew,  ///< port double-charge skew that clears after one run
  PermanentWarpSkew,  ///< clock-rewind skew on every run: only reference serves
  AllocFailure,       ///< one-shot injected register-allocation failure
};

const char* chaos_fault_name(ChaosFault f) noexcept;

struct ChaosPoint {
  verify::CheckPoint base;  ///< the requested shape/precision/algo/tuning
  ChaosFault fault = ChaosFault::None;
  long long alloc_countdown = -1;  ///< AllocFailure: which allocation fails
  double deadline_cycles = 0.0;    ///< 0 = no deadline
  sim::ExecMode mode = sim::ExecMode::Full;

  /// The fleet's devices by name: {base.device} or the four Table-3 devices.
  std::vector<std::string> devices;
  std::uint32_t blackout_mask = 0;  ///< bit i: devices[i] dark at arrival
  std::vector<double> route_skew;   ///< empty = honest router
  bool hedge = false;               ///< hedge deadline-carrying requests
  int storm_requests = 0;           ///< async burst size (0 = no storm)
  std::size_t queue_depth = 4;      ///< shard queue capacity for this point
  int probe_cooldown = 2;           ///< fleet requests before a Down shard probes
};

/// Deterministic seed -> point generation (replays exactly).
ChaosPoint chaos_point(std::uint64_t seed);

/// One-line human-readable spec (verify spec + chaos fields).
std::string to_string(const ChaosPoint& p);

struct ChaosOutcome {
  bool violation = false;  ///< contract broken (crash, corruption, bad typing)
  std::string detail;      ///< violation description when violation
  ErrorCode code = ErrorCode::Ok;
  std::string message;     ///< the main request's error message (typed failures)
  std::string rung_label;  ///< rung that served, or "error"
  std::string device;      ///< device that answered ("" on fleet refusal)
  int failovers = 0;
  bool hedged = false;
  int storm_ok = 0;        ///< storm futures that served
  int storm_rejected = 0;  ///< storm futures typed-refused at admission
};

/// Run one chaos point: build the point's fleet (manual drain, hermetic
/// planner state), apply blackouts/skew, run the storm, serve the main
/// request under its fault, check failover identity and recovery, then
/// replay the scenario from scratch and compare. `flight`/`slo` attach
/// observability to the first run; request ids are "<prefix>-<n>".
ChaosOutcome run_chaos_point(const ChaosPoint& p,
                             const std::shared_ptr<obs::FlightRecorder>& flight = nullptr,
                             const std::shared_ptr<SloTracker>& slo = nullptr,
                             const std::string& request_id_prefix = "chaos");

struct ChaosViolation {
  std::uint64_t seed = 0;
  std::string point;   ///< to_string of the generated point
  std::string detail;
};

struct ChaosReport {
  std::size_t ran = 0;
  std::size_t served_ok = 0;
  std::size_t typed_errors = 0;
  std::size_t failovers = 0;       ///< total failed dispatches before success
  std::size_t hedged = 0;          ///< points served by a hedged pair
  std::size_t storm_requests = 0;  ///< total storm submissions checked
  std::size_t storm_rejected = 0;  ///< typed admission refusals among them
  std::map<std::string, std::size_t> by_code;    ///< error_code_name -> count
  std::map<std::string, std::size_t> by_rung;    ///< rung label -> count
  std::map<std::string, std::size_t> by_fault;   ///< injected fault -> count
  std::map<std::string, std::size_t> by_device;  ///< device that answered
  std::map<std::string, std::size_t> by_fleet;   ///< "1 device" / "4 devices"
  std::vector<ChaosViolation> violations;

  bool clean() const noexcept { return violations.empty(); }
};

/// Replication-parallel campaign: points seeded base_seed, base_seed+1, ...
/// each against a fresh fleet, fanned out across the execution engine
/// (`workers` 0 = defer to KAMI_THREADS, 1 = serial). When `flight`/`slo`
/// are set, each point serves through a fresh per-point recorder/tracker
/// (request ids prefixed "seed<n>") whose contents are folded into
/// `flight`/`slo` serially in seed order. The report, the dump and the SLO
/// export are bit-identical at every worker count.
ChaosReport run_campaign(std::uint64_t base_seed, std::size_t points, int workers = 1,
                         const std::shared_ptr<obs::FlightRecorder>& flight = nullptr,
                         const std::shared_ptr<SloTracker>& slo = nullptr);

}  // namespace kami::serve
