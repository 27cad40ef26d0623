// Shared plumbing for the benchmark's workloads: options, the host clock,
// per-run metric collection, output checks and the pass loop.
//
// Every workload runs the same shape of loop. A *pass* is one complete,
// seeded unit of work (a Fig 8 sweep, a request trace, a tuning grid):
//
//   set-up  — inputs, fleet/grid construction, warm-up (timed as setup_s)
//   timed   — the public calls; one host-clock sample per op
//   checks  — first pass only: every output is verified, outside the clock
//
// Passes repeat with identical inputs until --seconds of timed work have
// run, so host metrics come from many repeats of the same work, while every
// deterministic metric is taken from the checked first pass (and each later
// pass must reproduce its digest exactly).
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/throughput.hpp"
#include "types/matrix.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;       ///< where the traced run writes its spans
  double peak_gflops_f32 = 0;   ///< host probe results (0 = not measured)
  double peak_gflops_f64 = 0;
};

/// The paper's launch width (§5.1): 16 384 concurrent blocks per run.
inline constexpr std::size_t kBlocks = 16384;

/// What one run reports. Deterministic fields come from the checked pass.
struct Report {
  std::size_t attempted = 0;
  std::size_t ok = 0;      ///< verified ops that also met their objective (ok_pct)
  std::size_t failed = 0;  ///< ops whose output failed verification
  std::vector<std::string> problems;  ///< check failures (any one fails the run)
  /// Failures that reproduce a documented defect of the library at this
  /// commit. They count in `failed` and against ok_pct, but do not fail the
  /// run; a new failure, or the same op failing another way, does.
  std::vector<std::string> known_defects;
  std::uint64_t input_digest = 0;  ///< the seeded inputs of the checked pass
  std::map<std::string, double> metrics;
  std::map<std::string, double> context;  ///< extra figures for the run record

  void fail(const std::string& what) {
    if (problems.size() < 50) problems.push_back(what);
    else if (problems.size() == 50) problems.push_back("(further failures omitted)");
  }
};

// -- statistics --------------------------------------------------------------

/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
double geomean(std::vector<double> v);

// -- digests: later passes must reproduce the checked pass bit for bit -----

class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 1099511628211ull;
  }
  void num(double v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  template <kami::Scalar T>
  void matrix(const kami::Matrix<T>& m) {
    u64(m.rows());
    u64(m.cols());
    bytes(m.data(), m.size() * sizeof(T));
  }
  void profile(const kami::sim::KernelProfile& p);
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// -- output checks -------------------------------------------------------------

/// "" when every field of the two profiles is bit-identical, else the first
/// differing field.
std::string profile_diff(const kami::sim::KernelProfile& a,
                         const kami::sim::KernelProfile& b);

template <kami::Scalar T>
bool bits_equal(const kami::Matrix<T>& a, const kami::Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// The differential harness's per-precision tolerance (src/verify), scaled
/// by k, for kernels that re-associate the k-reduction (KAMI-3D and the
/// baselines) against the FP64 reference.
double reassociation_tolerance(kami::Precision p);

// -- registry helpers ------------------------------------------------------------

double counter(const kami::obs::MetricRegistry& reg, const std::string& name);
/// Side registry the layer replays publish into, so they never touch the
/// pass's metrics. Reset after each op's replays.
kami::obs::MetricRegistry& replay_registry();
/// Total samples held by every histogram in the registry.
double histogram_samples(const kami::obs::MetricRegistry& reg);

// -- the pass loop ---------------------------------------------------------------

/// Host-clock samples of a run's passes. Every pass repeats identical work,
/// so op i of one pass and op i of another differ only by host noise, and
/// interference from a shared host can only slow an op down. The host
/// metrics therefore keep, for each op and each timed segment, only its
/// fastest repeats: as few as leave at least 1000 latency samples (so p99
/// has at least 10 beyond it), and never fewer than one.
struct HostSamples {
  std::vector<std::vector<double>> op_ms;  ///< per pass, one latency per op
  std::vector<std::vector<double>> seg_s;  ///< per pass, one time per segment
  std::vector<double> setup_s;             ///< one per pass
  double timed_s = 0.0;                    ///< all timed seconds, for the stop rule

  std::size_t passes() const noexcept { return op_ms.size(); }
  /// Repeats kept per op and per segment.
  std::size_t kept() const;
  /// The kept repeats of every op, pooled.
  std::vector<double> fast_op_ms() const;
  /// Ops per second over the mean of each segment's kept repeats.
  double throughput() const;
};

class Tracer;

/// What one timed pass produced.
struct PassResult {
  std::uint64_t digest = 0;  ///< outputs and deterministic outcomes
  /// Host seconds of each timed segment: the public calls of one op in a
  /// closed loop, a whole slot (submits plus drain) in an open loop. Empty
  /// means one segment per op, equal to its latency.
  std::vector<double> segment_s;
};

/// One pass of a workload. set_up() builds inputs and state; run() executes
/// the timed ops, appending one host latency per op; check() verifies the
/// outputs of the pass just run (first pass only) and fills the
/// deterministic metrics. With a non-null tracer, run() records a span
/// around each public call plus the layer replays, and the latencies count
/// the public calls only.
struct PassHooks {
  std::function<void()> set_up;
  std::function<PassResult(std::vector<double>& op_ms, Tracer* tracer)> run;
  std::function<void(Report&)> check;
};

/// Run passes until `opt.seconds` of timed work (and at least three
/// measured passes) have accumulated. The first pass is the
/// warm-up and the checked pass, and is not sampled. In a traced run the
/// later passes alternate traced/untraced, so both kinds see the same host
/// phases; the traced passes' samples go to `traced` (when non-null).
HostSamples run_passes(const Options& opt, const PassHooks& hooks, Report& report,
                       Tracer* tracer = nullptr, HostSamples* traced = nullptr);

/// Fill the host end-to-end metrics (setup_s, throughput, latencies) from
/// the samples, and trace.overhead_pct when traced samples are given; peak
/// RSS is added by main.
void host_metrics(const HostSamples& s, Report& report, const HostSamples* traced = nullptr);

}  // namespace perfbench
