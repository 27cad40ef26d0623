// Differential correctness checking (the kami_verify engine).
//
// A CheckPoint is one randomized-or-curated configuration: (device,
// precision, algo, shape, tuning options, data seed). check_point() runs it
// on the element data plane (verify/data_plane.hpp), through the front
// door's three execution modes, and against the reference rounding model,
// and asserts the mode-equivalence contract:
//
//   * data plane vs Full and TimingOnly — bit-identical KernelProfile (and
//     resolved plan);
//   * data plane vs Full and NumericsOnly — bit-identical result matrix C;
//   * data plane vs reference — bit-exact for KAMI-1D/2D (sequential-k
//     order), precision-aware tolerance vs the FP64 reference for KAMI-3D
//     (which re-associates the k-reduction across layers);
//   * infeasible points — the data plane, Full and TimingOnly reject them
//     with the same error.
//
// Points serialize to one-line `key=value` specs (to_string/point_from_string)
// so a fuzz failure is replayable with `kami_verify repro <seed>` and curated
// regressions live as text files under tests/verify/corpus/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/kami.hpp"
#include "sim/device.hpp"
#include "sim/throughput.hpp"

namespace kami::verify {

/// One differential-check configuration. The options' mode/record flags are
/// ignored: check_point forces each mode itself.
struct CheckPoint {
  std::string device = "GH200";
  Precision precision = Precision::FP16;
  core::Algo algo = core::Algo::OneD;
  std::size_t m = 64, n = 64, k = 64;
  core::GemmOptions options;
  std::uint64_t data_seed = 1;
};

/// One-line `key=value` spec (spaces in device names become '_').
std::string to_string(const CheckPoint& p);

/// Parse a spec produced by to_string (unknown keys throw PreconditionError).
CheckPoint point_from_string(const std::string& line);

struct CheckResult {
  bool ok = true;
  bool skipped = false;  ///< infeasible or unsupported, rejected consistently
  std::string detail;    ///< failure description or skip reason
};

/// Run the full differential check for one point.
CheckResult check_point(const CheckPoint& p);

/// Deterministic seed -> point generation (the fuzzer's generator; `repro
/// <seed>` rebuilds the exact point the failing iteration used).
CheckPoint random_point(std::uint64_t seed);

/// The curated smoke suite: 1D/2D/3D across devices and precisions, spill
/// and bank-conflict variants, plus a deliberately infeasible point that
/// exercises the consistent-rejection path.
const std::vector<CheckPoint>& smoke_points();

struct FuzzFailure {
  std::uint64_t seed = 0;
  std::string detail;
};

struct FuzzReport {
  std::size_t ran = 0;
  std::size_t passed = 0;
  std::size_t skipped = 0;
  std::vector<FuzzFailure> failures;
};

/// Check iterations seeded base_seed, base_seed+1, ... (one point each).
/// `workers` (>= 1; 1 = serial) fans the points out across the execution
/// engine; the report — counts, failure order, details — is bit-identical
/// for every worker count.
FuzzReport run_fuzz(std::uint64_t base_seed, std::size_t iters, int workers = 1);

/// Self-test of the invariant layer: injects cycle-accounting faults through
/// verify::FaultHooks and confirms the simulator throws InvariantViolation,
/// then confirms a clean run passes. Returns "" on success, else a
/// description of what failed (always "" when KAMI_CHECK_INVARIANTS=0).
std::string invariant_selftest();

/// "" when every profile field is identical, else "field: a vs b" list.
std::string profile_diff(const sim::KernelProfile& a, const sim::KernelProfile& b);

}  // namespace kami::verify
