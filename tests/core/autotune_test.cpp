#include "core/autotune.hpp"

#include <gtest/gtest.h>

#include "baselines/reference.hpp"

namespace kami::core {
namespace {

const sim::DeviceSpec& dev() { return sim::gh200(); }

TEST(Autotune, FindsAFeasibleWinner) {
  const auto r = autotune_gemm<fp16_t>(dev(), 64, 64, 64);
  EXPECT_GT(r.tflops, 0.0);
  EXPECT_GT(r.evaluated, 5);  // most of the candidate grid is feasible at 64
}

TEST(Autotune, WinnerIsNoWorseThanDefaults) {
  const auto tuned = autotune_gemm<fp16_t>(dev(), 64, 64, 64);
  for (Algo algo : {Algo::OneD, Algo::TwoD, Algo::ThreeD}) {
    Rng rng(64 * 131 + 64 * 17 + 64);
    const auto A = random_matrix<fp16_t>(64, 64, rng);
    const auto B = random_matrix<fp16_t>(64, 64, rng);
    const auto r = gemm(algo, dev(), A, B);
    EXPECT_GE(tuned.tflops + 1e-9, sim::throughput_tflops(dev(), r.profile, 16384))
        << algo_name(algo);
  }
}

TEST(Autotune, PrefersOneDAtBlockLevel) {
  // §5.2.1: "KAMI-1D more suitable for current single-GPU use".
  const auto r = autotune_gemm<fp16_t>(dev(), 64, 64, 64);
  EXPECT_EQ(r.config.algo, Algo::OneD);
}

TEST(Autotune, SkipsInfeasibleCandidatesSilently) {
  // At order 16, 27-warp 3D (needs 16 % 3 == 0) and others drop out; the
  // tuner still returns a winner.
  const auto r = autotune_gemm<fp16_t>(dev(), 16, 16, 16);
  EXPECT_GT(r.tflops, 0.0);
  EXPECT_LT(r.evaluated, static_cast<int>(default_candidates().size()));
}

TEST(Autotune, BestGemmProducesCorrectValues) {
  Rng rng(71);
  const auto A = random_matrix<fp16_t>(64, 64, rng);
  const auto B = random_matrix<fp16_t>(64, 64, rng);
  const auto r = best_gemm(dev(), A, B);
  // The winner may be 3D (tolerance) but must be numerically sound.
  const auto ref = baselines::reference_gemm_fp64(A, B);
  EXPECT_LE(max_abs_diff(r.C, ref), 1e-2 * 64);
}

TEST(Autotune, ThinKShapesTunable) {
  const auto r = autotune_gemm<fp16_t>(dev(), 128, 128, 16);
  EXPECT_EQ(r.config.algo, Algo::OneD);  // low-rank favors 1D (§5.3)
  EXPECT_GT(r.tflops, 0.0);
}

TEST(Autotune, RejectsImpossibleShapes) {
  std::vector<TuneCandidate> only_3d{{Algo::ThreeD, 8, -1.0}};
  // 17 is not divisible by the 3D grid of 2.
  EXPECT_THROW((void)autotune_gemm<fp16_t>(dev(), 17, 17, 17, 16384, only_3d),
               PreconditionError);
}

TEST(Autotune, DeviceSpecificWinners) {
  // The tuner runs per device; Intel's single XMX per XVE changes the
  // trade-offs but must still produce a feasible plan.
  const auto r = autotune_gemm<fp16_t>(sim::intel_max1100(), 64, 64, 64);
  EXPECT_GT(r.tflops, 0.0);
}

// Regression for the winner-selection bug: the old loop compared each
// outcome with strict `>` against a default `best.tflops = 0.0`, so a
// feasible candidate whose reported throughput was exactly 0 could never
// become the winner — the tuner passed its evaluated-count guard and then
// returned a default-constructed (infeasible-looking) result. This test
// fails against that implementation and pins the by-index selection.
TEST(SelectWinner, FeasibleZeroThroughputCandidateWins) {
  std::vector<TuneOutcome> outcomes(3);
  outcomes[1].feasible = true;  // tflops stays 0.0
  outcomes[1].warps = 4;
  EXPECT_EQ(select_winner(outcomes), 1);
}

TEST(SelectWinner, FirstFeasibleWinsTies) {
  std::vector<TuneOutcome> outcomes(4);
  outcomes[1].feasible = true;
  outcomes[1].tflops = 5.0;
  outcomes[3].feasible = true;
  outcomes[3].tflops = 5.0;  // exact tie: earlier candidate order wins
  EXPECT_EQ(select_winner(outcomes), 1);

  outcomes[3].tflops = 6.0;  // strictly better: later candidate takes over
  EXPECT_EQ(select_winner(outcomes), 3);
}

TEST(SelectWinner, NoFeasibleOutcomeIsNegative) {
  EXPECT_EQ(select_winner({}), -1);
  std::vector<TuneOutcome> outcomes(2);  // all infeasible
  EXPECT_EQ(select_winner(outcomes), -1);
}

TEST(Autotune, ColdPredictorPrunesNothing) {
  // With an empty predictor no bucket is confident, so the prescreen must
  // degrade to the historical exhaustive sweep.
  ProfileCache::global().clear();
  model::Predictor::global().reset();
  const auto r = autotune_gemm<fp16_t>(dev(), 64, 64, 64);
  EXPECT_EQ(r.pruned, 0);
  EXPECT_GT(r.evaluated, 5);
}

TEST(Autotune, WarmPredictorPrunesAndAgreesWithExhaustive) {
  ProfileCache::global().clear();
  model::Predictor::global().reset();
  // Warm the calibration buckets on neighboring shapes (distinct cache keys).
  for (std::size_t s : {32u, 48u, 64u}) (void)autotune_gemm<fp16_t>(dev(), s, s, s);

  TunePolicy exhaustive;
  exhaustive.prescreen = false;
  const auto full = autotune_gemm<fp16_t>(dev(), 96, 96, 96, 16384,
                                          default_candidates(), exhaustive);
  EXPECT_EQ(full.pruned, 0);

  ProfileCache::global().clear();  // force the pruned run to predict, not hit
  TunePolicy tight;
  tight.top_k = 2;
  const auto pruned = autotune_gemm<fp16_t>(dev(), 96, 96, 96, 16384,
                                            default_candidates(), tight);
  EXPECT_GT(pruned.pruned, 0);
  EXPECT_LT(pruned.evaluated, full.evaluated);
  // The analytic ranking must not cost throughput: same winner quality.
  EXPECT_GE(pruned.tflops + 1e-9, full.tflops);
}

}  // namespace
}  // namespace kami::core
