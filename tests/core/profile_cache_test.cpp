// ProfileCache semantics: a hit must return exactly what a fresh simulation
// would produce, keys must distinguish every option that can change a
// profile (and canonicalize the ones that cannot — an auto request and an
// explicit request resolving to the same plan share one entry), and the LRU
// bookkeeping (promotion, eviction, counters) must be observable through the
// obs registry.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "core/profile_cache.hpp"
#include "obs/metrics.hpp"
#include "sim/deadline.hpp"
#include "verify/invariants.hpp"

namespace kami {
namespace {

using core::CachedProfile;
using core::ProfileCache;
using core::ProfileKey;
using core::timing_profile;

double counter(const char* name) {
  return obs::MetricRegistry::global().counter(name).value();
}

void expect_profile_identical(const sim::KernelProfile& a,
                              const sim::KernelProfile& b) {
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.tc_busy, b.tc_busy);
  EXPECT_EQ(a.smem_busy, b.smem_busy);
  EXPECT_EQ(a.gmem_busy, b.gmem_busy);
  EXPECT_EQ(a.vector_busy, b.vector_busy);
  EXPECT_EQ(a.useful_flops, b.useful_flops);
  EXPECT_EQ(a.num_warps, b.num_warps);
}

/// A synthetic key for LRU-mechanics tests (no planner involved).
ProfileKey synthetic_key(std::size_t m) {
  ProfileKey k;
  k.device = "GH200";
  k.m = m;
  k.n = 32;
  k.k = 32;
  k.warps = 4;
  k.slice_w = 16;
  return k;
}

CachedProfile synthetic_entry(double latency) {
  CachedProfile p;
  p.profile.latency = latency;
  return p;
}

TEST(ProfileCache, HitReturnsFreshSimulationBitForBit) {
  obs::ScopedMetricsReset reset;
  ProfileCache cache(16);
  const auto cold = timing_profile<fp16_t>(cache, Algo::OneD, sim::gh200(), 32, 32, 32);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(counter("profile_cache.misses"), 1.0);
  EXPECT_EQ(counter("profile_cache.inserts"), 1.0);
  EXPECT_EQ(counter("profile_cache.hits"), 0.0);

  const auto warm = timing_profile<fp16_t>(cache, Algo::OneD, sim::gh200(), 32, 32, 32);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(counter("profile_cache.hits"), 1.0);
  expect_profile_identical(warm.profile, cold.profile);
  EXPECT_EQ(warm.warps, cold.warps);
  EXPECT_EQ(warm.smem_ratio, cold.smem_ratio);

  // The cached profile is the one a Full run of the same config produces.
  const Matrix<fp16_t> A(32, 32), B(32, 32);
  const auto full = gemm(Algo::OneD, sim::gh200(), A, B);
  expect_profile_identical(warm.profile, full.profile);
  EXPECT_EQ(warm.warps, full.warps);
}

TEST(ProfileCache, KeysDistinguishGemmOptions) {
  const auto& dev = sim::gh200();
  GemmOptions base;
  const auto key = [&](const GemmOptions& o, Algo a = Algo::OneD,
                       Precision p = Precision::FP16, std::size_t m = 32) {
    return ProfileKey::make(a, dev, p, m, 32, 32, o,
                            core::plan_gemm(a, dev, p, m, 32, 32, o));
  };

  EXPECT_EQ(key(base), key(base));

  GemmOptions warps = base;
  warps.warps = 8;
  EXPECT_NE(key(base), key(warps));

  GemmOptions ratio = base;
  ratio.smem_ratio = 0.5;
  EXPECT_NE(key(base), key(ratio));

  GemmOptions io = base;
  io.charge_global_io = true;
  EXPECT_NE(key(base), key(io));

  GemmOptions theta = base;
  theta.theta_r = 0.5;
  EXPECT_NE(key(base), key(theta));

  GemmOptions slice = base;
  slice.slice_pref = 8;
  EXPECT_NE(key(base), key(slice));

  EXPECT_NE(key(base), key(base, Algo::TwoD));
  EXPECT_NE(key(base), key(base, Algo::OneD, Precision::BF16));
  EXPECT_NE(key(base), key(base, Algo::OneD, Precision::FP16, 64));
  const core::Plan gh = core::plan_gemm(Algo::OneD, sim::gh200(), Precision::FP16, 32,
                                        32, 32, base);
  const core::Plan rtx = core::plan_gemm(Algo::OneD, sim::rtx5090(), Precision::FP16,
                                         32, 32, 32, base);
  EXPECT_NE(
      ProfileKey::make(Algo::OneD, sim::gh200(), Precision::FP16, 32, 32, 32, base, gh),
      ProfileKey::make(Algo::OneD, sim::rtx5090(), Precision::FP16, 32, 32, 32, base,
                       rtx));

  // Reporting-only options are deliberately NOT part of the key: the same
  // entry serves Full, TimingOnly and trace-recording callers.
  GemmOptions traced = base;
  traced.record_trace = true;
  traced.mode = sim::ExecMode::TimingOnly;
  EXPECT_EQ(key(base), key(traced));

  // Canonicalization: spelling out the planner's own resolution explicitly
  // must produce the auto request's key.
  const core::Plan resolved =
      core::plan_gemm(Algo::OneD, dev, Precision::FP16, 32, 32, 32, base);
  GemmOptions spelled = base;
  spelled.warps = resolved.p;
  spelled.smem_ratio = resolved.smem_ratio;
  EXPECT_EQ(key(base), key(spelled));
}

TEST(ProfileCache, AutoAndExplicitRequestsShareOneEntry) {
  obs::ScopedMetricsReset reset;
  ProfileCache cache(16);
  GemmOptions auto_opt;  // warps=0, smem_ratio<0: planner resolves both
  const auto a =
      timing_profile<fp16_t>(cache, Algo::OneD, sim::gh200(), 32, 32, 32, auto_opt);

  GemmOptions explicit_opt;
  explicit_opt.warps = a.warps;
  explicit_opt.smem_ratio = a.smem_ratio;
  const auto b =
      timing_profile<fp16_t>(cache, Algo::OneD, sim::gh200(), 32, 32, 32, explicit_opt);

  // The dedup shows up in the counters: one insert, one hit, one entry.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(counter("profile_cache.inserts"), 1.0);
  EXPECT_EQ(counter("profile_cache.hits"), 1.0);
  expect_profile_identical(a.profile, b.profile);
  EXPECT_EQ(a.warps, b.warps);
  EXPECT_EQ(a.smem_ratio, b.smem_ratio);
}

TEST(ProfileCache, DistinctOptionsProduceDistinctEntries) {
  obs::ScopedMetricsReset reset;
  ProfileCache cache(16);
  GemmOptions four, eight;
  four.warps = 4;
  eight.warps = 8;
  const auto p4 = timing_profile<fp16_t>(cache, Algo::OneD, sim::gh200(), 64, 64, 64,
                                         four);
  const auto p8 = timing_profile<fp16_t>(cache, Algo::OneD, sim::gh200(), 64, 64, 64,
                                         eight);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(counter("profile_cache.misses"), 2.0);
  EXPECT_EQ(p4.profile.num_warps, 4);
  EXPECT_EQ(p8.profile.num_warps, 8);
  EXPECT_NE(p4.profile.latency, p8.profile.latency);
}

TEST(ProfileCache, LruEvictionWithPromotion) {
  obs::ScopedMetricsReset reset;
  ProfileCache cache(2);

  cache.insert(synthetic_key(1), synthetic_entry(1.0));
  cache.insert(synthetic_key(2), synthetic_entry(2.0));
  EXPECT_EQ(cache.size(), 2u);

  // Touch key 1 so key 2 becomes least-recently-used, then overflow.
  ASSERT_TRUE(cache.find(synthetic_key(1)).has_value());
  cache.insert(synthetic_key(3), synthetic_entry(3.0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(counter("profile_cache.evictions"), 1.0);
  EXPECT_FALSE(cache.find(synthetic_key(2)).has_value());  // evicted
  EXPECT_TRUE(cache.find(synthetic_key(1)).has_value());   // survived via promotion
  ASSERT_TRUE(cache.find(synthetic_key(3)).has_value());
  EXPECT_EQ(cache.find(synthetic_key(3))->profile.latency, 3.0);

  // Overwriting an existing key neither grows nor evicts.
  cache.insert(synthetic_key(3), synthetic_entry(30.0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(counter("profile_cache.evictions"), 1.0);
  EXPECT_EQ(cache.find(synthetic_key(3))->profile.latency, 30.0);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.find(synthetic_key(1)).has_value());
}

TEST(ProfileCache, FindCopySurvivesInsertAndClear) {
  ProfileCache cache(2);
  cache.insert(synthetic_key(1), synthetic_entry(1.0));
  const std::optional<CachedProfile> hit = cache.find(synthetic_key(1));
  ASSERT_TRUE(hit.has_value());

  // Force eviction and a full clear; the copied-out value must be unaffected
  // (the old pointer-returning API dangled here).
  cache.insert(synthetic_key(2), synthetic_entry(2.0));
  cache.insert(synthetic_key(3), synthetic_entry(3.0));
  cache.clear();
  EXPECT_EQ(hit->profile.latency, 1.0);
}

// Regression for the contains()/find() TOCTOU: the old API answered "is this
// key present?" as a bool, and any later lookup could miss after a racing
// insert evicted the entry. try_get() is the replacement — one locked
// copy-out that either returns the value or nothing, with no counters and no
// LRU promotion, so observers can probe without perturbing find() semantics.
TEST(ProfileCache, TryGetIsCounterAndPromotionNeutral) {
  obs::ScopedMetricsReset reset;
  ProfileCache cache(2);
  cache.insert(synthetic_key(1), synthetic_entry(1.0));
  cache.insert(synthetic_key(2), synthetic_entry(2.0));

  // Probe key 1 repeatedly: no hit/miss counters, and — unlike find() — no
  // promotion, so key 1 is still the LRU victim afterwards.
  for (int i = 0; i < 3; ++i) {
    const auto hit = cache.try_get(synthetic_key(1));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->profile.latency, 1.0);
  }
  EXPECT_FALSE(cache.try_get(synthetic_key(9)).has_value());
  EXPECT_EQ(counter("profile_cache.hits"), 0.0);
  EXPECT_EQ(counter("profile_cache.misses"), 0.0);

  cache.insert(synthetic_key(3), synthetic_entry(3.0));
  EXPECT_FALSE(cache.try_get(synthetic_key(1)).has_value());  // evicted: no promotion
  EXPECT_TRUE(cache.try_get(synthetic_key(2)).has_value());
}

TEST(ProfileCache, TryGetCopySurvivesEvictionAndClear) {
  ProfileCache cache(1);
  cache.insert(synthetic_key(1), synthetic_entry(1.0));
  const std::optional<CachedProfile> hit = cache.try_get(synthetic_key(1));
  ASSERT_TRUE(hit.has_value());
  cache.insert(synthetic_key(2), synthetic_entry(2.0));  // evicts key 1
  cache.clear();
  EXPECT_EQ(hit->profile.latency, 1.0);
}

TEST(ProfileCache, SnapshotIsKeyOrderedCopy) {
  ProfileCache cache(8);
  cache.insert(synthetic_key(3), synthetic_entry(3.0));
  cache.insert(synthetic_key(1), synthetic_entry(1.0));
  cache.insert(synthetic_key(2), synthetic_entry(2.0));
  const auto snap = cache.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(snap[i].first.m, i + 1);  // key order, not insertion order
    EXPECT_EQ(snap[i].second.profile.latency, static_cast<double>(i + 1));
  }
  cache.clear();
  EXPECT_EQ(snap.size(), 3u);  // copy-out, like every other accessor
}

TEST(ProfileCache, InfeasibleConfigurationsThrowAndAreNotCached) {
  ProfileCache cache(16);
  // 3D FP64 at order 128 exceeds GH200's register file (see DESIGN.md).
  EXPECT_THROW((void)timing_profile<double>(cache, Algo::ThreeD, sim::gh200(), 128, 128,
                                            128),
               PreconditionError);
  EXPECT_EQ(cache.size(), 0u);
}

// Exception-safety audit: a simulation that dies mid-run — after the planner
// accepted the key, while cycles are being charged — must leave the cache
// byte-for-byte as it was: no partial entry, no poisoned profile, and a clean
// rerun must produce exactly what an undisturbed cache would have.
TEST(ProfileCache, MidRunFaultLeavesCacheUntouched) {
  obs::ScopedMetricsReset reset;
  ProfileCache cache(16);
  {
    verify::FaultHooks fault;
    fault.warp_advance_skew = -1e9;  // every warp op violates clock monotonicity
    const verify::ScopedFault guard(fault);
    EXPECT_THROW(
        (void)timing_profile<fp16_t>(cache, Algo::OneD, sim::gh200(), 64, 64, 64),
        verify::InvariantViolation);
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(counter("profile_cache.inserts"), 0.0);

  // The fault is gone; the same key must now miss, simulate cleanly, and
  // match a fresh cache's answer bit for bit.
  const auto after =
      timing_profile<fp16_t>(cache, Algo::OneD, sim::gh200(), 64, 64, 64);
  EXPECT_EQ(cache.size(), 1u);
  ProfileCache fresh(16);
  const auto clean =
      timing_profile<fp16_t>(fresh, Algo::OneD, sim::gh200(), 64, 64, 64);
  expect_profile_identical(after.profile, clean.profile);
  EXPECT_EQ(after.warps, clean.warps);
  EXPECT_EQ(after.smem_ratio, clean.smem_ratio);
}

TEST(ProfileCache, InjectedAllocationFailureLeavesCacheUntouched) {
  ProfileCache cache(16);
  {
    verify::FaultHooks fault;
    fault.alloc_fail_countdown = 0;  // first register allocation throws
    const verify::ScopedFault guard(fault);
    EXPECT_THROW(
        (void)timing_profile<fp16_t>(cache, Algo::OneD, sim::gh200(), 64, 64, 64),
        sim::RegisterOverflow);
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(
      timing_profile<fp16_t>(cache, Algo::OneD, sim::gh200(), 64, 64, 64).profile
          .latency > 0.0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ProfileCache, DeadlineAbortLeavesCacheUntouched) {
  obs::ScopedMetricsReset reset;
  ProfileCache cache(16);
  GemmOptions opt;
  opt.deadline_cycles = 10.0;  // far below the 64^3 kernel latency
  EXPECT_THROW(
      (void)timing_profile<fp16_t>(cache, Algo::OneD, sim::gh200(), 64, 64, 64, opt),
      sim::DeadlineExceeded);
  EXPECT_EQ(cache.size(), 0u);

  // deadline_cycles is excluded from the key: an under-budget run and an
  // unbounded run share one entry.
  GemmOptions generous;
  generous.deadline_cycles = 1e9;
  (void)timing_profile<fp16_t>(cache, Algo::OneD, sim::gh200(), 64, 64, 64, generous);
  EXPECT_EQ(cache.size(), 1u);
  (void)timing_profile<fp16_t>(cache, Algo::OneD, sim::gh200(), 64, 64, 64);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(counter("profile_cache.hits"), 1.0);
}

// deadline_cycles is not part of the key, so a warm entry must still honour
// it: a hit past a positive deadline aborts with the cold cache's message,
// and a hit within it is served from the entry.
TEST(ProfileCache, DeadlineHoldsOnACacheHit) {
  obs::ScopedMetricsReset reset;
  ProfileCache cache(16);
  const auto run = [&](double deadline) {
    GemmOptions opt;
    opt.deadline_cycles = deadline;
    return timing_profile<fp16_t>(cache, Algo::OneD, sim::gh200(), 32, 32, 32, opt);
  };
  const auto abort_message = [&] {
    try {
      (void)run(10.0);
    } catch (const sim::DeadlineExceeded& e) {
      return std::string(e.what());
    }
    return std::string("(no exception)");
  };

  const std::string cold = abort_message();
  ASSERT_NE(cold, "(no exception)");
  const double latency = run(0.0).profile.latency;  // warm-up without a deadline
  ASSERT_EQ(cache.size(), 1u);
  EXPECT_EQ(abort_message(), cold);

  const double hits = counter("profile_cache.hits");
  EXPECT_EQ(run(latency).profile.latency, latency);
  EXPECT_EQ(counter("profile_cache.hits"), hits + 1.0);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace kami
