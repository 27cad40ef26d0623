// ProfileCache: memoized TimingOnly kernel profiles.
//
// A block's cycle profile depends only on (device, precision, shape, algo,
// tuning options) — never on operand values — so one TimingOnly simulation
// per distinct key serves every later consumer: autotune candidates,
// batched sweep points, and the bench binaries' repeated shapes. The cache
// is a small LRU keyed by that fingerprint and instrumented with
// profile_cache.{hits,misses,inserts,evictions} counters plus a size gauge.
//
// Keys are canonicalized through the planner: the key stores the *resolved*
// warp count, spill ratio, slice width and 3D chunk, so an auto request
// (warps=0 / smem_ratio<0) and an explicit request that the planner maps to
// the same configuration share one entry — profile_cache.inserts counts
// distinct plans, not distinct request spellings.
//
// All public methods lock an internal mutex and find() copies the entry out,
// so the cache is safe for concurrent drivers and a result can never be
// invalidated by a later insert()/clear().
#pragma once

#include <cstddef>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/kami.hpp"
#include "core/planner.hpp"
#include "obs/metrics.hpp"

namespace kami::core {

/// Everything that can change a kernel's cycle profile. Options fields that
/// only affect reporting (record_trace/record_regions/mode) are excluded, as
/// is deadline_cycles: a run that finishes under its deadline produces
/// exactly the profile an unbounded run would, and a run that does not never
/// reaches insert() below. Tuning fields are stored planner-resolved (see
/// ProfileKey::make).
struct ProfileKey {
  std::string device;
  Precision precision = Precision::FP16;
  Algo algo = Algo::OneD;
  std::size_t m = 0, n = 0, k = 0;
  int warps = 0;             ///< planner-resolved warp count p (never 0)
  double smem_ratio = 0.0;   ///< planner-resolved spill ratio (never negative)
  std::size_t slice_w = 0;   ///< planner-resolved k-slice width
  std::size_t n_chunk = 0;   ///< planner-resolved 3D C-chunk width (0 = whole)
  bool charge_global_io = false;
  double theta_r = 1.0;
  double theta_w = 1.0;

  friend auto operator<=>(const ProfileKey&, const ProfileKey&) = default;

  /// Build the canonical key for a request: tuning fields come from the
  /// resolved `plan`, timing knobs the planner does not see (global-IO
  /// charging, bank-conflict factors) from the request itself.
  static ProfileKey make(Algo algo, const sim::DeviceSpec& dev, Precision prec,
                         std::size_t m, std::size_t n, std::size_t k,
                         const GemmOptions& opt, const Plan& plan) {
    return ProfileKey{dev.name,     prec,
                      algo,         m,
                      n,            k,
                      plan.p,       plan.smem_ratio,
                      plan.slice_w, plan.n_chunk,
                      opt.charge_global_io,
                      opt.theta_r,  opt.theta_w};
  }
};

/// A cached simulation outcome: the profile plus the resolved tuning
/// parameters (the planner's answers for warps=0 / smem_ratio<0 requests).
struct CachedProfile {
  sim::KernelProfile profile;
  int warps = 0;
  double smem_ratio = 0.0;
};

class ProfileCache {
 public:
  explicit ProfileCache(std::size_t capacity = 4096);

  /// Lookup; counts a hit or miss, promotes hits to most-recently-used.
  /// Copy-out: the returned value stays valid across later insert()/clear().
  std::optional<CachedProfile> find(const ProfileKey& key);

  /// Insert (or overwrite) an entry, evicting the least-recently-used entry
  /// when at capacity.
  void insert(const ProfileKey& key, const CachedProfile& value);

  /// Copy-out peek for observers (the serving layer's plan estimate, the
  /// analytic planner's fast path): no hit/miss counters, no LRU promotion —
  /// find() semantics are unchanged. This replaces the old `contains()`:
  /// a presence check followed by a later lookup was a TOCTOU under
  /// concurrent eviction, whereas one locked copy-out can never observe an
  /// entry that a racing insert()/clear() then invalidates.
  std::optional<CachedProfile> try_get(const ProfileKey& key) const;

  /// Key-ordered snapshot of every entry (the predictor's calibration
  /// harvest). Copy-out, like every other accessor.
  std::vector<std::pair<ProfileKey, CachedProfile>> snapshot() const;

  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }
  void clear();

  /// The process-wide cache the library-level consumers share.
  static ProfileCache& global();

 private:
  using Entry = std::pair<ProfileKey, CachedProfile>;

  std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::map<ProfileKey, std::list<Entry>::iterator> index_;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& inserts_;
  obs::Counter& evictions_;
  obs::Gauge& size_gauge_;
};

/// Cycle profile of (algo, dev, m, n, k, opt), served from `cache` or
/// produced by one TimingOnly simulation of the shape (values cannot affect
/// timing, so no operand is allocated). Throws PreconditionError for
/// infeasible configurations, exactly as kami::gemm would.
///
/// A positive deadline_cycles is honoured on hits too: a request whose cached
/// latency exceeds it aborts exactly as on a cold cache.
///
/// Exception safety: the simulation runs to completion *before* insert(), so
/// a run that throws mid-execution (planner rejection, injected fault,
/// deadline abort) leaves the cache untouched — there is no partial or
/// poisoned entry to serve later callers (regression-tested in
/// tests/core/profile_cache_test.cpp).
template <Scalar T>
CachedProfile timing_profile(ProfileCache& cache, Algo algo, const sim::DeviceSpec& dev,
                             std::size_t m, std::size_t n, std::size_t k,
                             GemmOptions opt = {}) {
  opt.record_trace = false;
  opt.record_regions = false;
  // Resolve the plan first: the canonical key dedups requests that map to the
  // same configuration, and infeasible requests throw here — before the cache
  // is touched — exactly as the kernel itself would.
  const Plan plan = plan_gemm(algo, dev, num_traits<T>::precision, m, n, k, opt);
  const ProfileKey key =
      ProfileKey::make(algo, dev, num_traits<T>::precision, m, n, k, opt, plan);
  // deadline_cycles is not in the key. latency is the largest final warp
  // clock, so a hit past a positive deadline is a run that would have
  // aborted: fall through and let the simulation throw.
  if (std::optional<CachedProfile> hit = cache.find(key);
      hit && !(opt.deadline_cycles > 0.0 && hit->profile.latency > opt.deadline_cycles))
    return *hit;
  const GemmResult<T> r = detail::simulate<T>(dev, plan, m, n, k, opt);
  const CachedProfile entry{r.profile, r.warps, r.smem_ratio};
  cache.insert(key, entry);
  return entry;
}

}  // namespace kami::core
