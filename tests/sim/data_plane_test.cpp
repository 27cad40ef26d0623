// Full-mode data-plane tests (PR 10): the warp fragment ops run on the
// shared vector kernels + decode LUT spans + arena scratch, and must stay
// bit-identical to the scalar seed semantics on every shape — including
// ragged tiles that exercise the SIMD j-tail and partial k-tiles. These
// tests compare each op against the seed's element-by-element loop written
// out locally, so they pin the contract in both SIMD and KAMI_NO_SIMD
// builds (the no-simd CI job runs this suite).
#include <gtest/gtest.h>

#include <cstddef>
#include <tuple>
#include <vector>

#include "../testing/test_device.hpp"
#include "core/arena.hpp"
#include "obs/metrics.hpp"
#include "sim/block.hpp"
#include "types/numeric_traits.hpp"
#include "util/rng.hpp"

namespace kami::sim {
namespace {

using kami::testing::tiny_device;

template <Scalar T>
void fill_random(Fragment<T>& f, Rng& rng) {
  for (std::size_t r = 0; r < f.rows(); ++r)
    for (std::size_t c = 0; c < f.cols(); ++c)
      f(r, c) = num_traits<T>::from_acc(
          static_cast<typename num_traits<T>::acc_t>(rng.uniform(-1.0, 1.0)));
}

// The seed's scalar mma loop: one ascending-k chain per element.
template <Scalar T>
std::vector<typename num_traits<T>::acc_t> reference_mma(
    const Fragment<typename num_traits<T>::acc_t>& C, std::size_t cr0, std::size_t cc0,
    const FragView<T>& A, const FragView<T>& B) {
  using Acc = typename num_traits<T>::acc_t;
  std::vector<Acc> out(A.rows() * B.cols());
  for (std::size_t i = 0; i < A.rows(); ++i)
    for (std::size_t j = 0; j < B.cols(); ++j) {
      Acc acc = C(cr0 + i, cc0 + j);
      for (std::size_t k = 0; k < A.cols(); ++k)
        acc += num_traits<T>::to_acc(A(i, k)) * num_traits<T>::to_acc(B(k, j));
      out[i * B.cols() + j] = acc;
    }
  return out;
}

template <Scalar T>
void check_mma_ragged(std::size_t fm, std::size_t fn, std::size_t fk) {
  using Acc = typename num_traits<T>::acc_t;
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 1);
  Rng rng(42 + fm * 131 + fn * 17 + fk);
  blk.phase([&](Warp& w) {
    auto A = w.alloc_fragment<T>(fm, fk);
    auto B = w.alloc_fragment<T>(fk, fn);
    auto C = w.alloc_fragment<Acc>(fm + 2, fn + 3);  // window offset (1, 2)
    fill_random(A, rng);
    fill_random(B, rng);
    fill_random(C, rng);
    const auto want = reference_mma(C, 1, 2, A.view(), B.view());
    w.mma(C, 1, 2, A.view(), B.view());
    for (std::size_t i = 0; i < fm; ++i)
      for (std::size_t j = 0; j < fn; ++j)
        EXPECT_EQ(C(1 + i, 2 + j), want[i * fn + j])
            << "shape " << fm << "x" << fn << "x" << fk << " at (" << i << "," << j << ")";
  });
}

TEST(DataPlane, MmaRaggedShapesMatchScalarReference) {
  // Shapes straddle the 8-lane vector width and the 64-wide k-tile:
  // j-tails of every size, k exactly at/over the tile boundary.
  for (const auto& [m, n, k] : {std::tuple<std::size_t, std::size_t, std::size_t>{1, 1, 1},
                               {3, 5, 7},
                               {5, 8, 16},
                               {4, 17, 64},
                               {2, 23, 65},
                               {7, 31, 130}}) {
    check_mma_ragged<float>(m, n, k);
    check_mma_ragged<fp16_t>(m, n, k);
    check_mma_ragged<fp8_e4m3_t>(m, n, k);
  }
  check_mma_ragged<double>(3, 9, 5);  // 4-lane double tails
}

// Identity codecs (fp32/fp64) multiply the fragment rows in place at the
// fragments' row strides: interior views of wider fragments must read the
// right elements, and a window that is not the whole C must be the only
// part that changes.
template <Scalar T>
void check_mma_interior_views(std::size_t fm, std::size_t fn, std::size_t fk) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 1);
  Rng rng(91 + fm * 7 + fn * 3 + fk);
  blk.phase([&](Warp& w) {
    auto A = w.alloc_fragment<T>(fm + 3, fk + 5);
    auto B = w.alloc_fragment<T>(fk + 2, fn + 4);
    auto C = w.alloc_fragment<T>(fm + 2, fn + 3);
    fill_random(A, rng);
    fill_random(B, rng);
    fill_random(C, rng);
    const auto a = A.view(2, 3, fm, fk), b = B.view(1, 4, fk, fn);
    const auto want = reference_mma(C, 1, 2, a, b);
    std::vector<T> before(C.data(), C.data() + C.rows() * C.cols());
    w.mma(C, 1, 2, a, b);
    for (std::size_t r = 0; r < C.rows(); ++r)
      for (std::size_t c = 0; c < C.cols(); ++c) {
        const bool inside = r >= 1 && r < 1 + fm && c >= 2 && c < 2 + fn;
        EXPECT_EQ(C(r, c), inside ? want[(r - 1) * fn + (c - 2)] : before[r * C.cols() + c])
            << "shape " << fm << "x" << fn << "x" << fk << " at (" << r << "," << c << ")";
      }
  });
}

TEST(DataPlane, IdentityCodecMmaReadsInteriorViewsInPlace) {
  for (const auto& [m, n, k] : {std::tuple<std::size_t, std::size_t, std::size_t>{1, 1, 1},
                               {3, 9, 5},
                               {5, 17, 66},
                               {9, 4, 13}}) {
    check_mma_interior_views<float>(m, n, k);
    check_mma_interior_views<double>(m, n, k);
  }
}

TEST(DataPlane, FmaScalarMatchesScalarReference) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 1);
  Rng rng(7);
  blk.phase([&](Warp& w) {
    auto A = w.alloc_fragment<bf16_t>(5, 13);
    auto B = w.alloc_fragment<bf16_t>(13, 11);
    auto C = w.alloc_fragment<float>(6, 12);  // larger than the product window
    fill_random(A, rng);
    fill_random(B, rng);
    fill_random(C, rng);
    const auto want = reference_mma(C, 0, 0, A.view(), B.view());
    w.fma_scalar(C, A.view(), B.view());
    for (std::size_t i = 0; i < 5; ++i)
      for (std::size_t j = 0; j < 11; ++j) EXPECT_EQ(C(i, j), want[i * 11 + j]);
    EXPECT_EQ(C(5, 11), C(5, 11));  // untouched row/col stay valid
  });
}

TEST(DataPlane, AddInplaceAtMatchesScalarNarrowing) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 1);
  Rng rng(11);
  blk.phase([&](Warp& w) {
    // Narrowing type: every element round-trips to_acc -> add -> from_acc.
    auto C = w.alloc_fragment<fp16_t>(9, 21);
    auto P = w.alloc_fragment<fp16_t>(5, 13);
    fill_random(C, rng);
    fill_random(P, rng);
    std::vector<fp16_t> want(5 * 13);
    for (std::size_t r = 0; r < 5; ++r)
      for (std::size_t c = 0; c < 13; ++c)
        want[r * 13 + c] = num_traits<fp16_t>::from_acc(
            num_traits<fp16_t>::to_acc(C(3 + r, 7 + c)) + num_traits<fp16_t>::to_acc(P(r, c)));
    w.add_inplace_at(C, 3, 7, P.view());
    for (std::size_t r = 0; r < 5; ++r)
      for (std::size_t c = 0; c < 13; ++c)
        EXPECT_EQ(C(3 + r, 7 + c).bits(), want[r * 13 + c].bits());

    // Identity type (float accumulates in float): the in-place add path.
    auto Cf = w.alloc_fragment<float>(4, 19);
    auto Pf = w.alloc_fragment<float>(4, 19);
    fill_random(Cf, rng);
    fill_random(Pf, rng);
    std::vector<float> wantf(4 * 19);
    for (std::size_t r = 0; r < 4; ++r)
      for (std::size_t c = 0; c < 19; ++c) wantf[r * 19 + c] = Cf(r, c) + Pf(r, c);
    w.add_inplace(Cf, Pf.view());
    for (std::size_t r = 0; r < 4; ++r)
      for (std::size_t c = 0; c < 19; ++c) EXPECT_EQ(Cf(r, c), wantf[r * 19 + c]);
  });
}

TEST(DataPlane, StoreGlobalNarrowedWindowMatchesFromAcc) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 1);
  Rng rng(13);
  Matrix<tf32_t> dst(10, 12);  // tf32 exercises the vectorized encode_span
  blk.phase([&](Warp& w) {
    auto src = w.alloc_fragment<float>(8, 9);
    fill_random(src, rng);
    w.store_global_narrowed(dst, src, 2, 3, 1, 2, 5, 7);
    for (std::size_t r = 0; r < 5; ++r)
      for (std::size_t c = 0; c < 7; ++c)
        EXPECT_EQ(num_traits<tf32_t>::to_acc(dst(2 + r, 3 + c)),
                  num_traits<tf32_t>::to_acc(num_traits<tf32_t>::from_acc(src(1 + r, 2 + c))));
  });
}

TEST(DataPlane, SmemRoundTripPreservesBitsForRaggedViews) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 1);
  Rng rng(17);
  auto tile = blk.smem().alloc<fp16_t>(7, 11);
  blk.phase([&](Warp& w) {
    auto f = w.alloc_fragment<fp16_t>(13, 23);
    fill_random(f, rng);
    // An interior (offset, ragged) view: rows are contiguous slices of the
    // fragment, not of the whole allocation.
    w.store_smem(tile, f.view(4, 9, 7, 11));
    auto back = w.alloc_fragment<fp16_t>(7, 11);
    w.load_smem(back, tile);
    for (std::size_t r = 0; r < 7; ++r)
      for (std::size_t c = 0; c < 11; ++c)
        EXPECT_EQ(back(r, c).bits(), f(4 + r, 9 + c).bits());
  });
}

TEST(DataPlane, CopyRegAndGlobalRoundTripRaggedViews) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 1);
  Rng rng(19);
  Matrix<bf16_t> g(15, 17);
  for (std::size_t r = 0; r < g.rows(); ++r)
    for (std::size_t c = 0; c < g.cols(); ++c)
      g(r, c) = num_traits<bf16_t>::from_acc(static_cast<float>(rng.uniform(-1.0, 1.0)));
  blk.phase([&](Warp& w) {
    auto f = w.alloc_fragment<bf16_t>(6, 7);
    w.load_global(f, g, 3, 5);
    for (std::size_t r = 0; r < 6; ++r)
      for (std::size_t c = 0; c < 7; ++c) EXPECT_EQ(f(r, c).bits(), g(3 + r, 5 + c).bits());
    auto f2 = w.alloc_fragment<bf16_t>(4, 5);
    w.copy_reg(f2, f.view(1, 1, 4, 5));
    Matrix<bf16_t> out(9, 9);
    w.store_global(out, f2.view(), 2, 2);
    for (std::size_t r = 0; r < 4; ++r)
      for (std::size_t c = 0; c < 5; ++c)
        EXPECT_EQ(out(2 + r, 2 + c).bits(), g(3 + 1 + r, 5 + 1 + c).bits());
  });
}

// The arena satellite: steady-state Full-mode simulation must not grow the
// thread's arena — every op marks and rewinds, so after one warm-up pass the
// retained capacity and mapped-chunk count are constant no matter how many
// more ops run (the seed allocated a fresh std::vector per smem store and
// per-op decode temporaries would have shown up here as chunk growth).
TEST(DataPlane, ArenaSteadyStateAcrossFullModeOps) {
  const auto dev = tiny_device();
  ThreadBlock blk(dev, 1);
  auto tile = blk.smem().alloc<fp16_t>(16, 16);
  Rng rng(23);
  auto run_ops = [&](int reps) {
    blk.phase([&](Warp& w) {
      auto A = w.alloc_fragment<fp16_t>(16, 16);
      auto B = w.alloc_fragment<fp16_t>(16, 16);
      auto C = w.alloc_fragment<float>(16, 16);
      auto P = w.alloc_fragment<fp16_t>(16, 16);
      fill_random(A, rng);
      fill_random(B, rng);
      fill_random(P, rng);
      for (int i = 0; i < reps; ++i) {
        w.store_smem(tile, A.view());
        w.load_smem(B, tile);
        w.mma(C, A.view(), B.view());
        w.add_inplace(P, A.view());
      }
    });
  };
  run_ops(4);  // warm-up: the arena maps whatever steady state needs
  core::Arena& arena = core::Arena::tls();
  EXPECT_EQ(arena.live_bytes(), 0u);  // every op rewound its scope
  const std::size_t capacity = arena.capacity_bytes();
  const std::size_t chunks = arena.chunks_mapped();
  run_ops(200);
  EXPECT_EQ(arena.capacity_bytes(), capacity) << "per-op arena growth detected";
  EXPECT_EQ(arena.chunks_mapped(), chunks) << "per-op chunk mapping detected";
  EXPECT_EQ(arena.live_bytes(), 0u);

  // Identity codecs multiply the fragments in place: FP64 Full-mode MMAs
  // and vector FMAs draw nothing from the arena at all.
  const std::size_t drawn = arena.total_allocated_bytes();
  blk.phase([&](Warp& w) {
    auto A = w.alloc_fragment<double>(16, 16);
    auto B = w.alloc_fragment<double>(16, 8);
    auto C = w.alloc_fragment<double>(16, 8);
    fill_random(A, rng);
    fill_random(B, rng);
    for (int i = 0; i < 8; ++i) {
      w.mma(C, A.view(), B.view());
      w.mma(C, 2, 1, A.view(0, 3, 9, 5), B.view(3, 0, 5, 7));
      w.fma_scalar(C, A.view(), B.view());
    }
  });
  EXPECT_EQ(arena.total_allocated_bytes(), drawn) << "FP64 MMA staged operands in the arena";
}

// Batched counters: per-op adds accumulate warp-locally and publish on
// flush_metrics()/profile/destruction — exactly once.
TEST(DataPlane, WarpCountersFlushOnceWithBatching) {
  obs::ScopedMetricsReset reset;
  const auto dev = tiny_device();
  auto& reg = obs::MetricRegistry::global();
  {
    ThreadBlock blk(dev, 1);
    auto tile = blk.smem().alloc<float>(16, 8);
    Matrix<float> g(16, 8);
    blk.phase([&](Warp& w) {
      auto f = w.alloc_fragment<float>(16, 8);  // 512 B
      w.load_global(f, g, 0, 0);
      w.store_smem(tile, f.view());
      w.load_smem(f, tile);
    });
    // Batched: nothing published yet.
    EXPECT_EQ(reg.counter("sim.smem.bytes_written").value(), 0.0);
    blk.flush_metrics();
    EXPECT_EQ(reg.counter("sim.smem.bytes_written").value(), 512.0);
    EXPECT_EQ(reg.counter("sim.smem.bytes_read").value(), 512.0);
    EXPECT_EQ(reg.counter("sim.gmem.bytes_loaded").value(), 512.0);
    // Idempotent: a second flush with no new ops adds nothing.
    blk.flush_metrics();
    EXPECT_EQ(reg.counter("sim.smem.bytes_written").value(), 512.0);
  }
  // Destruction must not double-publish the already-flushed totals.
  EXPECT_EQ(reg.counter("sim.smem.bytes_written").value(), 512.0);
  EXPECT_EQ(reg.counter("sim.gmem.bytes_loaded").value(), 512.0);
}

}  // namespace
}  // namespace kami::sim
