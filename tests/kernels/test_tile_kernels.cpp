// The six inner-blocked tile kernels against dense reference algebra:
// every panel split of every tile size factors exactly and applies the
// same orthogonal Q it stores.
#include "kernels/tile_kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "linalg/micro_kernel.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/ref_qr.hpp"

namespace hqr {
namespace {

constexpr double kTol = 1e-12;

Matrix upper_of(ConstMatrixView a) {
  Matrix r(a.rows, a.cols);
  for (int j = 0; j < a.cols; ++j)
    for (int i = 0; i <= j && i < a.rows; ++i) r(i, j) = a(i, j);
  return r;
}

// Dense Q of one panel reflector: I - V T V^T with explicit V (m x w).
Matrix panel_q(const Matrix& v, ConstMatrixView t) {
  const int m = v.rows();
  Matrix q = Matrix::identity(m);
  Matrix vt(m, v.cols());
  gemm(Trans::No, Trans::No, 1.0, v.view(), t, 0.0, vt.view());
  gemm(Trans::No, Trans::Yes, -1.0, vt.view(), v.view(), 1.0, q.view());
  return q;
}

// Accumulated dense Q = Q_p0 Q_p1 ... for a geqrt_ib tile.
Matrix dense_q_geqrt_ib(ConstMatrixView a, ConstMatrixView t, int ib) {
  const int b = a.rows;
  Matrix q = Matrix::identity(b);
  for (int j0 = 0; j0 < b; j0 += ib) {
    const int w = std::min(ib, b - j0);
    Matrix v(b, w);
    for (int l = 0; l < w; ++l) {
      v(j0 + l, l) = 1.0;
      for (int i = j0 + l + 1; i < b; ++i) v(i, l) = a(i, j0 + l);
    }
    Matrix qp = panel_q(v, t.block(0, j0, w, w));
    Matrix acc(b, b);
    gemm(Trans::No, Trans::No, 1.0, q.view(), qp.view(), 0.0, acc.view());
    q = acc;
  }
  return q;
}

// Accumulated dense Q for tsqrt_ib / ttqrt_ib on the 2b x b pencil.
Matrix dense_q_pencil_ib(ConstMatrixView v2, ConstMatrixView t, int ib,
                         bool triangular) {
  const int b = v2.rows;
  Matrix q = Matrix::identity(2 * b);
  for (int j0 = 0; j0 < b; j0 += ib) {
    const int w = std::min(ib, b - j0);
    Matrix v(2 * b, w);
    for (int l = 0; l < w; ++l) {
      v(j0 + l, l) = 1.0;
      const int rows = triangular ? j0 + l + 1 : b;
      for (int r = 0; r < rows; ++r) v(b + r, l) = v2(r, j0 + l);
    }
    Matrix qp = panel_q(v, t.block(0, j0, w, w));
    Matrix acc(2 * b, 2 * b);
    gemm(Trans::No, Trans::No, 1.0, q.view(), qp.view(), 0.0, acc.view());
    q = acc;
  }
  return q;
}

// (b, ib): every tile size 1..16 of the sweep with ib in {1, ceil(b/2), b},
// plus a few uneven splits.
class KernelSizes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(KernelSizes, GeqrtFactorsTileExactly) {
  auto [b, ib] = GetParam();
  Rng rng(b * 17);
  Matrix a0 = random_gaussian(b, b, rng);
  Matrix a = a0;
  Matrix t(b, b);
  TileWorkspace ws(b);
  geqrt_ib(a.view(), t.view(), ib, ws);

  Matrix q = dense_q_geqrt_ib(a.view(), t.view(), ib);
  EXPECT_LT(orthogonality_error(q.view()), kTol);
  // Q^T A0 == R.
  Matrix r(b, b);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), a0.view(), 0.0, r.view());
  Matrix r_expect = upper_of(a.view());
  EXPECT_LT(max_abs_diff(r.view(), r_expect.view()), kTol);
  // Below-diagonal part of Q^T A0 is numerically zero.
  for (int j = 0; j < b; ++j)
    for (int i = j + 1; i < b; ++i) EXPECT_NEAR(r(i, j), 0.0, kTol);
}

TEST_P(KernelSizes, GeqrtMatchesReferenceRUpToSigns) {
  auto [b, ib] = GetParam();
  Rng rng(b * 19);
  Matrix a0 = random_gaussian(b, b, rng);
  Matrix a = a0;
  Matrix t(b, b);
  TileWorkspace ws(b);
  geqrt_ib(a.view(), t.view(), ib, ws);
  RefQR ref = ref_qr_unblocked(a0);
  for (int j = 0; j < b; ++j)
    for (int i = 0; i <= j; ++i)
      EXPECT_NEAR(std::abs(a(i, j)), std::abs(ref.a(i, j)), 1e-11);
}

TEST_P(KernelSizes, UnmqrAppliesDenseQ) {
  auto [b, ib] = GetParam();
  Rng rng(b * 23);
  Matrix a = random_gaussian(b, b, rng);
  Matrix t(b, b);
  TileWorkspace ws(b);
  geqrt_ib(a.view(), t.view(), ib, ws);
  Matrix q = dense_q_geqrt_ib(a.view(), t.view(), ib);

  Matrix c0 = random_gaussian(b, b, rng);
  Matrix c = c0;
  unmqr_ib(a.view(), t.view(), ib, Trans::Yes, c.view(), ws);
  Matrix expect(b, b);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), c0.view(), 0.0, expect.view());
  EXPECT_LT(max_abs_diff(c.view(), expect.view()), kTol);

  // Trans::No undoes Trans::Yes.
  unmqr_ib(a.view(), t.view(), ib, Trans::No, c.view(), ws);
  EXPECT_LT(max_abs_diff(c.view(), c0.view()), kTol);
}

TEST_P(KernelSizes, TsqrtFactorsPencilExactly) {
  auto [b, ib] = GetParam();
  Rng rng(b * 29);
  // R1 with garbage below the diagonal (stands in for the killer's GEQRT V).
  Matrix a1 = random_gaussian(b, b, rng);
  Matrix a2_0 = random_gaussian(b, b, rng);
  Matrix a1_lower0(b, b);
  for (int j = 0; j < b; ++j)
    for (int i = j + 1; i < b; ++i) a1_lower0(i, j) = a1(i, j);
  Matrix r1_0 = upper_of(a1.view());

  Matrix a2 = a2_0;
  Matrix t(b, b);
  TileWorkspace ws(b);
  tsqrt_ib(a1.view(), a2.view(), t.view(), ib, ws);

  // Strictly-lower part of A1 untouched.
  for (int j = 0; j < b; ++j)
    for (int i = j + 1; i < b; ++i) EXPECT_EQ(a1(i, j), a1_lower0(i, j));

  // Dense check on the 2b x b pencil.
  Matrix p(2 * b, b);
  copy(r1_0.view(), p.block(0, 0, b, b));
  copy(a2_0.view(), p.block(b, 0, b, b));
  Matrix q = dense_q_pencil_ib(a2.view(), t.view(), ib, /*triangular=*/false);
  EXPECT_LT(orthogonality_error(q.view()), kTol);

  Matrix qtp(2 * b, b);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), p.view(), 0.0, qtp.view());
  Matrix r_new = upper_of(a1.view());
  EXPECT_LT(max_abs_diff(qtp.block(0, 0, b, b),
                         ConstMatrixView(r_new.view())),
            kTol);
  EXPECT_LT(max_norm(qtp.block(b, 0, b, b)), kTol);
}

TEST_P(KernelSizes, TsmqrAppliesDenseQ) {
  auto [b, ib] = GetParam();
  Rng rng(b * 31);
  Matrix a1 = random_gaussian(b, b, rng);
  Matrix a2 = random_gaussian(b, b, rng);
  Matrix t(b, b);
  TileWorkspace ws(b);
  tsqrt_ib(a1.view(), a2.view(), t.view(), ib, ws);
  Matrix q = dense_q_pencil_ib(a2.view(), t.view(), ib, /*triangular=*/false);

  Matrix c1_0 = random_gaussian(b, b, rng);
  Matrix c2_0 = random_gaussian(b, b, rng);
  Matrix c1 = c1_0, c2 = c2_0;
  tsmqr_ib(c1.view(), c2.view(), a2.view(), t.view(), ib, Trans::Yes, ws);

  Matrix cc(2 * b, b);
  copy(c1_0.view(), cc.block(0, 0, b, b));
  copy(c2_0.view(), cc.block(b, 0, b, b));
  Matrix expect(2 * b, b);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), cc.view(), 0.0, expect.view());
  EXPECT_LT(max_abs_diff(c1.view(), expect.block(0, 0, b, b)), kTol);
  EXPECT_LT(max_abs_diff(c2.view(), expect.block(b, 0, b, b)), kTol);

  // Round trip.
  tsmqr_ib(c1.view(), c2.view(), a2.view(), t.view(), ib, Trans::No, ws);
  EXPECT_LT(max_abs_diff(c1.view(), c1_0.view()), kTol);
  EXPECT_LT(max_abs_diff(c2.view(), c2_0.view()), kTol);
}

TEST_P(KernelSizes, TtqrtFactorsTrianglePairExactly) {
  auto [b, ib] = GetParam();
  Rng rng(b * 37);
  Matrix a1 = random_gaussian(b, b, rng);
  Matrix a2 = random_gaussian(b, b, rng);
  Matrix r1_0 = upper_of(a1.view());
  Matrix r2_0 = upper_of(a2.view());
  // Record the strict lower parts: both must be untouched.
  Matrix low1 = a1, low2 = a2;

  Matrix t(b, b);
  TileWorkspace ws(b);
  ttqrt_ib(a1.view(), a2.view(), t.view(), ib, ws);

  for (int j = 0; j < b; ++j)
    for (int i = j + 1; i < b; ++i) {
      EXPECT_EQ(a1(i, j), low1(i, j));
      EXPECT_EQ(a2(i, j), low2(i, j));
    }

  Matrix p(2 * b, b);
  copy(r1_0.view(), p.block(0, 0, b, b));
  copy(r2_0.view(), p.block(b, 0, b, b));
  Matrix q = dense_q_pencil_ib(a2.view(), t.view(), ib, /*triangular=*/true);
  EXPECT_LT(orthogonality_error(q.view()), kTol);

  Matrix qtp(2 * b, b);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), p.view(), 0.0, qtp.view());
  Matrix r_new = upper_of(a1.view());
  EXPECT_LT(max_abs_diff(qtp.block(0, 0, b, b),
                         ConstMatrixView(r_new.view())),
            kTol);
  EXPECT_LT(max_norm(qtp.block(b, 0, b, b)), kTol);
}

TEST_P(KernelSizes, TtmqrAppliesDenseQ) {
  auto [b, ib] = GetParam();
  Rng rng(b * 41);
  Matrix a1 = random_gaussian(b, b, rng);
  Matrix a2 = random_gaussian(b, b, rng);
  // Plant recognizable garbage strictly below a2's diagonal: TTMQR must not
  // read it.
  for (int j = 0; j < b; ++j)
    for (int i = j + 1; i < b; ++i) a2(i, j) = 1e30;
  Matrix t(b, b);
  TileWorkspace ws(b);
  ttqrt_ib(a1.view(), a2.view(), t.view(), ib, ws);
  Matrix q = dense_q_pencil_ib(a2.view(), t.view(), ib, /*triangular=*/true);

  Matrix c1_0 = random_gaussian(b, b, rng);
  Matrix c2_0 = random_gaussian(b, b, rng);
  Matrix c1 = c1_0, c2 = c2_0;
  ttmqr_ib(c1.view(), c2.view(), a2.view(), t.view(), ib, Trans::Yes, ws);

  Matrix cc(2 * b, b);
  copy(c1_0.view(), cc.block(0, 0, b, b));
  copy(c2_0.view(), cc.block(b, 0, b, b));
  Matrix expect(2 * b, b);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), cc.view(), 0.0, expect.view());
  EXPECT_LT(max_abs_diff(c1.view(), expect.block(0, 0, b, b)), kTol);
  EXPECT_LT(max_abs_diff(c2.view(), expect.block(b, 0, b, b)), kTol);

  ttmqr_ib(c1.view(), c2.view(), a2.view(), t.view(), ib, Trans::No, ws);
  EXPECT_LT(max_abs_diff(c1.view(), c1_0.view()), kTol);
  EXPECT_LT(max_abs_diff(c2.view(), c2_0.view()), kTol);
}

std::vector<std::pair<int, int>> size_sweep() {
  std::vector<std::pair<int, int>> out;
  for (const int b : {1, 2, 3, 4, 5, 8, 13, 16}) {
    for (const int ib : {1, (b + 1) / 2, b}) {
      if (out.empty() || out.back() != std::pair{b, ib})
        out.emplace_back(b, ib);
    }
  }
  // More panel splits that leave a narrower last panel.
  for (const auto& split : {std::pair{6, 2}, std::pair{6, 3}, std::pair{7, 2},
                            std::pair{8, 3}, std::pair{13, 4}, std::pair{16, 4}})
    out.push_back(split);
  return out;
}

INSTANTIATE_TEST_SUITE_P(TileSizes, KernelSizes,
                         ::testing::ValuesIn(size_sweep()));

// End-to-end: a 3-tile panel [A0; A1; A2] reduced with GEQRT + two TSQRTs
// (flat TS chain) must reproduce the reference R of the stacked 3b x b panel.
TEST(KernelComposition, TsChainMatchesReferencePanelQr) {
  const int b = 4, ib = 2;
  Rng rng(99);
  Matrix t0 = random_gaussian(b, b, rng);
  Matrix t1 = random_gaussian(b, b, rng);
  Matrix t2 = random_gaussian(b, b, rng);
  Matrix stacked(3 * b, b);
  copy(t0.view(), stacked.block(0, 0, b, b));
  copy(t1.view(), stacked.block(b, 0, b, b));
  copy(t2.view(), stacked.block(2 * b, 0, b, b));

  TileWorkspace ws(b);
  Matrix tg(b, b), tt1(b, b), tt2(b, b);
  geqrt_ib(t0.view(), tg.view(), ib, ws);
  tsqrt_ib(t0.view(), t1.view(), tt1.view(), ib, ws);
  tsqrt_ib(t0.view(), t2.view(), tt2.view(), ib, ws);

  RefQR ref = ref_qr_unblocked(stacked);
  for (int j = 0; j < b; ++j)
    for (int i = 0; i <= j; ++i)
      EXPECT_NEAR(std::abs(t0(i, j)), std::abs(ref.a(i, j)), 1e-11);
}

// Binary TT reduction of two GEQRT'd tiles matches the reference R too
// (ib = 2 leaves a narrower last panel).
TEST(KernelComposition, TtReductionMatchesReferencePanelQr) {
  const int b = 5, ib = 2;
  Rng rng(101);
  Matrix t0 = random_gaussian(b, b, rng);
  Matrix t1 = random_gaussian(b, b, rng);
  Matrix stacked(2 * b, b);
  copy(t0.view(), stacked.block(0, 0, b, b));
  copy(t1.view(), stacked.block(b, 0, b, b));

  TileWorkspace ws(b);
  Matrix tg0(b, b), tg1(b, b), tt(b, b);
  geqrt_ib(t0.view(), tg0.view(), ib, ws);
  geqrt_ib(t1.view(), tg1.view(), ib, ws);
  ttqrt_ib(t0.view(), t1.view(), tt.view(), ib, ws);

  RefQR ref = ref_qr_unblocked(stacked);
  for (int j = 0; j < b; ++j)
    for (int i = 0; i <= j; ++i)
      EXPECT_NEAR(std::abs(t0(i, j)), std::abs(ref.a(i, j)), 1e-11);
}

// Zero tiles: all kernels must be well-defined (tau = 0 paths).
TEST(KernelEdgeCases, ZeroTilesProduceZeroTaus) {
  const int b = 3, ib = 2;
  Matrix a(b, b), t(b, b);
  TileWorkspace ws(b);
  geqrt_ib(a.view(), t.view(), ib, ws);
  EXPECT_EQ(max_norm(t.view()), 0.0);
  EXPECT_EQ(max_norm(a.view()), 0.0);

  Matrix a1(b, b), a2(b, b), t2(b, b);
  tsqrt_ib(a1.view(), a2.view(), t2.view(), ib, ws);
  EXPECT_EQ(max_norm(t2.view()), 0.0);
}

// TSQRT with an already-zero A2 leaves R1 unchanged.
TEST(KernelEdgeCases, TsqrtWithZeroSquareIsIdentity) {
  const int b = 4, ib = 2;
  Rng rng(7);
  Matrix a1 = random_gaussian(b, b, rng);
  Matrix r1 = a1;
  Matrix a2(b, b), t(b, b);
  TileWorkspace ws(b);
  tsqrt_ib(a1.view(), a2.view(), t.view(), ib, ws);
  EXPECT_LT(max_abs_diff(a1.view(), r1.view()), 1e-15);
  EXPECT_EQ(max_norm(t.view()), 0.0);
}

// Bitwise equality of two same-shape views (NaN-safe: compares the bits).
bool same_bits(ConstMatrixView a, ConstMatrixView b) {
  if (a.rows != b.rows || a.cols != b.cols) return false;
  for (int j = 0; j < a.cols; ++j)
    if (std::memcmp(a.col(j).data, b.col(j).data, sizeof(double) * a.rows) !=
        0)
      return false;
  return true;
}

// The update kernels read only what their factorization owns: UNMQR only
// V's strict lower triangle (the tile's R lives on and above the diagonal),
// TTMQR only V2's upper triangle (the rows below it hold another kernel's
// data). NaN in any entry they read would propagate into C.
TEST(KernelOwnership, UpdatesReadOnlyTheReflectorTheyOwn) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [b, ib] : {std::pair{13, 4}, std::pair{64, 16},
                              std::pair{8, 8}}) {
    SCOPED_TRACE(::testing::Message() << "b=" << b << " ib=" << ib);
    Rng rng(b * 53);
    TileWorkspace ws(b);
    Matrix v = random_gaussian(b, b, rng);
    Matrix t(b, b);
    geqrt_ib(v.view(), t.view(), ib, ws);
    Matrix v_poisoned = v;
    for (int j = 0; j < b; ++j)
      for (int i = 0; i <= j; ++i) v_poisoned(i, j) = nan;

    Matrix a1 = random_gaussian(b, b, rng);
    Matrix v2 = random_gaussian(b, b, rng);
    Matrix t2(b, b);
    ttqrt_ib(a1.view(), v2.view(), t2.view(), ib, ws);
    Matrix v2_poisoned = v2;
    for (int j = 0; j < b; ++j)
      for (int i = j + 1; i < b; ++i) v2_poisoned(i, j) = nan;

    const Matrix c1_0 = random_gaussian(b, b, rng);
    const Matrix c2_0 = random_gaussian(b, b, rng);
    for (const Trans trans : {Trans::Yes, Trans::No}) {
      Matrix clean = c1_0, poisoned = c1_0;
      unmqr_ib(v.view(), t.view(), ib, trans, clean.view(), ws);
      unmqr_ib(v_poisoned.view(), t.view(), ib, trans, poisoned.view(), ws);
      EXPECT_TRUE(same_bits(clean.view(), poisoned.view())) << "unmqr";

      Matrix c1 = c1_0, c2 = c2_0, p1 = c1_0, p2 = c2_0;
      ttmqr_ib(c1.view(), c2.view(), v2.view(), t2.view(), ib, trans, ws);
      ttmqr_ib(p1.view(), p2.view(), v2_poisoned.view(), t2.view(), ib, trans,
               ws);
      EXPECT_TRUE(same_bits(c1.view(), p1.view())) << "ttmqr C1";
      EXPECT_TRUE(same_bits(c2.view(), p2.view())) << "ttmqr C2";
    }
  }
}

#ifdef __FMA__
// Every output of the six kernels on one set of inputs: the factored tiles
// and T factors of GEQRT/TSQRT/TTQRT and the tiles UNMQR/TSMQR/TTMQR
// update, each update fed by the factorization before it.
std::vector<Matrix> run_all_kernels(int b, int ib) {
  Rng rng(b * 59 + ib);
  TileWorkspace ws(b);
  Matrix a = random_gaussian(b, b, rng), t(b, b);
  geqrt_ib(a.view(), t.view(), ib, ws);
  Matrix c = random_gaussian(b, b, rng);
  unmqr_ib(a.view(), t.view(), ib, Trans::Yes, c.view(), ws);

  Matrix ts2 = random_gaussian(b, b, rng), tst(b, b);
  tsqrt_ib(a.view(), ts2.view(), tst.view(), ib, ws);
  Matrix ts_c1 = random_gaussian(b, b, rng);
  Matrix ts_c2 = random_gaussian(b, b, rng);
  tsmqr_ib(ts_c1.view(), ts_c2.view(), ts2.view(), tst.view(), ib,
           Trans::Yes, ws);

  Matrix tt1 = random_gaussian(b, b, rng), tt2 = random_gaussian(b, b, rng);
  Matrix ttt(b, b);
  ttqrt_ib(tt1.view(), tt2.view(), ttt.view(), ib, ws);
  Matrix tt_c1 = random_gaussian(b, b, rng);
  Matrix tt_c2 = random_gaussian(b, b, rng);
  ttmqr_ib(tt_c1.view(), tt_c2.view(), tt2.view(), ttt.view(), ib, Trans::No,
           ws);
  return {a, t, c, ts2, tst, ts_c1, ts_c2, tt1, tt2, ttt, tt_c1, tt_c2};
}

// The ISA contract at kernel level: every GEMM micro-kernel forms each
// element as the same ascending-k FMA chain, so all six kernels must give
// the same bits under every supported micro-kernel as under portable.
TEST(KernelIsaContract, SixKernelsBitIdenticalUnderEveryMicroKernel) {
  TileWorkspace warm(4);  // resolves the per-host tuning before the loop
  const MicroKernel& saved = active_micro_kernel();
  for (const auto& [b, ib] : {std::array{64, 16}, std::array{128, 32},
                              std::array{200, 32}, std::array{13, 4}}) {
    ASSERT_TRUE(set_active_micro_kernel("portable"));
    const std::vector<Matrix> ref = run_all_kernels(b, ib);
    for (const MicroKernel& k : micro_kernel_registry()) {
      if (!micro_kernel_isa_supported(k.isa)) continue;
      ASSERT_TRUE(set_active_micro_kernel(k.name));
      const std::vector<Matrix> got = run_all_kernels(b, ib);
      for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_TRUE(same_bits(got[i].view(), ref[i].view()))
            << k.name << " b=" << b << " ib=" << ib << " output " << i;
    }
  }
  set_active_micro_kernel(saved);
}
#endif  // __FMA__

TEST(IbKernels, BadIbThrows) {
  TileWorkspace ws(4);
  Matrix a(4, 4), t(4, 4);
  EXPECT_THROW(geqrt_ib(a.view(), t.view(), 0, ws), Error);
  EXPECT_THROW(geqrt_ib(a.view(), t.view(), 5, ws), Error);
}

}  // namespace
}  // namespace hqr
