#include "kernels/tile_kernels.hpp"

#include <algorithm>

#include "linalg/householder.hpp"

namespace hqr {
namespace {

int check_panels(int b, int ib) {
  HQR_CHECK(ib >= 1 && ib <= b, "inner block ib=" << ib << " out of [1, "
                                                  << b << "]");
  return (b + ib - 1) / ib;
}

// The one compact-WY apply of every kernel: [C1; C2] <- op(Q) [C1; C2]
// with Q = I - [E; V] T [E; V]^T, E the identity rows of C1 (k x n) over
// V (m x k) and C2 (m x n):
//   W = C1 + V^T C2;  W = op(T) W;  C1 -= W;  C2 -= V W.
// C1 may be empty (GEQRT/UNMQR pass MatrixView()): then V carries the
// panel's unit diagonal itself and W = V^T C2. Both products run on the
// packed gemm.
void apply_wy(Trans trans, MatrixView c1, ConstMatrixView v,
              ConstMatrixView t, MatrixView c2, TileWorkspace& ws) {
  MatrixView w = ws.w1().block(0, 0, v.cols, c2.cols);
  const bool has_c1 = c1.rows > 0;
  if (has_c1) copy(c1, w);
  gemm(Trans::Yes, Trans::No, 1.0, v, c2, has_c1 ? 1.0 : 0.0, w,
       ws.gemm_ws());
  trmm_left(UpLo::Upper, trans, Diag::NonUnit, t, w);
  if (has_c1) axpy(-1.0, w, c1);
  gemm(Trans::No, Trans::No, -1.0, v, w, 1.0, c2, ws.gemm_ws());
}

// Dense copy of the unit-lower GEQRT panel v (m x w) into ws.w2(): its
// strict lower part, an explicit unit diagonal and zeros above. Only the
// strict lower triangle of v is read (the R above it is another kernel's
// output). One gemm on this panel beats splitting off its w x w triangle:
// at ib <= 128 that triangle would run on the scalar trmm loops.
ConstMatrixView load_unit_panel(ConstMatrixView v, TileWorkspace& ws) {
  MatrixView wp = ws.w2().block(0, 0, v.rows, v.cols);
  for (int l = 0; l < v.cols; ++l) {
    for (int r = 0; r < l; ++r) wp(r, l) = 0.0;
    wp(l, l) = 1.0;
    for (int r = l + 1; r < v.rows; ++r) wp(r, l) = v(r, l);
  }
  return wp;
}

// Zero-padded copy of the triangular V2 panel of a TTQRT factorization into
// ws.w2(): column l (global j0 + l) has stored rows 0 .. j0+l; everything
// below is another kernel's data and must read as zero.
ConstMatrixView load_tt_panel(ConstMatrixView v2, int j0, int w,
                              TileWorkspace& ws) {
  MatrixView wp = ws.w2().block(0, 0, j0 + w, w);
  set_zero(wp);
  for (int l = 0; l < w; ++l)
    for (int r = 0; r <= j0 + l; ++r) wp(r, l) = v2(r, j0 + l);
  return wp;
}

}  // namespace

void geqrt_ib(MatrixView a, MatrixView t, int ib, TileWorkspace& ws) {
  const int b = ws.b();
  HQR_CHECK(a.rows == b && a.cols == b && t.rows == b && t.cols == b,
            "geqrt_ib expects b x b tiles");
  check_panels(b, ib);
  MatrixView work = ws.vec();

  for (int j0 = 0; j0 < b; j0 += ib) {
    const int w = std::min(ib, b - j0);
    // Factor the panel columns with plain reflectors.
    MatrixView v = a.block(j0, j0, b - j0, w);
    MatrixView tp = t.block(0, j0, w, w);
    for (int l = 0; l < w; ++l) {
      const int j = j0 + l;
      const int below = b - j;
      double alpha = a(j, j);
      MatrixView x = below > 1 ? a.block(j + 1, j, below - 1, 1)
                               : MatrixView(nullptr, 0, 1, 1);
      const double tau = larfg(below, alpha, x);
      a(j, j) = alpha;
      if (l + 1 < w && tau != 0.0) {
        MatrixView c = a.block(j, j + 1, below, w - l - 1);
        larf_left(tau, x, c, work);
      }
      larft_column(v, l, tau, tp);
    }
    // Block-apply the panel reflector to the trailing tile columns.
    const int trailing = b - (j0 + w);
    if (trailing > 0) {
      apply_wy(Trans::Yes, MatrixView(), load_unit_panel(v, ws), tp,
               a.block(j0, j0 + w, b - j0, trailing), ws);
    }
  }
}

void unmqr_ib(ConstMatrixView v, ConstMatrixView t, int ib, Trans trans,
              MatrixView c, TileWorkspace& ws) {
  const int b = ws.b();
  HQR_CHECK(v.rows == b && v.cols == b && t.rows == b && c.rows == b,
            "unmqr_ib expects b x b tiles");
  const int panels = check_panels(b, ib);
  // Q = Q_p0 Q_p1 ... : Q^T applies panels forward, Q reversed.
  for (int pi = 0; pi < panels; ++pi) {
    const int p = trans == Trans::Yes ? pi : panels - 1 - pi;
    const int j0 = p * ib;
    const int w = std::min(ib, b - j0);
    apply_wy(trans, MatrixView(),
             load_unit_panel(v.block(j0, j0, b - j0, w), ws),
             t.block(0, j0, w, w), c.block(j0, 0, b - j0, c.cols), ws);
  }
}

void tsqrt_ib(MatrixView a1, MatrixView a2, MatrixView t, int ib,
              TileWorkspace& ws) {
  const int b = ws.b();
  HQR_CHECK(a1.rows == b && a2.rows == b && t.rows == b,
            "tsqrt_ib expects b x b tiles");
  check_panels(b, ib);

  for (int j0 = 0; j0 < b; j0 += ib) {
    const int w = std::min(ib, b - j0);
    MatrixView tp = t.block(0, j0, w, w);
    // Panel factorization: one reflector of length b + 1 per column
    // (the R1 diagonal entry over the dense A2 column), applied to the
    // remaining panel columns only.
    for (int l = 0; l < w; ++l) {
      const int j = j0 + l;
      double alpha = a1(j, j);
      MatrixView v2j = a2.col(j);
      const double tau = larfg(b + 1, alpha, v2j);
      a1(j, j) = alpha;
      if (tau != 0.0) {
        for (int jj = j + 1; jj < j0 + w; ++jj) {
          double s = a1(j, jj);
          for (int i = 0; i < b; ++i) s += a2(i, j) * a2(i, jj);
          s *= tau;
          a1(j, jj) -= s;
          for (int i = 0; i < b; ++i) a2(i, jj) -= s * a2(i, j);
        }
      }
      // T column l within the panel.
      for (int i = 0; i < l; ++i) {
        double s = 0.0;
        for (int r = 0; r < b; ++r) s += a2(r, j0 + i) * a2(r, j);
        tp(i, l) = -tau * s;
      }
      if (l > 0) {
        MatrixView tl = tp.block(0, l, l, 1);
        trmm_left(UpLo::Upper, Trans::No, Diag::NonUnit,
                  ConstMatrixView(tp.data, l, l, tp.ld), tl);
      }
      tp(l, l) = tau;
    }
    // Block-apply the panel reflector to trailing columns of the pencil:
    // V = [E_p; V2p] with E_p the identity columns at panel rows.
    const int trailing = b - (j0 + w);
    if (trailing > 0) {
      apply_wy(Trans::Yes, a1.block(j0, j0 + w, w, trailing),
               a2.block(0, j0, b, w), tp, a2.block(0, j0 + w, b, trailing),
               ws);
    }
  }
}

void tsmqr_ib(MatrixView c1, MatrixView c2, ConstMatrixView v2,
              ConstMatrixView t, int ib, Trans trans, TileWorkspace& ws) {
  const int b = ws.b();
  HQR_CHECK(c1.rows == b && c2.rows == b && v2.rows == b,
            "tsmqr_ib expects b x b tiles");
  const int panels = check_panels(b, ib);
  for (int pi = 0; pi < panels; ++pi) {
    const int p = trans == Trans::Yes ? pi : panels - 1 - pi;
    const int j0 = p * ib;
    const int w = std::min(ib, b - j0);
    apply_wy(trans, c1.block(j0, 0, w, c1.cols), v2.block(0, j0, b, w),
             t.block(0, j0, w, w), c2, ws);
  }
}

void ttqrt_ib(MatrixView a1, MatrixView a2, MatrixView t, int ib,
              TileWorkspace& ws) {
  const int b = ws.b();
  HQR_CHECK(a1.rows == b && a2.rows == b && t.rows == b,
            "ttqrt_ib expects b x b tiles");
  check_panels(b, ib);

  for (int j0 = 0; j0 < b; j0 += ib) {
    const int w = std::min(ib, b - j0);
    MatrixView tp = t.block(0, j0, w, w);
    for (int l = 0; l < w; ++l) {
      const int j = j0 + l;
      double alpha = a1(j, j);
      MatrixView v2j = a2.block(0, j, j + 1, 1);
      const double tau = larfg(j + 2, alpha, v2j);
      a1(j, j) = alpha;
      if (tau != 0.0) {
        for (int jj = j + 1; jj < j0 + w; ++jj) {
          double s = a1(j, jj);
          for (int r = 0; r <= j; ++r) s += a2(r, j) * a2(r, jj);
          s *= tau;
          a1(j, jj) -= s;
          for (int r = 0; r <= j; ++r) a2(r, jj) -= s * a2(r, j);
        }
      }
      for (int i = 0; i < l; ++i) {
        double s = 0.0;
        for (int r = 0; r <= j0 + i; ++r) s += a2(r, j0 + i) * a2(r, j);
        tp(i, l) = -tau * s;
      }
      if (l > 0) {
        MatrixView tl = tp.block(0, l, l, 1);
        trmm_left(UpLo::Upper, Trans::No, Diag::NonUnit,
                  ConstMatrixView(tp.data, l, l, tp.ld), tl);
      }
      tp(l, l) = tau;
    }
    const int trailing = b - (j0 + w);
    if (trailing > 0) {
      // The V2 panel's support is its first j0 + w rows.
      apply_wy(Trans::Yes, a1.block(j0, j0 + w, w, trailing),
               load_tt_panel(a2, j0, w, ws), tp,
               a2.block(0, j0 + w, j0 + w, trailing), ws);
    }
  }
}

void ttmqr_ib(MatrixView c1, MatrixView c2, ConstMatrixView v2,
              ConstMatrixView t, int ib, Trans trans, TileWorkspace& ws) {
  const int b = ws.b();
  HQR_CHECK(c1.rows == b && c2.rows == b && v2.rows == b,
            "ttmqr_ib expects b x b tiles");
  const int panels = check_panels(b, ib);
  for (int pi = 0; pi < panels; ++pi) {
    const int p = trans == Trans::Yes ? pi : panels - 1 - pi;
    const int j0 = p * ib;
    const int w = std::min(ib, b - j0);
    apply_wy(trans, c1.block(j0, 0, w, c1.cols), load_tt_panel(v2, j0, w, ws),
             t.block(0, j0, w, w), c2.block(0, 0, j0 + w, c2.cols), ws);
  }
}

}  // namespace hqr
