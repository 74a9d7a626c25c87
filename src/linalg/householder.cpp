#include "linalg/householder.hpp"

#include <cmath>

namespace hqr {

double larfg(int n, double& alpha, MatrixView x) {
  HQR_CHECK(x.cols == 1 && x.rows == n - 1, "larfg shape mismatch");
  if (n <= 1) return 0.0;
  const double xnorm = nrm2(x);
  if (xnorm == 0.0) return 0.0;  // already in the desired form

  double beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  // Guard against underflow in beta as dlarfg does (rescale loop).
  constexpr double safmin = 2.00416836000897278e-292;  // ~DBL_MIN/eps
  int rescale = 0;
  double a = alpha;
  double xn = xnorm;
  while (std::abs(beta) < safmin && rescale < 20) {
    const double inv = 1.0 / safmin;
    scal(inv, x);
    a *= inv;
    xn = nrm2(x);
    beta = -std::copysign(std::hypot(a, xn), a);
    ++rescale;
  }
  const double tau = (beta - a) / beta;
  scal(1.0 / (a - beta), x);
  for (int r = 0; r < rescale; ++r) beta *= safmin;
  alpha = beta;
  return tau;
}

void larf_left(double tau, ConstMatrixView v_tail, MatrixView c,
               MatrixView work) {
  if (tau == 0.0) return;
  const int m = c.rows;
  const int n = c.cols;
  HQR_CHECK(v_tail.cols == 1 && v_tail.rows == m - 1, "larf shape mismatch");
  HQR_CHECK(work.rows >= n && work.cols == 1, "larf work too small");
  MatrixView w = work.block(0, 0, n, 1);

  // w = C^T * v  (v(0) = 1 implicit): the tail rows are one fused gemv,
  // then the implicit unit adds C's top row.
  if (m > 1) {
    gemv(Trans::Yes, 1.0, c.block(1, 0, m - 1, n), v_tail, 0.0, w);
    for (int j = 0; j < n; ++j) w(j, 0) += c(0, j);
  } else {
    for (int j = 0; j < n; ++j) w(j, 0) = c(0, j);
  }
  // C -= tau * v * w^T: top row explicitly, tail rows as a rank-1 ger.
  for (int j = 0; j < n; ++j) c(0, j) -= tau * w(j, 0);
  if (m > 1) ger(-tau, v_tail, w, c.block(1, 0, m - 1, n));
}

void larft_column(ConstMatrixView v, int j, double tau, MatrixView t) {
  const int m = v.rows;
  HQR_CHECK(j >= 0 && j < v.cols && t.rows >= j + 1 && t.cols >= j + 1,
            "larft shape mismatch");
  if (tau == 0.0) {
    for (int i = 0; i < j; ++i) t(i, j) = 0.0;
    t(j, j) = 0.0;
    return;
  }
  // t(0:j, j) = -tau * V(:, 0:j)^T * v_j, exploiting the unit-lower structure:
  // v_j has implicit 1 at row j and stored entries in rows j+1..m-1.
  for (int i = 0; i < j; ++i) {
    // Column i of V: implicit 1 at row i, stored entries rows i+1..m-1.
    double s = v(j, i);  // row j of column i times the implicit v_j(j) = 1
    for (int r = j + 1; r < m; ++r) s += v(r, i) * v(r, j);
    t(i, j) = -tau * s;
  }
  // t(0:j, j) = T(0:j, 0:j) * t(0:j, j)   (triangular multiply, in place).
  if (j > 0) {
    MatrixView tj = t.block(0, j, j, 1);
    trmm_left(UpLo::Upper, Trans::No, Diag::NonUnit,
              ConstMatrixView(t.data, j, j, t.ld), tj);
  }
  t(j, j) = tau;
}

void larfb_left(Trans trans, ConstMatrixView v, ConstMatrixView t, MatrixView c,
                MatrixView work) {
  const int m = c.rows;
  const int n = c.cols;
  const int k = v.cols;
  HQR_CHECK(v.rows == m && t.rows == k && t.cols == k, "larfb shape mismatch");
  HQR_CHECK(work.rows >= k && work.cols >= n, "larfb work too small");
  if (k == 0) return;
  MatrixView w = work.block(0, 0, k, n);

  // W = V^T * C with V unit-lower-trapezoidal:
  // top k x k block is unit lower triangular, bottom (m-k) x k is dense.
  copy(c.block(0, 0, k, n), w);
  trmm_left(UpLo::Lower, Trans::Yes, Diag::Unit, v.block(0, 0, k, k), w);
  if (m > k) {
    gemm(Trans::Yes, Trans::No, 1.0, v.block(k, 0, m - k, k),
         c.block(k, 0, m - k, n), 1.0, w);
  }
  // W = op(T) * W.
  trmm_left(UpLo::Upper, trans, Diag::NonUnit, t, w);
  // C -= V * W.
  if (m > k) {
    gemm(Trans::No, Trans::No, -1.0, v.block(k, 0, m - k, k), w, 1.0,
         c.block(k, 0, m - k, n));
  }
  // Top block: C(0:k,:) -= V1 * W with V1 unit lower triangular.
  // Compute V1 * W into a temporary path: reuse w in place.
  trmm_left(UpLo::Lower, Trans::No, Diag::Unit, v.block(0, 0, k, k), w);
  axpy(-1.0, w, c.block(0, 0, k, n));
}

}  // namespace hqr
