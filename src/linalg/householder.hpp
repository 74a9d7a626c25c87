// Householder reflector machinery (LAPACK larfg/larf/larft/larfb analogues).
//
// Conventions follow LAPACK: a reflector H = I - tau * v * v^T with v(0) = 1
// stored implicitly; block reflectors use the compact-WY form
// Q = I - V * T * V^T with V unit-lower-trapezoidal and T upper triangular.
#pragma once

#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"

namespace hqr {

// Generates a Householder reflector for the vector [alpha; x] such that
// H * [alpha; x] = [beta; 0]. On return alpha holds beta, x holds v(1:) (with
// v(0) = 1 implicit), and tau is returned. x is an (n-1) x 1 view; n is the
// full vector length. If the input is already [alpha; 0], tau = 0.
double larfg(int n, double& alpha, MatrixView x);

// Applies H = I - tau * v * v^T from the left to C, where v is an m x 1 view
// with v(0) = 1 implicit (v.data points at v(1); v has m-1 stored entries).
// work must have at least C.cols entries. Implemented as one gemv (w = C^T v)
// plus one ger (C -= tau v w^T).
void larf_left(double tau, ConstMatrixView v_tail, MatrixView c,
               MatrixView work);

// Forms the j-th column of T from V (unit lower trapezoidal, m x k) and tau:
// T(0:j, j) = -tau * T(0:j, 0:j) * V(:, 0:j)^T * V(:, j), T(j,j) = tau.
// Called incrementally as factorizations progress. V(:, j) has its implicit
// unit at row j.
void larft_column(ConstMatrixView v, int j, double tau, MatrixView t);

// Applies the block reflector Q = I - V T V^T (or Q^T) from the left to C.
// V is m x k unit-lower-trapezoidal, T is k x k upper triangular.
// work must be k x C.cols. The reference path of ref_qr; the tile kernels
// apply their reflectors through their own compact-WY apply.
void larfb_left(Trans trans, ConstMatrixView v, ConstMatrixView t, MatrixView c,
                MatrixView work);

}  // namespace hqr
