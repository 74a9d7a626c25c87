// The six tile QR kernels of the paper (§II, Algorithm 2), from scratch,
// inner-blocked as in PLASMA.
//
// All kernels operate on b x b tiles with compact-WY storage:
//
//   GEQRT(A, T)        A <- {R in upper, V unit-lower below diag}, T built.
//   UNMQR(V, T, C)     C <- op(Q) C for the GEQRT reflector (TT/TS update of
//                      the killer row's trailing tiles).
//   TSQRT(A1, A2, T)   factors [R1; A2] (triangle on top of square):
//                      A1 upper triangle <- new R, A2 <- V2 (dense), T built.
//                      A1's strictly-lower part (the killer's own GEQRT V) is
//                      neither read nor written.
//   TSMQR(C1, C2, V2, T)  applies the TSQRT reflector to the tile pair
//                      [C1; C2] in trailing columns.
//   TTQRT(A1, A2, T)   factors [R1; R2] (triangle on top of triangle):
//                      A2's upper triangle <- V2 (upper triangular, stored
//                      diagonal); its strictly-lower part is untouched.
//   TTMQR(C1, C2, V2, T)  applies the TTQRT reflector to [C1; C2].
//
// Each tile is factored in column panels of width ib, with one ib x ib T per
// panel, stored side by side in the first ib rows of the b x b T tile (panel
// starting at column j0 occupies T(0:w, j0:j0+w); the PLASMA ib x b T
// layout). Applications then cost 4 b^3 + O(ib b^2) flops, the count behind
// the paper's weights. Any 1 <= ib <= b works (the last panel may be
// narrower); default_inner_block(b) is the per-host choice.
//
// Weights in b^3/3 flop units (paper §II): GEQRT 4, UNMQR 6, TSQRT 6,
// TSMQR 12, TTQRT 2, TTMQR 6.
#pragma once

#include "linalg/blas.hpp"
#include "linalg/kernel_tuning.hpp"
#include "linalg/matrix.hpp"

namespace hqr {

// Scratch buffers reused across kernel invocations; one per worker thread.
// No kernel allocates: the GEMM packing buffers are pre-sized here for
// b x b products, so every task the worker runs reuses the same memory.
class TileWorkspace {
 public:
  explicit TileWorkspace(int b) : b_(b), w1_(b, b), w2_(b, b), vec_(b, 1) {
    HQR_CHECK(b >= 1, "tile size must be >= 1");
    // First workspace in the process pulls in the per-host tuning cache
    // (kernel shape, blocking, default inner block) before sizing pack
    // buffers.
    ensure_tuning_applied();
    gemm_.reserve(b, b, b);
  }

  int b() const { return b_; }
  MatrixView w1() { return w1_.view(); }
  MatrixView w2() { return w2_.view(); }
  MatrixView vec() { return vec_.view(); }
  GemmWorkspace& gemm_ws() { return gemm_; }

 private:
  int b_;
  Matrix w1_, w2_, vec_;
  GemmWorkspace gemm_;
};

// A <- QR of the tile with panel width ib. R overwrites the upper triangle
// (incl. diag); Householder vectors overwrite the strict lower triangle
// (unit diagonal implicit); T receives the stacked panel T factors.
void geqrt_ib(MatrixView a, MatrixView t, int ib, TileWorkspace& ws);

// C <- op(Q) C for a geqrt_ib factorization; V is the factored tile (only
// its strict lower triangle is read). trans == Trans::Yes applies Q^T (the
// factorization update); Trans::No applies Q (used when building Q).
void unmqr_ib(ConstMatrixView v, ConstMatrixView t, int ib, Trans trans,
              MatrixView c, TileWorkspace& ws);

// Factors the 2b x b pencil [triangle(A1); A2] with panel width ib. On exit
// the upper triangle of A1 holds the new R, A2 holds the dense reflector
// block V2, T is built.
void tsqrt_ib(MatrixView a1, MatrixView a2, MatrixView t, int ib,
              TileWorkspace& ws);

// Applies a tsqrt_ib reflector to [C1; C2] (both full tiles).
void tsmqr_ib(MatrixView c1, MatrixView c2, ConstMatrixView v2,
              ConstMatrixView t, int ib, Trans trans, TileWorkspace& ws);

// Factors the 2b x b pencil [triangle(A1); triangle(A2)] with panel width
// ib. On exit the upper triangle of A1 holds the new R, the upper triangle
// of A2 holds V2 (triangular, stored diagonal), T is built.
void ttqrt_ib(MatrixView a1, MatrixView a2, MatrixView t, int ib,
              TileWorkspace& ws);

// Applies a ttqrt_ib reflector to [C1; C2] (both full tiles); only the
// upper triangle of v2 is read.
void ttmqr_ib(MatrixView c1, MatrixView c2, ConstMatrixView v2,
              ConstMatrixView t, int ib, Trans trans, TileWorkspace& ws);

}  // namespace hqr
