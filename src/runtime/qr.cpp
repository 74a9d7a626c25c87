#include "runtime/qr.hpp"

#include <algorithm>

#include "runtime/executor.hpp"
#include "trees/validate.hpp"

namespace hqr {

namespace {

// The tree heuristic for an m x n problem tiled at b on `threads` workers.
HqrConfig default_tree(int m, int n, int threads, int b) {
  const int mt = (m + b - 1) / b;
  const int nt = (n + b - 1) / b;
  HqrConfig t;
  // Virtual clusters: one per worker caps inter-"cluster" reductions at the
  // parallelism we actually have; domains once each cluster has >= 4 rows.
  t.p = std::clamp(std::max(1, threads), 1, std::max(1, mt / 2));
  t.a = (mt / t.p >= 4) ? 2 : 1;
  t.low = TreeKind::Greedy;
  t.high = TreeKind::Fibonacci;
  // Few tile columns -> starved for parallelism -> couple the trees.
  t.domino = nt <= std::max(4, mt / 8);
  return t;
}

// The options qr() and qr_solve() run with: b = 0 takes the shape's
// default tile size, ib = 0 takes b/4, and auto_tree picks the tree for
// the b actually used.
QROptions resolve_options(int m, int n, const QROptions& in) {
  QROptions o = in;
  if (o.b <= 0) o.b = default_qr_options(m, n, o.threads).b;
  o.ib = o.ib <= 0 ? std::max(1, o.b / 4) : std::min(o.ib, o.b);
  if (o.auto_tree) o.tree = default_tree(m, n, o.threads, o.b);
  return o;
}

ExecutorOptions executor_options(const QROptions& o) {
  ExecutorOptions exec;
  exec.threads = o.threads;
  exec.ib = o.ib;
  return exec;
}

// Factors `a` on the shared-memory runtime with resolved options `o`.
QRFactors factorize(const Matrix& a, const QROptions& o) {
  const int mt = (a.rows() + o.b - 1) / o.b;
  const int nt = (a.cols() + o.b - 1) / o.b;
  EliminationList list = hqr_elimination_list(mt, nt, o.tree);
  HQR_ASSERT(validate_elimination_list(list, mt, nt).ok,
             "generator produced an invalid list");
  return qr_factorize_parallel(a, o.b, list, executor_options(o));
}

}  // namespace

QROptions default_qr_options(int m, int n, int threads) {
  QROptions o;
  o.threads = std::max(1, threads);
  // Tile size: large enough for kernel efficiency, small enough to expose
  // tasks; cap so a tall-skinny matrix still has several tile rows.
  const int k = std::max(1, std::min(m, n));
  o.b = std::clamp(k / 4, 8, 64);
  o.b = std::min({o.b, std::max(1, m), std::max(1, n) * 4});
  o.ib = std::max(1, o.b / 4);
  o.tree = default_tree(m, n, o.threads, o.b);
  o.auto_tree = false;
  return o;
}

QRResult qr(const Matrix& a, const QROptions& opts) {
  HQR_CHECK(a.rows() >= 1 && a.cols() >= 1, "empty matrix");
  const QROptions o = resolve_options(a.rows(), a.cols(), opts);
  QRFactors f = factorize(a, o);

  QRResult out;
  Matrix q_padded = build_q_parallel(f, executor_options(o));
  const int k = std::min(a.rows(), a.cols());
  out.q = materialize(q_padded.block(0, 0, a.rows(), k));
  out.r = extract_r(f);
  out.tree = o.tree;
  out.b = o.b;
  out.ib = o.ib;
  return out;
}

Matrix qr_solve(const Matrix& a, const Matrix& rhs, const QROptions& opts) {
  HQR_CHECK(a.rows() >= a.cols(), "qr_solve expects m >= n");
  HQR_CHECK(rhs.rows() == a.rows(), "rhs row mismatch");
  const QROptions o = resolve_options(a.rows(), a.cols(), opts);
  QRFactors f = factorize(a, o);

  TiledMatrix c = TiledMatrix::from_matrix(rhs, o.b);
  apply_q_parallel(f, Trans::Yes, c, executor_options(o));
  Matrix qtb = c.to_matrix();
  const int n = a.cols();
  Matrix x = materialize(qtb.block(0, 0, n, rhs.cols()));
  Matrix r = extract_r(f);
  trsm_left(UpLo::Upper, Trans::No, Diag::NonUnit,
            ConstMatrixView(r.block(0, 0, n, n)), x.view());
  return x;
}

}  // namespace hqr
