// qr-small: one caller in a closed loop over a seeded mix of qr() on
// 256x128 (a third of the ops) and qr_solve() on 2048x64 with one
// right-hand side, both with default_qr_options(m, n, 4). Tiny tiles and
// per-call thread-pool start-up put the time into runtime overhead,
// tree/DAG planning and the panel kernels. The mix runs Q formation
// (build_q_parallel) beside Q application (apply_q_parallel), so a gain in
// one cannot hide a loss in the other. The mix is lopsided on purpose: a
// qr() takes about a third of a qr_solve(), so with one qr() to two
// qr_solve() calls the median lands inside the qr_solve() distribution
// (its lower third), not on the seam between the two kinds.
#include <algorithm>
#include <cmath>
#include <array>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/factorization.hpp"
#include "dag/task_graph.hpp"
#include "linalg/blas.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/ref_qr.hpp"
#include "runtime/executor.hpp"
#include "runtime/qr.hpp"
#include "simcluster/simulator.hpp"
#include "trees/hqr_tree.hpp"

namespace hqrbench {

namespace {

constexpr int kThreads = 4;
constexpr int kPool = 8;  // distinct inputs per kind
constexpr int kSetups = 9;
constexpr int kTracedOpsExported = 8;

struct Kind {
  const char* name;
  int m, n;
  bool solve;
};
constexpr std::array<Kind, 2> kKinds = {{{"qr", 256, 128, false},
                                         {"qr_solve", 2048, 64, true}}};

struct Input {
  hqr::Matrix a, rhs;      // rhs only for qr_solve
  hqr::Matrix q, r, x;     // references from the same binary
};

// Results of one op (qr: q and r; qr_solve: x).
struct Output {
  hqr::Matrix q, r, x;
};

bool output_ok(const Kind& k, const Input& in, const Output& out) {
  return k.solve ? same_bits(out.x, in.x)
                 : same_bits(out.q, in.q) && same_bits(out.r, in.r);
}

Output run_plain(const Kind& k, const Input& in) {
  const hqr::QROptions o = hqr::default_qr_options(k.m, k.n, kThreads);
  Output out;
  if (k.solve) {
    out.x = hqr::qr_solve(in.a, in.rhs, o);
  } else {
    hqr::QRResult res = hqr::qr(in.a, o);
    out.q = std::move(res.q);
    out.r = std::move(res.r);
  }
  return out;
}

// Per-layer timings of one traced op, in ms.
struct Parts {
  double plan = 0, factor = 0, q = 0;
};

// The same op as run_plain, through the public calls qr()/qr_solve() make,
// each timed and wrapped in a span: plan (trees + DAG), runtime factor,
// runtime Q formation or application, then the serial finish.
Output run_traced(const Kind& k, const Input& in, Spans& spans, int op_span,
                  RuntimeTotals& totals, Parts& parts, bool export_tasks) {
  const hqr::QROptions o = hqr::default_qr_options(k.m, k.n, kThreads);
  hqr::obs::MetricsRegistry metrics;
  hqr::ExecutorOptions exec;
  exec.threads = o.threads;
  exec.ib = o.ib;
  exec.metrics = &metrics;
  exec.trace_origin = spans.origin();
  const auto timed = [&](const char* name, double& ms, auto&& body) {
    hqr::obs::TraceRecorder rec;
    exec.trace = &rec;
    Scoped s(&spans, name, op_span);
    hqr::Stopwatch sw;
    body();
    ms = sw.seconds() * 1e3;
    if (export_tasks && rec.size() > 0) spans.attach(rec, s.id(), "runtime workers");
  };

  const int mt = (k.m + o.b - 1) / o.b, nt = (k.n + o.b - 1) / o.b;
  hqr::KernelList kernels;
  std::unique_ptr<hqr::TaskGraph> graph;
  timed("plan: trees + dag", parts.plan, [&] {
    kernels = hqr::expand_to_kernels(hqr::hqr_elimination_list(mt, nt, o.tree),
                                     mt, nt);
    graph = std::make_unique<hqr::TaskGraph>(kernels, mt, nt);
  });
  std::unique_ptr<hqr::QRFactors> f;
  hqr::RunStats st;
  timed("runtime: factor", parts.factor, [&] {
    f = std::make_unique<hqr::QRFactors>(
        hqr::TiledMatrix::from_matrix(in.a, o.b), std::move(kernels), o.ib);
    st = hqr::execute_parallel(*f, *graph, exec);
  });
  totals.add(st, o.b, parts.factor * 1e-3);

  Output out;
  if (k.solve) {
    hqr::TiledMatrix c;
    timed("runtime: apply_q", parts.q, [&] {
      c = hqr::TiledMatrix::from_matrix(in.rhs, o.b);
      hqr::apply_q_parallel(*f, hqr::Trans::Yes, c, exec, &st);
    });
    totals.add(st, o.b, parts.q * 1e-3);
    Scoped s(&spans, "finish: trsm", op_span);
    const hqr::Matrix qtb = c.to_matrix();
    out.x = hqr::materialize(qtb.block(0, 0, k.n, in.rhs.cols()));
    const hqr::Matrix r = hqr::extract_r(*f);
    hqr::trsm_left(hqr::UpLo::Upper, hqr::Trans::No, hqr::Diag::NonUnit,
                   hqr::ConstMatrixView(r.block(0, 0, k.n, k.n)), out.x.view());
  } else {
    hqr::Matrix qp;
    timed("runtime: build_q", parts.q,
          [&] { qp = hqr::build_q_parallel(*f, exec, &st); });
    totals.add(st, o.b, parts.q * 1e-3);
    Scoped s(&spans, "finish: extract", op_span);
    out.q = hqr::materialize(qp.block(0, 0, k.m, std::min(k.m, k.n)));
    out.r = hqr::extract_r(*f);
  }
  return out;
}

}  // namespace

void run_qr_small(const Args& args, Report& report, Spans* spans) {
  hqr::Rng rng(args.seed);
  std::array<std::vector<Input>, 2> pool;
  for (std::size_t k = 0; k < kKinds.size(); ++k)
    for (int i = 0; i < kPool; ++i) {
      Input in;
      in.a = hqr::random_gaussian(kKinds[k].m, kKinds[k].n, rng);
      if (kKinds[k].solve) in.rhs = hqr::random_gaussian(kKinds[k].m, 1, rng);
      pool[k].push_back(std::move(in));
    }

  // References, each checked for accuracy at machine precision.
  double worst = 0.0;
  for (std::size_t k = 0; k < kKinds.size(); ++k)
    for (Input& in : pool[k]) {
      Output ref = run_plain(kKinds[k], in);
      in.q = std::move(ref.q);
      in.r = std::move(ref.r);
      in.x = std::move(ref.x);
      worst = std::max(worst, kKinds[k].solve
                                  ? ls_accuracy_ratio(in.a, in.rhs, in.x)
                                  : qr_accuracy_ratio(in.a, in.q, in.r));
    }
  report.check("reference accuracy", worst < kAccuracyLimit,
               "worst ratio " + std::to_string(worst));
  {
    Output bad = run_plain(kKinds[0], pool[0][0]);
    bad.r(0, 0) = std::nextafter(bad.r(0, 0), 1e300);
    report.check("self-test: corrupted result rejected",
                 !output_ok(kKinds[0], pool[0][0], bad), "one ulp in R(0,0)");
  }

  // Set-up: one warm-up call of each kind (the first call loads the tuning
  // cache and sizes workspaces; later set-ups measure the warm path).
  std::vector<double> setups;
  for (int rep = 0; rep < kSetups; ++rep) {
    hqr::Stopwatch sw;
    bool ok = true;
    for (std::size_t k = 0; k < kKinds.size(); ++k)
      ok = output_ok(kKinds[k], pool[k][0], run_plain(kKinds[k], pool[k][0])) && ok;
    setups.push_back(sw.seconds());
    if (rep == 0) report.check("warm-up results", ok, "bitwise");
  }

  // The op sequence, from the seed: blocks of three ops, one qr() and two
  // qr_solve() in shuffled order, each on a randomly drawn pool input. The
  // blocks keep the mix at exactly 1:2, so the median does not wander
  // between the two kinds' distributions from seed to seed.
  hqr::Rng mix(args.seed * 0x9e3779b97f4a7c15ULL + 1);
  std::array<std::size_t, 3> block{};
  std::array<std::vector<double>, 2> plain_ms, traced_ms;
  std::vector<double> all_ms, flops;
  std::array<std::vector<Parts>, 2> parts;
  RuntimeTotals totals;
  int exported = 0;
  hqr::Stopwatch run;
  for (int i = 0; run.seconds() < args.seconds || all_ms.size() < 20; ++i) {
    if (i % 3 == 0) {
      block = {1, 1, 1};
      block[mix.below(3)] = 0;
    }
    const std::size_t k = block[static_cast<std::size_t>(i % 3)];
    const Input& in = pool[k][mix.below(kPool)];
    const Kind& kind = kKinds[k];
    const bool traced = spans && i % 2 == 1;
    Output out;
    double ms = 0.0;
    if (traced) {
      Scoped op(spans, std::string("qr-small op: ") + kind.name, -1);
      Parts p;
      hqr::Stopwatch sw;
      out = run_traced(kind, in, *spans, op.id(), totals, p,
                       exported++ < kTracedOpsExported);
      ms = sw.seconds() * 1e3;
      parts[k].push_back(p);
      traced_ms[k].push_back(ms);
    } else {
      hqr::Stopwatch sw;
      out = run_plain(kind, in);
      ms = sw.seconds() * 1e3;
      plain_ms[k].push_back(ms);
      all_ms.push_back(ms);
      flops.push_back(hqr::qr_useful_flops(kind.m, kind.n));
    }
    report.op(output_ok(kind, in, out));
  }

  report.spread("setup_s (s)", setups);
  report.spread("op latency (ms)", all_ms);
  report.e2e("setup_s", median(setups),
             "median of " + std::to_string(kSetups) + " set-ups");
  report.latency(all_ms, "ops (" + std::to_string(plain_ms[0].size()) +
                             " qr, " + std::to_string(plain_ms[1].size()) +
                             " qr_solve)");
  report.e2e("gflops", mean(flops) / (median(all_ms) * 1e-3) / 1e9,
             "mean useful flops per op / median op time");
  report.e2e("batch_problems_per_s", 1e3 / median(all_ms),
             "one problem per op, at the median op time");
  report.e2e("peak_rss_mb", peak_rss_mb(false));
  for (std::size_t k = 0; k < kKinds.size(); ++k)
    report.spread(std::string(kKinds[k].name) + " latency (ms)", plain_ms[k]);
  if (!spans) return;

  // ---- per-layer metrics (traced run) ----
  const double ops = static_cast<double>(traced_ms[0].size() + traced_ms[1].size());
  report_runtime_layers(report, totals, ops);
  std::vector<double> plan, factor, build_q, apply_q;
  for (std::size_t k = 0; k < kKinds.size(); ++k)
    for (const Parts& p : parts[k]) {
      plan.push_back(p.plan);
      factor.push_back(p.factor);
      (kKinds[k].solve ? apply_q : build_q).push_back(p.q);
    }
  report.layer("plan.ms", median(plan));
  report.layer("runtime.factor_ms", median(factor));
  report.layer("runtime.build_q_ms", median(build_q), "qr ops");
  report.layer("runtime.apply_q_ms", median(apply_q), "qr_solve ops");
  {
    const Kind& k = kKinds[0];
    const hqr::QROptions o = hqr::default_qr_options(k.m, k.n, kThreads);
    const int mt = (k.m + o.b - 1) / o.b, nt = (k.n + o.b - 1) / o.b;
    const hqr::TaskGraph g(
        hqr::expand_to_kernels(hqr::hqr_elimination_list(mt, nt, o.tree), mt, nt),
        mt, nt);
    report.layer("dag.tasks", g.size(), "qr() factor DAG");
    report.layer("dag.critical_path", g.unit_critical_path(), "qr() factor DAG");
  }

  // Sequential factorization, 1-thread reference QR, budget and tracing
  // overhead, each weighted by the op mix of the untraced half.
  const double n_plain = static_cast<double>(all_ms.size());
  double seq_rate_num = 0, seq_rate_den = 0, eff = 0, residual = 0, traced_over = 0;
  const double plain_mean = mean(all_ms);
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    const Kind& kind = kKinds[k];
    const double w = static_cast<double>(plain_ms[k].size()) / n_plain;
    const hqr::QROptions o = hqr::default_qr_options(kind.m, kind.n, kThreads);
    const int mt = (kind.m + o.b - 1) / o.b, nt = (kind.n + o.b - 1) / o.b;
    const hqr::EliminationList l = hqr::hqr_elimination_list(mt, nt, o.tree);
    std::vector<double> seq;
    for (int rep = 0; rep < 5; ++rep) {
      hqr::Stopwatch sw;
      const hqr::QRFactors f = hqr::qr_factorize_sequential(
          pool[k][static_cast<std::size_t>(rep) % kPool].a, o.b, l, o.ib);
      seq.push_back(sw.seconds() * 1e3);
    }
    std::vector<double> fk, sum_parts;
    for (const Parts& p : parts[k]) {
      fk.push_back(p.factor);
      sum_parts.push_back(p.plan + p.factor + p.q);
    }
    seq_rate_num += w * hqr::qr_useful_flops(kind.m, kind.n);
    seq_rate_den += w * median(seq) * 1e-3;
    eff += w * median(seq) / (kThreads * median(fk));
    residual += w * (mean(plain_ms[k]) - mean(sum_parts));
    traced_over += w * (median(traced_ms[k]) / median(plain_ms[k]) - 1.0);
  }
  report.layer("seq.gflops", seq_rate_num / seq_rate_den / 1e9,
               "qr_factorize_sequential, same problems");
  report.layer("runtime.parallel_eff", eff, "sequential / (threads x factor)");
  {
    std::vector<double> ref_ms;
    for (int rep = 0; rep < 9; ++rep) {
      const int id = spans->open("ref: ref_qr_blocked + ref_form_q", -1);
      hqr::Stopwatch sw;
      const hqr::RefQR r = hqr::ref_qr_blocked(pool[0][rep % kPool].a, 32);
      const hqr::Matrix q = hqr::ref_form_q(r);
      ref_ms.push_back(sw.seconds() * 1e3);
      spans->close(id);
    }
    report.layer("ref.p50_ms", median(ref_ms), "1 thread, qr() shape");
  }
  report.layer("trace.overhead_frac", traced_over, "traced vs untraced p50");
  const double frac = residual / plain_mean;
  report.layer("budget.residual_frac", frac,
               "untraced op - (plan + factor + Q), over the op time");
  report.info("budget", "plan.ms + runtime.*_ms vs op time: residual " +
                            std::to_string(frac) + " of the mean op, " +
                            (std::abs(frac) <= 0.15 ? "within" : "OUTSIDE") +
                            " the 0.15 tolerance");
}

}  // namespace hqrbench
