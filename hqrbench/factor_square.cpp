// factor-square: the paper's headline configuration (§V-A). One op is one
// qr_factorize_parallel of a 1600x1200 matrix with b=200, ib=32 and the
// HQR tree p=4, a=2, greedy/fibonacci + domino, on 4 threads. Coarse tiles
// put most of the time into the update kernels while the scheduler handles
// only a few hundred tasks, so per-call overhead is negligible here.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/factorization.hpp"
#include "dag/task_graph.hpp"
#include "linalg/random_matrix.hpp"
#include "runtime/executor.hpp"
#include "simcluster/simulator.hpp"
#include "trees/hqr_tree.hpp"

namespace hqrbench {

namespace {

constexpr int kM = 1600, kN = 1200, kB = 200, kIb = 32, kThreads = 4;
constexpr int kSetups = 9;
// Traced ops whose runtime task events go into the exported trace.
constexpr int kTracedOpsExported = 4;

hqr::HqrConfig paper_tree() {
  hqr::HqrConfig cfg;
  cfg.p = 4;
  cfg.a = 2;
  cfg.low = hqr::TreeKind::Greedy;
  cfg.high = hqr::TreeKind::Fibonacci;
  cfg.domino = true;
  return cfg;
}

}  // namespace

void run_factor_square(const Args& args, Report& report, Spans* spans) {
  const int mt = (kM + kB - 1) / kB, nt = (kN + kB - 1) / kB;
  const hqr::HqrConfig cfg = paper_tree();
  hqr::Rng rng(args.seed);
  const hqr::Matrix a = hqr::random_gaussian(kM, kN, rng);
  const double flops = hqr::qr_useful_flops(kM, kN);

  // Reference: the sequential factorization of the same input, same binary.
  hqr::Stopwatch seq_sw;
  const hqr::QRFactors ref = hqr::qr_factorize_sequential(
      a, kB, hqr::hqr_elimination_list(mt, nt, cfg), kIb);
  const double seq_s = seq_sw.seconds();
  const hqr::Matrix ref_tiles = ref.a().to_padded_matrix();
  {
    const hqr::Matrix qp = hqr::build_q(ref);
    const hqr::Matrix q = hqr::materialize(qp.block(0, 0, kM, kN));
    const double ratio = qr_accuracy_ratio(a, q, hqr::extract_r(ref));
    report.check("reference accuracy", ratio < kAccuracyLimit,
                 "ratio " + std::to_string(ratio));
  }
  const auto result_ok = [&](const hqr::QRFactors& f) {
    return same_bits(f.a().to_padded_matrix(), ref_tiles);
  };
  {
    // Self-test: one flipped bit in a factored tile must be caught.
    hqr::QRFactors bad = ref;
    hqr::MatrixView t = bad.a().tile(mt - 1, nt - 1);
    t(kB - 1, kB - 1) = std::nextafter(t(kB - 1, kB - 1), 1e300);
    report.check("self-test: corrupted result rejected", !result_ok(bad),
                 "one ulp changed in the last tile");
  }

  hqr::ExecutorOptions exec;
  exec.threads = kThreads;
  exec.ib = kIb;

  // Set-up: plan the tree, then one warm-up factorization (the first call
  // loads the tuning cache and faults in workspaces).
  std::vector<double> setups;
  for (int rep = 0; rep < kSetups; ++rep) {
    hqr::Stopwatch sw;
    const hqr::EliminationList list = hqr::hqr_elimination_list(mt, nt, cfg);
    const hqr::QRFactors warm = hqr::qr_factorize_parallel(a, kB, list, exec);
    setups.push_back(sw.seconds());
    if (rep == 0) report.check("warm-up result", result_ok(warm), "bitwise");
  }
  const hqr::EliminationList list = hqr::hqr_elimination_list(mt, nt, cfg);

  std::vector<double> plain_ms, traced_ms;
  RuntimeTotals totals;
  hqr::Stopwatch run;
  for (int i = 0; run.seconds() < args.seconds || plain_ms.size() < 3; ++i) {
    const bool traced = spans && i % 2 == 1;
    hqr::ExecutorOptions opts = exec;
    hqr::obs::MetricsRegistry metrics;
    hqr::obs::TraceRecorder rec;
    hqr::RunStats stats;
    if (traced) {
      opts.metrics = &metrics;
      opts.trace = &rec;
      opts.trace_origin = spans->origin();
    }
    Scoped op(traced ? spans : nullptr, "factor-square op", -1);
    hqr::Stopwatch sw;
    int call = -1;
    hqr::QRFactors f = [&] {
      Scoped s(traced ? spans : nullptr, "runtime: qr_factorize_parallel",
               op.id());
      call = s.id();
      return hqr::qr_factorize_parallel(a, kB, list, opts, &stats);
    }();
    const double secs = sw.seconds();
    (traced ? traced_ms : plain_ms).push_back(secs * 1e3);
    report.op(result_ok(f));
    if (traced) {
      totals.add(stats, kB, secs);
      if (static_cast<int>(traced_ms.size()) <= kTracedOpsExported)
        spans->attach(rec, call, "runtime workers");
    }
  }

  const double p50 = median(plain_ms);
  report.spread("setup_s (s)", setups);
  report.spread("op latency (ms)", plain_ms);
  report.e2e("setup_s", median(setups),
             "median of " + std::to_string(kSetups) + " set-ups");
  report.latency(plain_ms, "ops");
  report.e2e("gflops", flops / (p50 * 1e-3) / 1e9);
  report.e2e("batch_problems_per_s", 1e3 / p50,
             "one problem per op, at the median op time");
  report.e2e("peak_rss_mb", peak_rss_mb(false));
  if (!spans) return;

  // ---- per-layer metrics (traced run) ----
  const double ops = static_cast<double>(traced_ms.size());
  const double overhead = report_runtime_layers(report, totals, ops);
  report.layer("runtime.factor_ms", median(traced_ms));
  const double seq_gflops = flops / seq_s / 1e9;
  report.layer("seq.gflops", seq_gflops, "qr_factorize_sequential");
  report.layer("runtime.parallel_eff",
               flops / (p50 * 1e-3) / 1e9 / (kThreads * seq_gflops));
  std::vector<double> plan_ms;
  int tasks = 0, cp = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const int id = spans->open("plan: trees + dag", -1);
    hqr::Stopwatch sw;
    const hqr::EliminationList l = hqr::hqr_elimination_list(mt, nt, cfg);
    const hqr::KernelList kernels = hqr::expand_to_kernels(l, mt, nt);
    const hqr::TaskGraph graph(kernels, mt, nt);
    plan_ms.push_back(sw.seconds() * 1e3);
    spans->close(id);
    tasks = graph.size();
    cp = graph.unit_critical_path();
  }
  report.layer("plan.ms", median(plan_ms));
  report.layer("dag.tasks", tasks);
  report.layer("dag.critical_path", cp);
  report.layer("trace.overhead_frac", median(traced_ms) / p50 - 1.0,
               "traced vs untraced p50");
  // Budget: threads x wall = busy + idle + terminal wait + overhead, with
  // the overhead (the residual) expected within 15% of threads x wall.
  report.layer("budget.residual_frac", overhead);
  report.info("budget", std::string("threads x wall = busy + idle + terminal "
                                    "+ residual; residual ") +
                            std::to_string(overhead) + " of threads x wall, " +
                            (std::abs(overhead) <= 0.15 ? "within" : "OUTSIDE") +
                            " the 0.15 tolerance");
}

}  // namespace hqrbench
