// Real-execution benchmark of the shared-memory runtime ("DAGuE-lite"):
// factors an actual matrix with the from-scratch kernels across thread
// counts. On a many-core host this shows the parallel scaling of the tile
// DAG under the pool's one scheduling policy (critical-path priorities
// plus the data-reuse keep). Pass --json=PATH for machine-readable results
// with the per-run scheduler counters (data-reuse keeps, queue pops).
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "linalg/random_matrix.hpp"
#include "obs/obs_cli.hpp"
#include "runtime/executor.hpp"
#include "simcluster/simulator.hpp"
#include "trees/hqr_tree.hpp"

using namespace hqr;

namespace {

struct RunRow {
  int threads;
  double seconds;
  double gflops;
  RunStats stats;
};

void write_json(const std::string& path, int m, int n, int b, int ib,
                const std::vector<RunRow>& rows) {
  std::ofstream out(path);
  HQR_CHECK(out.good(), "cannot write " << path);
  out << "{\n  \"schema\": \"hqr-bench-runtime-v3\",\n"
      << "  \"m\": " << m << ", \"n\": " << n << ", \"b\": " << b
      << ", \"ib\": " << ib << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunRow& r = rows[i];
    out << "    {\"threads\": " << r.threads << ", \"seconds\": " << r.seconds
        << ", \"gflops\": " << r.gflops << ", \"tasks\": "
        << r.stats.total_tasks << ", \"reuse_hits\": " << r.stats.reuse_hits
        << ", \"queue_pops\": " << r.stats.queue_pops << "}"
        << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::cout << "(json written to " << path << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv,
          obs::with_obs_flags({{"m", "768"},
                               {"n", "512"},
                               {"b", "64"},
                               {"ib", "0"},
                               {"json", ""},
                               {"csv", ""}}));
  const int m = static_cast<int>(cli.integer("m"));
  const int n = static_cast<int>(cli.integer("n"));
  const int b = static_cast<int>(cli.integer("b"));
  const int ib = static_cast<int>(cli.integer("ib"));

  Rng rng(11);
  Matrix a = random_gaussian(m, n, rng);
  TiledMatrix probe = TiledMatrix::from_matrix(a, b);
  HqrConfig cfg{4, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
  auto list = hqr_elimination_list(probe.mt(), probe.nt(), cfg);
  const double gflop = qr_useful_flops(m, n) / 1e9;

  std::vector<RunRow> rows;
  TextTable table(
      {"threads", "seconds", "GFlop/s", "tasks", "reuse", "queue"});
  for (int threads : {1, 2, 4, 8}) {
    const ExecutorOptions opts{.threads = threads, .ib = ib};
    RunStats stats;
    Stopwatch sw;
    QRFactors f = qr_factorize_parallel(a, b, list, opts, &stats);
    const double secs = sw.seconds();
    (void)f;
    table.row()
        .add(threads)
        .add(secs, 4)
        .add(gflop / secs, 4)
        .add(stats.total_tasks)
        .add(stats.reuse_hits)
        .add(stats.queue_pops);
    rows.push_back({threads, secs, gflop / secs, stats});
  }
  bench::emit(table, cli, "Runtime scaling (real kernels, this host)");
  if (!cli.str("json").empty()) write_json(cli.str("json"), m, n, b, ib, rows);

  // Observed 8-thread rerun when --trace/--metrics/--report were given (the
  // sweep above stays unobserved so its timings are clean).
  obs::ObsSession obs(cli);
  if (obs.any_enabled() || obs.report_requested()) {
    ExecutorOptions opts{.threads = 8, .ib = ib};
    opts.trace = obs.trace();
    opts.metrics = obs.metrics();
    TiledMatrix tiled = TiledMatrix::from_matrix(a, b);
    KernelList kernels = expand_to_kernels(list, probe.mt(), probe.nt());
    TaskGraph graph(kernels, probe.mt(), probe.nt());
    QRFactors f(std::move(tiled), std::move(kernels), opts.ib);
    RunStats stats = execute_parallel(f, graph, opts);
    std::cout << "\nobserved rerun (8 threads): "
              << stats.reuse_hits << " data-reuse keeps, "
              << stats.queue_pops << " queue pops\n";
    obs.finish(&graph);
  }
  return 0;
}
