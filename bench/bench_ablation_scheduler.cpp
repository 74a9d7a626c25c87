// Ablation: network-model components in the cluster simulator (DESIGN.md's
// design-choice ablations). Shows how much of HQR's and [BBD+10]'s
// simulated performance comes from NIC serialization and the
// communication-thread CPU model, under the simulator's one scheduling
// policy (critical-path priorities).
#include <iostream>

#include "bench_util.hpp"
#include "core/algorithms.hpp"
#include "obs/obs_cli.hpp"

using namespace hqr;

int main(int argc, char** argv) {
  Cli cli(argc, argv, obs::with_obs_flags({{"b", "280"}, {"csv", ""}}));
  const int b = static_cast<int>(cli.integer("b"));
  const int p = 15, q = 4;

  TextTable table(
      {"case", "algorithm", "nic", "comm-cpu", "GFlop/s", "% peak"});
  struct Case {
    const char* name;
    long long m, n;
  };
  for (const Case& c : {Case{"tall-skinny", 286720, 4480},
                        Case{"square", 33600, 33600}}) {
    const int mt = static_cast<int>((c.m + b - 1) / b);
    const int nt = static_cast<int>((c.n + b - 1) / b);
    HqrConfig cfg{p, 4, TreeKind::Fibonacci, TreeKind::Fibonacci, true};
    const AlgorithmRun runs[] = {make_hqr_run(mt, nt, cfg, q),
                                 make_bbd10_run(mt, nt, p, q)};
    for (const auto& run : runs) {
      for (bool nic : {true, false}) {
        for (bool comm_cpu : {true, false}) {
          SimOptions opts;
          opts.platform = Platform::edel();
          opts.b = b;
          opts.nic_contention = nic;
          opts.comm_thread_steal = comm_cpu;
          SimResult r = simulate_algorithm(run, c.m, c.n, opts);
          table.row()
              .add(c.name)
              .add(run.name)
              .add(nic ? "on" : "off")
              .add(comm_cpu ? "on" : "off")
              .add(r.gflops, 5)
              .add(100.0 * r.peak_fraction, 3);
        }
      }
    }
  }
  bench::emit(table, cli, "Ablation: network model");

  // Observability pass on a scaled-down tall-skinny HQR run (the full-size
  // sweeps above would produce multi-hundred-MB traces).
  obs::ObsSession obs(cli);
  if (obs.any_enabled() || obs.report_requested()) {
    const int mt = 96, nt = 16;
    HqrConfig cfg{p, 4, TreeKind::Fibonacci, TreeKind::Fibonacci, true};
    AlgorithmRun run = make_hqr_run(mt, nt, cfg, q);
    SimOptions opts;
    opts.platform = Platform::edel();
    opts.b = b;
    opts.trace = obs.trace();
    opts.metrics = obs.metrics();
    simulate_algorithm(run, static_cast<long long>(mt) * b,
                       static_cast<long long>(nt) * b, opts);
    std::cout << "\nobservability pass (" << run.name << ", " << mt << "x"
              << nt << " tiles):\n";
    TaskGraph graph(expand_to_kernels(run.list, mt, nt), mt, nt);
    obs.finish(&graph);
  }
  return 0;
}
