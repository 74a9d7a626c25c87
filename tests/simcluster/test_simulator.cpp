#include "simcluster/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <utility>
#include <vector>

#include "core/algorithms.hpp"
#include "dag/task_graph.hpp"
#include "trees/hqr_tree.hpp"
#include "trees/single_level.hpp"

namespace hqr {
namespace {

SimOptions small_opts() {
  SimOptions o;
  o.platform = Platform::edel();
  o.platform.nodes = 6;
  o.b = 64;
  return o;
}

TaskGraph graph_for(const EliminationList& list, int mt, int nt) {
  return TaskGraph(expand_to_kernels(list, mt, nt), mt, nt);
}

TEST(Simulator, SingleTaskOnSingleNode) {
  SimOptions o = small_opts();
  o.platform.nodes = 1;
  TaskGraph g = graph_for({}, 1, 1);
  auto dist = Distribution::cyclic_1d(1);
  SimResult r = simulate_qr(g, dist, o.b, o.b, o);
  EXPECT_NEAR(r.seconds, o.platform.kernel_seconds(KernelType::GEQRT, o.b),
              1e-12);
  EXPECT_EQ(r.messages, 0);
  EXPECT_EQ(r.tasks, 1);
}

TEST(Simulator, SequentialChainSumsDurations) {
  // Flat TS on one node, one core: makespan == total work.
  SimOptions o = small_opts();
  o.platform.nodes = 1;
  o.platform.cores_per_node = 1;
  TaskGraph g = graph_for(flat_ts_list(4, 2), 4, 2);
  auto dist = Distribution::cyclic_1d(1);
  SimResult r = simulate_qr(g, dist, 4 * o.b, 2 * o.b, o);
  const double work = g.total_work([&](const KernelOp& op) {
    return o.platform.kernel_seconds(op.type, o.b);
  });
  EXPECT_NEAR(r.seconds, work, 1e-9);
  EXPECT_NEAR(r.core_utilization, 1.0, 1e-9);
}

TEST(Simulator, MakespanNeverBelowCriticalPath) {
  SimOptions o = small_opts();
  HqrConfig cfg{3, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
  TaskGraph g = graph_for(hqr_elimination_list(24, 10, cfg), 24, 10);
  auto dist = Distribution::block_cyclic_2d(3, 2);
  SimResult r = simulate_qr(g, dist, 24 * o.b, 10 * o.b, o);
  EXPECT_GE(r.seconds, r.critical_path_seconds - 1e-12);
}

TEST(Simulator, MakespanNeverBelowPerNodeWork) {
  SimOptions o = small_opts();
  TaskGraph g = graph_for(flat_ts_list(24, 10), 24, 10);
  auto dist = Distribution::block_cyclic_2d(3, 2);
  SimResult r = simulate_qr(g, dist, 24 * o.b, 10 * o.b, o);
  // Total work / total cores is a lower bound too.
  const double work = g.total_work([&](const KernelOp& op) {
    return o.platform.kernel_seconds(op.type, o.b);
  });
  EXPECT_GE(r.seconds,
            work / (o.platform.cores_per_node * dist.nodes()) - 1e-12);
  EXPECT_LE(r.core_utilization, 1.0 + 1e-12);
}

TEST(Simulator, IntraNodeRunHasNoMessages) {
  SimOptions o = small_opts();
  o.platform.nodes = 1;
  TaskGraph g = graph_for(greedy_global_list(12, 6).list, 12, 6);
  auto dist = Distribution::cyclic_1d(1);
  SimResult r = simulate_qr(g, dist, 12 * o.b, 6 * o.b, o);
  EXPECT_EQ(r.messages, 0);
  EXPECT_EQ(r.volume_gbytes, 0.0);
}

TEST(Simulator, DistributedRunCountsMessages) {
  SimOptions o = small_opts();
  TaskGraph g = graph_for(flat_ts_list(12, 6), 12, 6);
  auto dist = Distribution::cyclic_1d(6);
  SimResult r = simulate_qr(g, dist, 12 * o.b, 6 * o.b, o);
  EXPECT_GT(r.messages, 0);
  EXPECT_GT(r.volume_gbytes, 0.0);
}

TEST(Simulator, HqrSendsFewerMessagesThanDistributionUnawareFlat) {
  // The communication-avoiding claim (§IV-A): with the same 2D distribution,
  // HQR's high-level tree sends far fewer inter-node messages than the
  // distribution-unaware flat tree of [BBD+10].
  SimOptions o = small_opts();
  const int mt = 36, nt = 6, p = 3, q = 2;
  auto bbd = make_bbd10_run(mt, nt, p, q);
  HqrConfig cfg{p, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
  auto hqr_run = make_hqr_run(mt, nt, cfg, q);
  SimResult r_bbd = simulate_algorithm(bbd, mt * o.b, nt * o.b, o);
  SimResult r_hqr = simulate_algorithm(hqr_run, mt * o.b, nt * o.b, o);
  EXPECT_LT(r_hqr.messages, r_bbd.messages);
}

TEST(Simulator, MoreNodesNeverSlowerOnBigProblem) {
  SimOptions o = small_opts();
  HqrConfig cfg3{3, 1, TreeKind::Greedy, TreeKind::Greedy, true};
  HqrConfig cfg6{6, 1, TreeKind::Greedy, TreeKind::Greedy, true};
  const int mt = 48, nt = 8;
  auto r3 = simulate_algorithm(make_hqr_run(mt, nt, cfg3, 1), mt * o.b,
                               nt * o.b, o);
  auto r6 = simulate_algorithm(make_hqr_run(mt, nt, cfg6, 1), mt * o.b,
                               nt * o.b, o);
  EXPECT_LE(r6.seconds, r3.seconds * 1.05);
}

TEST(Simulator, ZeroLatencyInfiniteBandwidthMatchesSharedMemory) {
  SimOptions o = small_opts();
  o.platform.latency = 0.0;
  o.platform.bandwidth = 1e30;
  const int mt = 12, nt = 6;
  TaskGraph g = graph_for(greedy_global_list(mt, nt).list, mt, nt);
  SimResult dist6 =
      simulate_qr(g, Distribution::cyclic_1d(6), mt * o.b, nt * o.b, o);
  SimOptions o1 = o;
  o1.platform.nodes = 1;
  o1.platform.cores_per_node = o.platform.cores_per_node * 6;
  SimResult shared =
      simulate_qr(g, Distribution::cyclic_1d(1), mt * o.b, nt * o.b, o1);
  // Free communication: the distributed run can only be >= the shared one
  // (owner-computes restricts placement) but should be close on this shape.
  EXPECT_GE(dist6.seconds, shared.seconds - 1e-12);
  EXPECT_LT(dist6.seconds, shared.seconds * 2.0);
}

TEST(Simulator, TraceCoversEveryTaskConsistently) {
  SimOptions o = small_opts();
  SimTrace trace;
  o.trace = &trace;
  const int mt = 12, nt = 6;
  TaskGraph g = graph_for(greedy_global_list(mt, nt).list, mt, nt);
  auto dist = Distribution::cyclic_1d(6);
  SimResult r = simulate_qr(g, dist, mt * o.b, nt * o.b, o);
  ASSERT_EQ(static_cast<long long>(trace.size()), r.tasks);
  double max_end = 0.0;
  for (const auto& e : trace.sorted_events()) {
    EXPECT_GE(e.start, 0.0);
    EXPECT_GT(e.end, e.start);
    EXPECT_GE(e.lane, 0);
    EXPECT_LT(e.lane, dist.nodes());
    max_end = std::max(max_end, e.end);
  }
  EXPECT_NEAR(max_end, r.seconds, 1e-12);
  EXPECT_NEAR(trace.makespan(), r.seconds, 1e-12);
}

TEST(Simulator, TraceRespectsCoreCapacity) {
  // At no instant can a node run more tasks than it has cores.
  SimOptions o = small_opts();
  o.platform.cores_per_node = 2;
  SimTrace trace;
  o.trace = &trace;
  const int mt = 16, nt = 8;
  TaskGraph g = graph_for(greedy_global_list(mt, nt).list, mt, nt);
  auto dist = Distribution::cyclic_1d(3);
  simulate_qr(g, dist, mt * o.b, nt * o.b, o);
  // Sweep events per node: overlapping intervals must never exceed 2.
  const auto events = trace.sorted_events();
  for (int nd = 0; nd < 3; ++nd) {
    std::vector<std::pair<double, int>> sweep;
    for (const auto& e : events) {
      if (e.lane != nd) continue;
      sweep.push_back({e.start, +1});
      sweep.push_back({e.end, -1});
    }
    std::sort(sweep.begin(), sweep.end(),
              [](const auto& x, const auto& y) {
                if (x.first != y.first) return x.first < y.first;
                return x.second < y.second;  // ends before starts at ties
              });
    int running = 0;
    for (const auto& [t, d] : sweep) {
      running += d;
      EXPECT_LE(running, 2) << "node " << nd << " at t=" << t;
    }
  }
}

TEST(Simulator, NodeBusyFractionsMatchUtilization) {
  SimOptions o = small_opts();
  const int mt = 18, nt = 6;
  TaskGraph g = graph_for(flat_ts_list(mt, nt), mt, nt);
  auto dist = Distribution::cyclic_1d(6);
  SimResult r = simulate_qr(g, dist, mt * o.b, nt * o.b, o);
  ASSERT_EQ(r.node_busy_fraction.size(), 6u);
  double mean = 0.0;
  for (double f : r.node_busy_fraction) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0 + 1e-12);
    mean += f;
  }
  mean /= 6.0;
  EXPECT_NEAR(mean, r.core_utilization, 1e-9);
}

TEST(Simulator, TraceCsvRoundTrips) {
  SimTrace trace;
  trace.add({.task = 0, .lane = 1, .type = KernelType::GEQRT, .end = 1.5});
  trace.add(
      {.task = 1, .lane = 0, .type = KernelType::TSMQR, .start = 1.5, .end = 2.0});
  const std::string path = ::testing::TempDir() + "/trace.csv";
  trace.save_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "task,lane,sub,kernel,start,end,row,piv,k,j");
  do {  // skip '#' metadata lines
    std::getline(in, line);
  } while (!line.empty() && line[0] == '#');
  EXPECT_NE(line.find("GEQRT"), std::string::npos);
}

TEST(Simulator, TraceSaveReportsUnwritablePath) {
  SimTrace trace;
  trace.add({.task = 0, .lane = 0, .type = KernelType::GEQRT, .end = 1.0});
  EXPECT_THROW(trace.save_csv("/nonexistent-dir/trace.csv"), Error);
  EXPECT_THROW(trace.save_chrome_json("/nonexistent-dir/trace.json"), Error);
  EXPECT_THROW(trace.save("/nonexistent-dir/trace.json"), Error);
}

TEST(Simulator, NicBusyAndCommStealAccounting) {
  SimOptions o = small_opts();
  const int mt = 12, nt = 6;
  TaskGraph g = graph_for(flat_ts_list(mt, nt), mt, nt);
  SimResult r = simulate_qr(g, Distribution::cyclic_1d(6), mt * o.b,
                            nt * o.b, o);
  ASSERT_EQ(r.nic_send_busy_seconds.size(), 6u);
  ASSERT_EQ(r.nic_recv_busy_seconds.size(), 6u);
  // Every message occupies exactly `wire` seconds of one send NIC and one
  // receive NIC.
  const double wire =
      static_cast<double>(o.b) * o.b * sizeof(double) / o.platform.bandwidth;
  double send_total = 0.0, recv_total = 0.0;
  for (double s : r.nic_send_busy_seconds) send_total += s;
  for (double s : r.nic_recv_busy_seconds) recv_total += s;
  EXPECT_NEAR(send_total, r.messages * wire, 1e-9);
  EXPECT_NEAR(recv_total, r.messages * wire, 1e-9);
  // Comm-thread CPU: charged on both endpoints, drained at most fully.
  EXPECT_GT(r.comm_cpu_charged_seconds, 0.0);
  EXPECT_GE(r.comm_cpu_stolen_seconds, 0.0);
  EXPECT_LE(r.comm_cpu_stolen_seconds, r.comm_cpu_charged_seconds + 1e-12);
  // Per-kernel breakdown covers every task.
  long long by_kernel = 0;
  for (long long c : r.tasks_by_kernel) by_kernel += c;
  EXPECT_EQ(by_kernel, r.tasks);
  // Kernel-seconds include the comm-steal stretch, so they bound the pure
  // busy time from below only up to that stretch.
  double kernel_seconds = 0.0;
  for (double s : r.seconds_by_kernel) kernel_seconds += s;
  EXPECT_GT(kernel_seconds, 0.0);
}

TEST(Simulator, ZeroCommRunHasNoNicBusyOrSteal) {
  SimOptions o = small_opts();
  o.platform.nodes = 1;
  TaskGraph g = graph_for(flat_ts_list(8, 4), 8, 4);
  SimResult r = simulate_qr(g, Distribution::cyclic_1d(1), 8 * o.b, 4 * o.b, o);
  EXPECT_EQ(r.messages, 0);
  EXPECT_EQ(r.comm_cpu_charged_seconds, 0.0);
  EXPECT_EQ(r.comm_cpu_stolen_seconds, 0.0);
  for (double s : r.nic_send_busy_seconds) EXPECT_EQ(s, 0.0);
}

TEST(Simulator, MetricsRegistryReceivesSimCounters) {
  SimOptions o = small_opts();
  obs::MetricsRegistry metrics;
  o.metrics = &metrics;
  const int mt = 12, nt = 6;
  TaskGraph g = graph_for(flat_ts_list(mt, nt), mt, nt);
  SimResult r = simulate_qr(g, Distribution::cyclic_1d(6), mt * o.b,
                            nt * o.b, o);
  EXPECT_EQ(metrics.counter("sim.tasks").value(), r.tasks);
  EXPECT_EQ(metrics.counter("sim.messages").value(), r.messages);
  EXPECT_NEAR(metrics.gauge("sim.makespan_seconds").value(), r.seconds, 1e-12);
}

TEST(Simulator, CustomRunDecouplesVirtualGridFromDistribution) {
  // §IV-A: the virtual grid of the elimination list and the physical
  // distribution are independent. Run an HQR p=3 list on a cyclic-over-6
  // distribution: still simulates fine, just with more cross-node traffic
  // than the matched mapping.
  SimOptions o = small_opts();
  const int mt = 24, nt = 6;
  HqrConfig cfg{3, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
  auto list = hqr_elimination_list(mt, nt, cfg);
  auto matched = make_hqr_run(mt, nt, cfg, 2);
  auto mismatched = make_custom_run("hqr on mismatched dist", list,
                                    Distribution::cyclic_1d(6), mt, nt);
  SimResult rm = simulate_algorithm(matched, mt * o.b, nt * o.b, o);
  SimResult rx = simulate_algorithm(mismatched, mt * o.b, nt * o.b, o);
  EXPECT_GT(rx.messages, rm.messages);
}

TEST(Simulator, UsefulFlopsFormula) {
  EXPECT_DOUBLE_EQ(qr_useful_flops(3, 1), 2.0 * 3 - 2.0 / 3.0);
  // Square: 4/3 n^3.
  EXPECT_NEAR(qr_useful_flops(100, 100) / (4.0 / 3.0 * 1e6), 1.0, 1e-12);
}

TEST(Simulator, GflopsConsistentWithSecondsAndFlops) {
  SimOptions o = small_opts();
  TaskGraph g = graph_for(flat_ts_list(8, 4), 8, 4);
  auto dist = Distribution::cyclic_1d(2);
  SimResult r = simulate_qr(g, dist, 8 * o.b, 4 * o.b, o);
  EXPECT_NEAR(r.gflops * r.seconds, r.useful_gflop, 1e-9);
  EXPECT_NEAR(r.peak_fraction * o.platform.theoretical_peak_gflops(),
              r.gflops, 1e-9);
}

}  // namespace
}  // namespace hqr
