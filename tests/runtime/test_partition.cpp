// In-process tests of the partitioned executor (the distributed runtime's
// per-rank engine, minus the sockets): two execute_partition calls share
// one QRFactors in the same address space, each runs its owner-computes
// slice, and each engine's on_complete feeds the peer's RemotePort — the
// same release protocol the communication thread drives in src/distrun/,
// with the wire replaced by shared memory.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/factorization.hpp"
#include "dag/partition.hpp"
#include "linalg/random_matrix.hpp"
#include "runtime/executor.hpp"
#include "trees/hqr_tree.hpp"

namespace hqr {
namespace {

struct Problem {
  Matrix a;
  KernelList kernels;
  TaskGraph graph;
  CommPlan plan;
  int b;
};

Problem make_problem(int m, int n, int b, const Distribution& dist) {
  Rng rng(3);
  Matrix a = random_gaussian(m, n, rng);
  const TiledMatrix probe = TiledMatrix::from_matrix(a, b);
  HqrConfig cfg{4, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
  KernelList kernels = expand_to_kernels(
      hqr_elimination_list(probe.mt(), probe.nt(), cfg), probe.mt(),
      probe.nt());
  TaskGraph graph(kernels, probe.mt(), probe.nt());
  CommPlan plan(graph, dist);
  return {std::move(a), std::move(kernels), std::move(graph), std::move(plan),
          b};
}

bool same_matrix(const TiledMatrix& x, const TiledMatrix& y) {
  const Matrix mx = x.to_padded_matrix();
  const Matrix my = y.to_padded_matrix();
  for (int j = 0; j < mx.cols(); ++j)
    for (int i = 0; i < mx.rows(); ++i)
      if (mx(i, j) != my(i, j)) return false;
  return true;
}

// All tasks mapped to the caller's rank: the partitioned engine degenerates
// to execute_parallel and must produce the sequential result.
TEST(Partition, WholeGraphLocalMatchesSequential) {
  Problem p = make_problem(128, 96, 32, Distribution::cyclic_1d(1));
  QRFactors f(TiledMatrix::from_matrix(p.a, p.b), p.kernels, 0);
  PartitionView view;
  view.task_rank = &p.plan.node();
  view.my_rank = 0;
  ExecutorOptions opts;
  opts.threads = 2;
  const RunStats stats = execute_partition(
      f, p.graph, opts, view, [](RemotePort&) {}, {});
  EXPECT_EQ(stats.total_tasks, p.graph.size());

  QRFactors ref = qr_factorize_sequential(p.a, p.b,
      hqr_elimination_list(f.a().mt(), f.a().nt(),
                           HqrConfig{4, 2, TreeKind::Greedy,
                                     TreeKind::Fibonacci, true}),
      0);
  EXPECT_TRUE(same_matrix(f.a(), ref.a()));
}

// Runs two engines over one shared QRFactors, cross-wired through
// RemotePort: each on_complete releases the peer's successors, exactly like
// the distributed runtime's receive path (shared memory stands in for the
// payload transfer). Rank 1 runs on a second thread, so its completions
// reach rank 0's pool from outside it, and vice versa.
std::array<RunStats, 2> run_cross_wired(const Problem& p, QRFactors& f,
                                        const std::array<ExecutorOptions, 2>&
                                            opts) {
  const std::vector<std::int32_t>& rank = p.plan.node();
  std::atomic<RemotePort*> port[2] = {nullptr, nullptr};
  std::atomic<bool> done[2] = {false, false};
  std::array<RunStats, 2> stats;

  auto run_rank = [&](int me) {
    const int peer = 1 - me;
    PartitionView view;
    view.task_rank = &rank;
    view.my_rank = me;
    view.on_complete = [&, me, peer](std::int32_t t) {
      // Notify the peer engine about producers it consumes, once per
      // producer (the plan's dests() dedup, same as the wire protocol).
      if (p.plan.dests(t).empty()) return;
      RemotePort* pp = nullptr;
      while ((pp = port[peer].load()) == nullptr) std::this_thread::yield();
      pp->remote_complete(t);
    };
    stats[static_cast<std::size_t>(me)] = execute_partition(
        f, p.graph, opts[static_cast<std::size_t>(me)], view,
        [&](RemotePort& pt) { port[me].store(&pt); },
        [&] {
          // Keep the port alive until the peer can no longer call into it.
          done[me].store(true);
          while (!done[peer].load()) std::this_thread::yield();
        });
  };

  std::thread t1([&] { run_rank(1); });
  run_rank(0);
  t1.join();
  return stats;
}

void expect_cross_wired_exact(const std::array<ExecutorOptions, 2>& opts) {
  const Distribution dist = Distribution::block_cyclic_2d(2, 1);
  Problem p = make_problem(192, 128, 32, dist);
  QRFactors f(TiledMatrix::from_matrix(p.a, p.b), p.kernels, 0);
  const std::array<RunStats, 2> stats = run_cross_wired(p, f, opts);

  EXPECT_EQ(stats[0].total_tasks, p.plan.tasks_on(0));
  EXPECT_EQ(stats[1].total_tasks, p.plan.tasks_on(1));
  EXPECT_EQ(stats[0].total_tasks + stats[1].total_tasks, p.graph.size());

  QRFactors ref = qr_factorize_sequential(
      p.a, p.b,
      hqr_elimination_list(f.a().mt(), f.a().nt(),
                           HqrConfig{4, 2, TreeKind::Greedy,
                                     TreeKind::Fibonacci, true}),
      0);
  EXPECT_TRUE(same_matrix(f.a(), ref.a()));
}

TEST(Partition, TwoCrossWiredEnginesCoverTheGraph) {
  ExecutorOptions opts;
  opts.threads = 2;
  expect_cross_wired_exact({opts, opts});
}

// One lane per rank: the pool has no worker threads, so the engine's only
// lane (the caller) must sleep until the peer's completions wake it.
TEST(Partition, SingleLaneEnginesWaitOnRemoteCompletions) {
  ExecutorOptions opts;
  opts.threads = 1;
  expect_cross_wired_exact({opts, opts});
}

// A traced slice records one span per local task and nothing for the
// tasks the other rank ran.
TEST(Partition, TracedEnginesRecordOnlyTheirOwnSlice) {
  const Distribution dist = Distribution::cyclic_1d(2);
  Problem p = make_problem(128, 96, 32, dist);
  QRFactors f(TiledMatrix::from_matrix(p.a, p.b), p.kernels, 0);
  obs::TraceRecorder trace[2];
  std::array<ExecutorOptions, 2> opts;
  for (int r = 0; r < 2; ++r) {
    opts[static_cast<std::size_t>(r)].threads = 2;
    opts[static_cast<std::size_t>(r)].trace = &trace[r];
  }
  const std::array<RunStats, 2> stats = run_cross_wired(p, f, opts);
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(stats[static_cast<std::size_t>(r)].total_tasks,
              p.plan.tasks_on(r));
    EXPECT_EQ(static_cast<long long>(trace[r].size()), p.plan.tasks_on(r));
    for (const auto& e : trace[r].sorted_events())
      EXPECT_EQ(p.plan.node()[static_cast<std::size_t>(e.task)], r)
          << "rank " << r << " traced task " << e.task;
  }
}

// An exception from on_complete cancels the slice and is rethrown by
// execute_partition once the pool is down.
TEST(Partition, OnCompleteExceptionIsRethrown) {
  Problem p = make_problem(128, 96, 32, Distribution::cyclic_1d(1));
  QRFactors f(TiledMatrix::from_matrix(p.a, p.b), p.kernels, 0);
  PartitionView view;
  view.task_rank = &p.plan.node();
  view.my_rank = 0;
  std::atomic<int> completed{0};
  view.on_complete = [&](std::int32_t) {
    if (completed.fetch_add(1) == 0) throw Error("packing failed");
  };
  ExecutorOptions opts;
  opts.threads = 2;
  std::string what;
  try {
    execute_partition(f, p.graph, opts, view, [](RemotePort&) {});
  } catch (const Error& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("packing failed"), std::string::npos) << what;
  // The cancel stopped the slice long before its end.
  EXPECT_LT(completed.load(), p.graph.size());
}

TEST(Partition, TaskRankMustCoverTheGraph) {
  Problem p = make_problem(128, 64, 32, Distribution::cyclic_1d(2));
  QRFactors f(TiledMatrix::from_matrix(p.a, p.b), p.kernels, 0);
  const std::vector<std::int32_t> short_rank(
      static_cast<std::size_t>(p.graph.size() - 1), 0);
  PartitionView view;
  view.task_rank = &short_rank;
  ExecutorOptions opts;
  opts.threads = 2;
  EXPECT_THROW(execute_partition(f, p.graph, opts, view, [](RemotePort&) {}),
               Error);
  view.task_rank = nullptr;
  EXPECT_THROW(execute_partition(f, p.graph, opts, view, [](RemotePort&) {}),
               Error);
}

// cancel() unblocks an engine whose remote predecessors never arrive.
TEST(Partition, CancelUnblocksStarvedEngine) {
  const Distribution dist = Distribution::cyclic_1d(2);
  Problem p = make_problem(128, 64, 32, dist);
  QRFactors f(TiledMatrix::from_matrix(p.a, p.b), p.kernels, 0);

  PartitionView view;
  view.task_rank = &p.plan.node();
  view.my_rank = 1;  // rank 1 needs rank 0's tiles, which never come
  ExecutorOptions opts;
  opts.threads = 2;
  std::thread killer;
  const RunStats stats = execute_partition(
      f, p.graph, opts, view,
      [&](RemotePort& pt) {
        killer = std::thread([&pt] {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          pt.cancel();
        });
      },
      [&] { killer.join(); });
  // The engine returned (did not hang) without running its whole slice.
  EXPECT_LT(stats.total_tasks, p.graph.size());
}

}  // namespace
}  // namespace hqr
