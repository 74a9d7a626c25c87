#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <ostream>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "trees/hqr_tree.hpp"
#include "trees/single_level.hpp"

namespace hqr {
namespace {

constexpr double kTol = 1e-12;

void expect_exact(const Matrix& a0, const QRFactors& f) {
  Matrix q = build_q(f);
  EXPECT_LT(orthogonality_error(q.view()), kTol);
  Matrix qs = materialize(q.block(0, 0, a0.rows(), f.n()));
  EXPECT_LT(factorization_residual(a0.view(), qs.view(), extract_r(f).view()),
            kTol);
}

EliminationList flat_list(int mt, int nt) { return flat_ts_list(mt, nt); }
EliminationList greedy_list(int mt, int nt) {
  return greedy_global_list(mt, nt).list;
}
EliminationList binary_flat_list(int mt, int nt) {
  return hqr_elimination_list(
      mt, nt, HqrConfig{2, 2, TreeKind::Binary, TreeKind::Flat, true});
}
EliminationList greedy_fibonacci_list(int mt, int nt) {
  return hqr_elimination_list(
      mt, nt, HqrConfig{3, 2, TreeKind::Greedy, TreeKind::Fibonacci, true});
}

// An elimination order, named for the test suffix. Each gives the pool a
// different DAG shape: the flat tree's panel fans out to every trailing
// update at once, the greedy tree has the shortest critical path, and the
// two hierarchical trees mix both.
struct TreeCase {
  const char* name;
  EliminationList (*list)(int mt, int nt);
};
void PrintTo(const TreeCase& c, std::ostream* os) { *os << c.name; }

// Parameters: (worker threads, elimination order).
class ExecutorConfigs
    : public ::testing::TestWithParam<std::tuple<int, TreeCase>> {};

TEST_P(ExecutorConfigs, ParallelFactorizationIsExact) {
  const auto& [threads, tree] = GetParam();
  Rng rng(42 + threads);
  Matrix a0 = random_gaussian(36, 20, rng);
  const ExecutorOptions opts{.threads = threads};
  RunStats stats;
  QRFactors f = qr_factorize_parallel(a0, 4, tree.list(9, 5), opts, &stats);
  expect_exact(a0, f);
  EXPECT_EQ(stats.threads, threads);
  long long total = 0;
  for (long long t : stats.tasks_per_thread) total += t;
  EXPECT_EQ(total, stats.total_tasks);
  // Every task reaches a lane either kept by its predecessor or popped.
  EXPECT_EQ(stats.reuse_hits + stats.queue_pops, stats.total_tasks);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndTrees, ExecutorConfigs,
    ::testing::Combine(
        ::testing::Values(1, 2, 4, 8),
        ::testing::Values(TreeCase{"FlatTs", flat_list},
                          TreeCase{"Greedy", greedy_list},
                          TreeCase{"BinaryFlat", binary_flat_list},
                          TreeCase{"GreedyFibonacci", greedy_fibonacci_list})));

// Bit-identity rows: kernels on dependent tiles are ordered by the graph
// and independent kernels touch disjoint tiles, so every schedule the pool
// may pick — any worker count, any interleaving — reproduces the
// sequential factors to the last bit.
struct IdentityCase {
  const char* name;
  int m, n, b;
  int threads;
  int runs;  // repeated runs, each compared with the sequential result
  EliminationList (*list)(int mt, int nt);
};

// Tests are named after the case: ctest takes the printed value as the
// name suffix, and the default byte dump would include pointers.
void PrintTo(const IdentityCase& c, std::ostream* os) { *os << c.name; }

class ExecutorIdentity : public ::testing::TestWithParam<IdentityCase> {};

TEST_P(ExecutorIdentity, BitIdenticalToSequential) {
  const IdentityCase& c = GetParam();
  Rng rng(118 + c.threads);
  Matrix a0 = random_gaussian(c.m, c.n, rng);
  const EliminationList list = c.list(c.m / c.b, c.n / c.b);
  const Matrix seq =
      qr_factorize_sequential(a0, c.b, list).a().to_padded_matrix();
  const ExecutorOptions opts{.threads = c.threads};
  for (int run = 0; run < c.runs; ++run) {
    RunStats stats;
    QRFactors f = qr_factorize_parallel(a0, c.b, list, opts, &stats);
    EXPECT_EQ(stats.reuse_hits + stats.queue_pops, stats.total_tasks);
    EXPECT_EQ(max_abs_diff(seq.view(), f.a().to_padded_matrix().view()), 0.0)
        << "run " << run;
    if (run == 0) expect_exact(a0, f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ExecutorIdentity,
    ::testing::Values(
        // Tiny tiles and a wide-fanout elimination order: far more ready
        // tasks than workers, so all eight workers contend for the queue.
        IdentityCase{"WideFanoutTinyTiles8Workers", 120, 60, 4, 8, 1,
                     greedy_list},
        IdentityCase{"RepeatedRuns8Workers", 40, 20, 4, 8, 5,
                     binary_flat_list},
        IdentityCase{"PriorityOn1Worker", 48, 28, 4, 1, 1,
                     greedy_fibonacci_list},
        IdentityCase{"PriorityOn2Workers", 48, 28, 4, 2, 1,
                     greedy_fibonacci_list},
        IdentityCase{"PriorityOn8Workers", 48, 28, 4, 8, 1,
                     greedy_fibonacci_list}));

TEST(Executor, MatchesSequentialResultBitwiseSingleThread) {
  // One worker with priority ordering executes a deterministic schedule;
  // R must match the sequential driver exactly (same kernels, same order up
  // to commutativity of disjoint tiles -> identical floating point).
  Rng rng(7);
  Matrix a0 = random_gaussian(24, 12, rng);
  auto list = greedy_global_list(6, 3).list;
  QRFactors seq = qr_factorize_sequential(a0, 4, list);
  ExecutorOptions opts{.threads = 1};
  QRFactors par = qr_factorize_parallel(a0, 4, list, opts);
  Matrix rs = extract_r(seq);
  Matrix rp = extract_r(par);
  EXPECT_EQ(max_abs_diff(rs.view(), rp.view()), 0.0);
}

TEST(Executor, ManyThreadsMoreThanTasks) {
  Rng rng(9);
  Matrix a0 = random_gaussian(4, 4, rng);
  ExecutorOptions opts{.threads = 16};
  QRFactors f = qr_factorize_parallel(a0, 4, flat_ts_list(1, 1), opts);
  expect_exact(a0, f);
}

TEST(Executor, RepeatedRunsAreNumericallyIdentical) {
  // The DAG fixes the computation regardless of interleaving: every run
  // must produce the same R (kernels on disjoint tiles commute exactly).
  Rng rng(11);
  Matrix a0 = random_gaussian(32, 16, rng);
  HqrConfig cfg{2, 2, TreeKind::Binary, TreeKind::Flat, true};
  auto list = hqr_elimination_list(8, 4, cfg);
  ExecutorOptions opts{.threads = 4};
  Matrix r_first = extract_r(qr_factorize_parallel(a0, 4, list, opts));
  for (int rep = 0; rep < 5; ++rep) {
    Matrix r = extract_r(qr_factorize_parallel(a0, 4, list, opts));
    EXPECT_EQ(max_abs_diff(r_first.view(), r.view()), 0.0) << "rep " << rep;
  }
}

TEST(Executor, InvalidThreadCountThrows) {
  Rng rng(13);
  Matrix a0 = random_gaussian(8, 8, rng);
  ExecutorOptions opts{.threads = 0};
  EXPECT_THROW(qr_factorize_parallel(a0, 4, flat_ts_list(2, 2), opts), Error);
}

TEST(Executor, StatsTraceAndMetricsAgreeOnTaskCounts) {
  Rng rng(19);
  Matrix a0 = random_gaussian(48, 24, rng);
  ExecutorOptions opts{.threads = 4};
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  opts.trace = &trace;
  opts.metrics = &metrics;
  RunStats stats;
  QRFactors f = qr_factorize_parallel(
      a0, 4, greedy_global_list(12, 6).list, opts, &stats);
  expect_exact(a0, f);

  // Per-thread counts account for every task...
  long long per_thread = 0;
  for (long long t : stats.tasks_per_thread) per_thread += t;
  EXPECT_EQ(per_thread, stats.total_tasks);
  // ...as do the per-kernel counts, the trace, and the metrics registry.
  long long per_kernel = 0;
  for (long long t : stats.tasks_by_kernel) per_kernel += t;
  EXPECT_EQ(per_kernel, stats.total_tasks);
  EXPECT_EQ(static_cast<long long>(trace.size()), stats.total_tasks);
  EXPECT_EQ(metrics.counter("exec.tasks").value(), stats.total_tasks);
  // Every task was either kept by the data-reuse heuristic or popped from
  // a ready queue, and the metrics registry mirrors both counts.
  EXPECT_EQ(stats.reuse_hits + stats.queue_pops, stats.total_tasks);
  EXPECT_EQ(metrics.counter("exec.reuse_hits").value(), stats.reuse_hits);
  EXPECT_EQ(metrics.counter("exec.queue_pops").value(), stats.queue_pops);

  // Observed run fills the timing breakdowns.
  ASSERT_EQ(stats.busy_seconds_per_thread.size(), 4u);
  double busy = 0.0;
  for (double s : stats.busy_seconds_per_thread) busy += s;
  double by_kernel = 0.0;
  for (double s : stats.seconds_by_kernel) by_kernel += s;
  EXPECT_NEAR(busy, by_kernel, 1e-9);
  EXPECT_GT(busy, 0.0);

  // Trace events never overlap within a worker lane.
  auto events = trace.sorted_events();
  std::map<int, double> cursor;
  for (const auto& e : events) {
    auto it = cursor.find(e.lane);
    if (it != cursor.end()) {
      EXPECT_GE(e.start, it->second - 1e-12);
    }
    cursor[e.lane] = e.end;
  }
}

TEST(Executor, ObservedRunCountsEveryKernelOfTheGraph) {
  // Per-kernel counts mirror the graph's kernel mix, and every kernel type
  // that ran has its own seconds and histogram; absent types stay at zero.
  Rng rng(37);
  Matrix a0 = random_gaussian(40, 24, rng);
  const auto list = greedy_global_list(10, 6).list;
  const KernelList kernels = expand_to_kernels(list, 10, 6);
  std::array<long long, kKernelTypeCount> expected{};
  for (const KernelOp& op : kernels)
    ++expected[static_cast<std::size_t>(kernel_type_index(op.type))];
  ExecutorOptions opts{.threads = 3};
  obs::MetricsRegistry metrics;
  opts.metrics = &metrics;
  RunStats stats;
  QRFactors f = qr_factorize_parallel(a0, 4, list, opts, &stats);
  expect_exact(a0, f);
  EXPECT_EQ(stats.total_tasks, static_cast<long long>(kernels.size()));
  for (int k = 0; k < kKernelTypeCount; ++k) {
    const auto ki = static_cast<std::size_t>(k);
    const std::string name = kernel_name(static_cast<KernelType>(k));
    EXPECT_EQ(stats.tasks_by_kernel[ki], expected[ki]) << name;
    EXPECT_EQ(metrics.histogram("exec.task_seconds." + name).count(),
              expected[ki])
        << name;
    if (expected[ki] == 0) {
      EXPECT_EQ(stats.seconds_by_kernel[ki], 0.0) << name;
    }
  }
}

TEST(Executor, MetricsOnlyRunFillsTimingBreakdowns) {
  // A metrics sink alone makes the run observed: per-lane busy, idle and
  // terminal-wait seconds are filled and published per worker lane.
  Rng rng(41);
  Matrix a0 = random_gaussian(48, 24, rng);
  ExecutorOptions opts{.threads = 3};
  obs::MetricsRegistry metrics;
  opts.metrics = &metrics;
  RunStats stats;
  qr_factorize_parallel(a0, 4, greedy_global_list(12, 6).list, opts, &stats);
  ASSERT_EQ(stats.busy_seconds_per_thread.size(), 3u);
  ASSERT_EQ(stats.idle_seconds_per_thread.size(), 3u);
  ASSERT_EQ(stats.terminal_wait_seconds_per_thread.size(), 3u);
  double busy = 0.0;
  for (std::size_t t = 0; t < 3; ++t) {
    busy += stats.busy_seconds_per_thread[t];
    const std::string lane = "exec.worker." + std::to_string(t);
    EXPECT_EQ(metrics.gauge(lane + ".busy_seconds").value(),
              stats.busy_seconds_per_thread[t]);
    EXPECT_EQ(metrics.gauge(lane + ".terminal_wait_seconds").value(),
              stats.terminal_wait_seconds_per_thread[t]);
  }
  double by_kernel = 0.0;
  for (double s : stats.seconds_by_kernel) by_kernel += s;
  EXPECT_NEAR(busy, by_kernel, 1e-9);
  EXPECT_GT(busy, 0.0);
  EXPECT_EQ(metrics.counter("exec.tasks").value(), stats.total_tasks);
}

TEST(Executor, UnobservedRunSkipsTimingBreakdowns) {
  Rng rng(23);
  Matrix a0 = random_gaussian(16, 8, rng);
  ExecutorOptions opts{.threads = 2};
  RunStats stats;
  qr_factorize_parallel(a0, 4, flat_ts_list(4, 2), opts, &stats);
  EXPECT_TRUE(stats.busy_seconds_per_thread.empty());
  EXPECT_TRUE(stats.idle_seconds_per_thread.empty());
  EXPECT_TRUE(stats.terminal_wait_seconds_per_thread.empty());
  EXPECT_GT(stats.total_tasks, 0);
}

TEST(Executor, OneThreadTracedRunReportsNoIdle) {
  // A single worker never waits for ready work: every acquire finds a task
  // (or termination) immediately, so idle must stay ~zero. The terminal
  // acquire is reported separately, never as idle.
  Rng rng(31);
  Matrix a0 = random_gaussian(32, 16, rng);
  ExecutorOptions opts{.threads = 1};
  obs::TraceRecorder trace;
  opts.trace = &trace;
  RunStats stats;
  qr_factorize_parallel(a0, 4, greedy_global_list(8, 4).list, opts, &stats);
  ASSERT_EQ(stats.idle_seconds_per_thread.size(), 1u);
  EXPECT_LT(stats.idle_seconds_per_thread[0], 5e-3);
  ASSERT_EQ(stats.terminal_wait_seconds_per_thread.size(), 1u);
}

TEST(Executor, ShutdownWaitNotBookedAsIdle) {
  // One task, eight workers: seven of them only ever see the termination
  // barrier. That wait must land in terminal_wait_seconds_per_thread, not
  // inflate the per-lane idle (stall) numbers.
  Rng rng(33);
  Matrix a0 = random_gaussian(4, 4, rng);
  ExecutorOptions opts{.threads = 8};
  obs::TraceRecorder trace;
  opts.trace = &trace;
  RunStats stats;
  QRFactors f = qr_factorize_parallel(a0, 4, flat_ts_list(1, 1), opts, &stats);
  expect_exact(a0, f);
  EXPECT_EQ(stats.total_tasks, 1);
  double idle = 0.0;
  for (double s : stats.idle_seconds_per_thread) idle += s;
  EXPECT_LT(idle, 5e-3);
  ASSERT_EQ(stats.terminal_wait_seconds_per_thread.size(), 8u);
}

TEST(Executor, BatchedReleaseWideFanoutStaysExact) {
  // A flat-tree panel factorization makes every trailing-column update
  // ready at once when it completes — the widest successor batches the
  // scheduler's single-lock release path sees. All but the one kept
  // successor flow through the queue; the factorization must stay at
  // machine precision, here with inner-blocked kernels too.
  Rng rng(29);
  Matrix a0 = random_gaussian(72, 40, rng);
  for (int ib : {0, 4}) {
    const ExecutorOptions opts{.threads = 8, .ib = ib};
    RunStats stats;
    QRFactors f = qr_factorize_parallel(a0, 8, flat_ts_list(9, 5), opts,
                                        &stats);
    expect_exact(a0, f);
    EXPECT_EQ(stats.reuse_hits + stats.queue_pops, stats.total_tasks);
  }
}

TEST(Executor, StressManySmallTilesManyThreads) {
  Rng rng(17);
  Matrix a0 = random_gaussian(60, 30, rng);
  ExecutorOptions opts{.threads = 8};
  QRFactors f = qr_factorize_parallel(
      a0, 2, greedy_global_list(30, 15).list, opts);
  expect_exact(a0, f);
}

}  // namespace
}  // namespace hqr
