#include "runtime/dag_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/factorization.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/tiled_matrix.hpp"
#include "runtime/executor.hpp"
#include "trees/single_level.hpp"

namespace hqr {
namespace {

// A factorization packaged for pool submission, the way the serve layer
// does it: graph and factors share one kernel list.
struct Job {
  std::shared_ptr<QRFactors> f;
  std::shared_ptr<const TaskGraph> graph;
};

Job make_job(const Matrix& a, int b, const EliminationList& list) {
  TiledMatrix t = TiledMatrix::from_matrix(a, b);
  KernelList ks = expand_to_kernels(list, t.mt(), t.nt());
  Job j;
  j.graph = std::make_shared<const TaskGraph>(ks, t.mt(), t.nt());
  j.f = std::make_shared<QRFactors>(std::move(t), std::move(ks), 0);
  return j;
}

DagPool::ExecuteFn exec_fn(std::shared_ptr<QRFactors> f) {
  return [f = std::move(f)](std::int32_t idx, TileWorkspace& ws) {
    execute_kernel(f->kernels()[static_cast<std::size_t>(idx)], *f, ws);
  };
}

// The single GEQRT op: a 1-task graph for pure scheduling tests (the exec
// fn ignores the op entirely).
std::shared_ptr<const TaskGraph> one_task_graph() {
  KernelList ks{{KernelType::GEQRT, 0, 0, 0, -1}};
  return std::make_shared<const TaskGraph>(ks, 1, 1);
}

TEST(DagPool, SingleDagBitIdenticalToSequential) {
  // Kernels write disjoint tile regions in dependency order, so any valid
  // pool schedule must reproduce the sequential R to the last bit.
  Rng rng(3);
  Matrix a0 = random_gaussian(40, 24, rng);
  auto list = flat_ts_list(5, 3);
  QRFactors seq = qr_factorize_sequential(a0, 8, list);

  for (int threads : {1, 4}) {
    DagPoolOptions opts;
    opts.threads = threads;
    DagPool pool(opts);
    Job j = make_job(a0, 8, list);
    DagId id = pool.submit(j.graph, 8, exec_fn(j.f));
    EXPECT_TRUE(pool.wait(id));
    EXPECT_EQ(max_abs_diff(extract_r(seq).view(), extract_r(*j.f).view()),
              0.0);
  }
}

TEST(DagPool, ExecutorPathBitIdenticalToSequential) {
  // qr_factorize_parallel submits its graph to a private pool; the result
  // must match the sequential factorization bitwise.
  Rng rng(5);
  Matrix a0 = random_gaussian(36, 20, rng);
  auto list = per_panel_tree_list(TreeKind::Binary, 9, 5);
  QRFactors seq = qr_factorize_sequential(a0, 4, list);
  QRFactors par = qr_factorize_parallel(a0, 4, list, {.threads = 4});
  EXPECT_EQ(max_abs_diff(seq.a().to_padded_matrix().view(),
                         par.a().to_padded_matrix().view()),
            0.0);
}

TEST(DagPool, EightConcurrentDagsOnOnePool) {
  // Gate every DAG on its (external) root so all eight are provably active
  // at once, then release them and check each result independently.
  constexpr int kDags = 8;
  Rng rng(7);
  DagPoolOptions opts;
  opts.threads = 4;
  DagPool pool(opts);

  std::vector<Matrix> inputs;
  std::vector<Job> jobs;
  std::vector<DagId> ids;
  std::vector<std::unique_ptr<RemotePort>> ports;
  for (int d = 0; d < kDags; ++d) {
    // Different shapes per request, like a multi-tenant mix.
    const int mt = 2 + d % 3, nt = 1 + d % 2;
    inputs.push_back(random_gaussian(8 * mt, 8 * nt, rng));
    jobs.push_back(make_job(inputs.back(), 8, flat_ts_list(mt, nt)));
    DagSubmitOptions sopts;
    sopts.external_tasks = {0};
    ids.push_back(pool.submit(jobs[d].graph, 8, exec_fn(jobs[d].f), sopts));
    ports.push_back(pool.port(ids.back()));
  }
  EXPECT_EQ(pool.active_dags(), kDags);

  // Run each root "externally" (exactly what a remote rank does), then
  // feed the completion through the per-DAG port.
  for (int d = 0; d < kDags; ++d) {
    TileWorkspace ws(8);
    execute_kernel(jobs[d].f->kernels()[0], *jobs[d].f, ws);
    ports[d]->remote_complete(0);
  }
  for (int d = 0; d < kDags; ++d) EXPECT_TRUE(pool.wait(ids[d]));
  EXPECT_GE(pool.stats().max_active_dags, kDags);

  for (int d = 0; d < kDags; ++d) {
    QRFactors seq = qr_factorize_sequential(
        inputs[d], 8, flat_ts_list(jobs[d].f->mt(), jobs[d].f->nt()));
    EXPECT_EQ(
        max_abs_diff(extract_r(seq).view(), extract_r(*jobs[d].f).view()),
        0.0)
        << "dag " << d;
  }
}

TEST(DagPool, ExternalCompletionIsNamespacedByDag) {
  // Regression: external completions used to be keyed by bare task id, so
  // a completion for DAG B's task 0 could release DAG A's successors. The
  // port binds the DAG id; completing B must not advance A.
  Rng rng(11);
  Matrix a = random_gaussian(32, 8, rng);
  auto list = flat_ts_list(4, 1);  // a single chain rooted at task 0
  DagPoolOptions opts;
  opts.threads = 2;
  DagPool pool(opts);

  Job ja = make_job(a, 8, list);
  Job jb = make_job(a, 8, list);
  DagSubmitOptions sopts;
  sopts.external_tasks = {0};
  DagId ida = pool.submit(ja.graph, 8, exec_fn(ja.f), sopts);
  DagId idb = pool.submit(jb.graph, 8, exec_fn(jb.f), sopts);
  auto porta = pool.port(ida);
  auto portb = pool.port(idb);

  TileWorkspace ws(8);
  execute_kernel(jb.f->kernels()[0], *jb.f, ws);
  portb->remote_complete(0);
  EXPECT_TRUE(pool.wait(idb));
  // A's root was never completed: it must still be pending, not finished
  // by B's identically-numbered task.
  EXPECT_EQ(pool.active_dags(), 1);

  execute_kernel(ja.f->kernels()[0], *ja.f, ws);
  porta->remote_complete(0);
  EXPECT_TRUE(pool.wait(ida));

  QRFactors seq = qr_factorize_sequential(a, 8, list);
  EXPECT_EQ(max_abs_diff(extract_r(seq).view(), extract_r(*ja.f).view()), 0.0);
  EXPECT_EQ(max_abs_diff(extract_r(seq).view(), extract_r(*jb.f).view()), 0.0);
}

TEST(DagPool, HigherPriorityDagRunsFirst) {
  DagPoolOptions opts;
  opts.threads = 1;  // serialize: admission order is fully observable
  DagPool pool(opts);

  // Hold the only worker inside a blocker DAG while the queue builds up.
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  DagId blocker = pool.submit(one_task_graph(), 1,
                              [released](std::int32_t, TileWorkspace&) {
                                released.wait();
                              });

  std::mutex mu;
  std::vector<int> order;
  auto recorder = [&](int label) {
    return [&, label](std::int32_t, TileWorkspace&) {
      std::lock_guard<std::mutex> lk(mu);
      order.push_back(label);
    };
  };
  DagSubmitOptions lo;
  lo.priority = 0;
  DagSubmitOptions hi;
  hi.priority = 5;
  DagId lo_id = pool.submit(one_task_graph(), 1, recorder(0), lo);
  DagId hi_id = pool.submit(one_task_graph(), 1, recorder(1), hi);

  release.set_value();
  EXPECT_TRUE(pool.wait(blocker));
  EXPECT_TRUE(pool.wait(lo_id));
  EXPECT_TRUE(pool.wait(hi_id));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // priority 5 beat priority 0 despite later submit
  EXPECT_EQ(order[1], 0);
}

TEST(DagPool, EqualPriorityDagsInterleaveFairly) {
  DagPoolOptions opts;
  opts.threads = 1;
  DagPool pool(opts);

  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  DagId blocker = pool.submit(one_task_graph(), 1,
                              [released](std::int32_t, TileWorkspace&) {
                                released.wait();
                              });

  // Two equal-priority chains; least-delivered-first must alternate them
  // (A1 B1 A2 B2 ...) instead of draining one whole chain first.
  Rng rng(13);
  Matrix a = random_gaussian(32, 8, rng);
  auto list = flat_ts_list(4, 1);
  Job ja = make_job(a, 8, list);
  Job jb = make_job(a, 8, list);
  std::mutex mu;
  std::vector<int> order;
  auto traced = [&](std::shared_ptr<QRFactors> f, int label) {
    return [&, f, label](std::int32_t idx, TileWorkspace& ws) {
      execute_kernel(f->kernels()[static_cast<std::size_t>(idx)], *f, ws);
      std::lock_guard<std::mutex> lk(mu);
      order.push_back(label);
    };
  };
  DagId ida = pool.submit(ja.graph, 8, traced(ja.f, 0));
  DagId idb = pool.submit(jb.graph, 8, traced(jb.f, 1));

  release.set_value();
  EXPECT_TRUE(pool.wait(blocker));
  EXPECT_TRUE(pool.wait(ida));
  EXPECT_TRUE(pool.wait(idb));
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_NE(order[i], order[i - 1]) << "chains did not alternate at " << i;
}

TEST(DagPool, ReuseKeepFollowsTheAdmissionPick) {
  // Alone, a chain runs entirely through the data-reuse keep after its
  // root. Next to an equal-priority chain, the other DAG always wins the
  // fairness pick, so the keep must never be taken: every task goes back
  // through the queue and the chains alternate.
  Rng rng(31);
  Matrix a = random_gaussian(32, 8, rng);
  auto list = flat_ts_list(4, 1);  // GEQRT then three TSQRTs, one chain
  {
    DagPoolOptions opts;
    DagPool pool(opts);
    Job j = make_job(a, 8, list);
    EXPECT_TRUE(pool.wait(pool.submit(j.graph, 8, exec_fn(j.f))));
    const RunStats st = pool.shutdown();
    EXPECT_EQ(st.total_tasks, 4);
    EXPECT_EQ(st.queue_pops, 1);
    EXPECT_EQ(st.reuse_hits, 3);
  }
  DagPoolOptions opts;
  DagPool pool(opts);
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  pool.submit(one_task_graph(), 1,
              [released](std::int32_t, TileWorkspace&) { released.wait(); });
  Job ja = make_job(a, 8, list);
  Job jb = make_job(a, 8, list);
  const DagId ida = pool.submit(ja.graph, 8, exec_fn(ja.f));
  const DagId idb = pool.submit(jb.graph, 8, exec_fn(jb.f));
  release.set_value();
  // Wait on the single worker before shutdown() adds the caller as a lane.
  EXPECT_TRUE(pool.wait(ida));
  EXPECT_TRUE(pool.wait(idb));
  const RunStats st = pool.shutdown();
  EXPECT_EQ(st.total_tasks, 9);
  EXPECT_EQ(st.reuse_hits, 0);
  QRFactors seq = qr_factorize_sequential(a, 8, list);
  EXPECT_EQ(max_abs_diff(extract_r(seq).view(), extract_r(*ja.f).view()), 0.0);
  EXPECT_EQ(max_abs_diff(extract_r(seq).view(), extract_r(*jb.f).view()), 0.0);
}

TEST(DagPool, ShutdownReportsLaneAccountingAndRefusesSubmits) {
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  DagPoolOptions opts;
  opts.threads = 3;
  opts.trace = &trace;
  opts.metrics = &metrics;
  DagPool pool(opts);
  Rng rng(37);
  Matrix a = random_gaussian(48, 24, rng);
  Job j = make_job(a, 8, flat_ts_list(6, 3));
  pool.submit(j.graph, 8, exec_fn(j.f));
  // The caller works as lane 0 beside the three workers until the DAG is
  // done.
  const RunStats st = pool.shutdown();
  EXPECT_EQ(st.threads, 4);
  ASSERT_EQ(st.tasks_per_thread.size(), 4u);
  EXPECT_EQ(st.total_tasks, j.graph->size());
  EXPECT_EQ(st.reuse_hits + st.queue_pops, st.total_tasks);
  EXPECT_EQ(static_cast<long long>(trace.size()), st.total_tasks);
  EXPECT_EQ(metrics.counter("exec.tasks").value(), st.total_tasks);
  EXPECT_EQ(metrics.counter("dagpool.tasks").value(), st.total_tasks);
  ASSERT_EQ(st.busy_seconds_per_thread.size(), 4u);
  ASSERT_EQ(st.terminal_wait_seconds_per_thread.size(), 4u);
  QRFactors seq = qr_factorize_sequential(a, 8, flat_ts_list(6, 3));
  EXPECT_EQ(max_abs_diff(extract_r(seq).view(), extract_r(*j.f).view()), 0.0);
  EXPECT_THROW(pool.submit(j.graph, 8, exec_fn(j.f)), Error);
  // Ports outlive the workers; late completions are ignored.
  pool.port(1)->remote_complete(0);
}

TEST(DagPool, CancelledDagReportsCancelled) {
  DagPoolOptions opts;
  opts.threads = 2;
  DagPool pool(opts);
  // Gated on an external root that never completes: deterministic cancel.
  Rng rng(17);
  Matrix a = random_gaussian(16, 8, rng);
  Job j = make_job(a, 8, flat_ts_list(2, 1));
  DagSubmitOptions sopts;
  sopts.external_tasks = {0};
  bool done_cancelled = false;
  sopts.on_done = [&](DagId, bool cancelled) { done_cancelled = cancelled; };
  DagId id = pool.submit(j.graph, 8, exec_fn(j.f), sopts);

  EXPECT_TRUE(pool.cancel(id));
  EXPECT_FALSE(pool.wait(id));
  EXPECT_TRUE(done_cancelled);
  EXPECT_EQ(pool.stats().dags_cancelled, 1);
  EXPECT_FALSE(pool.cancel(id));  // already gone
}

TEST(DagPool, ThrowingKernelPoisonsOnlyItsOwnDag) {
  DagPoolOptions opts;
  opts.threads = 2;
  DagPool pool(opts);
  DagId bad = pool.submit(one_task_graph(), 1,
                          [](std::int32_t, TileWorkspace&) {
                            throw Error("kernel blew up");
                          });
  Rng rng(19);
  Matrix a = random_gaussian(24, 16, rng);
  Job j = make_job(a, 8, flat_ts_list(3, 2));
  DagId good = pool.submit(j.graph, 8, exec_fn(j.f));

  EXPECT_FALSE(pool.wait(bad));
  EXPECT_TRUE(pool.wait(good));
  QRFactors seq = qr_factorize_sequential(a, 8, flat_ts_list(3, 2));
  EXPECT_EQ(max_abs_diff(extract_r(seq).view(), extract_r(*j.f).view()), 0.0);
}

TEST(DagPool, WaitAllCoversOnDoneCallbacks) {
  // wait_all() is the license to destroy the pool: it must not return
  // while an on_done callback is still running, nor before a DAG that
  // callback chained via submit() (the serve layer's Q-formation pattern)
  // has finished — otherwise the chained submit races ~DagPool and throws
  // on a worker thread with no handler.
  DagPoolOptions opts;
  opts.threads = 2;
  DagPool pool(opts);
  std::atomic<bool> chained_done{false};
  DagSubmitOptions first;
  first.on_done = [&](DagId, bool) {
    // Widen the race window: without callback tracking, wait_all() has
    // already returned long before the chained submit below runs.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    DagSubmitOptions second;
    second.on_done = [&](DagId, bool) { chained_done.store(true); };
    pool.submit(one_task_graph(), 1, [](std::int32_t, TileWorkspace&) {},
                std::move(second));
  };
  pool.submit(one_task_graph(), 1, [](std::int32_t, TileWorkspace&) {},
              std::move(first));
  pool.wait_all();
  EXPECT_TRUE(chained_done.load());
}

TEST(DagPool, StatsCountTasksAndDags) {
  DagPoolOptions opts;
  opts.threads = 2;
  DagPool pool(opts);
  Rng rng(23);
  Matrix a = random_gaussian(16, 16, rng);
  Job j = make_job(a, 8, flat_ts_list(2, 2));
  DagId id = pool.submit(j.graph, 8, exec_fn(j.f));
  EXPECT_TRUE(pool.wait(id));
  DagPoolStats st = pool.stats();
  EXPECT_EQ(st.dags_submitted, 1);
  EXPECT_EQ(st.dags_completed, 1);
  EXPECT_EQ(st.tasks_executed, j.graph->size());
  pool.wait_all();
  EXPECT_EQ(pool.active_dags(), 0);
}

TEST(DagPool, AdmissionLimitThrowsTypedOverload) {
  // Deterministic via external-root gating: DAGs held open on their
  // ungated root keep the pool at its bound without timing assumptions.
  DagPoolOptions opts;
  opts.threads = 1;
  opts.max_active_dags = 2;
  DagPool pool(opts);

  Rng rng(29);
  DagSubmitOptions gated;
  gated.external_tasks = {0};
  const auto open_dag = [&](const DagSubmitOptions& sopts) {
    Matrix a = random_gaussian(16, 8, rng);
    Job j = make_job(a, 8, flat_ts_list(2, 1));
    DagId id = pool.submit(j.graph, 8, exec_fn(j.f), sopts);
    return std::make_pair(j, id);
  };
  const auto release = [&](const std::pair<Job, DagId>& d) {
    TileWorkspace ws(8);
    execute_kernel(d.first.f->kernels()[0], *d.first.f, ws);
    pool.port(d.second)->remote_complete(0);
    EXPECT_TRUE(pool.wait(d.second));
  };

  auto a = open_dag(gated);
  auto b = open_dag(gated);
  EXPECT_EQ(pool.active_dags(), 2);

  // At the bound: a plain submit is refused with the typed overload (a
  // subclass of Error, so teardown-hardened callers still catch it).
  EXPECT_THROW(open_dag(gated), PoolOverloaded);
  EXPECT_THROW(open_dag(gated), Error);

  // Internal continuation DAGs bypass the limit and still run.
  DagSubmitOptions bypass = gated;
  bypass.bypass_admission_limit = true;
  auto c = open_dag(bypass);
  EXPECT_EQ(pool.active_dags(), 3);

  // Draining below the bound frees a slot for the next submit (the
  // bypassed DAG counts toward active while it lives, so both must go).
  release(a);
  release(c);
  auto d = open_dag(gated);

  release(b);
  release(d);
  pool.wait_all();
  EXPECT_EQ(pool.active_dags(), 0);
}

// The single-lane schedule the pool documents, replayed off-line: ready
// tasks pop deepest on the critical path first (lower index on ties), and
// a finished task hands its deepest newly-ready successor (the first one in
// successor order on ties) straight to the lane and queues the rest.
std::vector<std::int32_t> single_lane_schedule(const TaskGraph& g,
                                               long long* keeps) {
  std::vector<double> prio;
  g.critical_path(unit_weight_duration, &prio);
  const auto before = [&](std::int32_t x, std::int32_t y) {
    const auto xi = static_cast<std::size_t>(x);
    const auto yi = static_cast<std::size_t>(y);
    return prio[xi] != prio[yi] ? prio[xi] < prio[yi] : x > y;
  };
  std::priority_queue<std::int32_t, std::vector<std::int32_t>,
                      decltype(before)>
      ready(before);
  std::vector<int> npred(static_cast<std::size_t>(g.size()));
  for (int i = 0; i < g.size(); ++i) {
    npred[static_cast<std::size_t>(i)] = g.num_predecessors(i);
    if (npred[static_cast<std::size_t>(i)] == 0) ready.push(i);
  }
  std::vector<std::int32_t> order;
  *keeps = 0;
  std::int32_t next = -1;
  while (next >= 0 || !ready.empty()) {
    if (next < 0) {
      next = ready.top();
      ready.pop();
    } else {
      ++*keeps;
    }
    const std::int32_t t = next;
    order.push_back(t);
    next = -1;
    for (std::int32_t s : g.successors(t)) {
      if (--npred[static_cast<std::size_t>(s)] != 0) continue;
      if (next < 0 || prio[static_cast<std::size_t>(s)] >
                          prio[static_cast<std::size_t>(next)]) {
        if (next >= 0) ready.push(next);
        next = s;
      } else {
        ready.push(s);
      }
    }
  }
  return order;
}

// Runs one factorization on a zero-worker pool, so every task executes on
// the shutdown() caller in the pool's own order, and checks that order
// against single_lane_schedule.
TEST(DagPool, ReuseKeepRunsDeepestNewlyReadySuccessorNext) {
  Rng rng(41);
  Matrix a = random_gaussian(48, 32, rng);
  const auto list = greedy_global_list(6, 4).list;
  Job j = make_job(a, 8, list);
  long long keeps = 0;
  const std::vector<std::int32_t> expected =
      single_lane_schedule(*j.graph, &keeps);

  DagPool pool({.threads = 0});
  std::vector<std::int32_t> order;
  auto run = exec_fn(j.f);
  pool.submit(j.graph, 8, [&](std::int32_t idx, TileWorkspace& ws) {
    order.push_back(idx);
    run(idx, ws);
  });
  const RunStats st = pool.shutdown();
  EXPECT_EQ(order, expected);
  EXPECT_EQ(st.reuse_hits, keeps);
  EXPECT_EQ(st.queue_pops, st.total_tasks - keeps);
  EXPECT_GT(keeps, 0);
  QRFactors seq = qr_factorize_sequential(a, 8, list);
  EXPECT_EQ(max_abs_diff(extract_r(seq).view(), extract_r(*j.f).view()), 0.0);
}

TEST(DagPool, ZeroWorkerPoolRunsEverythingInShutdown) {
  DagPoolOptions opts;
  opts.threads = 0;
  DagPool pool(opts);
  Rng rng(43);
  Matrix a = random_gaussian(32, 16, rng);
  Job j = make_job(a, 8, flat_ts_list(4, 2));
  std::atomic<int> ran{0};
  std::atomic<bool> off_caller{false};
  const std::thread::id caller = std::this_thread::get_id();
  auto run = exec_fn(j.f);
  pool.submit(j.graph, 8, [&](std::int32_t idx, TileWorkspace& ws) {
    if (std::this_thread::get_id() != caller) off_caller.store(true);
    ++ran;
    run(idx, ws);
  });
  // No worker thread exists, so nothing runs before shutdown().
  EXPECT_EQ(ran.load(), 0);
  EXPECT_GT(pool.ready_tasks(), 0);
  const RunStats st = pool.shutdown();
  EXPECT_EQ(ran.load(), j.graph->size());
  EXPECT_FALSE(off_caller.load());
  EXPECT_EQ(st.threads, 1);
  ASSERT_EQ(st.tasks_per_thread.size(), 1u);
  EXPECT_EQ(st.tasks_per_thread[0], j.graph->size());
}

TEST(DagPool, UnobservedShutdownLeavesTimingEmpty) {
  DagPoolOptions opts;
  opts.threads = 2;
  DagPool pool(opts);
  Rng rng(53);
  Matrix a = random_gaussian(32, 16, rng);
  Job j = make_job(a, 8, flat_ts_list(4, 2));
  pool.submit(j.graph, 8, exec_fn(j.f));
  const RunStats st = pool.shutdown();
  EXPECT_EQ(st.total_tasks, j.graph->size());
  EXPECT_TRUE(st.busy_seconds_per_thread.empty());
  EXPECT_TRUE(st.idle_seconds_per_thread.empty());
  EXPECT_TRUE(st.terminal_wait_seconds_per_thread.empty());
  for (double s : st.seconds_by_kernel) EXPECT_EQ(s, 0.0);
}

TEST(DagPool, TraceOriginShiftsSpanTimestamps) {
  // Spans are stamped relative to trace_origin: an origin 100 s in the
  // past puts every span of a short run past the 100 s mark.
  obs::TraceRecorder trace;
  DagPoolOptions opts;
  opts.threads = 0;
  opts.trace = &trace;
  opts.trace_origin = monotonic_seconds() - 100.0;
  DagPool pool(opts);
  Rng rng(59);
  Matrix a = random_gaussian(16, 16, rng);
  Job j = make_job(a, 8, flat_ts_list(2, 2));
  pool.submit(j.graph, 8, exec_fn(j.f));
  const RunStats st = pool.shutdown();
  const auto events = trace.sorted_events();
  ASSERT_EQ(static_cast<long long>(events.size()), st.total_tasks);
  for (const auto& e : events) {
    EXPECT_GE(e.start, 100.0);
    EXPECT_LT(e.start, 200.0);
    EXPECT_EQ(e.lane, 0);
  }
}

TEST(DagPool, InvalidOptionsAndSubmitsThrow) {
  DagPoolOptions bad;
  bad.threads = -1;
  EXPECT_THROW(DagPool{bad}, Error);

  DagPoolOptions opts;
  opts.threads = 1;
  DagPool pool(opts);
  const auto noop = [](std::int32_t, TileWorkspace&) {};
  EXPECT_THROW(pool.submit(nullptr, 1, noop), Error);
  EXPECT_THROW(pool.submit(one_task_graph(), 0, noop), Error);
  EXPECT_EQ(pool.stats().dags_submitted, 0);
}

TEST(DagPool, ExternalTaskOutsideGraphThrows) {
  DagPoolOptions opts;
  opts.threads = 1;
  DagPool pool(opts);
  const auto noop = [](std::int32_t, TileWorkspace&) {};
  for (std::int32_t t : {-1, 1}) {
    DagSubmitOptions sopts;
    sopts.external_tasks = {t};
    EXPECT_THROW(pool.submit(one_task_graph(), 1, noop, sopts), Error)
        << "external task " << t;
  }
  EXPECT_EQ(pool.stats().dags_submitted, 0);
  EXPECT_EQ(pool.active_dags(), 0);
}

TEST(DagPool, AllExternalDagFinishesAtSubmit) {
  // Nothing of the graph runs in the pool: the DAG completes inside
  // submit(), and its on_done fires there, on the submitting thread.
  DagPoolOptions opts;
  opts.threads = 1;
  DagPool pool(opts);
  DagSubmitOptions sopts;
  sopts.external_tasks = {0};
  bool done = false, cancelled = true;
  sopts.on_done = [&](DagId, bool c) {
    done = true;
    cancelled = c;
  };
  const DagId id = pool.submit(
      one_task_graph(), 1,
      [](std::int32_t, TileWorkspace&) { throw Error("must not run"); },
      sopts);
  EXPECT_TRUE(done);
  EXPECT_FALSE(cancelled);
  EXPECT_TRUE(pool.wait(id));
  EXPECT_EQ(pool.active_dags(), 0);
  EXPECT_EQ(pool.stats().tasks_executed, 0);
  EXPECT_EQ(pool.stats().dags_completed, 1);
}

TEST(DagPool, PortCancelEndsGatedDag) {
  // The port's cancel() is the distributed runtime's abort path: it ends a
  // DAG whose external root never completes, exactly like DagPool::cancel.
  DagPoolOptions opts;
  opts.threads = 2;
  DagPool pool(opts);
  Rng rng(61);
  Matrix a = random_gaussian(24, 8, rng);
  Job j = make_job(a, 8, flat_ts_list(3, 1));
  DagSubmitOptions sopts;
  sopts.external_tasks = {0};
  std::atomic<bool> done_cancelled{false};
  sopts.on_done = [&](DagId, bool c) { done_cancelled.store(c); };
  const DagId id = pool.submit(j.graph, 8, exec_fn(j.f), sopts);
  auto port = pool.port(id);
  std::thread canceller([&port] { port->cancel(); });
  EXPECT_FALSE(pool.wait(id));
  canceller.join();
  EXPECT_TRUE(done_cancelled.load());
  EXPECT_EQ(pool.stats().dags_cancelled, 1);
  EXPECT_EQ(pool.stats().tasks_executed, 0);
  // A completion arriving after the cancel is ignored.
  port->remote_complete(0);
  EXPECT_EQ(pool.stats().tasks_executed, 0);
}

TEST(DagPool, RemoteCompletionOutsideGraphThrows) {
  DagPoolOptions opts;
  opts.threads = 1;
  DagPool pool(opts);
  Rng rng(67);
  Matrix a = random_gaussian(16, 8, rng);
  Job j = make_job(a, 8, flat_ts_list(2, 1));
  DagSubmitOptions sopts;
  sopts.external_tasks = {0};
  const DagId id = pool.submit(j.graph, 8, exec_fn(j.f), sopts);
  auto port = pool.port(id);
  EXPECT_THROW(port->remote_complete(-1), Error);
  EXPECT_THROW(port->remote_complete(j.graph->size()), Error);
  // The bad reports released nothing; the real one still drives the DAG.
  EXPECT_EQ(pool.active_dags(), 1);
  TileWorkspace ws(8);
  execute_kernel(j.f->kernels()[0], *j.f, ws);
  port->remote_complete(0);
  EXPECT_TRUE(pool.wait(id));
  QRFactors seq = qr_factorize_sequential(a, 8, flat_ts_list(2, 1));
  EXPECT_EQ(max_abs_diff(extract_r(seq).view(), extract_r(*j.f).view()), 0.0);
}

TEST(DagPool, LateReportsToFinishedDagAreIgnored) {
  DagPoolOptions opts;
  opts.threads = 2;
  DagPool pool(opts);
  Rng rng(71);
  Matrix a = random_gaussian(24, 16, rng);
  Job j = make_job(a, 8, flat_ts_list(3, 2));
  const DagId id = pool.submit(j.graph, 8, exec_fn(j.f));
  EXPECT_TRUE(pool.wait(id));
  const long long executed = pool.stats().tasks_executed;
  auto port = pool.port(id);
  port->remote_complete(0);
  port->cancel();
  EXPECT_FALSE(pool.cancel(id));
  EXPECT_TRUE(pool.wait(id));  // the outcome record is unchanged
  EXPECT_EQ(pool.stats().tasks_executed, executed);
  EXPECT_EQ(pool.stats().dags_completed, 1);
  EXPECT_EQ(pool.stats().dags_cancelled, 0);
}

}  // namespace
}  // namespace hqr
