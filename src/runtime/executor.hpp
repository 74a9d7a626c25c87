// Shared-memory task executor ("DAGuE-lite", paper §IV-C).
//
// Executes the real numeric kernels of a QR factorization following the
// task-graph dependencies. Each call submits its graph to a private
// DagPool (runtime/dag_pool.hpp) of `threads` workers and waits, under the
// pool's one scheduling policy: ready tasks are ordered by critical-path
// depth, and a worker preferentially continues with a successor of the
// task it just finished (data-reuse keep).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/factorization.hpp"
#include "dag/task_graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/dag_pool.hpp"

namespace hqr {

struct ExecutorOptions {
  int threads = 1;
  // Inner block of the tile kernels (0 = default_inner_block(b), the
  // host's tuned choice).
  int ib = 0;
  // Observability sinks (obs/). Null = disabled; enabling costs two clock
  // reads per task plus lock-free per-lane appends / atomic updates.
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  // Time zero for trace timestamps, as a monotonic_seconds() value; < 0
  // (default) uses pool construction time. The distributed runtime pins
  // every component of a rank — executor lanes and the communication
  // thread's flow events — to one shared origin so the per-rank trace is
  // internally consistent before clock alignment shifts it cluster-wide.
  double trace_origin = -1.0;
};

// Executes all kernels of `f` (its kernel list must match `graph`'s ops) in
// dependency order using `opts.threads` workers. Thread-safe: kernels on
// dependent tiles are ordered by the graph; independent kernels touch
// disjoint tiles. A kernel that throws cancels the run and the exception is
// rethrown here.
RunStats execute_parallel(QRFactors& f, const TaskGraph& graph,
                          const ExecutorOptions& opts);

// ---- Partitioned execution (the distributed runtime's per-rank engine) ---

// Restricts a run to the slice of the graph owned by one rank. The pool
// runs only tasks with task_rank[i] == my_rank (the rest are submitted as
// external tasks); a task whose predecessors include remote tasks becomes
// ready only after the caller reports those producers done through
// RemotePort::remote_complete (i.e. after their payload arrived over the
// wire and was applied).
struct PartitionView {
  // Owning rank per task (CommPlan::node()); size must match the graph.
  const std::vector<std::int32_t>* task_rank = nullptr;
  int my_rank = 0;
  // Invoked on the executing worker, inside the task, after a local task's
  // kernel ran and *before* its successors are released. At that point the
  // task's output regions are stable (any later writer is a successor), so
  // the callback may pack them onto the wire without copying under a lock.
  // Its time counts as the task's busy time.
  std::function<void(std::int32_t)> on_complete;
};

// Runs the my_rank slice of `graph` on `opts.threads` workers. `port_ready`
// is called once, right after the slice was submitted, with the port the
// communication thread uses to feed remote completions in.
// `before_teardown` is called after the last local task finished but while
// the pool (and thus the port) is still alive — join any thread that might
// touch the port there. Returns when every local task ran (or the run was
// cancelled through the port); RunStats::total_tasks counts the local tasks
// that ran. An exception thrown by a task (or on_complete) cancels the run
// and is rethrown here.
RunStats execute_partition(QRFactors& f, const TaskGraph& graph,
                           const ExecutorOptions& opts,
                           const PartitionView& view,
                           const std::function<void(RemotePort&)>& port_ready,
                           const std::function<void()>& before_teardown = {});

// Convenience: factorize with the parallel runtime.
QRFactors qr_factorize_parallel(const Matrix& a, int b,
                                const EliminationList& list,
                                const ExecutorOptions& opts,
                                RunStats* stats = nullptr);

// The economy-Q formation DAG of a factorization (dorgqr analogue): `q`
// starts as the tile-padded identity, padded_m x min(padded_m, padded_n),
// and task i applies the i-th of the factor kernels, reversed, to it. The
// task body shares ownership of `f`, `q` and the op list, so the DAG may
// outlive the caller (the server chains it on its shared pool).
struct QFormation {
  std::shared_ptr<TiledMatrix> q;
  std::shared_ptr<const TaskGraph> graph;
  DagPool::ExecuteFn execute;
};
QFormation q_formation(std::shared_ptr<const QRFactors> f);

// Parallel Q formation: runs q_formation(f) on a private pool and returns
// the padded Q (its leading m x min(m, n) block is the economy Q).
Matrix build_q_parallel(const QRFactors& f, const ExecutorOptions& opts,
                        RunStats* stats = nullptr);

// Parallel Q / Q^T application (dormqr analogue) to a tiled matrix in
// place; c must share tile rows and tile size with the factorization.
void apply_q_parallel(const QRFactors& f, Trans trans, TiledMatrix& c,
                      const ExecutorOptions& opts, RunStats* stats = nullptr);

}  // namespace hqr
