// The task-graph engine ("DAGuE-lite", paper §IV-C): one pool of worker
// threads runs task graphs to completion. Every parallel path goes through
// it — execute_parallel, Q formation/application and the distributed
// runtime's per-rank slice (runtime/executor.hpp) submit one graph to a
// private pool and shut it down, the calling thread working as one of the
// lanes; the serving layer keeps one long-lived pool and admits many graphs
// at once.
//
//   * per-DAG completion tracking — every submitted graph carries its own
//     dependency counters, ready queue, and remaining count; a DAG's
//     completion callback fires on the worker that ran its last task.
//   * critical-path priority — within a DAG, ready tasks order by their
//     depth on the graph's critical path (lower task index on ties).
//   * data reuse — a worker that finishes a task keeps the best newly-ready
//     successor and runs it next while its input tiles are warm, provided
//     that DAG would win the admission pick anyway, so the keep never
//     bypasses priority or fairness between DAGs.
//   * fair/priority admission — when several DAGs have ready tasks, the
//     worker takes from the highest-priority one; among equals, from the
//     DAG that has been served the fewest tasks so far (so one huge
//     factorization cannot starve a stream of small ones).
//   * (dag, task)-namespaced external completions — each DAG's port binds
//     the DAG id, so concurrent DAGs whose task-id spaces overlap (they all
//     start at 0) cannot collide.
//
// Scheduling is one mutex-protected multi-queue: admission fairness needs a
// global view of every DAG's ready set, and at tile granularity the lock is
// not the bottleneck (EXPERIMENTS.md compares it with the work-stealing
// deques this engine replaced). Kernels write disjoint regions in
// dependency order, so any valid schedule produces the same bits.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "dag/task_graph.hpp"
#include "kernels/tile_kernels.hpp"
#include "kernels/weights.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hqr {

using DagId = std::uint64_t;

// Per-lane accounting of a pool's lifetime (DagPool::shutdown), which for
// the private pool of one execute_parallel call is that run's accounting.
struct RunStats {
  double seconds = 0.0;
  int threads = 0;
  std::vector<long long> tasks_per_thread;
  long long total_tasks = 0;

  // Scheduler counters (always collected; no clock reads involved).
  // Invariant: reuse_hits + queue_pops == total_tasks.
  long long reuse_hits = 0;  // tasks taken via the data-reuse keep
  long long queue_pops = 0;  // tasks acquired from a ready queue
  // Always 0: the work-stealing engine that filled them is gone. Kept
  // because hqrbench/ still reads them.
  long long steals = 0;
  long long steal_fails = 0;
  std::array<long long, kKernelTypeCount> tasks_by_kernel{};

  // Fraction of tasks whose input tiles stayed warm in the worker.
  double reuse_hit_rate() const {
    return total_tasks > 0
               ? static_cast<double>(reuse_hits) / static_cast<double>(total_tasks)
               : 0.0;
  }

  // Timing breakdowns — populated only when the run was observed (a trace
  // or metrics sink was attached), so the unobserved hot path never reads
  // the clock per task.
  std::array<double, kKernelTypeCount> seconds_by_kernel{};
  std::vector<double> busy_seconds_per_thread;  // executing tasks
  std::vector<double> idle_seconds_per_thread;  // waiting for ready work
  // The final wait, which ended in shutdown rather than a task — the
  // termination barrier. Reported separately so it never inflates idle
  // (stall) numbers in the analyzer.
  std::vector<double> terminal_wait_seconds_per_thread;
};

// Thread-safe handle for feeding completions of tasks that run outside the
// pool (another rank's) into one DAG.
class RemotePort {
 public:
  virtual ~RemotePort() = default;
  // A remote producer finished and its payload was applied to local tiles:
  // release its local successors into the ready set.
  virtual void remote_complete(std::int32_t producer) = 0;
  // Abort the DAG: queued tasks are dropped, running ones finish.
  virtual void cancel() = 0;
};

// Thrown by submit() when the pool is at max_active_dags — distinguishable
// from teardown (plain hqr::Error) so servers can answer with a typed
// "overloaded, retry later" instead of "shutting down".
class PoolOverloaded : public Error {
 public:
  using Error::Error;
};

struct DagPoolOptions {
  // Worker threads, started by the first submit(). Tasks also run on the
  // thread inside shutdown(), so a private pool spawns one worker fewer
  // than the lanes it wants; 0 runs everything inside shutdown().
  int threads = 1;
  // Admission bound: submit() throws PoolOverloaded while this many DAGs
  // are active (0 = unbounded). Backpressure for serving layers — a client
  // burst degrades into typed refusals instead of unbounded queue growth.
  int max_active_dags = 0;
  // Observability sinks. Null = disabled; enabling either costs two clock
  // reads per task plus lock-free per-lane appends / atomic updates. The
  // trace gets one span per task on the worker's lane; metrics get the
  // dagpool.* counters, exec.task_seconds.* histograms and, at shutdown(),
  // the exec.* totals.
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  // Time zero for trace timestamps, as a monotonic_seconds() value; < 0
  // (default) uses pool construction time. The distributed runtime pins
  // the workers and the communication thread's flow events to one origin.
  double trace_origin = -1.0;
};

struct DagSubmitOptions {
  // Admission priority: higher drains first; ties are served fairly
  // (fewest-tasks-delivered DAG first).
  int priority = 0;
  // Task ids executed outside the pool (the distributed partition case):
  // they are never run by a worker, and their successors become ready only
  // when reported through the DAG's port(). Each listed id must be a valid
  // task of the graph.
  std::vector<std::int32_t> external_tasks;
  // Invoked exactly once, on the worker that finished the DAG's last task
  // (or on the thread that observed cancellation complete). May call back
  // into the pool (e.g. submit a follow-up DAG); runs outside the pool
  // lock. A chained submit can race pool teardown — submit() throws
  // hqr::Error once the destructor has started, so callbacks that chain
  // must be prepared to catch it. wait_all() does not return while any
  // on_done is still running.
  std::function<void(DagId, bool cancelled)> on_done;
  // Skip the max_active_dags admission check: for internal continuation
  // DAGs (e.g. a server chaining Q formation onto a finished factorization)
  // that must be able to drain even when the pool refuses new work.
  bool bypass_admission_limit = false;
};

struct DagPoolStats {
  long long dags_submitted = 0;
  long long dags_completed = 0;
  long long dags_cancelled = 0;
  long long tasks_executed = 0;
  // High-watermark of DAGs simultaneously admitted and unfinished.
  int max_active_dags = 0;
};

class DagPool {
 public:
  // Runs task `idx` of the submitted graph using the worker's scratch
  // workspace (sized for the b the DAG was submitted with).
  using ExecuteFn = std::function<void(std::int32_t, TileWorkspace&)>;

  explicit DagPool(const DagPoolOptions& opts);
  // Cancels every unfinished DAG and joins the workers. Prefer wait_all()
  // (or per-DAG wait) before destruction when results matter.
  ~DagPool();

  DagPool(const DagPool&) = delete;
  DagPool& operator=(const DagPool&) = delete;

  // Admits a graph: seeds its roots and returns immediately. The graph is
  // shared-ownership because the pool reads successor lists until the DAG
  // finishes; `b` sizes the per-worker TileWorkspace handed to `execute`.
  DagId submit(std::shared_ptr<const TaskGraph> graph, int b,
               ExecuteFn execute, DagSubmitOptions opts = {});

  // Blocks until the DAG finished; true = ran to completion, false =
  // cancelled. Ids of finished DAGs stay valid indefinitely (the pool keeps
  // a per-DAG outcome record; a long-lived server retains ~tens of bytes
  // per request).
  bool wait(DagId id);
  // Blocks until no DAG is active AND every on_done callback has returned
  // (including DAGs those callbacks chained via submit()). After wait_all()
  // the pool can be destroyed without racing a late callback.
  void wait_all();

  // Runs tasks on the calling thread (lane 0, beside the workers' lanes
  // 1..threads) until no DAG is active and every on_done returned, then
  // stops and joins the workers and returns the per-lane accounting of the
  // pool's lifetime (publishing the exec.* totals to the metrics sink).
  // submit() throws afterwards; ports stay callable and are ignored. Call
  // at most once.
  RunStats shutdown();

  // Best-effort cancellation: queued tasks of the DAG are dropped, running
  // ones finish. Returns true when the DAG had not already finished. The
  // on_done callback still fires (with cancelled = true).
  bool cancel(DagId id);

  // External-completion port for one DAG, namespaced by (dag id, task id):
  // remote_complete(producer) releases only this DAG's successors of
  // `producer`, never another DAG's task with the same id. Valid until the
  // pool is destroyed; calls after the DAG finished are ignored.
  std::unique_ptr<RemotePort> port(DagId id);

  // Instantaneous gauges for the serving layer.
  int active_dags() const;
  long long ready_tasks() const;

  DagPoolStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hqr
