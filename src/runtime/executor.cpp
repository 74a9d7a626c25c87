#include "runtime/executor.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <mutex>

namespace hqr {

namespace {

// Runs one task graph on a private pool: one submission, then shutdown(),
// in which the calling thread works as lane 0 beside opts.threads - 1 pool
// workers (a parked caller would cost a thread hand-off per run and leave
// its caches cold). `port_ready` gets the DAG's external-completion port;
// `before_teardown` runs after the workers joined, while the port is still
// callable. The first exception a task threw cancels the run and is
// rethrown once the pool is down.
RunStats run_graph(const TaskGraph& graph, int b,
                   const DagPool::ExecuteFn& execute,
                   const ExecutorOptions& opts, DagSubmitOptions sopts = {},
                   const std::function<void(RemotePort&)>& port_ready = {},
                   const std::function<void()>& before_teardown = {}) {
  HQR_CHECK(opts.threads >= 1, "need at least one thread");
  DagPoolOptions popts;
  popts.threads = opts.threads - 1;
  popts.trace = opts.trace;
  popts.metrics = opts.metrics;
  popts.trace_origin = opts.trace_origin;
  DagPool pool(popts);

  std::mutex error_mu;
  std::exception_ptr error;
  // Non-owning: the caller's graph outlives the pool.
  const std::shared_ptr<const TaskGraph> shared(
      std::shared_ptr<const TaskGraph>(), &graph);
  const DagId id = pool.submit(
      shared, b,
      [&](std::int32_t idx, TileWorkspace& ws) {
        try {
          execute(idx, ws);
        } catch (...) {
          std::lock_guard<std::mutex> lk(error_mu);
          if (!error) error = std::current_exception();
          throw;
        }
      },
      std::move(sopts));
  const std::unique_ptr<RemotePort> port = pool.port(id);
  if (port_ready) port_ready(*port);
  RunStats stats = pool.shutdown();
  if (before_teardown) before_teardown();
  if (error) std::rethrow_exception(error);
  return stats;
}

}  // namespace

RunStats execute_parallel(QRFactors& f, const TaskGraph& graph,
                          const ExecutorOptions& opts) {
  HQR_CHECK(static_cast<int>(f.kernels().size()) == graph.size(),
            "kernel list / graph mismatch");
  return run_graph(graph, f.b(),
                   [&](std::int32_t idx, TileWorkspace& ws) {
                     execute_kernel(f.kernels()[idx], f, ws);
                   },
                   opts);
}

RunStats execute_partition(QRFactors& f, const TaskGraph& graph,
                           const ExecutorOptions& opts,
                           const PartitionView& view,
                           const std::function<void(RemotePort&)>& port_ready,
                           const std::function<void()>& before_teardown) {
  HQR_CHECK(static_cast<int>(f.kernels().size()) == graph.size(),
            "kernel list / graph mismatch");
  HQR_CHECK(view.task_rank != nullptr &&
                static_cast<int>(view.task_rank->size()) == graph.size(),
            "partition view task_rank must cover the graph");
  DagSubmitOptions sopts;
  for (std::int32_t i = 0; i < graph.size(); ++i)
    if ((*view.task_rank)[static_cast<std::size_t>(i)] != view.my_rank)
      sopts.external_tasks.push_back(i);
  return run_graph(
      graph, f.b(),
      [&](std::int32_t idx, TileWorkspace& ws) {
        execute_kernel(f.kernels()[idx], f, ws);
        // Hand the finished task to the caller (it packs the output regions
        // onto the wire) before any successor can run and overwrite them.
        if (view.on_complete) view.on_complete(idx);
      },
      opts, std::move(sopts), port_ready, before_teardown);
}

QRFactors qr_factorize_parallel(const Matrix& a, int b,
                                const EliminationList& list,
                                const ExecutorOptions& opts, RunStats* stats) {
  TiledMatrix tiled = TiledMatrix::from_matrix(a, b);
  const int mt = tiled.mt(), nt = tiled.nt();
  KernelList kernels = expand_to_kernels(list, mt, nt);
  TaskGraph graph(kernels, mt, nt);
  QRFactors f(std::move(tiled), std::move(kernels), opts.ib);
  RunStats s = execute_parallel(f, graph, opts);
  if (stats) *stats = s;
  return f;
}

QFormation q_formation(std::shared_ptr<const QRFactors> f) {
  auto q = std::make_shared<TiledMatrix>(
      f->a().padded_m(), std::min(f->a().padded_m(), f->a().padded_n()),
      f->b());
  for (int d = 0; d < std::min(q->padded_m(), q->padded_n()); ++d)
    q->set(d, d, 1.0);
  auto ops = std::make_shared<const KernelList>(
      q_apply_ops(*f, Trans::No, q->nt(), /*economy=*/true));
  auto graph = std::make_shared<const TaskGraph>(
      TaskGraph::apply_graph(*ops, f->mt(), q->nt()));
  DagPool::ExecuteFn execute = [f = std::move(f), q, ops](
                                   std::int32_t idx, TileWorkspace& ws) {
    execute_apply_kernel((*ops)[static_cast<std::size_t>(idx)], *f,
                         Trans::No, *q, ws);
  };
  return {std::move(q), std::move(graph), std::move(execute)};
}

Matrix build_q_parallel(const QRFactors& f, const ExecutorOptions& opts,
                        RunStats* stats) {
  // Non-owning: the caller's factors outlive the run.
  const QFormation qf =
      q_formation(std::shared_ptr<const QRFactors>(std::shared_ptr<void>(), &f));
  RunStats s = run_graph(*qf.graph, f.b(), qf.execute, opts);
  if (stats) *stats = s;
  return qf.q->to_padded_matrix();
}

void apply_q_parallel(const QRFactors& f, Trans trans, TiledMatrix& c,
                      const ExecutorOptions& opts, RunStats* stats) {
  HQR_CHECK(c.mt() == f.mt() && c.b() == f.b(),
            "apply_q_parallel: tile row/size mismatch");
  const KernelList ops = q_apply_ops(f, trans, c.nt());
  TaskGraph graph = TaskGraph::apply_graph(ops, f.mt(), c.nt());
  RunStats s = run_graph(
      graph, f.b(),
      [&](std::int32_t idx, TileWorkspace& ws) {
        execute_apply_kernel(ops[idx], f, trans, c, ws);
      },
      opts);
  if (stats) *stats = s;
}

}  // namespace hqr
