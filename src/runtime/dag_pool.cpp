#include "runtime/dag_pool.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/stopwatch.hpp"

namespace hqr {

namespace {

// Ready-heap entry: max-heap by priority, lower task index first on ties.
struct ReadyTask {
  double priority;
  std::int32_t idx;

  bool operator<(const ReadyTask& o) const {
    if (priority != o.priority) return priority < o.priority;
    return idx > o.idx;
  }
};

struct DagState {
  DagId id = 0;
  std::shared_ptr<const TaskGraph> graph;
  int b = 1;
  DagPool::ExecuteFn exec;
  int priority = 0;
  std::function<void(DagId, bool)> on_done;

  std::vector<int> npred;       // outstanding predecessors per task
  std::vector<char> external;   // 1 = executed outside the pool
  std::vector<double> depth;    // critical-path depth: the ready order
  std::priority_queue<ReadyTask> ready;
  long long remaining = 0;  // local tasks not yet executed
  long long delivered = 0;  // tasks handed to workers (the fairness key)
  long long inflight = 0;   // tasks currently executing
  bool cancelled = false;
  bool done = false;
};

// Admission order between two DAGs with ready work: higher priority first,
// then the one served fewer tasks so far.
bool beats(const DagState& a, const DagState& b) {
  return a.priority > b.priority ||
         (a.priority == b.priority && a.delivered < b.delivered);
}

// One worker's accounting; written only by its worker, read after the join.
struct alignas(64) LaneStats {
  long long executed = 0;
  long long reuse_hits = 0;
  long long queue_pops = 0;
  std::array<long long, kKernelTypeCount> tasks_by_kernel{};
  std::array<double, kKernelTypeCount> seconds_by_kernel{};
  double busy_seconds = 0.0;
  double idle_seconds = 0.0;
  double terminal_wait_seconds = 0.0;
};

}  // namespace

struct DagPool::Impl {
  explicit Impl(const DagPoolOptions& o)
      : opts(o), timed(o.trace != nullptr || o.metrics != nullptr) {
    HQR_CHECK(opts.threads >= 0, "DagPool worker count must be >= 0");
    if (opts.trace_origin >= 0.0) clock.set_origin(opts.trace_origin);
    // Lane 0 belongs to the thread that calls shutdown(); lanes 1..threads
    // to the pool's workers.
    if (opts.trace) {
      opts.trace->ensure_lanes(opts.threads + 1);
      opts.trace->set_labels("worker", "thread");
    }
    if (opts.metrics) {
      tasks_counter = &opts.metrics->counter("dagpool.tasks");
      for (int t = 0; t < kKernelTypeCount; ++t)
        kernel_hist[static_cast<std::size_t>(t)] = &opts.metrics->histogram(
            "exec.task_seconds." + kernel_name(static_cast<KernelType>(t)));
    }
    lanes.resize(static_cast<std::size_t>(opts.threads) + 1);
  }

  ~Impl() {
    // Cancel whatever is still running, then let workers drain out.
    std::vector<std::shared_ptr<DagState>> leftover;
    {
      std::lock_guard<std::mutex> lk(mu);
      stopping = true;
      for (auto& dag : active) leftover.push_back(dag);
    }
    for (auto& dag : leftover) cancel_dag(dag->id);
    join_workers();
  }

  // Workers start with the first submit, so no lane books the pool's
  // start-up as idle time waiting for work that does not exist yet.
  void start_workers() {
    std::call_once(started, [this] {
      workers.reserve(static_cast<std::size_t>(opts.threads));
      for (int t = 1; t <= opts.threads; ++t)
        workers.emplace_back([this, t] { worker(t); });
    });
  }

  void join_workers() {
    // Waits out a start_workers() racing teardown, or keeps a later one
    // from spawning anything.
    std::call_once(started, [] {});
    {
      std::lock_guard<std::mutex> lk(mu);
      stopping = true;
      work_cv.notify_all();
    }
    for (auto& th : workers)
      if (th.joinable()) th.join();
  }

  // Highest admission priority first; among equals the DAG served the
  // fewest tasks so far; final tie by admission order (`active` keeps it).
  std::shared_ptr<DagState> pick_best_locked() {
    std::shared_ptr<DagState> best;
    for (auto& dag : active) {
      if (dag->ready.empty()) continue;
      if (!best || beats(*dag, *best)) best = dag;
    }
    return best;
  }

  // Would pick_best_locked() choose `dag` if it had ready work? The
  // data-reuse keep may skip the pick only then, so it never overrides
  // priority or fairness between DAGs.
  bool would_win_locked(const DagState& dag) {
    bool earlier = true;  // `o` precedes `dag` in admission order
    for (auto& o : active) {
      if (o.get() == &dag) {
        earlier = false;
        continue;
      }
      if (o->ready.empty()) continue;
      if (beats(*o, dag) || (earlier && !beats(dag, *o))) return false;
    }
    return true;
  }

  void push_ready_locked(DagState& dag, std::int32_t idx) {
    dag.ready.push({dag.depth[static_cast<std::size_t>(idx)], idx});
    ++total_ready;
  }

  void wake(int released) {
    if (released == 1)
      work_cv.notify_one();
    else if (released > 1)
      work_cv.notify_all();
  }

  // Decrements the in-pool successors of `producer` and queues the ones
  // that became ready. With `keep`, the deepest of them is handed back
  // there instead of queued. Returns how many were queued.
  int release_locked(DagState& dag, std::int32_t producer,
                     std::int32_t* keep) {
    int released = 0;
    for (std::int32_t s : dag.graph->successors(producer)) {
      const auto si = static_cast<std::size_t>(s);
      if (dag.external[si] || --dag.npred[si] != 0) continue;
      if (keep &&
          (*keep < 0 ||
           dag.depth[si] > dag.depth[static_cast<std::size_t>(*keep)])) {
        if (*keep >= 0) {
          push_ready_locked(dag, *keep);
          ++released;
        }
        *keep = s;
      } else {
        push_ready_locked(dag, s);
        ++released;
      }
    }
    return released;
  }

  void cancel_locked(DagState& dag) {
    if (dag.cancelled) return;
    dag.cancelled = true;
    total_ready -= static_cast<long long>(dag.ready.size());
    dag.ready = {};
  }

  // Finish check; fires on_done outside the lock. `lk` must be held.
  void maybe_finish_locked(std::unique_lock<std::mutex>& lk,
                           const std::shared_ptr<DagState>& dag) {
    if (dag->done || dag->inflight > 0) return;
    if (!dag->cancelled && dag->remaining > 0) return;
    dag->done = true;
    const bool cancelled = dag->cancelled;
    live.erase(dag->id);
    active.erase(std::find(active.begin(), active.end(), dag));
    outcome.emplace(dag->id, !cancelled);
    if (cancelled)
      ++pool_stats.dags_cancelled;
    else
      ++pool_stats.dags_completed;
    if (opts.metrics) {
      opts.metrics
          ->counter(cancelled ? "dagpool.dags_cancelled"
                              : "dagpool.dags_completed")
          .add(1);
      opts.metrics->gauge("dagpool.active_dags")
          .set(static_cast<double>(active.size()));
    }
    done_cv.notify_all();
    // Wake idle workers too: at shutdown they wait for active to empty.
    work_cv.notify_all();
    auto cb = std::move(dag->on_done);
    if (cb) {
      // wait_all() must not return while a callback is mid-flight: the
      // callback may still chain a submit() or touch per-request state, and
      // callers use wait_all() as the license to tear the pool down.
      ++callbacks_inflight;
      lk.unlock();
      cb(dag->id, cancelled);
      lk.lock();
      if (--callbacks_inflight == 0) {
        done_cv.notify_all();
        work_cv.notify_all();  // a draining shutdown() may be waiting
      }
    }
  }

  // A few workspaces per worker, LRU by tile size — mixed-b tenants reuse
  // scratch instead of reallocating per task, but b is client-controlled,
  // so the cache is capped: a tenant rotating tile sizes cannot grow
  // O(b^2) scratch per worker without bound.
  using WorkspaceCache =
      std::vector<std::pair<int, std::unique_ptr<TileWorkspace>>>;

  static TileWorkspace& workspace_for(WorkspaceCache& cache, int b) {
    constexpr std::size_t kMaxCachedWorkspaces = 4;
    for (std::size_t i = 0; i < cache.size(); ++i) {
      if (cache[i].first == b) {
        std::rotate(cache.begin() + static_cast<std::ptrdiff_t>(i),
                    cache.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                    cache.end());
        return *cache.back().second;
      }
    }
    auto fresh = std::make_unique<TileWorkspace>(b);
    if (cache.size() >= kMaxCachedWorkspaces) cache.erase(cache.begin());
    cache.emplace_back(b, std::move(fresh));
    return *cache.back().second;
  }

  // Runs one task outside the lock; false when it threw.
  bool run_task(int lane, const DagState& dag, std::int32_t idx,
                WorkspaceCache& cache) {
    LaneStats& st = lanes[static_cast<std::size_t>(lane)];
    const KernelOp& op = dag.graph->op(idx);
    const auto k = static_cast<std::size_t>(kernel_type_index(op.type));
    const double t0 = timed ? clock.seconds() : 0.0;
    bool ok = true;
    try {
      // Workspace lookup/construction sits inside the try: b is sized by
      // the client, so an allocation failure here must poison only the
      // offending DAG, exactly like a throwing kernel.
      dag.exec(idx, workspace_for(cache, dag.b));
    } catch (...) {
      ok = false;
    }
    if (timed) {
      const double t1 = clock.seconds();
      st.busy_seconds += t1 - t0;
      st.seconds_by_kernel[k] += t1 - t0;
      if (opts.metrics) kernel_hist[k]->observe(t1 - t0);
      if (opts.trace)
        opts.trace->record(lane, {.task = idx,
                                  .lane = lane,
                                  .type = op.type,
                                  .row = op.row,
                                  .piv = op.piv,
                                  .k = op.k,
                                  .j = op.j,
                                  .start = t0,
                                  .end = t1});
    }
    ++st.executed;
    ++st.tasks_by_kernel[k];
    return ok;
  }

  // True when `lane` has nothing left to do: pool workers leave once the
  // pool stops, the shutdown() caller (lane 0) once every DAG and on_done
  // callback finished.
  bool lane_done_locked(int lane) const {
    return active.empty() && (lane == 0 ? callbacks_inflight == 0 : stopping);
  }

  void worker(int lane) {
    LaneStats& st = lanes[static_cast<std::size_t>(lane)];
    WorkspaceCache cache;
    std::shared_ptr<DagState> dag;
    std::int32_t idx = -1;  // successor kept by the data-reuse heuristic
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      if (idx >= 0) {
        ++st.reuse_hits;
      } else {
        dag = pick_best_locked();
        if (!dag) {
          // Nothing ready anywhere. The wait is idle when it ends in a
          // task and terminal when it ends in shutdown.
          const double w0 = timed ? clock.seconds() : 0.0;
          while (!(dag = pick_best_locked())) {
            if (lane_done_locked(lane)) {
              if (timed) st.terminal_wait_seconds += clock.seconds() - w0;
              return;
            }
            work_cv.wait(lk);
          }
          if (timed) st.idle_seconds += clock.seconds() - w0;
        }
        idx = dag->ready.top().idx;
        dag->ready.pop();
        --total_ready;
        ++st.queue_pops;
      }
      ++dag->delivered;
      ++dag->inflight;
      lk.unlock();
      // A throwing task poisons only its own DAG, never the pool: the DAG
      // is cancelled and its waiter sees "not completed".
      const bool failed = !run_task(lane, *dag, idx, cache);
      lk.lock();

      --dag->inflight;
      ++pool_stats.tasks_executed;
      if (tasks_counter) tasks_counter->add(1);
      if (failed) cancel_locked(*dag);
      std::int32_t keep = -1;
      if (!dag->cancelled) {
        --dag->remaining;
        int released = release_locked(*dag, idx, &keep);
        if (keep >= 0 && !would_win_locked(*dag)) {
          push_ready_locked(*dag, keep);
          ++released;
          keep = -1;
        }
        wake(released);
      }
      idx = keep;
      // With a kept task the DAG still has work, so this cannot finish it.
      maybe_finish_locked(lk, dag);
    }
  }

  DagId submit_dag(std::shared_ptr<const TaskGraph> graph, int b,
                   ExecuteFn exec, DagSubmitOptions sopts) {
    HQR_CHECK(graph != nullptr, "DagPool::submit needs a graph");
    HQR_CHECK(b >= 1, "tile size must be >= 1");
    auto dag = std::make_shared<DagState>();
    dag->graph = std::move(graph);
    dag->b = b;
    dag->exec = std::move(exec);
    dag->priority = sopts.priority;
    dag->on_done = std::move(sopts.on_done);
    const int n = dag->graph->size();
    dag->external.assign(static_cast<std::size_t>(n), 0);
    for (std::int32_t t : sopts.external_tasks) {
      HQR_CHECK(t >= 0 && t < n, "external task " << t << " outside graph of "
                                                  << n << " tasks");
      dag->external[static_cast<std::size_t>(t)] = 1;
    }
    dag->npred.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      dag->npred[static_cast<std::size_t>(i)] = dag->graph->num_predecessors(i);
    // Depth on the critical path of the FULL graph, external tasks
    // included — what the cluster simulator assumes every node schedules by.
    dag->graph->critical_path(unit_weight_duration, &dag->depth);
    for (int i = 0; i < n; ++i)
      if (!dag->external[static_cast<std::size_t>(i)]) ++dag->remaining;

    std::unique_lock<std::mutex> lk(mu);
    HQR_CHECK(!stopping, "DagPool is shutting down");
    if (opts.max_active_dags > 0 && !sopts.bypass_admission_limit &&
        static_cast<int>(active.size()) >= opts.max_active_dags) {
      std::ostringstream os;
      os << "DagPool overloaded: " << active.size() << " active DAGs (limit "
         << opts.max_active_dags << ")";
      throw PoolOverloaded(os.str());
    }
    dag->id = next_id++;
    int seeded = 0;
    for (int i = 0; i < n; ++i) {
      if (dag->external[static_cast<std::size_t>(i)]) continue;
      if (dag->npred[static_cast<std::size_t>(i)] == 0) {
        push_ready_locked(*dag, i);
        ++seeded;
      }
    }
    active.push_back(dag);
    live.emplace(dag->id, dag);
    ++pool_stats.dags_submitted;
    pool_stats.max_active_dags = std::max(
        pool_stats.max_active_dags, static_cast<int>(active.size()));
    if (opts.metrics) {
      opts.metrics->counter("dagpool.dags_submitted").add(1);
      opts.metrics->gauge("dagpool.active_dags")
          .set(static_cast<double>(active.size()));
    }
    wake(seeded);
    const DagId id = dag->id;
    // A DAG whose every task is external finishes without running anything.
    maybe_finish_locked(lk, dag);
    lk.unlock();
    start_workers();
    return id;
  }

  bool wait_dag(DagId id) {
    std::unique_lock<std::mutex> lk(mu);
    done_cv.wait(lk, [&] { return live.find(id) == live.end(); });
    auto it = outcome.find(id);
    HQR_CHECK(it != outcome.end(), "unknown DagId " << id);
    return it->second;
  }

  void wait_all_dags() {
    std::unique_lock<std::mutex> lk(mu);
    // Also wait out in-flight on_done callbacks: a callback that chains a
    // submit() re-populates `active` before callbacks_inflight drops, so
    // this predicate cannot miss chained work.
    done_cv.wait(lk, [&] { return active.empty() && callbacks_inflight == 0; });
  }

  RunStats shutdown_pool() {
    worker(0);
    join_workers();
    RunStats s;
    s.threads = static_cast<int>(lanes.size());
    s.seconds = lifetime.seconds();
    for (const LaneStats& w : lanes) {
      s.tasks_per_thread.push_back(w.executed);
      s.total_tasks += w.executed;
      s.reuse_hits += w.reuse_hits;
      s.queue_pops += w.queue_pops;
      for (std::size_t t = 0; t < w.tasks_by_kernel.size(); ++t) {
        s.tasks_by_kernel[t] += w.tasks_by_kernel[t];
        s.seconds_by_kernel[t] += w.seconds_by_kernel[t];
      }
      if (timed) {
        s.busy_seconds_per_thread.push_back(w.busy_seconds);
        s.idle_seconds_per_thread.push_back(w.idle_seconds);
        s.terminal_wait_seconds_per_thread.push_back(w.terminal_wait_seconds);
      }
    }
    if (opts.metrics) {
      obs::MetricsRegistry& m = *opts.metrics;
      m.counter("exec.tasks").add(s.total_tasks);
      m.counter("exec.reuse_hits").add(s.reuse_hits);
      m.counter("exec.queue_pops").add(s.queue_pops);
      m.gauge("exec.seconds").add(s.seconds);
      for (std::size_t t = 0; t < lanes.size(); ++t) {
        const std::string lane = "exec.worker." + std::to_string(t);
        m.gauge(lane + ".busy_seconds").add(lanes[t].busy_seconds);
        m.gauge(lane + ".idle_seconds").add(lanes[t].idle_seconds);
        m.gauge(lane + ".terminal_wait_seconds")
            .add(lanes[t].terminal_wait_seconds);
      }
    }
    return s;
  }

  bool cancel_dag(DagId id) {
    std::unique_lock<std::mutex> lk(mu);
    auto it = live.find(id);
    if (it == live.end()) return false;
    auto dag = it->second;
    cancel_locked(*dag);
    maybe_finish_locked(lk, dag);
    return true;
  }

  void external_complete(DagId id, std::int32_t producer) {
    std::unique_lock<std::mutex> lk(mu);
    auto it = live.find(id);
    if (it == live.end()) return;  // DAG already finished: stale completion
    DagState& dag = *it->second;
    if (dag.cancelled) return;
    const int n = dag.graph->size();
    HQR_CHECK(producer >= 0 && producer < n,
              "external completion for task " << producer
                                              << " outside graph of " << n);
    wake(release_locked(dag, producer, /*keep=*/nullptr));
  }

  // (dag, task)-namespaced external-completion port: the DAG id is bound
  // at construction, so a producer id can never land in another DAG.
  class PoolPort final : public RemotePort {
   public:
    PoolPort(Impl* impl, DagId id) : impl_(impl), id_(id) {}
    void remote_complete(std::int32_t producer) override {
      impl_->external_complete(id_, producer);
    }
    void cancel() override { impl_->cancel_dag(id_); }

   private:
    Impl* impl_;
    DagId id_;
  };

  DagPoolOptions opts;
  const bool timed;  // a sink is attached: time every task and wait
  Stopwatch lifetime;
  Stopwatch clock;  // trace time base (rebased onto opts.trace_origin)
  obs::Counter* tasks_counter = nullptr;
  std::array<obs::Histogram*, kKernelTypeCount> kernel_hist{};
  mutable std::mutex mu;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::vector<std::shared_ptr<DagState>> active;  // unfinished, in order
  std::unordered_map<DagId, std::shared_ptr<DagState>> live;
  std::unordered_map<DagId, bool> outcome;  // finished: completed?
  DagId next_id = 1;
  bool stopping = false;
  long long total_ready = 0;
  long long callbacks_inflight = 0;  // on_done invocations not yet returned
  DagPoolStats pool_stats;
  std::vector<LaneStats> lanes;
  std::once_flag started;  // workers spawned (or never will be)
  std::vector<std::thread> workers;
};

DagPool::DagPool(const DagPoolOptions& opts)
    : impl_(std::make_unique<Impl>(opts)) {}

DagPool::~DagPool() = default;

DagId DagPool::submit(std::shared_ptr<const TaskGraph> graph, int b,
                      ExecuteFn execute, DagSubmitOptions opts) {
  return impl_->submit_dag(std::move(graph), b, std::move(execute),
                           std::move(opts));
}

bool DagPool::wait(DagId id) { return impl_->wait_dag(id); }

void DagPool::wait_all() { impl_->wait_all_dags(); }

RunStats DagPool::shutdown() { return impl_->shutdown_pool(); }

bool DagPool::cancel(DagId id) { return impl_->cancel_dag(id); }

std::unique_ptr<RemotePort> DagPool::port(DagId id) {
  return std::make_unique<Impl::PoolPort>(impl_.get(), id);
}

int DagPool::active_dags() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return static_cast<int>(impl_->active.size());
}

long long DagPool::ready_tasks() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->total_ready;
}

DagPoolStats DagPool::stats() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->pool_stats;
}

}  // namespace hqr
