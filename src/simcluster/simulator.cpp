#include "simcluster/simulator.hpp"

#include <algorithm>
#include <queue>
#include <string>

#include "common/check.hpp"
#include "dag/partition.hpp"

namespace hqr {
namespace {

// task_node (the owner-computes task->node map) lives in dag/partition.hpp,
// shared with the real distributed runtime so both place every task on the
// same node by construction.

struct Event {
  double time;
  std::int32_t task;
  bool is_completion;  // false: data-ready

  bool operator>(const Event& o) const {
    if (time != o.time) return time > o.time;
    if (is_completion != o.is_completion)
      return is_completion;  // ready events before completions at equal time
    return task > o.task;
  }
};

struct ReadyEntry {
  double priority;
  std::int32_t task;
  bool operator<(const ReadyEntry& o) const {
    if (priority != o.priority) return priority < o.priority;
    return task > o.task;
  }
};

}  // namespace

double qr_useful_flops(long long m, long long n) {
  const double dm = static_cast<double>(m), dn = static_cast<double>(n);
  return 2.0 * dm * dn * dn - 2.0 * dn * dn * dn / 3.0;
}

SimResult simulate_qr(const TaskGraph& graph, const Distribution& dist,
                      long long m, long long n, const SimOptions& opts) {
  const std::int32_t ntasks = graph.size();
  const int nnodes = dist.nodes();
  const double tile_bytes =
      static_cast<double>(opts.b) * opts.b * sizeof(double);

  // Static per-task data.
  std::vector<std::int32_t> node(static_cast<std::size_t>(ntasks));
  std::vector<float> dur(static_cast<std::size_t>(ntasks));
  for (std::int32_t i = 0; i < ntasks; ++i) {
    const KernelOp& op = graph.op(i);
    node[i] = static_cast<std::int32_t>(task_node(op, dist));
    dur[i] = static_cast<float>(opts.platform.kernel_seconds(op.type, opts.b));
  }

  // Priorities: critical-path depth in seconds.
  std::vector<double> depth;
  graph.critical_path(
      [&](const KernelOp& op) {
        return opts.platform.kernel_seconds(op.type, opts.b);
      },
      &depth);

  std::vector<double> ready_time(static_cast<std::size_t>(ntasks), 0.0);
  std::vector<std::int32_t> npred(static_cast<std::size_t>(ntasks));
  for (std::int32_t i = 0; i < ntasks; ++i)
    npred[i] = graph.num_predecessors(i);

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  std::vector<std::priority_queue<ReadyEntry>> ready(
      static_cast<std::size_t>(nnodes));
  std::vector<int> idle(static_cast<std::size_t>(nnodes),
                        opts.platform.cores_per_node);
  std::vector<double> busy(static_cast<std::size_t>(nnodes), 0.0);

  // Tracing needs stable (node, core) lanes, so keep a free-core pool per
  // node and remember each running task's core to return it on completion.
  const int cores = opts.platform.cores_per_node;
  std::vector<std::vector<std::int32_t>> free_cores;
  std::vector<std::int32_t> core_of;
  const auto fill_cores = [&](int nd) {
    free_cores[nd].clear();
    // pop_back yields the lowest id first.
    for (int c = cores; c-- > 0;) free_cores[nd].push_back(c);
  };
  if (opts.trace != nullptr) {
    opts.trace->set_labels("node", "core");
    free_cores.resize(static_cast<std::size_t>(nnodes));
    for (int nd = 0; nd < nnodes; ++nd) fill_cores(nd);
    core_of.assign(static_cast<std::size_t>(ntasks), 0);
  }

  SimResult res;
  res.tasks = ntasks;

  // ---- Fault model state (inert unless the plan has actions) -------------
  // The kill model mirrors the runtime's recovery protocol: the victim's
  // k-th local completion dies in on_complete (its output never leaves),
  // every completed-but-victim-local result is rolled back (the replacement
  // re-executes the whole partition), remote consumers keep what they
  // already received, and at t_kill + fault_restart_seconds the survivors
  // replay the victim's inbound history. One approximation: broadcast trees
  // are pre-scheduled at completion time, so frames still in flight at the
  // kill count as delivered (the real runtime re-delivers them via replay
  // at nearly the same instant).
  const bool faulty = !opts.fault_plan.empty();
  struct ArmedAction {
    fault::FaultAction a;
    bool fired = false;
  };
  std::vector<std::vector<ArmedAction>> armed;  // per node
  std::vector<long long> completions_on;        // 1-based trigger counters
  std::vector<int> gen;    // node incarnation; bumped on kill
  std::vector<int> evgen;  // incarnation stamped on each queued event
  std::vector<char> completed;  // per task; only maintained when faulty
  std::vector<char> redo;  // completion rolled back by a kill; re-executes
  struct LinkBlock {
    int from, to;
    double until;
  };
  std::vector<LinkBlock> link_blocks;
  struct PendingRestart {
    int victim = -1;  // -1: no death window open
    double t_restart = 0.0;
    std::vector<std::int32_t> replay;    // producers completed pre-kill
    std::vector<std::int32_t> deferred;  // producers completed while dead
  };
  PendingRestart restart;
  std::vector<char> def_mask;  // per-node scratch: delivery deferred
  if (faulty) {
    armed.assign(static_cast<std::size_t>(nnodes), {});
    for (const fault::FaultAction& a : opts.fault_plan.actions) {
      HQR_CHECK(a.rank >= 0 && a.rank < nnodes,
                "fault plan rank " << a.rank << " out of range for " << nnodes
                                   << " simulated nodes");
      if (a.kind != fault::FaultKind::KillRank)
        HQR_CHECK(a.peer >= 0 && a.peer < nnodes && a.peer != a.rank,
                  "fault plan peer " << a.peer << " invalid for rank "
                                     << a.rank);
      armed[static_cast<std::size_t>(a.rank)].push_back({a, false});
    }
    completions_on.assign(static_cast<std::size_t>(nnodes), 0);
    gen.assign(static_cast<std::size_t>(nnodes), 0);
    evgen.assign(static_cast<std::size_t>(ntasks), 0);
    completed.assign(static_cast<std::size_t>(ntasks), 0);
    redo.assign(static_cast<std::size_t>(ntasks), 0);
    def_mask.assign(static_cast<std::size_t>(nnodes), 0);
  }
  const auto push_event = [&](double t, std::int32_t task, bool completion) {
    if (faulty) evgen[task] = gen[node[task]];
    events.push({t, task, completion});
  };

  for (std::int32_t r : graph.roots())
    push_event(0.0, r, /*completion=*/false);

  double now = 0.0;
  // Scratch for per-producer broadcast dedup: arrival time per dest node.
  std::vector<double> arrival(static_cast<std::size_t>(nnodes), -1.0);
  std::vector<std::int32_t> touched;
  touched.reserve(16);
  // Per-node NIC occupancy (one send channel, one receive channel).
  std::vector<double> send_free(static_cast<std::size_t>(nnodes), 0.0);
  std::vector<double> recv_free(static_cast<std::size_t>(nnodes), 0.0);
  res.nic_send_busy_seconds.assign(static_cast<std::size_t>(nnodes), 0.0);
  res.nic_recv_busy_seconds.assign(static_cast<std::size_t>(nnodes), 0.0);
  res.node_messages_sent.assign(static_cast<std::size_t>(nnodes), 0);
  res.node_messages_recv.assign(static_cast<std::size_t>(nnodes), 0);
  const double wire = tile_bytes / opts.platform.bandwidth;
  // Outstanding communication-thread CPU debt per node (seconds); drained by
  // stretching running kernels, capped at one core's share of node time.
  std::vector<double> comm_debt(static_cast<std::size_t>(nnodes), 0.0);
  const double msg_cpu =
      opts.comm_cpu_per_msg + tile_bytes * opts.comm_cpu_per_byte;

  // Schedule one tile transfer from `from` to `to` starting no earlier than
  // `avail`; charges NICs, counters and comm-thread CPU on both endpoints
  // and returns the arrival time.
  auto charge_edge = [&](int from, int to, double avail) {
    // A blocked link (severed or delayed by a chaos action) holds frames
    // until it is repaired/expired.
    if (!link_blocks.empty()) {
      for (const LinkBlock& lb : link_blocks)
        if (lb.from == from && lb.to == to && lb.until > avail)
          avail = lb.until;
    }
    double arr;
    if (opts.nic_contention) {
      const double start = std::max({avail, send_free[from], recv_free[to]});
      arr = start + opts.platform.latency + wire;
      send_free[from] = start + wire;
      recv_free[to] = start + wire;
    } else {
      arr = avail + opts.platform.transfer_seconds(tile_bytes);
    }
    ++res.messages;
    ++res.node_messages_sent[static_cast<std::size_t>(from)];
    ++res.node_messages_recv[static_cast<std::size_t>(to)];
    res.volume_gbytes += tile_bytes / 1e9;
    // Wire time occupies both endpoints' NICs whether or not the contention
    // model serializes it.
    res.nic_send_busy_seconds[static_cast<std::size_t>(from)] += wire;
    res.nic_recv_busy_seconds[static_cast<std::size_t>(to)] += wire;
    comm_debt[static_cast<std::size_t>(from)] += msg_cpu;  // pack + progress
    comm_debt[static_cast<std::size_t>(to)] += msg_cpu;    // match + unpack
    res.comm_cpu_charged_seconds += 2.0 * msg_cpu;
    return arr;
  };

  auto record = [&](std::int32_t t, int nd, double start, double finish) {
    const KernelOp& op = graph.op(t);
    res.tasks_by_kernel[kernel_type_index(op.type)] += 1;
    res.seconds_by_kernel[kernel_type_index(op.type)] += finish - start;
    if (opts.trace == nullptr) return;
    auto& pool = free_cores[static_cast<std::size_t>(nd)];
    HQR_CHECK(!pool.empty(), "no free core on node " << nd);
    const std::int32_t u = pool.back();
    pool.pop_back();
    core_of[t] = u;
    opts.trace->add({.task = t,
                     .lane = nd,
                     .sub = u,
                     .type = op.type,
                     .row = op.row,
                     .piv = op.piv,
                     .k = op.k,
                     .j = op.j,
                     .start = start,
                     .end = finish});
  };

  // Idle cores take the node's highest-priority ready tasks.
  auto dispatch = [&](int nd) {
    while (idle[nd] > 0 && !ready[nd].empty()) {
      const std::int32_t t = ready[nd].top().task;
      ready[nd].pop();
      --idle[nd];
      double d = dur[t];
      if (opts.comm_thread_steal && comm_debt[nd] > 0.0) {
        // The communication thread steals at most one core's worth of time
        // from the running kernels.
        const double steal = std::min(
            comm_debt[nd], d / opts.platform.cores_per_node);
        comm_debt[nd] -= steal;
        res.comm_cpu_stolen_seconds += steal;
        d += steal;
      }
      const double finish = now + d;
      busy[nd] += d;
      record(t, nd, now, finish);
      push_event(finish, t, /*completion=*/true);
    }
  };

  long long done = 0;

  // ---- Fault model procedures -------------------------------------------
  // Distinct remote consumer nodes of p, ascending — CommPlan's group order,
  // used to rebuild p's broadcast tree deterministically at recovery time.
  std::vector<std::int32_t> cons;
  const auto consumer_nodes_of = [&](std::int32_t p,
                                     std::vector<std::int32_t>& out) {
    out.clear();
    for (std::int32_t s : graph.successors(p)) {
      const std::int32_t sn = node[s];
      if (sn != node[p] && std::find(out.begin(), out.end(), sn) == out.end())
        out.push_back(sn);
    }
    std::sort(out.begin(), out.end());
  };

  const auto do_kill = [&](int nd) {
    HQR_CHECK(restart.victim < 0,
              "fault plan: rank " << nd << " killed while another recovery "
                                  << "window was still open");
    ++res.faults_injected;
    res.kill_seconds = now;
    restart.victim = nd;
    restart.t_restart = now + opts.fault_restart_seconds;
    restart.replay.clear();
    restart.deferred.clear();
    ++gen[nd];           // every in-flight event on the victim is now a ghost
    long long lost = 1;  // the completion that triggered the kill dies too
    for (std::int32_t i = 0; i < ntasks; ++i) {
      if (node[i] != nd) continue;
      if (completed[i]) {
        // Output already reached its remote consumers; the replacement still
        // re-executes it (redo: duplicates dropped at the receivers).
        completed[i] = 0;
        redo[i] = 1;
        --done;
        ++lost;
      }
      npred[i] = graph.num_predecessors(i);
      ready_time[i] = restart.t_restart;
      ++res.tasks_reexecuted;
    }
    res.tasks_lost += lost;
    // Frames the victim had been shipped before dying; survivors keep them
    // in their SentTileLogs and replay at re-wire.
    for (std::int32_t p = 0; p < ntasks; ++p) {
      if (!completed[p] || node[p] == nd) continue;
      for (std::int32_t s : graph.successors(p)) {
        if (node[s] == nd) {
          restart.replay.push_back(p);
          break;
        }
      }
    }
    // The replacement process starts with fresh resources and arms no
    // further chaos actions.
    idle[nd] = opts.platform.cores_per_node;
    comm_debt[nd] = 0.0;
    ready[nd] = {};
    if (opts.trace != nullptr) fill_cores(nd);
    armed[nd].clear();
  };

  // The replacement joins at t_restart: survivors replay the victim's
  // inbound history, deliveries the death window starved get relayed down
  // the victim's subtrees, and the partition's roots restart.
  const auto process_restart = [&]() {
    const int vic = restart.victim;
    now = restart.t_restart;
    for (std::int32_t p : restart.replay) {
      consumer_nodes_of(p, cons);
      double arr;
      if (opts.broadcast == BroadcastKind::Binomial) {
        const int g = static_cast<int>(cons.size()) + 1;
        const int vv =
            1 + static_cast<int>(std::lower_bound(cons.begin(), cons.end(),
                                                  vic) -
                                 cons.begin());
        // Each frame re-arrives from the sender the plan used originally:
        // the victim's parent in p's broadcast tree.
        const int parent = vv - (vv & -vv);
        arr = charge_edge(parent == 0 ? node[p]
                                      : cons[static_cast<std::size_t>(parent -
                                                                      1)],
                          vic, restart.t_restart);
        ++res.messages_replayed;
        // The replacement relays the replayed frame to its tree children,
        // which already hold it and drop the duplicate.
        for_each_binomial_child(vv, g, [&](int c) {
          charge_edge(vic, cons[static_cast<std::size_t>(c - 1)], arr);
          ++res.messages_resent;
        });
      } else {
        arr = charge_edge(node[p], vic, restart.t_restart);
        ++res.messages_replayed;
      }
      for (std::int32_t s : graph.successors(p)) {
        if (node[s] != vic) continue;
        ready_time[s] = std::max(ready_time[s], arr);
        if (--npred[s] == 0) push_event(ready_time[s], s, false);
      }
    }
    for (std::int32_t p : restart.deferred) {
      consumer_nodes_of(p, cons);
      if (opts.broadcast == BroadcastKind::Binomial) {
        const int g = static_cast<int>(cons.size()) + 1;
        const int vv =
            1 + static_cast<int>(std::lower_bound(cons.begin(), cons.end(),
                                                  vic) -
                                 cons.begin());
        const auto node_at = [&](int v) -> int {
          return v == 0 ? node[p] : cons[static_cast<std::size_t>(v - 1)];
        };
        const int parent = vv - (vv & -vv);
        std::vector<double> arr_v(static_cast<std::size_t>(g), 0.0);
        std::vector<char> in_sub(static_cast<std::size_t>(g), 0);
        in_sub[vv] = 1;
        arr_v[vv] = charge_edge(node_at(parent), vic, restart.t_restart);
        ++res.messages_replayed;
        // Children have higher virtual indices than their parent, so one
        // ascending scan visits the subtree parents-first.
        for (int v = vv; v < g; ++v) {
          if (!in_sub[v]) continue;
          for_each_binomial_child(v, g, [&](int c) {
            in_sub[c] = 1;
            arr_v[c] = charge_edge(node_at(v), node_at(c), arr_v[v]);
          });
        }
        for (std::int32_t s : graph.successors(p)) {
          const std::int32_t sn = node[s];
          if (sn == node[p]) continue;
          const int v =
              1 + static_cast<int>(std::lower_bound(cons.begin(), cons.end(),
                                                    sn) -
                                   cons.begin());
          if (!in_sub[v]) continue;
          ready_time[s] = std::max(ready_time[s], arr_v[v]);
          if (--npred[s] == 0) push_event(ready_time[s], s, false);
        }
      } else {
        const double arr = charge_edge(node[p], vic, restart.t_restart);
        ++res.messages_replayed;
        for (std::int32_t s : graph.successors(p)) {
          if (node[s] != vic) continue;
          ready_time[s] = std::max(ready_time[s], arr);
          if (--npred[s] == 0) push_event(ready_time[s], s, false);
        }
      }
    }
    for (std::int32_t i = 0; i < ntasks; ++i) {
      if (node[i] != vic || graph.num_predecessors(i) != 0) continue;
      push_event(ready_time[i], i, false);
    }
    restart.victim = -1;
  };

  while (!events.empty() || (faulty && restart.victim >= 0)) {
    if (faulty && restart.victim >= 0 &&
        (events.empty() || restart.t_restart <= events.top().time)) {
      process_restart();
      continue;
    }
    const Event ev = events.top();
    events.pop();
    now = ev.time;
    const int nd = node[ev.task];
    // Events stamped by a dead incarnation of their node are ghosts: the
    // kill rolled their effects back.
    if (faulty && evgen[ev.task] != gen[nd]) continue;
    if (!ev.is_completion) {
      ready[nd].push({depth[ev.task], ev.task});
      dispatch(nd);
      continue;
    }

    // Chaos triggers fire on the node's k-th local completion, like the
    // runtime's on_complete hook; a kill discards the completion itself.
    if (faulty && !armed[nd].empty()) {
      const long long k = ++completions_on[nd];
      bool killed = false;
      for (ArmedAction& aa : armed[nd]) {
        if (aa.fired || aa.a.at_task != k) continue;
        aa.fired = true;
        if (aa.a.kind == fault::FaultKind::KillRank) {
          do_kill(nd);
          killed = true;
          break;
        }
        ++res.faults_injected;
        const double until =
            now + (aa.a.kind == fault::FaultKind::DelayLink
                       ? aa.a.delay_seconds
                       : opts.fault_restart_seconds);
        link_blocks.push_back({nd, aa.a.peer, until});
        if (aa.a.kind == fault::FaultKind::DropLink)
          link_blocks.push_back({aa.a.peer, nd, until});  // severed both ways
      }
      if (killed) continue;
    }

    // Task completion: free the core, release successors.
    ++done;
    ++idle[nd];
    if (opts.trace != nullptr) free_cores[nd].push_back(core_of[ev.task]);
    if (faulty && redo[ev.task]) {
      // Re-execution of rolled-back work whose output already reached every
      // remote consumer before the kill: the replacement re-posts (direct
      // tree children only — receivers drop the duplicate without
      // forwarding) and only victim-local successors are gated on it.
      redo[ev.task] = 0;
      completed[ev.task] = 1;
      consumer_nodes_of(ev.task, cons);
      if (!cons.empty()) {
        if (opts.broadcast == BroadcastKind::Binomial) {
          const int g = static_cast<int>(cons.size()) + 1;
          for_each_binomial_child(0, g, [&](int c) {
            charge_edge(nd, cons[static_cast<std::size_t>(c - 1)], now);
            ++res.messages_resent;
          });
        } else {
          for (std::int32_t cn : cons) {
            charge_edge(nd, cn, now);
            ++res.messages_resent;
          }
        }
      }
      for (std::int32_t s : graph.successors(ev.task)) {
        if (node[s] != nd) continue;
        ready_time[s] = std::max(ready_time[s], now);
        if (--npred[s] == 0) push_event(ready_time[s], s, false);
      }
      dispatch(nd);
      continue;
    }
    if (faulty) completed[ev.task] = 1;
    // While a death window is open, deliveries into the victim (and, under
    // Binomial, through it to its subtree) defer to the restart: the frame
    // is dropped at the dead peer but logged, and the replacement relays it
    // after replay.
    const bool window = faulty && restart.victim >= 0;
    bool any_deferred = false;
    if (opts.broadcast == BroadcastKind::Binomial) {
      // Pre-schedule the whole broadcast tree: collect the distinct
      // consumer nodes (ascending, CommPlan's group order), then walk
      // parents in tree order so no edge starts before its parent's
      // arrival; each parent's sends still serialize on its NIC.
      for (std::int32_t s : graph.successors(ev.task)) {
        const int sn = node[s];
        if (sn != nd && arrival[sn] < 0.0) {
          arrival[sn] = 0.0;
          touched.push_back(sn);
        }
      }
      std::sort(touched.begin(), touched.end());
      const int g = static_cast<int>(touched.size()) + 1;
      const auto node_at = [&](int v) -> int {
        return v == 0 ? nd : touched[static_cast<std::size_t>(v - 1)];
      };
      if (window) {
        int vv = -1;
        for (int v = 1; v < g; ++v)
          if (node_at(v) == restart.victim) {
            vv = v;
            break;
          }
        if (vv > 0) {
          // The victim heads a subtree of this broadcast: defer its node
          // set's deliveries to the restart.
          any_deferred = true;
          restart.deferred.push_back(ev.task);
          std::vector<char> in_sub(static_cast<std::size_t>(g), 0);
          in_sub[vv] = 1;
          for (int v = vv; v < g; ++v) {
            if (!in_sub[v]) continue;
            def_mask[node_at(v)] = 1;
            for_each_binomial_child(v, g, [&](int c) { in_sub[c] = 1; });
          }
        }
      }
      for (int v = 0; v < g; ++v) {
        if (any_deferred && def_mask[node_at(v)]) continue;
        const double avail = v == 0 ? now : arrival[node_at(v)];
        for_each_binomial_child(v, g, [&](int c) {
          if (any_deferred && def_mask[node_at(c)]) return;
          arrival[node_at(c)] = charge_edge(node_at(v), node_at(c), avail);
        });
      }
    }
    for (std::int32_t s : graph.successors(ev.task)) {
      const int sn = node[s];
      if (window && sn == restart.victim && !def_mask[sn]) {
        // Eager reaches here with no pre-scheduled tree: defer the
        // victim's (sole) deferred delivery the same way.
        any_deferred = true;
        def_mask[sn] = 1;
        restart.deferred.push_back(ev.task);
      }
      if (any_deferred && def_mask[sn]) continue;  // held until the restart
      double avail = now;
      if (sn != nd) {
        if (arrival[sn] < 0.0) {  // Eager: lazy per-dest dedup
          arrival[sn] = charge_edge(nd, sn, now);
          touched.push_back(sn);
        }
        avail = arrival[sn];
      }
      ready_time[s] = std::max(ready_time[s], avail);
      if (--npred[s] == 0)
        push_event(ready_time[s], s, /*completion=*/false);
    }
    if (any_deferred) {
      for (std::int32_t t : touched) def_mask[t] = 0;
      def_mask[restart.victim] = 0;
    }
    for (std::int32_t t : touched) arrival[t] = -1.0;
    touched.clear();
    dispatch(nd);
  }

  HQR_CHECK(done == ntasks, "simulation deadlock: " << done << " of "
                                                    << ntasks << " completed");

  res.seconds = now;
  res.useful_gflop = qr_useful_flops(m, n) / 1e9;
  res.gflops = res.seconds > 0 ? res.useful_gflop / res.seconds : 0.0;
  res.peak_fraction = res.gflops / opts.platform.theoretical_peak_gflops();
  double total_busy = 0.0;
  res.node_busy_fraction.reserve(busy.size());
  const double node_capacity = res.seconds * opts.platform.cores_per_node;
  for (double b : busy) {
    total_busy += b;
    res.node_busy_fraction.push_back(node_capacity > 0 ? b / node_capacity
                                                       : 0.0);
  }
  const double capacity = node_capacity * nnodes;
  res.core_utilization = capacity > 0 ? total_busy / capacity : 0.0;
  res.critical_path_seconds = graph.critical_path([&](const KernelOp& op) {
    return opts.platform.kernel_seconds(op.type, opts.b);
  });

  if (opts.metrics != nullptr) {
    obs::MetricsRegistry& m = *opts.metrics;
    m.counter("sim.tasks").add(res.tasks);
    m.counter("sim.messages").add(res.messages);
    m.counter("sim.bytes").add(
        static_cast<long long>(res.volume_gbytes * 1e9 + 0.5));
    m.gauge("sim.makespan_seconds").add(res.seconds);
    m.gauge("sim.comm_cpu_charged_seconds").add(res.comm_cpu_charged_seconds);
    m.gauge("sim.comm_cpu_stolen_seconds").add(res.comm_cpu_stolen_seconds);
    double nic_send = 0.0, nic_recv = 0.0;
    for (double s : res.nic_send_busy_seconds) nic_send += s;
    for (double s : res.nic_recv_busy_seconds) nic_recv += s;
    m.gauge("sim.nic_send_busy_seconds").add(nic_send);
    m.gauge("sim.nic_recv_busy_seconds").add(nic_recv);
    for (int t = 0; t < kKernelTypeCount; ++t) {
      if (res.tasks_by_kernel[t] == 0) continue;
      const std::string kname = kernel_name(static_cast<KernelType>(t));
      m.counter("sim.tasks." + kname).add(res.tasks_by_kernel[t]);
      m.gauge("sim.task_seconds." + kname).add(res.seconds_by_kernel[t]);
    }
    if (faulty) {
      m.counter("sim.fault.injected").add(res.faults_injected);
      m.counter("sim.fault.tasks_lost").add(res.tasks_lost);
      m.counter("sim.fault.tasks_reexecuted").add(res.tasks_reexecuted);
      m.counter("sim.fault.messages_replayed").add(res.messages_replayed);
      m.counter("sim.fault.messages_resent").add(res.messages_resent);
      m.gauge("sim.fault.kill_seconds").add(res.kill_seconds);
    }
  }
  return res;
}

}  // namespace hqr
