// Discrete-event simulation of a tile QR factorization on a cluster of
// multicore nodes — the reproduction substrate for the paper's Figures 6-9.
//
// Model:
//  * every task executes on the node owning the tile it zeroes/updates
//    (owner-computes): GEQRT/UNMQR on owner(row, k/j), the pencil kernels on
//    the victim row's tile owner;
//  * each node runs `cores_per_node` cores; ready tasks are dispatched to
//    idle cores by priority (critical-path depth), mirroring the DAGuE
//    scheduler;
//  * a dependency crossing nodes costs one message of one tile
//    (latency + b^2*8/bandwidth); a producer's output is sent to each
//    consuming node once (broadcast dedup); each node has one send and one
//    receive channel, so heavy traffic serializes at the NICs (this is what
//    penalizes distribution-unaware algorithms, §V-C);
//  * kernel durations come from per-kernel GFlop/s rates calibrated to the
//    paper's measured dTSMQR/dTTMQR numbers.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "dag/partition.hpp"
#include "dag/task_graph.hpp"
#include "dist/distribution.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simcluster/platform.hpp"

namespace hqr {

// Execution traces of simulated runs use the unified observability layer
// (obs/trace.hpp): one TraceEvent per task with lane = node, sub = core.
// Export to CSV or Chrome/Perfetto JSON through TraceRecorder; analyze with
// obs/analyzer.hpp.
using TraceEvent = obs::TraceEvent;
using SimTrace = obs::TraceRecorder;

struct SimOptions {
  Platform platform;
  int b = 280;                     // tile size (elements)
  // Serialize transfers on per-node NICs (one send + one receive channel
  // per node). Without it bandwidth is infinite and only per-message
  // pipeline delay remains (network-model ablation).
  bool nic_contention = true;
  // Model the DAGuE communication thread competing with compute threads for
  // cores (§V-A: "an additional communication thread ... allowed to run on
  // any core"). Every message charges CPU time (packing, matching, MPI
  // progress) on both endpoints; the steal rate is capped at one core's
  // worth, and it is what penalizes distribution-unaware algorithms whose
  // traffic is large (§V-C on [BBD+10]).
  bool comm_thread_steal = true;
  double comm_cpu_per_msg = 5e-6;       // fixed per-message CPU cost (s)
  double comm_cpu_per_byte = 1.0 / 1e9; // pack/unpack cost (s per byte)
  // How a producer's output reaches its consuming nodes (dag/partition.hpp).
  // Eager serializes every transfer on the producer's send NIC; Binomial
  // forwards through intermediate consumers (same total message count, the
  // sends redistribute across the broadcast tree). Must match the
  // distributed runtime's DistOptions::broadcast for per-rank
  // cross-validation to hold.
  BroadcastKind broadcast = BroadcastKind::Eager;
  // Deterministic fault schedule, executed with the same logical triggers
  // as the distributed runtime (fault/plan.hpp: a node's k-th local task
  // completion). KillRank rolls the victim's completed-but-unconsumed work
  // back and models the recovery protocol: restart after
  // fault_restart_seconds, survivors replay every frame the victim was
  // sent, the replacement re-executes its whole partition and re-posts
  // (duplicates charged, dropped at receivers). DropLink/DelayLink block
  // the link's edges until repair/expiry. Empty = fault-free (bit-identical
  // to pre-fault builds).
  fault::FaultPlan fault_plan;
  // Death window: delay between a kill and the replacement joining
  // (launcher detection + fork + deterministic rebuild).
  double fault_restart_seconds = 0.05;
  // When non-null, receives one TraceEvent per executed task (use only for
  // runs small enough to hold the trace).
  SimTrace* trace = nullptr;
  // When non-null, receives simulator counters/histograms (sim.* names):
  // messages, bytes, NIC busy, comm-CPU steal, per-kernel task durations.
  obs::MetricsRegistry* metrics = nullptr;
};

struct SimResult {
  double seconds = 0.0;            // simulated makespan
  double gflops = 0.0;             // useful flops / makespan
  double useful_gflop = 0.0;       // 2MN^2 - 2/3 N^3, in GFlop
  double peak_fraction = 0.0;      // gflops / platform peak
  long long messages = 0;          // inter-node messages
  double volume_gbytes = 0.0;      // inter-node traffic
  double core_utilization = 0.0;   // busy time / (makespan * cores)
  double critical_path_seconds = 0.0;  // zero-communication lower bound
  long long tasks = 0;
  std::vector<double> node_busy_fraction;  // per-node busy / makespan*cores

  // Observability breakdowns (always filled; simulated time is free).
  std::array<long long, kKernelTypeCount> tasks_by_kernel{};
  std::array<double, kKernelTypeCount> seconds_by_kernel{};
  std::vector<double> nic_send_busy_seconds;  // per-node send-channel busy
  std::vector<double> nic_recv_busy_seconds;  // per-node receive-channel busy
  // Per-node message counts; totals equal `messages` and, by construction,
  // CommPlan::sent_by/received_by under the same BroadcastKind.
  std::vector<long long> node_messages_sent;
  std::vector<long long> node_messages_recv;
  double comm_cpu_charged_seconds = 0.0;  // comm-thread CPU debt incurred
  double comm_cpu_stolen_seconds = 0.0;   // debt actually drained from cores

  // Fault model (SimOptions::fault_plan; all zero on fault-free runs).
  int faults_injected = 0;
  double kill_seconds = 0.0;       // simulated instant of the (last) kill
  long long tasks_lost = 0;        // victim completions the kill discarded
  // Victim-partition tasks the replacement re-executes — deterministic:
  // equals CommPlan::tasks_on(victim) and the replacement's measured task
  // count in the real runtime (the cross-validation invariant).
  long long tasks_reexecuted = 0;
  // Frames survivors re-ship from their SentTileLogs (includes deliveries
  // the death window deferred); bounded by CommPlan::received_by(victim).
  long long messages_replayed = 0;
  // Duplicate frames the replacement re-posts while re-executing (dropped
  // at the receivers); bounded by CommPlan::sent_by(victim).
  long long messages_resent = 0;
};

// Simulates the execution of `graph` (built for an mt x nt tile grid) under
// `dist`; m and n are the *element* dimensions used for the useful-flops
// figure of merit.
SimResult simulate_qr(const TaskGraph& graph, const Distribution& dist,
                      long long m, long long n, const SimOptions& opts);

// Useful flops of an m x n QR factorization (m >= n): 2mn^2 - 2n^3/3.
double qr_useful_flops(long long m, long long n);

}  // namespace hqr
