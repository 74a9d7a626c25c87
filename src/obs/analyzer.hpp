// Post-run bottleneck analyzer: turns a recorded trace (plus, optionally,
// the task graph that was executed) into the quantities the paper uses to
// explain its results — realized critical path, kernel-type breakdown,
// per-lane utilization and pipeline-stall gaps (§V, Figs. 5-9 discussion).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dag/task_graph.hpp"
#include "obs/trace.hpp"

namespace hqr::obs {

struct KernelStat {
  KernelType type;
  long long count = 0;
  double total_seconds = 0.0;
  double mean_seconds = 0.0;
};

struct LaneStat {
  std::int32_t lane = 0;
  std::int32_t sub = 0;
  long long tasks = 0;
  double busy_seconds = 0.0;
  double utilization = 0.0;  // busy / makespan
};

// An idle interval on one lane between two consecutive tasks (or before the
// first / after the last): where pipelining failed to keep the lane fed.
struct StallGap {
  std::int32_t lane = 0;
  std::int32_t sub = 0;
  double start = 0.0;
  double end = 0.0;
  double length() const { return end - start; }
};

// Per-rank comm/compute/idle breakdown of a merged distributed trace
// (merge_rank_traces output: lane == rank, sub == worker, flows recorded).
// Populated only when the trace carries flow events.
struct RankStat {
  std::int32_t rank = 0;
  int workers = 0;  // distinct worker tracks seen on the rank
  long long tasks = 0;
  double compute_seconds = 0.0;  // sum of task durations on the rank
  double idle_seconds = 0.0;     // workers * makespan - compute
  long long messages_in = 0;     // complete inbound flows
  long long messages_out = 0;
  // Largest wire latency (aligned recv - send) over inbound flows: how long
  // the slowest tile transfer into this rank spent in flight.
  double max_message_latency_seconds = 0.0;
};

struct AnalysisReport {
  double makespan = 0.0;
  long long tasks = 0;
  int lanes = 0;               // distinct (lane, sub) pairs
  double busy_seconds = 0.0;   // sum of task durations
  double utilization = 0.0;    // busy / (makespan * lanes)

  // Longest dependency chain through the *recorded* durations (needs the
  // graph; 0 when analyzed without one). On a contention-free run this
  // equals the model critical path; the excess of makespan over it is
  // scheduling/communication/queueing delay.
  double realized_critical_path = 0.0;
  double critical_path_fraction = 0.0;    // realized_cp / makespan
  std::vector<std::int32_t> critical_tasks;  // the realizing chain, in order

  std::vector<KernelStat> kernels;  // sorted by total_seconds, descending
  std::vector<LaneStat> lane_stats; // sorted by (lane, sub)
  std::vector<StallGap> top_gaps;   // largest first, at most top_k
  std::vector<RankStat> rank_stats; // distributed traces only (see RankStat)

  std::string to_text() const;
  void write_json(std::ostream& os) const;
  // Throws hqr::Error when the file cannot be written.
  void save_json(const std::string& path) const;
};

// Analyzes `trace`; pass the executed `graph` to enable the realized
// critical path (trace.task must index into it). `top_k` bounds both the
// bottleneck-kernel list and the stall-gap list.
AnalysisReport analyze_trace(const TraceRecorder& trace,
                             const TaskGraph* graph = nullptr, int top_k = 10);

}  // namespace hqr::obs
