#include "obs/analyzer.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "common/check.hpp"
#include "common/table.hpp"

namespace hqr::obs {
namespace {

// Longest dependency chain using recorded durations. Graph indices are a
// topological order by construction (kernel lists are sequentially valid),
// so one forward sweep suffices. Tasks absent from the trace get duration 0.
void realized_critical_path(const std::vector<TraceEvent>& events,
                            const TaskGraph& graph, AnalysisReport* rep) {
  const int n = graph.size();
  std::vector<double> dur(static_cast<std::size_t>(n), 0.0);
  for (const TraceEvent& e : events)
    if (e.task >= 0 && e.task < n)
      dur[static_cast<std::size_t>(e.task)] = e.end - e.start;

  std::vector<double> chain_in(static_cast<std::size_t>(n), 0.0);
  std::vector<std::int32_t> pred(static_cast<std::size_t>(n), -1);
  double best = 0.0;
  std::int32_t best_task = -1;
  for (std::int32_t i = 0; i < n; ++i) {
    const double through = chain_in[i] + dur[i];
    if (through > best) {
      best = through;
      best_task = i;
    }
    for (std::int32_t s : graph.successors(i)) {
      if (through > chain_in[s]) {
        chain_in[s] = through;
        pred[s] = i;
      }
    }
  }
  rep->realized_critical_path = best;
  for (std::int32_t t = best_task; t >= 0; t = pred[t])
    rep->critical_tasks.push_back(t);
  std::reverse(rep->critical_tasks.begin(), rep->critical_tasks.end());
}

}  // namespace

AnalysisReport analyze_trace(const TraceRecorder& trace,
                             const TaskGraph* graph, int top_k) {
  AnalysisReport rep;
  const std::vector<TraceEvent> events = trace.sorted_events();
  rep.tasks = static_cast<long long>(events.size());
  for (const TraceEvent& e : events) rep.makespan = std::max(rep.makespan, e.end);

  // Kernel-type breakdown.
  std::array<KernelStat, kKernelTypeCount> by_kernel{};
  for (const TraceEvent& e : events) {
    KernelStat& s = by_kernel[kernel_type_index(e.type)];
    s.type = e.type;
    ++s.count;
    s.total_seconds += e.end - e.start;
    rep.busy_seconds += e.end - e.start;
  }
  for (KernelStat& s : by_kernel) {
    if (s.count == 0) continue;
    s.mean_seconds = s.total_seconds / static_cast<double>(s.count);
    rep.kernels.push_back(s);
  }
  std::sort(rep.kernels.begin(), rep.kernels.end(),
            [](const KernelStat& a, const KernelStat& b) {
              return a.total_seconds > b.total_seconds;
            });
  if (static_cast<int>(rep.kernels.size()) > top_k)
    rep.kernels.resize(static_cast<std::size_t>(top_k));

  // Per-lane utilization and stall gaps. Events within one (lane, sub) are
  // already in start order (sorted_events sorts by start).
  std::map<std::pair<std::int32_t, std::int32_t>, LaneStat> lanes;
  std::map<std::pair<std::int32_t, std::int32_t>, double> lane_cursor;
  std::vector<StallGap> gaps;
  for (const TraceEvent& e : events) {
    const auto key = std::make_pair(e.lane, e.sub);
    LaneStat& ls = lanes[key];
    ls.lane = e.lane;
    ls.sub = e.sub;
    ++ls.tasks;
    ls.busy_seconds += e.end - e.start;
    auto [it, fresh] = lane_cursor.try_emplace(key, 0.0);
    if (e.start > it->second)
      gaps.push_back({e.lane, e.sub, it->second, e.start});
    it->second = std::max(it->second, e.end);
    (void)fresh;
  }
  for (auto& [key, cursor] : lane_cursor)
    if (cursor < rep.makespan)
      gaps.push_back({key.first, key.second, cursor, rep.makespan});
  rep.lanes = static_cast<int>(lanes.size());
  for (auto& [key, ls] : lanes) {
    ls.utilization = rep.makespan > 0 ? ls.busy_seconds / rep.makespan : 0.0;
    rep.lane_stats.push_back(ls);
  }
  rep.utilization = (rep.makespan > 0 && rep.lanes > 0)
                        ? rep.busy_seconds / (rep.makespan * rep.lanes)
                        : 0.0;
  std::sort(gaps.begin(), gaps.end(), [](const StallGap& a, const StallGap& b) {
    return a.length() > b.length();
  });
  if (static_cast<int>(gaps.size()) > top_k)
    gaps.resize(static_cast<std::size_t>(top_k));
  rep.top_gaps = std::move(gaps);

  // Per-rank breakdown, only meaningful for merged distributed traces
  // (flows recorded; lane == rank there by merge_rank_traces' contract).
  const std::vector<FlowEvent> flows = trace.flows();
  if (!flows.empty()) {
    std::map<std::int32_t, RankStat> ranks;
    std::map<std::int32_t, std::set<std::int32_t>> workers;
    for (const TraceEvent& e : events) {
      RankStat& r = ranks[e.lane];
      r.rank = e.lane;
      ++r.tasks;
      r.compute_seconds += e.end - e.start;
      workers[e.lane].insert(e.sub);
    }
    for (const FlowEvent& fl : flows) {
      if (!fl.complete()) continue;
      ranks[fl.src_rank].rank = fl.src_rank;
      ranks[fl.dest_rank].rank = fl.dest_rank;
      ++ranks[fl.src_rank].messages_out;
      RankStat& in = ranks[fl.dest_rank];
      ++in.messages_in;
      in.max_message_latency_seconds = std::max(
          in.max_message_latency_seconds, fl.recv_time - fl.send_time);
    }
    for (auto& [rank, r] : ranks) {
      r.workers = static_cast<int>(workers[rank].size());
      r.idle_seconds =
          std::max(0.0, r.workers * rep.makespan - r.compute_seconds);
      rep.rank_stats.push_back(r);
    }
  }

  if (graph != nullptr) {
    realized_critical_path(events, *graph, &rep);
    rep.critical_path_fraction =
        rep.makespan > 0 ? rep.realized_critical_path / rep.makespan : 0.0;
  }
  return rep;
}

std::string AnalysisReport::to_text() const {
  std::ostringstream os;
  os.precision(6);
  os << "== trace analysis ==\n"
     << "makespan            " << makespan << " s over " << tasks
     << " tasks on " << lanes << " lanes\n"
     << "lane utilization    " << 100.0 * utilization << " %\n";
  if (realized_critical_path > 0.0) {
    os << "realized crit. path " << realized_critical_path << " s ("
       << 100.0 * critical_path_fraction << " % of makespan, "
       << critical_tasks.size() << " tasks)\n";
  }
  TextTable kt({"kernel", "tasks", "total s", "mean s", "% busy"});
  for (const KernelStat& s : kernels) {
    kt.row()
        .add(kernel_name(s.type))
        .add(s.count)
        .add(s.total_seconds, 5)
        .add(s.mean_seconds, 6)
        .add(busy_seconds > 0 ? 100.0 * s.total_seconds / busy_seconds : 0.0,
             3);
  }
  os << "\nbottleneck kernels:\n";
  kt.print(os);
  if (!top_gaps.empty()) {
    TextTable gt({"lane", "sub", "idle from", "to", "seconds"});
    for (const StallGap& g : top_gaps) {
      gt.row().add(g.lane).add(g.sub).add(g.start, 5).add(g.end, 5).add(
          g.length(), 5);
    }
    os << "\nlargest pipeline stalls:\n";
    gt.print(os);
  }
  if (!rank_stats.empty()) {
    TextTable rt({"rank", "workers", "tasks", "compute s", "idle s",
                  "msgs in", "msgs out", "max latency s"});
    for (const RankStat& r : rank_stats) {
      rt.row()
          .add(r.rank)
          .add(r.workers)
          .add(r.tasks)
          .add(r.compute_seconds, 5)
          .add(r.idle_seconds, 5)
          .add(r.messages_in)
          .add(r.messages_out)
          .add(r.max_message_latency_seconds, 6);
    }
    os << "\nper-rank breakdown:\n";
    rt.print(os);
  }
  return os.str();
}

void AnalysisReport::write_json(std::ostream& os) const {
  os.precision(17);
  os << "{\n"
     << "  \"makespan_seconds\": " << makespan << ",\n"
     << "  \"tasks\": " << tasks << ",\n"
     << "  \"lanes\": " << lanes << ",\n"
     << "  \"busy_seconds\": " << busy_seconds << ",\n"
     << "  \"utilization\": " << utilization << ",\n"
     << "  \"realized_critical_path_seconds\": " << realized_critical_path
     << ",\n"
     << "  \"critical_path_fraction\": " << critical_path_fraction << ",\n";
  os << "  \"critical_tasks\": [";
  for (std::size_t i = 0; i < critical_tasks.size(); ++i)
    os << (i ? "," : "") << critical_tasks[i];
  os << "],\n  \"kernels\": [";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelStat& s = kernels[i];
    os << (i ? "," : "") << "\n    {\"kernel\": \"" << kernel_name(s.type)
       << "\", \"count\": " << s.count
       << ", \"total_seconds\": " << s.total_seconds
       << ", \"mean_seconds\": " << s.mean_seconds << '}';
  }
  os << "\n  ],\n  \"lane_stats\": [";
  for (std::size_t i = 0; i < lane_stats.size(); ++i) {
    const LaneStat& s = lane_stats[i];
    os << (i ? "," : "") << "\n    {\"lane\": " << s.lane
       << ", \"sub\": " << s.sub << ", \"tasks\": " << s.tasks
       << ", \"busy_seconds\": " << s.busy_seconds
       << ", \"utilization\": " << s.utilization << '}';
  }
  os << "\n  ],\n  \"top_gaps\": [";
  for (std::size_t i = 0; i < top_gaps.size(); ++i) {
    const StallGap& g = top_gaps[i];
    os << (i ? "," : "") << "\n    {\"lane\": " << g.lane
       << ", \"sub\": " << g.sub << ", \"start\": " << g.start
       << ", \"end\": " << g.end << '}';
  }
  os << "\n  ],\n  \"rank_stats\": [";
  for (std::size_t i = 0; i < rank_stats.size(); ++i) {
    const RankStat& r = rank_stats[i];
    os << (i ? "," : "") << "\n    {\"rank\": " << r.rank
       << ", \"workers\": " << r.workers << ", \"tasks\": " << r.tasks
       << ", \"compute_seconds\": " << r.compute_seconds
       << ", \"idle_seconds\": " << r.idle_seconds
       << ", \"messages_in\": " << r.messages_in
       << ", \"messages_out\": " << r.messages_out
       << ", \"max_message_latency_seconds\": "
       << r.max_message_latency_seconds << '}';
  }
  os << "\n  ]\n}\n";
}

void AnalysisReport::save_json(const std::string& path) const {
  std::ofstream f(path);
  HQR_CHECK(f.good(), "cannot open " << path << " for writing");
  write_json(f);
  f.flush();
  HQR_CHECK(f.good(), "write to " << path << " failed");
}

}  // namespace hqr::obs
