#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/algorithms.hpp"
#include "json_mini.hpp"
#include "linalg/random_matrix.hpp"
#include "runtime/executor.hpp"
#include "simcluster/simulator.hpp"
#include "trees/single_level.hpp"

namespace hqr {
namespace {

using obs::TraceEvent;
using obs::TraceRecorder;

struct ChromeSlice {
  int pid, tid;
  double ts, dur;
};

// Parses a Chrome trace-event JSON string and returns its "X" slices,
// validating the invariants any Perfetto-loadable export must satisfy:
// well-formed JSON, ts/dur present and non-negative, events within
// [0, makespan], and no two slices overlapping on the same (pid, tid) lane.
std::vector<ChromeSlice> validate_chrome_json(const std::string& text,
                                              double makespan_seconds) {
  auto root = testjson::parse(text);
  const auto& events = root->at("traceEvents");
  EXPECT_EQ(events.kind, testjson::Value::Kind::Array);
  std::vector<ChromeSlice> slices;
  const double makespan_us = makespan_seconds * 1e6;
  for (const auto& ev : events.arr) {
    const std::string& ph = ev->at("ph").str;
    if (ph == "M") continue;  // metadata: process/thread names
    EXPECT_EQ(ph, "X");
    ChromeSlice s{static_cast<int>(ev->at("pid").num),
                  static_cast<int>(ev->at("tid").num), ev->at("ts").num,
                  ev->at("dur").num};
    EXPECT_GE(s.ts, 0.0);
    EXPECT_GE(s.dur, 0.0);
    EXPECT_LE(s.ts + s.dur, makespan_us + 1e-3);
    slices.push_back(s);
  }
  std::map<std::pair<int, int>, std::vector<ChromeSlice>> by_lane;
  for (const auto& s : slices) by_lane[{s.pid, s.tid}].push_back(s);
  for (auto& [lane, v] : by_lane) {
    std::sort(v.begin(), v.end(),
              [](const ChromeSlice& a, const ChromeSlice& b) {
                return a.ts < b.ts;
              });
    for (std::size_t i = 1; i < v.size(); ++i) {
      EXPECT_GE(v[i].ts, v[i - 1].ts + v[i - 1].dur - 1e-3)
          << "overlap on lane (" << lane.first << "," << lane.second << ")";
    }
  }
  return slices;
}

TEST(Trace, RecorderMergesAndSortsAcrossLaneBuffers) {
  TraceRecorder rec;
  rec.ensure_lanes(3);
  rec.record(2, {.task = 2, .lane = 2, .start = 0.5, .end = 0.9});
  rec.record(0, {.task = 0, .lane = 0, .start = 0.0, .end = 0.4});
  rec.record(1, {.task = 1, .lane = 1, .start = 0.2, .end = 0.6});
  EXPECT_EQ(rec.size(), 3u);
  EXPECT_DOUBLE_EQ(rec.makespan(), 0.9);
  auto events = rec.sorted_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].task, 0);
  EXPECT_EQ(events[1].task, 1);
  EXPECT_EQ(events[2].task, 2);
}

TEST(Trace, EnsureLanesNeverDropsEvents) {
  TraceRecorder rec;
  rec.add({.task = 7, .end = 1.0});
  rec.ensure_lanes(8);
  EXPECT_EQ(rec.lanes(), 8);
  EXPECT_EQ(rec.size(), 1u);
  rec.ensure_lanes(2);  // never shrinks
  EXPECT_EQ(rec.lanes(), 8);
}

TEST(Trace, EventLabelNamesKernelAndTiles) {
  TraceEvent e{.type = KernelType::TSMQR, .row = 3, .piv = 1, .k = 0, .j = 2};
  EXPECT_EQ(event_label(e), "TSMQR(3,1,0;j=2)");
}

TEST(Trace, SaveDispatchesOnExtension) {
  TraceRecorder rec;
  rec.add({.task = 0, .type = KernelType::GEQRT, .end = 1.0});
  const std::string dir = ::testing::TempDir();
  rec.save(dir + "trace_dispatch.json");
  rec.save(dir + "trace_dispatch.csv");
  {
    std::ifstream in(dir + "trace_dispatch.json");
    std::stringstream ss;
    ss << in.rdbuf();
    auto root = testjson::parse(ss.str());
    EXPECT_TRUE(root->has("traceEvents"));
  }
  {
    std::ifstream in(dir + "trace_dispatch.csv");
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "task,lane,sub,kernel,start,end,row,piv,k,j");
  }
}

TEST(Trace, ChromeJsonFromSimulatorIsPerfettoLoadable) {
  const int mt = 10, nt = 5, b = 64;
  TaskGraph g(expand_to_kernels(greedy_global_list(mt, nt).list, mt, nt), mt,
              nt);
  auto dist = Distribution::cyclic_1d(4);
  SimOptions o;
  o.platform = Platform::edel();
  o.platform.nodes = 4;
  o.b = b;
  SimTrace trace;
  o.trace = &trace;
  SimResult r = simulate_qr(g, dist, mt * b, nt * b, o);
  ASSERT_EQ(static_cast<long long>(trace.size()), r.tasks);

  std::ostringstream os;
  trace.write_chrome_json(os);
  auto slices = validate_chrome_json(os.str(), trace.makespan());
  EXPECT_EQ(static_cast<long long>(slices.size()), r.tasks);
  // Simulator lanes are nodes; all four must appear.
  std::map<int, int> per_pid;
  for (const auto& s : slices) ++per_pid[s.pid];
  EXPECT_EQ(per_pid.size(), 4u);
}

TEST(Trace, ChromeJsonFromExecutorIsPerfettoLoadable) {
  Rng rng(21);
  Matrix a0 = random_gaussian(40, 20, rng);
  ExecutorOptions opts;
  opts.threads = 4;
  TraceRecorder trace;
  opts.trace = &trace;
  RunStats stats;
  qr_factorize_parallel(a0, 4, greedy_global_list(10, 5).list, opts, &stats);
  EXPECT_EQ(static_cast<long long>(trace.size()), stats.total_tasks);

  std::ostringstream os;
  trace.write_chrome_json(os);
  auto slices = validate_chrome_json(os.str(), trace.makespan());
  EXPECT_EQ(static_cast<long long>(slices.size()), stats.total_tasks);
  // Executor lanes are worker threads: pids within [0, threads).
  for (const auto& s : slices) {
    EXPECT_GE(s.pid, 0);
    EXPECT_LT(s.pid, opts.threads);
  }
}

TEST(Trace, CsvAndJsonAgreeOnEventCount) {
  TraceRecorder rec;
  rec.ensure_lanes(2);
  for (int i = 0; i < 5; ++i)
    rec.record(i % 2, {.task = i,
                       .lane = i % 2,
                       .type = KernelType::TSQRT,
                       .start = 0.1 * i,
                       .end = 0.1 * i + 0.05});
  const std::string dir = ::testing::TempDir();
  rec.save_csv(dir + "agree.csv");
  rec.save_chrome_json(dir + "agree.json");
  std::ifstream csv(dir + "agree.csv");
  std::string line;
  int csv_rows = -1;  // skip header
  while (std::getline(csv, line))
    if (!line.empty() && line[0] != '#') ++csv_rows;  // skip metadata
  EXPECT_EQ(csv_rows, 5);
  std::ifstream js(dir + "agree.json");
  std::stringstream ss;
  ss << js.rdbuf();
  auto slices = validate_chrome_json(ss.str(), rec.makespan());
  EXPECT_EQ(slices.size(), 5u);
}

TEST(Trace, CsvRoundTripPreservesEveryField) {
  TraceRecorder rec;
  rec.ensure_lanes(3);
  rec.record(0, TraceEvent{.task = 7,
                           .lane = 0,
                           .sub = 2,
                           .type = KernelType::TSMQR,
                           .row = 3,
                           .piv = 1,
                           .k = 0,
                           .j = 2,
                           .start = 0.25,
                           .end = 0.75});
  rec.record(2, TraceEvent{.task = 9,
                           .lane = 2,
                           .sub = 0,
                           .type = KernelType::GEQRT,
                           .row = 0,
                           .piv = 0,
                           .k = 0,
                           .j = -1,
                           .start = 0.0,
                           .end = 0.125});
  const std::string path = ::testing::TempDir() + "roundtrip.csv";
  rec.save_csv(path);

  const TraceRecorder back = obs::load_trace_csv(path);
  const auto want = rec.sorted_events();
  const auto got = back.sorted_events();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].task, want[i].task);
    EXPECT_EQ(got[i].lane, want[i].lane);
    EXPECT_EQ(got[i].sub, want[i].sub);
    EXPECT_EQ(got[i].type, want[i].type);
    EXPECT_EQ(got[i].row, want[i].row);
    EXPECT_EQ(got[i].piv, want[i].piv);
    EXPECT_EQ(got[i].k, want[i].k);
    EXPECT_EQ(got[i].j, want[i].j);
    EXPECT_EQ(got[i].start, want[i].start);  // full double precision
    EXPECT_EQ(got[i].end, want[i].end);
  }
}

TEST(Trace, LoadTraceCsvRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "bogus.csv";
  std::ofstream(path) << "not,a,trace\n";
  EXPECT_THROW(obs::load_trace_csv(path), Error);
  EXPECT_THROW(obs::load_trace_csv(::testing::TempDir() + "missing_file.csv"),
               Error);

  // The pre-10-column header is not this format either. Malformed bodies
  // after a valid header are the TraceCsvGarbage rows below.
  std::ofstream(path) << "task,lane,sub,kernel,start,end,accel,row,piv,k,j\n";
  EXPECT_THROW(obs::load_trace_csv(path), Error);
}

// One malformed body after a valid header. The huge lane values are
// rejected before anything is sized by them.
struct GarbageCase {
  const char* name;
  std::string body;
};
void PrintTo(const GarbageCase& c, std::ostream* os) { *os << c.name; }

class TraceCsvGarbage : public ::testing::TestWithParam<GarbageCase> {};

TEST_P(TraceCsvGarbage, RejectedWithErrorNamingTheFile) {
  const GarbageCase& c = GetParam();
  const std::string path =
      ::testing::TempDir() + "garbage_" + c.name + ".csv";
  std::ofstream(path) << "task,lane,sub,kernel,start,end,row,piv,k,j\n"
                      << c.body;
  try {
    obs::load_trace_csv(path);
    ADD_FAILURE() << "accepted: " << c.body;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Bodies, TraceCsvGarbage,
    ::testing::Values(
        GarbageCase{"LanesIntMax", "#lanes,2147483647\n"},
        GarbageCase{"LanesOneAboveBound",
                    "#lanes," + std::to_string(obs::kMaxTraceLanes + 1) +
                        "\n"},
        GarbageCase{"LanesNegative", "#lanes,-1\n"},
        GarbageCase{"LanesNonNumeric", "#lanes,many\n"},
        GarbageCase{"RowLaneIntMax", "0,2147483647,0,GEQRT,0,1,0,0,0,-1\n"},
        GarbageCase{"RowLaneAtBound",
                    "0," + std::to_string(obs::kMaxTraceLanes) +
                        ",0,GEQRT,0,1,0,0,0,-1\n"},
        GarbageCase{"RowLaneNegative", "0,-1,0,GEQRT,0,1,0,0,0,-1\n"},
        GarbageCase{"TaskNonNumeric", "x,0,0,GEQRT,0,1,0,0,0,-1\n"},
        GarbageCase{"StartNonNumeric", "0,0,0,GEQRT,soon,1,0,0,0,-1\n"},
        GarbageCase{"IntFieldPartlyNumeric", "0,0,0,GEQRT,0,1,0,0,0,1e3\n"},
        GarbageCase{"TaskOutOfRange", "99999999999,0,0,GEQRT,0,1,0,0,0,-1\n"},
        GarbageCase{"UnknownKernel", "0,0,0,FOO,0,1,0,0,0,-1\n"},
        GarbageCase{"OldAccelColumnRow", "0,0,0,GEQRT,0,1,0,0,0,0,-1\n"},
        GarbageCase{"EmptyLastField", "0,0,0,GEQRT,0,1,0,0,0,\n"},
        GarbageCase{"TruncatedRow", "0,0,0,GEQRT,0\n"},
        GarbageCase{"FlowTooFewFields", "#flow,1,0,1,2,0.5\n"},
        GarbageCase{"ClockOffsetEmpty", "#clock_offset,\n"}));

TEST(Trace, LoadTraceCsvAcceptsLanesAtTheBound) {
  // The largest lane count and the highest lane id the bound admits.
  const std::string path = ::testing::TempDir() + "bound.csv";
  std::ofstream(path) << "task,lane,sub,kernel,start,end,row,piv,k,j\n"
                      << "#lanes," << obs::kMaxTraceLanes << "\n"
                      << "0," << obs::kMaxTraceLanes - 1
                      << ",0,GEQRT,0,1,0,0,0,-1\n";
  const TraceRecorder rec = obs::load_trace_csv(path);
  EXPECT_EQ(rec.lanes(), obs::kMaxTraceLanes);
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec.sorted_events()[0].lane, obs::kMaxTraceLanes - 1);
}

TEST(Trace, LoadTraceCsvAcceptsAThousandNodeSimulatedTrace) {
  // The lane bound leaves room for the fault sweep's 1024-node traces.
  const std::string path = ::testing::TempDir() + "wide.csv";
  std::ofstream(path) << "task,lane,sub,kernel,start,end,row,piv,k,j\n"
                      << "#lanes,1\n"
                      << "0,1023,7,TSMQR,0.5,1.5,3,1,0,2\n";
  const TraceRecorder rec = obs::load_trace_csv(path);
  EXPECT_EQ(rec.lanes(), 1024);
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec.sorted_events()[0].sub, 7);
}

TEST(Trace, MergeRankTracesRemapsWorkerLanesUnderRanks) {
  // Two per-rank traces, each with worker lanes 0/1; after the merge the
  // rank is the lane (Perfetto process) and the worker the sub (thread).
  const std::string dir = ::testing::TempDir();
  std::vector<std::string> paths;
  for (int r = 0; r < 2; ++r) {
    TraceRecorder one;
    one.ensure_lanes(2);
    for (int w = 0; w < 2; ++w)
      one.record(w, TraceEvent{.task = 2 * r + w,
                               .lane = w,
                               .type = KernelType::GEQRT,
                               .row = w,
                               .piv = w,
                               .k = 0,
                               .start = 0.1 * r,
                               .end = 0.1 * r + 0.05});
    paths.push_back(dir + "rank" + std::to_string(r) + ".csv");
    one.save_csv(paths.back());
  }

  const TraceRecorder merged = obs::merge_rank_traces(paths);
  EXPECT_EQ(merged.lane_label(), "rank");
  EXPECT_EQ(merged.sub_label(), "worker");
  const auto events = merged.sorted_events();
  ASSERT_EQ(events.size(), 4u);
  for (const TraceEvent& e : events) {
    EXPECT_EQ(e.lane, e.task / 2);  // rank the event came from
    EXPECT_EQ(e.sub, e.task % 2);   // original worker lane
  }
}

TEST(Trace, ClockOffsetAndFlowsSurviveCsvRoundTrip) {
  TraceRecorder rec;
  rec.ensure_lanes(2);
  rec.set_clock_offset(1234.56789012345678);
  rec.record(0, {.task = 3, .lane = 0, .type = KernelType::GEQRT, .end = 0.5});
  rec.add_flow({.producer = 3,
                .src_rank = 0,
                .dest_rank = 1,
                .consumer = 9,
                .send_time = 0.25,
                .recv_time = 0.75});
  rec.record_flow_send(4, 0, 2, 0.5);  // unmatched half: recv_time stays -1
  const std::string path = ::testing::TempDir() + "flows.csv";
  rec.save_csv(path);

  const TraceRecorder back = obs::load_trace_csv(path);
  EXPECT_DOUBLE_EQ(back.clock_offset(), rec.clock_offset());
  ASSERT_EQ(back.flow_count(), 2u);
  EXPECT_EQ(back.complete_flow_count(), 1u);
  const auto flows = back.flows();
  EXPECT_EQ(flows[0].producer, 3);
  EXPECT_EQ(flows[0].src_rank, 0);
  EXPECT_EQ(flows[0].dest_rank, 1);
  EXPECT_EQ(flows[0].consumer, 9);
  EXPECT_DOUBLE_EQ(flows[0].send_time, 0.25);
  EXPECT_DOUBLE_EQ(flows[0].recv_time, 0.75);
  EXPECT_EQ(flows[1].producer, 4);
  EXPECT_FALSE(flows[1].complete());
}

TEST(Trace, CsvPreservesIdleLanesWithAsymmetricThreadCounts) {
  // A rank can have worker lanes that never ran a task (e.g. 3 threads but
  // all local work fit on one). The #lanes metadata keeps the lane count
  // through a round trip so the merged trace shows the idle workers too.
  TraceRecorder rec;
  rec.ensure_lanes(3);
  rec.record(1, {.task = 0, .lane = 1, .type = KernelType::GEQRT, .end = 0.5});
  const std::string path = ::testing::TempDir() + "idle_lanes.csv";
  rec.save_csv(path);
  const TraceRecorder back = obs::load_trace_csv(path);
  EXPECT_EQ(back.lanes(), 3);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.sorted_events()[0].lane, 1);
}

TEST(Trace, MergeAlignsClocksAndPairsFlowHalves) {
  // Rank 0 (clock offset 5.0) runs producer task 1 and stamps the send
  // half; rank 1 (offset 5.2) runs consumer task 2 and stamps the recv
  // half. In raw local time recv (0.4) < send (0.5) — causality appears
  // violated. After the merge shifts rank 1 by +0.2, the paired flow must
  // be causally ordered: send 0.5 < recv 0.6.
  const std::string dir = ::testing::TempDir();
  TraceRecorder r0;
  r0.ensure_lanes(1);
  r0.set_clock_offset(5.0);
  r0.record(0, {.task = 1, .lane = 0, .type = KernelType::GEQRT,
                .start = 0.1, .end = 0.5});
  r0.record_flow_send(1, 0, 1, 0.5);
  r0.save_csv(dir + "align0.csv");

  TraceRecorder r1;
  r1.ensure_lanes(1);
  r1.set_clock_offset(5.2);
  r1.record(0, {.task = 2, .lane = 0, .type = KernelType::TSQRT,
                .start = 0.45, .end = 0.9});
  r1.record_flow_recv(1, 0, 1, 2, 0.4);
  r1.save_csv(dir + "align1.csv");

  const TraceRecorder merged =
      obs::merge_rank_traces({dir + "align0.csv", dir + "align1.csv"});
  ASSERT_EQ(merged.complete_flow_count(), 1u);
  const obs::FlowEvent fl = merged.flows()[0];
  EXPECT_EQ(fl.producer, 1);
  EXPECT_EQ(fl.src_rank, 0);
  EXPECT_EQ(fl.dest_rank, 1);
  EXPECT_EQ(fl.consumer, 2);
  EXPECT_DOUBLE_EQ(fl.send_time, 0.5);   // rank 0 holds the min offset
  EXPECT_NEAR(fl.recv_time, 0.6, 1e-12);  // 0.4 + (5.2 - 5.0)
  EXPECT_LT(fl.send_time, fl.recv_time);

  // Task events shifted by the same per-rank amount.
  for (const TraceEvent& e : merged.sorted_events()) {
    if (e.lane == 0) {
      EXPECT_DOUBLE_EQ(e.start, 0.1);
    } else {
      EXPECT_NEAR(e.start, 0.65, 1e-12);
    }
  }
}

TEST(Trace, ChromeJsonDrawsFlowArrowsInsideTaskSlices) {
  TraceRecorder rec;
  rec.ensure_lanes(2);
  rec.record(0, {.task = 1, .lane = 0, .type = KernelType::GEQRT,
                 .start = 0.0, .end = 0.5});
  rec.record(1, {.task = 2, .lane = 1, .sub = 0, .type = KernelType::TSMQR,
                 .start = 0.7, .end = 1.0});
  rec.add_flow({.producer = 1,
                .src_rank = 0,
                .dest_rank = 1,
                .consumer = 2,
                .send_time = 0.5,
                .recv_time = 0.65});
  std::ostringstream os;
  rec.write_chrome_json(os);

  auto root = testjson::parse(os.str());
  const testjson::Value* start = nullptr;
  const testjson::Value* finish = nullptr;
  for (const auto& ev : root->at("traceEvents").arr) {
    const std::string& ph = ev->at("ph").str;
    if (ph == "s") start = ev.get();
    if (ph == "f") finish = ev.get();
  }
  ASSERT_NE(start, nullptr);
  ASSERT_NE(finish, nullptr);
  EXPECT_EQ(start->at("cat").str, "flow");
  EXPECT_EQ(start->at("id").num, finish->at("id").num);
  EXPECT_EQ(finish->at("bp").str, "e");  // bind to the enclosing slice
  // The "s" anchor sits inside the producer slice on rank 0's track, the
  // "f" anchor inside the consumer slice on rank 1's — and in order.
  EXPECT_EQ(static_cast<int>(start->at("pid").num), 0);
  EXPECT_GE(start->at("ts").num, 0.0);
  EXPECT_LE(start->at("ts").num, 0.5 * 1e6);
  EXPECT_EQ(static_cast<int>(finish->at("pid").num), 1);
  EXPECT_GE(finish->at("ts").num, 0.7 * 1e6);
  EXPECT_LE(finish->at("ts").num, 1.0 * 1e6);
  EXPECT_LT(start->at("ts").num, finish->at("ts").num);
  // Wire timestamps ride in args for tooling.
  EXPECT_DOUBLE_EQ(start->at("args").at("send").num, 0.5);
  EXPECT_DOUBLE_EQ(finish->at("args").at("recv").num, 0.65);
}

TEST(Trace, IncompleteFlowsProduceNoArrows) {
  TraceRecorder rec;
  rec.ensure_lanes(1);
  rec.record(0, {.task = 1, .lane = 0, .type = KernelType::GEQRT, .end = 0.5});
  rec.record_flow_send(1, 0, 1, 0.5);  // recv half never arrived
  std::ostringstream os;
  rec.write_chrome_json(os);
  auto root = testjson::parse(os.str());
  for (const auto& ev : root->at("traceEvents").arr)
    EXPECT_NE(ev->at("ph").str, "s");
}

}  // namespace
}  // namespace hqr
