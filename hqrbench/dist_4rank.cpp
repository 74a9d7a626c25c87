// dist-4rank: distrun::dist_qr_factorize of a 1024x1024 matrix, b=128,
// over 4 forked ranks x 1 thread on the unix transport with a 2x2
// block-cyclic distribution and the HQR tree p=4, a=2, greedy/fibonacci +
// domino. One op is one factorization. Rank launch, mesh set-up and a
// warm-up factorization count toward setup_s. Without this workload the
// net and distrun layers (tile pack/apply, wire, gather) go unmeasured.
//
// All ranks run the op loop together: rank 0 decides whether another op
// starts and publishes the decision through shared memory behind a
// process-shared barrier, so every rank enters each collective call.
#include <pthread.h>
#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <new>
#include <utility>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/factorization.hpp"
#include "dag/task_graph.hpp"
#include "distrun/dist_exec.hpp"
#include "linalg/random_matrix.hpp"
#include "net/launcher.hpp"
#include "simcluster/simulator.hpp"
#include "trees/hqr_tree.hpp"

namespace hqrbench {

namespace {

constexpr int kM = 1024, kN = 1024, kB = 128, kIb = 0;
constexpr int kRanks = 4, kGridP = 2, kGridQ = 2;
constexpr int kSetups = 7;
constexpr int kMaxOps = 4096;

// Traced-op measurements rank 0 collects (medians are taken per field).
struct TracedOp {
  int op = 0;  // index into the op record
  double exec_max = 0, gather = 0, busy = 0, idle = 0, max_recv_wait = 0;
  long long data_messages = 0, data_bytes = 0;
};

// Lives in a MAP_SHARED mapping created before the fork; rank 0 writes,
// the parent reads after the ranks are reaped.
struct Shared {
  pthread_barrier_t barrier;
  int go = 0;
  bool setup_only = false;
  bool trace = false;
  double seconds = 0;
  double launched_at = 0;  // parent, before forking
  double mesh_at = 0;      // rank 0, once every rank reached the first barrier
  double ready_at = 0;     // rank 0, after the warm-up op
  bool warm_ok = false;
  int ops = 0;
  double op_t0[kMaxOps];  // monotonic_seconds() at the op's start
  double op_s[kMaxOps];
  bool traced[kMaxOps];
  bool ok[kMaxOps];
  int traced_ops = 0;
  TracedOp tops[kMaxOps];
  RuntimeTotals rank0;  // rank 0's executor, traced ops only
  long long plan_messages = 0;
};

struct Problem {
  hqr::Matrix a;
  hqr::EliminationList list;
  hqr::Distribution dist = hqr::Distribution::block_cyclic_2d(kGridP, kGridQ);
  hqr::Matrix ref_tiles;
};

hqr::HqrConfig tree() {
  hqr::HqrConfig cfg;
  cfg.p = 4;
  cfg.a = 2;
  cfg.low = hqr::TreeKind::Greedy;
  cfg.high = hqr::TreeKind::Fibonacci;
  cfg.domino = true;
  return cfg;
}

std::string rank_csv(const std::string& trace_out, int rank) {
  return trace_out + ".rank" + std::to_string(rank) + ".csv";
}

int rank_main(hqr::net::Comm& comm, Shared& sh, const Problem& pb,
              const std::string& trace_out, int threads) {
  const int me = comm.rank();
  pthread_barrier_wait(&sh.barrier);
  if (me == 0) sh.mesh_at = hqr::monotonic_seconds();
  const hqr::Distribution dist = comm.size() == 1
                                     ? hqr::Distribution::block_cyclic_2d(1, 1)
                                     : pb.dist;
  const auto factor = [&](hqr::distrun::DistOptions& opts,
                          hqr::distrun::DistStats* stats) {
    return hqr::distrun::dist_qr_factorize(comm, pb.a, kB, pb.list, dist, opts,
                                           stats);
  };
  // The communicator's traffic counters accumulate over its lifetime: an
  // op's Data traffic is the difference to the previous op's totals.
  long long seen_msgs = 0, seen_bytes = 0;
  const auto data_totals = [&](const hqr::distrun::DistStats& st) {
    long long msgs = 0, bytes = 0;
    for (const hqr::distrun::DistRankStats& r : st.ranks) {
      msgs += r.data_messages_sent;
      bytes += r.data_bytes_sent;
    }
    const std::pair<long long, long long> d{msgs - seen_msgs, bytes - seen_bytes};
    seen_msgs = msgs;
    seen_bytes = bytes;
    return d;
  };
  {
    hqr::distrun::DistOptions opts;
    opts.threads = threads;
    opts.ib = kIb;
    hqr::distrun::DistStats st;
    const hqr::QRFactors f = factor(opts, &st);
    if (me == 0) {
      sh.warm_ok = data_totals(st).first == st.plan_messages &&
                   same_bits(f.a().to_padded_matrix(), pb.ref_tiles);
      sh.plan_messages = st.plan_messages;
      sh.ready_at = hqr::monotonic_seconds();
    }
  }
  if (sh.setup_only) return 0;

  hqr::Stopwatch run;
  for (int i = 0;; ++i) {
    if (me == 0)
      sh.go = (run.seconds() < sh.seconds || sh.ops < 3) && sh.ops < kMaxOps;
    pthread_barrier_wait(&sh.barrier);
    if (!sh.go) break;
    const bool traced = sh.trace && i % 2 == 1;
    hqr::distrun::DistOptions opts;
    opts.threads = threads;
    opts.ib = kIb;
    hqr::obs::MetricsRegistry metrics;
    hqr::obs::TraceRecorder rec;
    const bool keep_trace = traced && sh.traced_ops == 0 && !trace_out.empty();
    if (traced) {
      opts.metrics = &metrics;
      if (keep_trace) opts.trace = &rec;
    }
    hqr::distrun::DistStats st;
    const double t0 = hqr::monotonic_seconds();
    const hqr::QRFactors f = factor(opts, &st);
    const double secs = hqr::monotonic_seconds() - t0;
    if (keep_trace) rec.save_csv(rank_csv(trace_out, me));
    // Every rank is past its reads of sh before rank 0 updates the counters.
    pthread_barrier_wait(&sh.barrier);
    if (me != 0) continue;
    const auto [msgs, bytes] = data_totals(st);
    const int n = sh.ops++;
    sh.op_t0[n] = t0;
    sh.op_s[n] = secs;
    sh.traced[n] = traced;
    sh.ok[n] = msgs == st.plan_messages &&
               same_bits(f.a().to_padded_matrix(), pb.ref_tiles);
    if (!traced) continue;
    TracedOp& t = sh.tops[sh.traced_ops++];
    t.op = n;
    t.data_messages = msgs;
    t.data_bytes = bytes;
    for (const hqr::distrun::DistRankStats& r : st.ranks) {
      t.exec_max = std::max(t.exec_max, r.exec_seconds);
      t.busy += r.busy_seconds;
      t.idle += r.idle_seconds;
      t.max_recv_wait = std::max(t.max_recv_wait, r.max_recv_wait_seconds);
    }
    t.gather = st.seconds - st.ranks[0].exec_seconds;
    sh.rank0.add(st.run, kB, st.ranks[0].exec_seconds);
  }
  return 0;
}

struct LaunchSpec {
  int ranks = kRanks;
  int threads = 1;
  bool setup_only = false;
  bool trace = false;
  double seconds = 0;
};

// One launch of spec.ranks processes; returns false when a rank failed.
bool launch(Shared& sh, const Problem& pb, const std::string& trace_out,
            const LaunchSpec& spec) {
  new (&sh) Shared();
  pthread_barrierattr_t attr;
  pthread_barrierattr_init(&attr);
  pthread_barrierattr_setpshared(&attr, PTHREAD_PROCESS_SHARED);
  pthread_barrier_init(&sh.barrier, &attr, static_cast<unsigned>(spec.ranks));
  pthread_barrierattr_destroy(&attr);
  sh.seconds = spec.seconds;
  sh.setup_only = spec.setup_only;
  sh.trace = spec.trace;
  hqr::net::LaunchOptions lo;
  lo.timeout_seconds = spec.seconds + 120.0;
  lo.transport.kind = "unix";
  std::cout.flush();  // children must not inherit buffered output
  sh.launched_at = hqr::monotonic_seconds();
  const int rc = hqr::net::run_ranks(
      spec.ranks,
      [&](hqr::net::Comm& comm) {
        return rank_main(comm, sh, pb, trace_out, spec.threads);
      },
      lo);
  pthread_barrier_destroy(&sh.barrier);
  return rc == 0;
}

}  // namespace

void run_dist_4rank(const Args& args, Report& report, Spans* spans) {
  // Nothing here may start a thread before the ranks are forked.
  Problem pb;
  hqr::Rng rng(args.seed);
  pb.a = hqr::random_gaussian(kM, kN, rng);
  const int mt = (kM + kB - 1) / kB, nt = (kN + kB - 1) / kB;
  pb.list = hqr::hqr_elimination_list(mt, nt, tree());
  const double flops = hqr::qr_useful_flops(kM, kN);

  hqr::Stopwatch seq_sw;
  const hqr::QRFactors ref = hqr::qr_factorize_sequential(pb.a, kB, pb.list, kIb);
  const double seq_s = seq_sw.seconds();
  pb.ref_tiles = ref.a().to_padded_matrix();
  {
    const hqr::Matrix qp = hqr::build_q(ref);
    const double ratio = qr_accuracy_ratio(
        pb.a, hqr::materialize(qp.block(0, 0, kM, kN)), hqr::extract_r(ref));
    report.check("reference accuracy", ratio < kAccuracyLimit,
                 "ratio " + std::to_string(ratio));
    hqr::QRFactors bad = ref;
    hqr::MatrixView t = bad.a().tile(mt - 1, nt - 1);
    t(kB - 1, kB - 1) = std::nextafter(t(kB - 1, kB - 1), 1e300);
    report.check("self-test: corrupted result rejected",
                 !same_bits(bad.a().to_padded_matrix(), pb.ref_tiles),
                 "one ulp changed in the last tile");
  }

  void* mem = mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  HQR_CHECK(mem != MAP_FAILED, "mmap of the shared op record failed");
  Shared& sh = *static_cast<Shared*>(mem);
  struct Unmap {
    void* p;
    ~Unmap() { munmap(p, sizeof(Shared)); }
  } unmap{mem};

  // Set-ups: launches that stop after the warm-up op, then the measured one.
  const std::string trace_out = spans ? args.trace_out : "";
  std::vector<double> setups, launches;
  for (int rep = 0; rep < kSetups; ++rep) {
    LaunchSpec spec;
    spec.setup_only = rep < kSetups - 1;
    spec.trace = spans != nullptr;
    spec.seconds = args.seconds;
    HQR_CHECK(launch(sh, pb, trace_out, spec), "a rank failed (launch " << rep << ")");
    setups.push_back(sh.ready_at - sh.launched_at);
    launches.push_back(sh.mesh_at - sh.launched_at);
    if (rep == 0) report.check("warm-up result", sh.warm_ok, "bitwise");
  }

  std::vector<double> plain_ms, traced_ms;
  for (int i = 0; i < sh.ops; ++i) {
    report.op(sh.ok[i]);
    (sh.traced[i] ? traced_ms : plain_ms).push_back(sh.op_s[i] * 1e3);
  }
  const double p50 = median(plain_ms);
  report.spread("setup_s (s)", setups);
  report.spread("op latency (ms)", plain_ms);
  report.e2e("setup_s", median(setups),
             "median of " + std::to_string(kSetups) +
                 " launches: fork, mesh, warm-up op");
  report.latency(plain_ms, "ops");
  report.e2e("gflops", flops / (p50 * 1e-3) / 1e9);
  report.e2e("batch_problems_per_s", 1e3 / p50,
             "one problem per op, at the median op time");
  report.e2e("peak_rss_mb", peak_rss_mb(true), "largest rank");
  report.info("messages", "plan " + std::to_string(sh.plan_messages) +
                              " Data messages per op; measured counts are "
                              "checked against it on every op");
  if (!spans) return;

  // ---- per-layer metrics (traced run) ----
  const auto med = [&](auto field) {
    std::vector<double> v;
    for (int i = 0; i < sh.traced_ops; ++i)
      v.push_back(static_cast<double>(field(sh.tops[i])));
    return median(v);
  };
  const double exec = med([](const TracedOp& t) { return t.exec_max; });
  const double gather = med([](const TracedOp& t) { return t.gather; });
  const double op_s = median(traced_ms) * 1e-3;
  report.layer("net.launch_s", median(launches), "fork + mesh, median of launches");
  report.layer("net.data_messages",
               med([](const TracedOp& t) { return t.data_messages; }),
               "per op, plan " + std::to_string(sh.plan_messages));
  report.layer("net.data_bytes", med([](const TracedOp& t) { return t.data_bytes; }),
               "per op");
  report.layer("distrun.exec_s", exec, "max over ranks");
  report.layer("distrun.gather_s", gather, "rank 0 run+gather - exec");
  report.layer("distrun.busy_frac",
               med([](const TracedOp& t) { return t.busy; }) / (kRanks * op_s),
               "of ranks x op time");
  report.layer("distrun.idle_frac",
               med([](const TracedOp& t) { return t.idle; }) / (kRanks * op_s),
               "of ranks x op time");
  report.layer("distrun.max_recv_wait_s",
               med([](const TracedOp& t) { return t.max_recv_wait; }),
               "longest Data starvation gap");
  report_runtime_layers(report, sh.rank0, sh.traced_ops);
  report.info("kernels", "kernels.* and runtime.* cover rank 0's executor");
  report.layer("seq.gflops", flops / seq_s / 1e9, "qr_factorize_sequential");
  report.layer("runtime.parallel_eff", seq_s / (kRanks * p50 * 1e-3),
               "sequential / (ranks x op)");
  report.layer("trace.overhead_frac", median(traced_ms) / p50 - 1.0,
               "traced vs untraced p50");
  {
    hqr::Stopwatch sw;
    const hqr::TaskGraph g(hqr::expand_to_kernels(pb.list, mt, nt), mt, nt);
    report.layer("plan.ms", sw.seconds() * 1e3, "trees + dag, one rank");
    report.layer("dag.tasks", g.size());
    report.layer("dag.critical_path", g.unit_critical_path());
  }
  const double residual = (op_s - exec - gather) / op_s;
  report.layer("budget.residual_frac", residual, "op - (exec + gather), over op");
  report.info("budget", "op = exec + gather + residual: " +
                            std::to_string(op_s) + " = " + std::to_string(exec) +
                            " + " + std::to_string(gather) + " + residual " +
                            std::to_string(residual) + " of the op, " +
                            (std::abs(residual) <= 0.15 ? "within" : "OUTSIDE") +
                            " the 0.15 tolerance");

  // Spans of the traced ops, from rank 0's clock (shared by forked ranks):
  // the op, its execution phase (slowest rank) and the gather. The first
  // traced op also carries every rank's task timeline.
  for (int i = 0; i < sh.traced_ops; ++i) {
    const TracedOp& t = sh.tops[i];
    const double t0 = sh.op_t0[t.op], t1 = t0 + sh.op_s[t.op];
    const int id = spans->add("dist-4rank op", -1, 0, t0, t1);
    const int ex = spans->add("distrun: execute (slowest rank)", id, 0, t0,
                              t0 + t.exec_max);
    spans->add("distrun: gather to rank 0", id, 0, t1 - t.gather, t1);
    if (i == 0 && !trace_out.empty()) {
      std::vector<std::string> csvs;
      for (int r = 0; r < kRanks; ++r) csvs.push_back(rank_csv(trace_out, r));
      const hqr::obs::TraceRecorder merged = hqr::obs::merge_rank_traces(csvs);
      spans->attach(merged, ex, "ranks", t0 - spans->origin());
      for (const std::string& c : csvs) std::remove(c.c_str());
    }
  }

  // The same problem at 1 rank x 4 threads: where the 4-rank gap comes from.
  LaunchSpec one;
  one.ranks = 1;
  one.threads = 4;
  one.seconds = 1.0;
  HQR_CHECK(launch(sh, pb, "", one), "the single-rank run failed");
  std::vector<double> single;
  bool single_ok = true;
  for (int i = 0; i < sh.ops; ++i) {
    single_ok = single_ok && sh.ok[i];
    single.push_back(sh.op_s[i]);
  }
  report.check("single-rank results", single_ok, "bitwise");
  const double single_s = median(single);
  report.layer("distrun.single_rank_s", single_s, "1 rank x 4 threads, same problem");
  report.layer("distrun.overhead_frac", p50 * 1e-3 / single_s - 1.0,
               "4 ranks x 1 thread vs 1 rank x 4 threads");
}

}  // namespace hqrbench
