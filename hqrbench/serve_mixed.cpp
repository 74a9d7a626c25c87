// serve-mixed: an in-process serve::Server with 4 workers on loopback.
// Two generator connections send single SubmitQR requests (256x128, b=32,
// about 10% with want_q) on a seeded open-loop Poisson schedule that steps
// through a ladder of fixed offered rates; each request is timed from the
// moment it was due, so a stall also charges the requests queued behind it.
// A connection has one request in flight: a request due while its
// predecessor is outstanding is sent late, and the lateness is reported
// (loadgen.late_ms). Two more connections each send SubmitBatch requests
// of 256 small problems (about 24x16, b=8) back to back. Large single DAGs thus
// share the pool with one fused DAG of hundreds of tiny problems, so a
// fairness or priority change that helps one kind of request and hurts the
// other shows up. This is the only workload that exercises the serve
// protocol, DagPool admission and batch fusion.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/factorization.hpp"
#include "dag/task_graph.hpp"
#include "linalg/random_matrix.hpp"
#include "runtime/dag_pool.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "simcluster/simulator.hpp"

namespace hqrbench {

namespace {

constexpr int kWorkers = 4;
constexpr int kM = 256, kN = 128, kB = 32;
constexpr int kSmallB = 8, kBatchProblems = 256;
constexpr int kSinglePool = 16, kBatchPool = 4;
constexpr int kBatchConnections = 2;
constexpr int kSetups = 9;
constexpr hqr::serve::TreeChoice kTree = hqr::serve::TreeChoice::FlatTs;
// Offered single-request rates of the ladder (requests/s), each step held
// for a quarter of the run. The lower steps leave headroom, so their
// latencies move with the code rather than with host noise; the top step
// is near this host's capacity.
constexpr std::array<double, 4> kLadder = {100.0, 200.0, 400.0, 900.0};
// A ladder step meets the limit when its tail latency is at most this and
// its backlog is not growing: the median lateness of its last 20 requests
// stays below the limit too. BENCHMARK.json records the same limit.
constexpr double kLimitMs = 25.0;
// p50_ms, tail_ms and gflops pool the singles of these (unsaturated) steps.
constexpr int kReportSteps = 2;

struct Single {
  hqr::Matrix a, r, q;  // q only when want_q
  bool want_q = false;
};

struct Batch {
  std::vector<hqr::Matrix> problems, rs;
};

// R (and Q) of one problem, factored locally with the request's tree, b and
// ib; also returns Q for the accuracy check.
void local_qr(const hqr::Matrix& a, int b, hqr::Matrix* r, hqr::Matrix* q) {
  const hqr::TiledMatrix probe = hqr::TiledMatrix::from_matrix(a, b);
  const hqr::QRFactors f = hqr::qr_factorize_sequential(
      a, b, hqr::serve::elimination_for(kTree, probe.mt(), probe.nt()), 0);
  *r = hqr::extract_r(f);
  const hqr::Matrix qp = hqr::build_q(f);
  *q = hqr::materialize(qp.block(0, 0, a.rows(), std::min(a.rows(), a.cols())));
}

bool single_ok(const Single& s, const hqr::serve::QROutcome& out) {
  return same_bits(out.r, s.r) &&
         (!s.want_q || (out.has_q && same_bits(out.q, s.q)));
}

bool batch_ok(const Batch& b, const std::vector<hqr::Matrix>& rs) {
  if (rs.size() != b.rs.size()) return false;
  for (std::size_t p = 0; p < rs.size(); ++p)
    if (!same_bits(rs[p], b.rs[p])) return false;
  return true;
}

std::chrono::steady_clock::time_point at(double monotonic) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(monotonic)));
}

// One due request of the open-loop schedule.
struct Due {
  double t;  // seconds after the ladder start
  int step;
  int input;
};

struct Sample {
  int step;
  double latency_ms;  // from due to response
  double late_ms;     // from due to send
  bool ok;
  bool sent = true;  // false: still unsent when the backlog was cut off
};

// A backlog left when the ladder ends is not drained past this many
// seconds: the requests still unsent then count as missing the latency
// limit (they are not sent, so not attempted), which bounds the run time
// when the top step is past capacity.
constexpr double kDrainSeconds = 1.0;

struct Fleet {
  std::unique_ptr<hqr::serve::Server> server;
  std::vector<std::unique_ptr<hqr::serve::Client>> clients;
};

Fleet start_fleet(hqr::obs::MetricsRegistry* metrics, int connections) {
  Fleet f;
  hqr::serve::ServerOptions so;
  so.threads = kWorkers;
  so.metrics = metrics;
  f.server = std::make_unique<hqr::serve::Server>(so);
  hqr::serve::ClientOptions co;
  co.port = f.server->port();
  co.timeout_seconds = 60.0;
  for (int c = 0; c < connections; ++c)
    f.clients.push_back(std::make_unique<hqr::serve::Client>(co));
  return f;
}

hqr::serve::QROutcome submit(hqr::serve::Client& c, const Single& s) {
  return c.submit_qr(s.a, kB, 0, kTree, 0, s.want_q);
}

// Latency of `n` closed-loop requests on connection `c` (ms each).
std::vector<double> closed_loop(hqr::serve::Client& c,
                                const std::vector<Single>& singles, int n,
                                bool* ok) {
  std::vector<double> ms;
  for (int i = 0; i < n; ++i) {
    const Single& s = singles[static_cast<std::size_t>(i) % singles.size()];
    hqr::Stopwatch sw;
    const hqr::serve::QROutcome out = c.submit_qr(s.a, kB, 0, kTree, 0, false);
    ms.push_back(sw.seconds() * 1e3);
    *ok = *ok && same_bits(out.r, s.r);
  }
  return ms;
}

}  // namespace

void run_serve_mixed(const Args& args, Report& report, Spans* spans) {
  const double flops = hqr::qr_useful_flops(kM, kN);
  hqr::Rng rng(args.seed);
  std::vector<Single> singles(kSinglePool);
  for (std::size_t i = 0; i < singles.size(); ++i) {
    singles[i].a = hqr::random_gaussian(kM, kN, rng);
    singles[i].want_q = i < 2;  // inputs 0-1 ask for Q; drawn ~10% of the time
  }
  std::vector<Batch> batches(kBatchPool);
  for (Batch& b : batches)
    for (int p = 0; p < kBatchProblems; ++p)
      b.problems.push_back(hqr::random_gaussian(
          20 + static_cast<int>(rng.below(9)), 12 + static_cast<int>(rng.below(5)),
          rng));

  // References, each checked for accuracy at machine precision.
  double worst = 0.0;
  for (Single& s : singles) {
    hqr::Matrix q;
    local_qr(s.a, kB, &s.r, &q);
    worst = std::max(worst, qr_accuracy_ratio(s.a, q, s.r));
    if (s.want_q) s.q = std::move(q);
  }
  for (Batch& b : batches)
    for (const hqr::Matrix& a : b.problems) {
      hqr::Matrix r, q;
      local_qr(a, kSmallB, &r, &q);
      worst = std::max(worst, qr_accuracy_ratio(a, q, r));
      b.rs.push_back(std::move(r));
    }
  report.check("reference accuracy", worst < kAccuracyLimit,
               "worst ratio " + std::to_string(worst));

  // The open-loop schedule: Poisson arrivals at each ladder rate, a seeded
  // input per request (want_q inputs drawn with probability 1/10).
  const double step_s = args.seconds / static_cast<double>(kLadder.size());
  std::vector<Due> schedule;
  for (std::size_t k = 0; k < kLadder.size(); ++k) {
    double t = static_cast<double>(k) * step_s;
    for (;;) {
      t += -std::log(1.0 - rng.uniform()) / kLadder[k];
      if (t >= static_cast<double>(k + 1) * step_s) break;
      const int input = rng.below(10) == 0 ? static_cast<int>(rng.below(2))
                                           : 2 + static_cast<int>(rng.below(kSinglePool - 2));
      schedule.push_back({t, static_cast<int>(k), input});
    }
  }

  // Set-up: server start (bind, worker pool), four connections, and one
  // warm-up request of each kind. The last fleet serves the measured run.
  hqr::obs::MetricsRegistry metrics;
  std::vector<double> setups;
  Fleet fleet;
  for (int rep = 0; rep < kSetups; ++rep) {
    fleet.clients.clear();  // disconnect before the server stops
    fleet.server.reset();
    hqr::Stopwatch sw;
    fleet = start_fleet(spans ? &metrics : nullptr, 2 + kBatchConnections);
    const bool ok = single_ok(singles[0], submit(*fleet.clients[0], singles[0])) &&
                    batch_ok(batches[0], fleet.clients[2]->submit_batch(
                                             batches[0].problems, kSmallB, 0, kTree));
    setups.push_back(sw.seconds());
    if (rep == 0) report.check("warm-up results", ok, "bitwise");
  }
  {
    hqr::serve::QROutcome bad = submit(*fleet.clients[0], singles[2]);
    bad.r(0, 0) = std::nextafter(bad.r(0, 0), 1e300);
    report.check("self-test: corrupted result rejected",
                 !single_ok(singles[2], bad), "one ulp in R(0,0)");
  }

  // Traced run only: the layer parts of one unloaded request, measured
  // separately, and the cost of the server's metrics sink.
  double codec_us = 0.0, compute_ms = 0.0, unloaded_ms = 0.0, overhead_frac = 0.0;
  if (spans) {
    std::vector<double> codec;
    bool codec_ok = true;
    for (int i = 0; i < 200; ++i) {
      const Single& s = singles[static_cast<std::size_t>(i) % singles.size()];
      Scoped sp(i < 20 ? spans : nullptr, "serve: codec round trip", -1);
      hqr::Stopwatch sw;
      hqr::serve::QRJob job;
      job.b = kB;
      job.a = s.a;
      std::vector<std::uint8_t> wire;
      hqr::serve::encode_submit_qr(job, wire);
      hqr::serve::QRJob got;
      const auto err = hqr::serve::decode_submit_qr(wire, hqr::serve::ServerLimits{}, &got);
      hqr::serve::QROutcome res;
      res.r = s.r;
      std::vector<std::uint8_t> reply;
      hqr::serve::encode_result(res, reply);
      const hqr::serve::QROutcome back = hqr::serve::decode_result(reply);
      codec.push_back(sw.seconds() * 1e6);
      codec_ok = codec_ok && !err && same_bits(back.r, s.r) && same_bits(got.a, s.a);
    }
    report.check("codec round trips", codec_ok, "bitwise");
    codec_us = median(codec);

    hqr::DagPoolOptions po;
    po.threads = kWorkers;
    hqr::DagPool pool(po);
    std::vector<double> compute;
    bool ok = true;
    for (int i = 0; i < 60; ++i) {
      const Single& s = singles[static_cast<std::size_t>(i) % singles.size()];
      Scoped sp(i < 20 ? spans : nullptr, "serve: compute on a local DagPool", -1);
      hqr::Stopwatch sw;
      auto tiled = hqr::TiledMatrix::from_matrix(s.a, kB);
      const int mt = tiled.mt(), nt = tiled.nt();
      hqr::KernelList kernels =
          hqr::expand_to_kernels(hqr::serve::elimination_for(kTree, mt, nt), mt, nt);
      auto graph = std::make_shared<const hqr::TaskGraph>(kernels, mt, nt);
      hqr::QRFactors f(std::move(tiled), std::move(kernels), 0);
      const hqr::DagId id = pool.submit(
          graph, kB, [&f](std::int32_t idx, hqr::TileWorkspace& ws) {
            hqr::execute_kernel(f.kernels()[static_cast<std::size_t>(idx)], f, ws);
          });
      pool.wait(id);
      const hqr::Matrix r = hqr::extract_r(f);
      compute.push_back(sw.seconds() * 1e3);
      ok = ok && same_bits(r, s.r);
    }
    compute_ms = median(compute);
    report.check("local DagPool results", ok, "bitwise");

    // Unloaded latency on an untraced and a traced server, alternating.
    Fleet plain = start_fleet(nullptr, 1);
    std::vector<double> u, t;
    for (int round = 0; round < 5; ++round) {
      const std::vector<double> a = closed_loop(*plain.clients[0], singles, 20, &ok);
      const std::vector<double> b = closed_loop(*fleet.clients[0], singles, 20, &ok);
      u.insert(u.end(), a.begin(), a.end());
      t.insert(t.end(), b.begin(), b.end());
    }
    report.check("unloaded results", ok, "bitwise");
    unloaded_ms = median(u);
    overhead_frac = median(t) / unloaded_ms - 1.0;
  }

  // ---- the measured ladder ----
  const hqr::serve::ServerStatus before = fleet.server->status();
  const double t0 = hqr::monotonic_seconds() + 0.005;
  const double t_end = t0 + args.seconds;
  std::array<std::vector<Sample>, 2> samples;
  std::array<std::thread, 2> gens;
  for (int c = 0; c < 2; ++c)
    gens[static_cast<std::size_t>(c)] = std::thread([&, c] {
      hqr::serve::Client& client = *fleet.clients[static_cast<std::size_t>(c)];
      for (std::size_t i = static_cast<std::size_t>(c); i < schedule.size(); i += 2) {
        const Due& d = schedule[i];
        const double due = t0 + d.t;
        std::this_thread::sleep_until(at(due));
        const double sent = hqr::monotonic_seconds();
        if (sent > t_end + kDrainSeconds) {
          samples[static_cast<std::size_t>(c)].push_back(
              {d.step, 1e9, (sent - due) * 1e3, false, false});
          continue;
        }
        const Single& s = singles[static_cast<std::size_t>(d.input)];
        bool ok = false;
        try {
          ok = single_ok(s, submit(client, s));
        } catch (const std::exception&) {
          ok = false;  // refused, cancelled or lost: counts as failed
        }
        const double done = hqr::monotonic_seconds();
        if (spans) spans->add("serve request (from due)", -1, 1 + c, due, done);
        samples[static_cast<std::size_t>(c)].push_back(
            {d.step, (done - due) * 1e3, (sent - due) * 1e3, ok});
      }
    });
  // Two batch connections, each with one batch in flight, so the pool has
  // the next batch queued while the other one crosses the wire: the fused
  // throughput then measures the pool, not the round trip.
  struct BatchTally {
    long long attempted = 0, failed = 0, problems = 0;
    double last = 0.0;
  };
  std::array<BatchTally, kBatchConnections> tallies;
  std::array<std::thread, kBatchConnections> batchers;
  for (int c = 0; c < kBatchConnections; ++c)
    batchers[static_cast<std::size_t>(c)] = std::thread([&, c] {
      BatchTally& tally = tallies[static_cast<std::size_t>(c)];
      hqr::serve::Client& client = *fleet.clients[2 + static_cast<std::size_t>(c)];
      tally.last = t0;
      std::this_thread::sleep_until(at(t0));
      for (std::size_t i = static_cast<std::size_t>(c);
           hqr::monotonic_seconds() < t_end; i += kBatchConnections) {
        const Batch& b = batches[i % batches.size()];
        const double s0 = hqr::monotonic_seconds();
        bool ok = false;
        try {
          ok = batch_ok(b, client.submit_batch(b.problems, kSmallB, 0, kTree));
        } catch (const std::exception&) {
          ok = false;
        }
        const double s1 = hqr::monotonic_seconds();
        if (spans) spans->add("serve batch request", -1, 3 + c, s0, s1);
        ++tally.attempted;
        if (!ok) ++tally.failed;
        if (ok) tally.problems += kBatchProblems;
        tally.last = s1;
      }
    });
  for (std::thread& g : gens) g.join();
  for (std::thread& b : batchers) b.join();
  const hqr::serve::ServerStatus after = fleet.server->status();

  // ---- results ----
  std::array<std::vector<double>, kLadder.size()> lat;
  std::vector<double> reported, late;
  for (const auto& per_conn : samples)
    for (const Sample& s : per_conn) {
      if (s.sent) report.op(s.ok);
      // A failed, refused or unsent request misses any latency limit.
      const double ms = s.ok ? s.latency_ms : 1e9;
      lat[static_cast<std::size_t>(s.step)].push_back(ms);
      late.push_back(s.late_ms);
      if (s.step < kReportSteps) {
        reported.push_back(ms);
      }
    }
  long long batch_attempted = 0, problems_done = 0;
  double batch_last = t0;
  for (const BatchTally& t : tallies) {
    for (long long i = 0; i < t.attempted; ++i) report.op(i >= t.failed);
    batch_attempted += t.attempted;
    problems_done += t.problems;
    batch_last = std::max(batch_last, t.last);
  }

  // Highest offered rate that meets the limit: interpolated in log latency
  // between the last step that meets it and the first that does not.
  std::array<double, kLadder.size()> tails{}, end_late{};
  for (std::size_t k = 0; k < kLadder.size(); ++k) {
    // The step's last 20 requests: the last 10 of each connection.
    std::vector<double> last;
    for (const auto& per_conn : samples) {
      std::vector<double> mine;
      for (const Sample& s : per_conn)
        if (static_cast<std::size_t>(s.step) == k) mine.push_back(s.late_ms);
      const std::size_t keep = std::min<std::size_t>(mine.size(), 10);
      last.insert(last.end(), mine.end() - static_cast<std::ptrdiff_t>(keep), mine.end());
    }
    end_late[k] = last.empty() ? 0.0 : median(last);
  }
  double max_rate = 0.0;
  bool crossed = false;
  for (std::size_t k = 0; k < kLadder.size(); ++k) {
    const Tail tk = tail_of(lat[k]);
    // A growing backlog counts as missing the limit at this step.
    tails[k] = end_late[k] > kLimitMs ? std::max(tk.value, kLimitMs * 1.0001)
                                      : tk.value;
    if (crossed) continue;
    if (tails[k] > kLimitMs) {
      crossed = true;
      if (k == 0) {
        max_rate = kLadder[0] * kLimitMs / tails[0];
      } else {
        const double f = (std::log(kLimitMs) - std::log(tails[k - 1])) /
                         (std::log(tails[k]) - std::log(tails[k - 1]));
        max_rate = kLadder[k - 1] + f * (kLadder[k] - kLadder[k - 1]);
      }
    }
  }
  if (!crossed) max_rate = kLadder.back();

  report.spread("setup_s (s)", setups);
  report.spread("op latency (ms)", reported);
  report.e2e("setup_s", median(setups),
             "median of " + std::to_string(kSetups) + " set-ups");
  report.latency(reported, "singles at " + std::to_string(int(kLadder[0])) +
                               "-" +
                               std::to_string(int(kLadder[kReportSteps - 1])) +
                               " req/s");
  report.e2e("gflops", flops / (median(reported) * 1e-3) / 1e9,
             "useful flops per single / median single latency");
  report.e2e("max_rate_rps", max_rate,
             std::string(crossed ? "" : "limit never crossed; ") + "tail <= " +
                 std::to_string(int(kLimitMs)) + " ms");
  report.e2e("batch_problems_per_s",
             static_cast<double>(problems_done) / (batch_last - t0),
             std::to_string(batch_attempted) + " batches of " +
                 std::to_string(kBatchProblems));
  report.e2e("peak_rss_mb", peak_rss_mb(false));
  for (std::size_t k = 0; k < kLadder.size(); ++k) {
    const Tail tk = tail_of(lat[k]);
    report.info("step", std::to_string(k) + ": " + std::to_string(kLadder[k]) +
                            " req/s offered, " + std::to_string(lat[k].size()) +
                            " requests, p50 " + std::to_string(median(lat[k])) +
                            " ms, p" + std::to_string(tk.pct).substr(0, 4) + " " +
                            std::to_string(tk.value) + " ms, last requests sent " +
                            std::to_string(end_late[k]) + " ms late (median)");
  }
  if (!spans) return;

  // ---- per-layer metrics (traced run) ----
  for (std::size_t k = 0; k < kLadder.size(); ++k) {
    const std::string base = "serve.step" + std::to_string(k);
    report.layer(base + ".p50_ms", median(lat[k]),
                 std::to_string(int(kLadder[k])) + " req/s");
    report.layer(base + ".tail_ms", tail_of(lat[k]).value);
  }
  report.layer("serve.codec_us", codec_us, "encode+decode of request and result");
  report.layer("serve.compute_ms", compute_ms, "same request on a local DagPool");
  const double overhead = unloaded_ms - compute_ms - codec_us * 1e-3;
  report.layer("serve.overhead_ms", overhead,
               "unloaded p50 " + std::to_string(unloaded_ms) + " ms - compute - codec");
  report.layer("serve.rejected", static_cast<double>(after.requests_rejected -
                                                     before.requests_rejected));
  report.layer("serve.overloaded", static_cast<double>(after.requests_overloaded -
                                                       before.requests_overloaded));
  report.layer("serve.max_active_dags", static_cast<double>(after.max_active_dags));
  report.layer("loadgen.late_ms", median(late), "median send lateness");
  report.layer("trace.overhead_frac", overhead_frac,
               "metrics-sink server vs plain server, unloaded p50");
  report.layer("budget.residual_frac", overhead / unloaded_ms,
               "serve.overhead_ms over the unloaded p50");
  report.info("budget", "unloaded p50 = compute + codec + overhead: " +
                            std::to_string(unloaded_ms) + " = " +
                            std::to_string(compute_ms) + " + " +
                            std::to_string(codec_us * 1e-3) + " + " +
                            std::to_string(overhead) + " ms (the overhead is the residual)");
}

}  // namespace hqrbench
