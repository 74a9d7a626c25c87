// Shared infrastructure of the HQR benchmark program: command-line
// arguments, the result report (metrics with units, checks, the final JSON
// line), latency statistics, output checks, the layer spans the benchmark
// records around its own calls into the library, and the Perfetto export.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "obs/trace.hpp"
#include "runtime/executor.hpp"

namespace hqrbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where the traced run writes its Perfetto trace ("" = no file).
  std::string trace_out;
};

// ---- latency statistics ----

double median(std::vector<double> v);
double mean(const std::vector<double>& v);

// The highest of {50, 75, 90, 95, 99, 99.9} percentiles that leaves at
// least 10 samples beyond it (nearest-rank), with the sample count.
struct Tail {
  double pct = 50.0;
  double value = 0.0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> v);

// ---- report ----

// End-to-end metrics go to the JSON line of an untraced run, per-layer
// metrics to that of a traced run; both are printed as text lines. Every
// name must be one of the fixed sets in bench.cpp (which BENCHMARK.json
// lists); a per-layer metric of a layer the workload does not exercise is
// reported as 0 and printed as "n/a", so every traced run has the same set.
class Report {
 public:
  void e2e(const std::string& name, double value,
           const std::string& note = "");
  // p50_ms and tail_ms of a set of op latencies (ms); `what` names the ops.
  void latency(const std::vector<double>& ms, const std::string& what);
  void layer(const std::string& name, double value,
             const std::string& note = "");
  // Quartiles of a sample set, as a provenance line.
  void spread(const std::string& what, const std::vector<double>& v);
  // A free-form provenance line ("pin", "budget", "check", ...).
  void info(const std::string& key, const std::string& text);

  // One op whose result was checked; `ok` false counts it as failed.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  // A check outside the timed ops (references, self-test): a failure makes
  // the run incorrect without counting as an op.
  void check(const std::string& what, bool ok, const std::string& detail);

  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  bool correct() const { return checks_ok_ && failed_ == 0 && attempted_ > 0; }

  // Prints the JSON result line (the last line of stdout).
  void print_json(bool trace) const;

 private:
  std::vector<std::pair<std::string, double>> e2e_, layer_;
  long long attempted_ = 0;
  long long failed_ = 0;
  bool checks_ok_ = true;
};

// ---- output checks ----

// Bit-for-bit equality (shape and every double).
bool same_bits(const hqr::Matrix& x, const hqr::Matrix& y);
// max(||A-QR||_F/||A||_F, ||Q^T Q - I||_F) / (eps * max(m, n)): the LAPACK
// test ratio; a factorization is accurate to machine precision below 30.
double qr_accuracy_ratio(const hqr::Matrix& a, const hqr::Matrix& q,
                         const hqr::Matrix& r);
// ||A^T (b - A x)||_F / (eps * max(m, n) * ||A||_F * (||A||_F ||x||_F +
// ||b||_F)): the normal-equations test ratio of a least-squares solution.
double ls_accuracy_ratio(const hqr::Matrix& a, const hqr::Matrix& b,
                         const hqr::Matrix& x);
inline constexpr double kAccuracyLimit = 30.0;

// ---- host and dispatch pinning ----

// Refuses to run (throws) when an environment override would change which
// kernels run; prints the dispatch state and host into the report.
void require_no_kernel_overrides();
void record_pin(Report& report);

// Peak resident set in MiB: of this process, or of its reaped children.
double peak_rss_mb(bool children);

// ---- layer spans and trace export ----

// Spans the benchmark records around its calls into each layer. Times are
// seconds since the recorder's origin (a monotonic_seconds() value shared
// with the runtime trace recorders, so both line up in one timeline).
class Spans {
 public:
  explicit Spans(double origin) : origin_(origin) {}
  double origin() const { return origin_; }

  // Opens a span on `lane` (a benchmark thread); returns its id.
  int open(const std::string& name, int parent, int lane = 0);
  void close(int id);
  // Records a finished span with explicit monotonic_seconds() bounds.
  int add(const std::string& name, int parent, int lane, double t0, double t1);

  // Runtime task events recorded by a library TraceRecorder during the span
  // `parent`; `process` names the timeline row ("runtime", "rank 2", ...).
  void attach(const hqr::obs::TraceRecorder& rec, int parent,
              const std::string& process, double shift = 0.0);

  std::size_t size() const;
  // Chrome trace-event JSON, loadable in Perfetto.
  void save_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int id, parent, lane;
    double start, end;
  };
  struct Task {
    hqr::obs::TraceEvent ev;
    int parent;
    int process;
  };
  double origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<Task> tasks_;
  std::vector<std::string> processes_;
};

// RAII span; a null recorder makes it a no-op (untraced ops).
class Scoped {
 public:
  Scoped(Spans* s, const std::string& name, int parent, int lane = 0)
      : s_(s), id_(s ? s->open(name, parent, lane) : -1) {}
  ~Scoped() {
    if (s_) s_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return id_; }

 private:
  Spans* s_;
  int id_;
};

// ---- runtime layer accounting ----

// Sums the executor's RunStats over the traced calls of a run (each run
// observed through a metrics sink, so its timing breakdown is populated).
struct RuntimeTotals {
  std::array<long long, hqr::kKernelTypeCount> tasks{};
  std::array<double, hqr::kKernelTypeCount> seconds{};
  std::array<double, hqr::kKernelTypeCount> flops{};
  double busy = 0.0, idle = 0.0, terminal = 0.0;
  double capacity = 0.0;  // threads x wall of the measured calls
  long long total_tasks = 0, reuse_hits = 0, steals = 0, steal_fails = 0;

  // `wall` is the caller-side time of the call that produced `s`.
  void add(const hqr::RunStats& s, int b, double wall);
};

// kernels.*, runtime.{idle,terminal,overhead}_frac, steal and reuse rates,
// with busy seconds and tasks per op over `ops` ops. Returns the overhead
// fraction (threads x wall not covered by busy, idle or terminal wait).
double report_runtime_layers(Report& report, const RuntimeTotals& t,
                             double ops);

// ---- workloads ----

void run_factor_square(const Args& args, Report& report, Spans* spans);
void run_qr_small(const Args& args, Report& report, Spans* spans);
void run_serve_mixed(const Args& args, Report& report, Spans* spans);
void run_dist_4rank(const Args& args, Report& report, Spans* spans);

}  // namespace hqrbench
