#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>

#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "linalg/blas.hpp"
#include "linalg/gemm.hpp"
#include "linalg/kernel_tuning.hpp"
#include "linalg/micro_kernel.hpp"
#include "linalg/norms.hpp"

namespace hqrbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The bounded end-to-end metrics, reported by every untraced run and
// carried by its JSON line (BENCHMARK.json "end_to_end" lists the same
// names and units).
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"batch_problems_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

// End-to-end metrics that are printed but not bounded. On a shared 4-vCPU
// host whose CPU steal swings between runs, the latency of a few-ms request
// (serve-mixed singles) doubles when a run meets a steal burst, and tails
// and the saturation point amplify every burst, so no bound a regression
// gate can use holds for them; failed_frac reads 0 on correct code.
const MetricDef kUnbounded[] = {
    {"p50_ms", "ms"},
    {"tail_ms", "ms"},
    {"gflops", "GFlop/s"},
    {"max_rate_rps", "1/s"},
    {"failed_frac", "frac"},
};

// The per-layer metrics, reported by every traced run (BENCHMARK.json
// "per_layer").
const MetricDef kPerLayer[] = {
    {"kernels.geqrt.gflops", "GFlop/s"},
    {"kernels.tsqrt.gflops", "GFlop/s"},
    {"kernels.ttqrt.gflops", "GFlop/s"},
    {"kernels.unmqr.gflops", "GFlop/s"},
    {"kernels.tsmqr.gflops", "GFlop/s"},
    {"kernels.ttmqr.gflops", "GFlop/s"},
    {"kernels.geqrt.share", "frac"},
    {"kernels.tsqrt.share", "frac"},
    {"kernels.ttqrt.share", "frac"},
    {"kernels.unmqr.share", "frac"},
    {"kernels.tsmqr.share", "frac"},
    {"kernels.ttmqr.share", "frac"},
    {"kernels.busy_s", "s"},
    {"kernels.tasks", "count"},
    {"plan.ms", "ms"},
    {"dag.tasks", "count"},
    {"dag.critical_path", "count"},
    {"runtime.factor_ms", "ms"},
    {"runtime.build_q_ms", "ms"},
    {"runtime.apply_q_ms", "ms"},
    {"runtime.idle_frac", "frac"},
    {"runtime.terminal_frac", "frac"},
    {"runtime.overhead_frac", "frac"},
    {"runtime.steal_success", "frac"},
    {"runtime.reuse_hit_rate", "frac"},
    {"seq.gflops", "GFlop/s"},
    {"runtime.parallel_eff", "frac"},
    {"ref.p50_ms", "ms"},
    {"serve.codec_us", "us"},
    {"serve.compute_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"serve.step0.p50_ms", "ms"},
    {"serve.step0.tail_ms", "ms"},
    {"serve.step1.p50_ms", "ms"},
    {"serve.step1.tail_ms", "ms"},
    {"serve.step2.p50_ms", "ms"},
    {"serve.step2.tail_ms", "ms"},
    {"serve.step3.p50_ms", "ms"},
    {"serve.step3.tail_ms", "ms"},
    {"serve.rejected", "count"},
    {"serve.overloaded", "count"},
    {"serve.max_active_dags", "count"},
    {"loadgen.late_ms", "ms"},
    {"net.launch_s", "s"},
    {"net.data_messages", "count"},
    {"net.data_bytes", "bytes"},
    {"distrun.exec_s", "s"},
    {"distrun.gather_s", "s"},
    {"distrun.busy_frac", "frac"},
    {"distrun.idle_frac", "frac"},
    {"distrun.max_recv_wait_s", "s"},
    {"distrun.single_rank_s", "s"},
    {"distrun.overhead_frac", "frac"},
    {"trace.overhead_frac", "frac"},
    {"budget.residual_frac", "frac"},
};

template <std::size_t N>
const char* find_unit(const MetricDef (&defs)[N], const std::string& name) {
  for (const MetricDef& d : defs)
    if (name == d.name) return d.unit;
  return nullptr;
}

template <std::size_t N>
const char* unit_of(const MetricDef (&defs)[N], const std::string& name) {
  const char* unit = find_unit(defs, name);
  HQR_CHECK(unit != nullptr, "metric '" << name << "' is not in the benchmark's set");
  return unit;
}

std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

void print_metric(const char* kind, const std::string& name, double value,
                  const char* unit, const std::string& note) {
  std::cout << kind << ' ' << name << " = " << std::setprecision(6) << value
            << ' ' << unit;
  if (!note.empty()) std::cout << "  (" << note << ')';
  std::cout << '\n';
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

// ---- statistics ----

double median(std::vector<double> v) {
  HQR_CHECK(!v.empty(), "median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  HQR_CHECK(!v.empty(), "mean of no samples");
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

Tail tail_of(std::vector<double> v) {
  HQR_CHECK(!v.empty(), "tail of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  Tail t;
  t.samples = n;
  for (double pct : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    // Nearest rank: the ceil(pct/100 * n)-th smallest sample.
    const auto rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9)));
    const std::size_t beyond = n - rank;
    if (pct > 50.0 && beyond < 10) break;
    t.pct = pct;
    t.value = v[rank - 1];
    t.beyond = beyond;
  }
  return t;
}

// ---- report ----

void Report::e2e(const std::string& name, double value,
                 const std::string& note) {
  if (const char* unit = find_unit(kUnbounded, name)) {
    print_metric("metric", name, value, unit,
                 note.empty() ? "not bounded" : note + "; not bounded");
    return;
  }
  const char* unit = unit_of(kEndToEnd, name);
  e2e_.emplace_back(name, value);
  print_metric("metric", name, value, unit, note);
}

void Report::latency(const std::vector<double>& ms, const std::string& what) {
  const double p50 = median(ms);
  const Tail t = tail_of(ms);
  std::ostringstream os;
  os << 'p' << t.pct << " of " << t.samples << " " << what << ", " << t.beyond
     << " beyond";
  e2e("p50_ms", p50, std::to_string(ms.size()) + " " + what);
  e2e("tail_ms", t.value, os.str());
}

void Report::layer(const std::string& name, double value,
                   const std::string& note) {
  const char* unit = unit_of(kPerLayer, name);
  layer_.emplace_back(name, value);
  print_metric("layer", name, value, unit, note);
}

void Report::info(const std::string& key, const std::string& text) {
  std::cout << key << ' ' << text << '\n';
}

void Report::spread(const std::string& what, const std::vector<double>& v) {
  if (v.empty()) return;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const auto at = [&](double q) {
    return s[static_cast<std::size_t>(q * static_cast<double>(s.size() - 1))];
  };
  std::ostringstream os;
  os << what << ": n=" << s.size() << " min " << s.front() << " p25 " << at(0.25)
     << " p50 " << at(0.5) << " p75 " << at(0.75) << " max " << s.back();
  info("spread", os.str());
}

void Report::check(const std::string& what, bool ok,
                   const std::string& detail) {
  if (!ok) checks_ok_ = false;
  std::cout << "check " << what << ": " << (ok ? "ok" : "FAILED") << "  ("
            << detail << ")\n";
}

void Report::print_json(bool trace) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  const auto emit = [&](const auto& defs, const auto& values) {
    bool first = true;
    for (const MetricDef& d : defs) {
      double v = 0.0;
      bool found = false;
      for (const auto& [name, value] : values)
        if (name == d.name) {
          v = value;
          found = true;
        }
      if (!found) print_metric("layer", d.name, 0.0, d.unit, "n/a");
      HQR_CHECK(std::isfinite(v), "metric " << d.name << " is not finite");
      os << (first ? "" : ", ") << '"' << d.name << "\": {\"value\": "
         << fmt(v) << ", \"unit\": \"" << d.unit << "\"}";
      first = false;
    }
  };
  if (trace) {
    emit(kPerLayer, layer_);
  } else {
    for (const MetricDef& d : kEndToEnd) {
      bool found = false;
      for (const auto& m : e2e_) found = found || m.first == d.name;
      HQR_CHECK(found, "end-to-end metric " << d.name << " was not measured");
    }
    emit(kEndToEnd, e2e_);
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// ---- checks ----

bool same_bits(const hqr::Matrix& x, const hqr::Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.storage().data(), y.storage().data(),
                     x.storage().size() * sizeof(double)) == 0;
}

double qr_accuracy_ratio(const hqr::Matrix& a, const hqr::Matrix& q,
                         const hqr::Matrix& r) {
  const double res = hqr::factorization_residual(a.view(), q.view(), r.view());
  const double orth = hqr::orthogonality_error(q.view());
  const double scale = std::numeric_limits<double>::epsilon() *
                       std::max(a.rows(), a.cols());
  return std::max(res, orth) / scale;
}

double ls_accuracy_ratio(const hqr::Matrix& a, const hqr::Matrix& b,
                         const hqr::Matrix& x) {
  hqr::Matrix resid = hqr::materialize(b.view());
  hqr::gemm(hqr::Trans::No, hqr::Trans::No, -1.0, a.view(), x.view(), 1.0,
            resid.view());
  hqr::Matrix g(a.cols(), b.cols());
  hqr::gemm(hqr::Trans::Yes, hqr::Trans::No, 1.0, a.view(), resid.view(), 0.0,
            g.view());
  const double na = hqr::frobenius_norm(a.view());
  const double denom =
      std::numeric_limits<double>::epsilon() * std::max(a.rows(), a.cols()) *
      na * (na * hqr::frobenius_norm(x.view()) + hqr::frobenius_norm(b.view()));
  return hqr::frobenius_norm(g.view()) / denom;
}

// ---- runtime layer accounting ----

void RuntimeTotals::add(const hqr::RunStats& s, int b, double wall) {
  for (int k = 0; k < hqr::kKernelTypeCount; ++k) {
    const auto i = static_cast<std::size_t>(k);
    tasks[i] += s.tasks_by_kernel[i];
    seconds[i] += s.seconds_by_kernel[i];
    flops[i] += static_cast<double>(s.tasks_by_kernel[i]) *
                hqr::kernel_flops(static_cast<hqr::KernelType>(k), b);
  }
  for (double v : s.busy_seconds_per_thread) busy += v;
  for (double v : s.idle_seconds_per_thread) idle += v;
  for (double v : s.terminal_wait_seconds_per_thread) terminal += v;
  capacity += s.threads * wall;
  total_tasks += s.total_tasks;
  reuse_hits += s.reuse_hits;
  steals += s.steals;
  steal_fails += s.steal_fails;
}

double report_runtime_layers(Report& report, const RuntimeTotals& t,
                             double ops) {
  static const char* kNames[] = {"geqrt", "unmqr", "tsqrt",
                                 "tsmqr", "ttqrt", "ttmqr"};
  for (int k = 0; k < hqr::kKernelTypeCount; ++k) {
    const auto i = static_cast<std::size_t>(k);
    if (t.tasks[i] == 0) continue;
    const std::string base = std::string("kernels.") + kNames[k];
    report.layer(base + ".gflops", t.flops[i] / t.seconds[i] / 1e9,
                 std::to_string(t.tasks[i]) + " tasks");
    report.layer(base + ".share", t.seconds[i] / t.busy);
  }
  report.layer("kernels.busy_s", t.busy / ops, "per op, summed over workers");
  report.layer("kernels.tasks", static_cast<double>(t.total_tasks) / ops,
               "per op");
  const double idle = t.idle / t.capacity;
  const double terminal = t.terminal / t.capacity;
  const double overhead = 1.0 - t.busy / t.capacity - idle - terminal;
  report.layer("runtime.idle_frac", idle);
  report.layer("runtime.terminal_frac", terminal);
  report.layer("runtime.overhead_frac", overhead,
               "threads x wall - busy - idle - terminal");
  const long long attempts = t.steals + t.steal_fails;
  report.layer("runtime.steal_success",
               attempts > 0 ? double(t.steals) / double(attempts) : 0.0,
               std::to_string(attempts) + " attempts");
  report.layer("runtime.reuse_hit_rate",
               double(t.reuse_hits) / double(t.total_tasks));
  return overhead;
}

// ---- pinning ----

void require_no_kernel_overrides() {
  for (const char* var :
       {"HQR_KERNEL_ISA", "HQR_GEMM_BACKEND", "HQR_TUNING", "HQR_TUNING_FILE"}) {
    const char* v = std::getenv(var);
    HQR_CHECK(v == nullptr, "environment override " << var << "=" << v
                                << " is set; the benchmark runs only the "
                                   "default kernel dispatch, unset it");
  }
}

void record_pin(Report& report) {
  // The first workspace applies the tuning cache; make sure that happened
  // before reading the dispatch state.
  hqr::ensure_tuning_applied();
  const hqr::GemmBlocking blk = hqr::gemm_blocking();
  hqr::KernelTuning cached;
  const std::string path = hqr::default_tuning_path();
  const bool cache = hqr::load_kernel_tuning(path, cached) &&
                     cached.cpu == hqr::tuning_cpu_id();
  std::ostringstream os;
  os << "micro_kernel=" << hqr::active_micro_kernel().name
     << " gemm_mc=" << blk.mc << " gemm_kc=" << blk.kc << " gemm_nc=" << blk.nc
     << " householder_panel=" << hqr::householder_panel()
     << " tuning_cache_applied=" << (cache ? "yes" : "no") << " ("
     << path << ")";
  report.info("pin", os.str());
  report.info("host", "cpu=" + hqr::tuning_cpu_id() +
                          " nproc=" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
}

double peak_rss_mb(bool children) {
  rusage ru{};
  getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- spans ----

int Spans::open(const std::string& name, int parent, int lane) {
  const double t = hqr::monotonic_seconds();
  std::lock_guard<std::mutex> lk(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, id, parent, lane, t - origin_, -1.0});
  return id;
}

void Spans::close(int id) {
  const double t = hqr::monotonic_seconds();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].end = t - origin_;
}

int Spans::add(const std::string& name, int parent, int lane, double t0,
               double t1) {
  std::lock_guard<std::mutex> lk(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, id, parent, lane, t0 - origin_, t1 - origin_});
  return id;
}

void Spans::attach(const hqr::obs::TraceRecorder& rec, int parent,
                   const std::string& process, double shift) {
  std::vector<hqr::obs::TraceEvent> evs = rec.sorted_events();
  std::lock_guard<std::mutex> lk(mu_);
  auto it = std::find(processes_.begin(), processes_.end(), process);
  const int proc = static_cast<int>(it - processes_.begin());
  if (it == processes_.end()) processes_.push_back(process);
  for (hqr::obs::TraceEvent& e : evs) {
    e.start += shift;
    e.end += shift;
    tasks_.push_back({e, parent, proc});
  }
}

std::size_t Spans::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size() + tasks_.size();
}

void Spans::save_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream out(path);
  HQR_CHECK(out.good(), "cannot write " << path);
  out << std::setprecision(15) << "{\"displayTimeUnit\": \"ms\", "
      << "\"traceEvents\": [\n";
  out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
         "\"args\": {\"name\": \"benchmark layers\"}}";
  for (std::size_t p = 0; p < processes_.size(); ++p)
    out << ",\n{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << p + 1
        << ", \"args\": {\"name\": \"" << json_escape(processes_[p]) << "\"}}";
  for (const Span& s : spans_) {
    if (s.end < s.start) continue;  // never closed (an exception escaped)
    out << ",\n{\"name\": \"" << json_escape(s.name)
        << "\", \"cat\": \"layer\", \"ph\": \"X\", \"pid\": 0, \"tid\": "
        << s.lane << ", \"ts\": " << s.start * 1e6
        << ", \"dur\": " << (s.end - s.start) * 1e6 << ", \"args\": {\"id\": "
        << s.id << ", \"parent\": " << s.parent << "}}";
  }
  for (const Task& t : tasks_) {
    out << ",\n{\"name\": \"" << json_escape(hqr::obs::event_label(t.ev))
        << "\", \"cat\": \"task\", \"ph\": \"X\", \"pid\": " << t.process + 1
        << ", \"tid\": " << t.ev.lane * 64 + t.ev.sub
        << ", \"ts\": " << t.ev.start * 1e6
        << ", \"dur\": " << (t.ev.end - t.ev.start) * 1e6
        << ", \"args\": {\"parent\": " << t.parent << ", \"task\": " << t.ev.task
        << "}}";
  }
  out << "\n]}\n";
  HQR_CHECK(out.good(), "write to " << path << " failed");
}

}  // namespace hqrbench
