// HQR benchmark program.
//
//   hqrbench --workload <factor-square|qr-small|serve-mixed|dist-4rank>
//            --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Generates every input from the seed, sets the workload up, runs its ops
// for the given seconds, checks every result bit-for-bit against a
// reference computed at set-up, and prints one metric per line followed by
// the JSON result line. --trace 0 reports the end-to-end metrics of an
// untraced run; --trace 1 runs traced and untraced ops alternately and
// reports the per-layer metrics, writing a Perfetto trace to --trace-out.
// Exits nonzero when any check fails.
#include <iostream>
#include <string>

#include "bench.hpp"
#include "common/check.hpp"
#include "common/stopwatch.hpp"

using namespace hqrbench;

namespace {

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    HQR_CHECK(i + 1 < argc, "missing value for " << key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      HQR_CHECK(val == "0" || val == "1", "--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      HQR_CHECK(false, "unknown option " << key);
    }
  }
  HQR_CHECK(have_workload && have_seed, "--workload and --seed are required");
  HQR_CHECK(a.seconds > 0.0 && a.seconds <= 600.0, "--seconds out of range");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    require_no_kernel_overrides();
    Report report;
    report.info("run", "workload=" + args.workload +
                           " seed=" + std::to_string(args.seed) +
                           " seconds=" + std::to_string(args.seconds) +
                           " trace=" + (args.trace ? "1" : "0"));
    std::unique_ptr<Spans> spans;
    if (args.trace) spans = std::make_unique<Spans>(hqr::monotonic_seconds());

    if (args.workload == "factor-square") {
      run_factor_square(args, report, spans.get());
    } else if (args.workload == "qr-small") {
      run_qr_small(args, report, spans.get());
    } else if (args.workload == "serve-mixed") {
      run_serve_mixed(args, report, spans.get());
    } else if (args.workload == "dist-4rank") {
      run_dist_4rank(args, report, spans.get());
    } else {
      HQR_CHECK(false, "unknown workload " << args.workload);
    }
    record_pin(report);

    if (spans && !args.trace_out.empty()) {
      spans->save_chrome_json(args.trace_out);
      report.info("trace", args.trace_out + " (" +
                               std::to_string(spans->size()) +
                               " events; open in https://ui.perfetto.dev)");
    }
    const double attempted = static_cast<double>(report.attempted());
    report.e2e("failed_frac",
               attempted > 0 ? static_cast<double>(report.failed()) / attempted
                             : 1.0,
               std::to_string(report.failed()) + " of " +
                   std::to_string(report.attempted()) +
                   " ops failed, were refused or returned a wrong result");
    report.print_json(args.trace);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "hqrbench: " << e.what() << std::endl;
    return 2;
  }
}
