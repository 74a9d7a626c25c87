#include "core/kernel_tune.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "kernels/tile_kernels.hpp"
#include "linalg/micro_kernel.hpp"
#include "linalg/random_matrix.hpp"

namespace hqr {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Times one rep of `body` repeatedly until `min_time` seconds accumulate
// (one warmup rep excluded) and returns seconds per rep.
template <typename F>
double time_per_rep(double min_time, F&& body) {
  body();  // warmup: faults pages, sizes pack buffers, warms caches
  int reps = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  do {
    body();
    ++reps;
    elapsed = seconds_since(t0);
  } while (elapsed < min_time);
  return elapsed / reps;
}

// Benchmark fixture: factored tile pair so the apply kernels run on
// well-scaled compact-WY data (random V/T would blow the iterates up).
struct TuneFixture {
  int b;
  int ib;  // inner block of the apply fixture (0 resolved to the default)
  Matrix a_src, c1_src, c2_src;
  Matrix v2, t, c1, c2, a, tg;

  TuneFixture(int b_, int ib_)
      : b(b_), ib(ib_ > 0 ? std::min(ib_, b_) : default_inner_block(b_)),
        a_src(b_, b_), c1_src(b_, b_), c2_src(b_, b_), v2(b_, b_), t(b_, b_),
        c1(b_, b_), c2(b_, b_), a(b_, b_), tg(b_, b_) {
    Rng rng(42);
    a_src = random_uniform(b, b, rng);
    c1_src = random_uniform(b, b, rng);
    c2_src = random_uniform(b, b, rng);
    TileWorkspace ws(b);
    copy(a_src.view(), a.view());
    copy(c2_src.view(), v2.view());
    tsqrt_ib(a.view(), v2.view(), t.view(), ib, ws);
  }

  // One TSMQR apply (weight 12: the dominant DAG kernel) on the packed GEMM
  // core.
  double apply_once(TileWorkspace& ws) {
    copy(c1_src.view(), c1.view());
    copy(c2_src.view(), c2.view());
    tsmqr_ib(c1.view(), c2.view(), v2.view(), t.view(), ib, Trans::Yes, ws);
    return 4.0 * b * b * static_cast<double>(b);
  }

  // GEQRT + TSQRT + TSMQR at inner block pw: the paths the default inner
  // block controls.
  double factor_once(TileWorkspace& ws, int pw) {
    copy(a_src.view(), a.view());
    geqrt_ib(a.view(), tg.view(), pw, ws);
    copy(a_src.view(), a.view());
    copy(c1_src.view(), c1.view());
    tsqrt_ib(c1.view(), a.view(), tg.view(), pw, ws);
    copy(c1_src.view(), c1.view());
    copy(c2_src.view(), c2.view());
    tsmqr_ib(c1.view(), c2.view(), a.view(), tg.view(), pw, Trans::Yes, ws);
    return (4.0 / 3.0 + 2.0 + 4.0) * b * b * static_cast<double>(b);
  }
};

}  // namespace

KernelTuning tune_kernels(const TuneOptions& opts) {
  HQR_CHECK(opts.b >= 8, "tune: tile size too small");
  HQR_CHECK(opts.ib >= 0, "tune: negative inner block");
  const GemmBlocking saved_blocking = gemm_blocking();
  const MicroKernel& saved_kernel = active_micro_kernel();

  TuneFixture fx(opts.b, opts.ib);
  TileWorkspace ws(opts.b);

  const std::vector<int> mcs = {96, 144, 192, 288};
  const std::vector<int> kcs = {192, 256, 320};

  KernelTuning best = default_kernel_tuning();
  double best_gfs = 0.0;
  for (const MicroKernel& k : micro_kernel_registry()) {
    if (!micro_kernel_isa_supported(k.isa)) continue;
    set_active_micro_kernel(k);
    for (const int mc : mcs) {
      for (const int kc : kcs) {
        GemmBlocking bl;
        bl.mc = mc;
        bl.kc = kc;
        set_gemm_blocking(bl);
        double flops = 0.0;
        const double spr = time_per_rep(opts.min_time, [&] {
          flops = fx.apply_once(ws);
        });
        const double gfs = flops / spr * 1e-9;
        if (opts.report) {
          std::ostringstream desc;
          desc << k.name << " mc=" << mc << " kc=" << kc;
          opts.report(desc.str(), gfs);
        }
        if (gfs > best_gfs) {
          best_gfs = gfs;
          best.kernel = k.name;
          best.blocking = bl;
        }
      }
    }
  }

  // Default inner block search with the winning kernel/blocking pinned.
  set_active_micro_kernel(best.kernel);
  set_gemm_blocking(best.blocking);
  double best_factor_gfs = 0.0;
  for (const int pw : {16, 24, 32, 48, 64}) {
    if (pw > opts.b) continue;
    double flops = 0.0;
    const double spr = time_per_rep(opts.min_time, [&] {
      flops = fx.factor_once(ws, pw);
    });
    const double gfs = flops / spr * 1e-9;
    if (opts.report) {
      std::ostringstream desc;
      desc << "householder_panel=" << pw;
      opts.report(desc.str(), gfs);
    }
    if (gfs > best_factor_gfs) {
      best_factor_gfs = gfs;
      best.householder_panel = pw;
    }
  }

  set_gemm_blocking(saved_blocking);
  set_active_micro_kernel(saved_kernel);
  best.cpu = tuning_cpu_id();
  return best;
}

}  // namespace hqr
