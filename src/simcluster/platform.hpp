// Platform model for the cluster simulator.
//
// Calibrated against the paper's §V-A measurements on the Grid'5000 edel
// cluster: 60 nodes x 8 cores, per-core theoretical peak 9.08 GFlop/s,
// dTSMQR measured at 7.21 GFlop/s/core (79.4% of peak), dTTMQR at 6.28
// (69.2%), Infiniband 20G interconnect. Nodes carry CPU cores only: the
// accelerators of the paper's §VI future work are not modelled, since no
// host here has one to calibrate against.
#pragma once

#include <string>

#include "kernels/weights.hpp"

namespace hqr {

// Per-core execution rates (GFlop/s) for each kernel class.
struct KernelRates {
  double geqrt = 5.80;
  double unmqr = 7.00;
  double tsqrt = 6.30;
  double tsmqr = 7.21;  // measured in the paper
  double ttqrt = 4.50;
  double ttmqr = 6.28;  // measured in the paper

  double rate(KernelType k) const {
    switch (k) {
      case KernelType::GEQRT:
        return geqrt;
      case KernelType::UNMQR:
        return unmqr;
      case KernelType::TSQRT:
        return tsqrt;
      case KernelType::TSMQR:
        return tsmqr;
      case KernelType::TTQRT:
        return ttqrt;
      case KernelType::TTMQR:
        return ttmqr;
    }
    return 1.0;
  }
};

struct Platform {
  int nodes = 60;
  int cores_per_node = 8;
  double peak_per_core_gflops = 9.08;
  KernelRates rates;
  double latency = 1.5e-6;       // seconds per message (Infiniband-class)
  double bandwidth = 1.8e9;      // bytes/second effective per link

  double theoretical_peak_gflops() const {
    return nodes * cores_per_node * peak_per_core_gflops;
  }

  // Wall-clock seconds for one kernel on b x b tiles on one core.
  double kernel_seconds(KernelType k, int b) const {
    return kernel_flops(k, b) / (rates.rate(k) * 1e9);
  }

  // Transfer time for `bytes` between two distinct nodes.
  double transfer_seconds(double bytes) const {
    return latency + bytes / bandwidth;
  }

  std::string describe() const;

  // The paper's experimental platform (Grid'5000 edel, §V-A).
  static Platform edel();
};

}  // namespace hqr
