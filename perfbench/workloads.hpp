// The benchmark's workloads. Each runs closed-loop (one client that waits
// for every reply before sending the next call) against the public API,
// checks every output outside the timed interval, and appends its metrics,
// exact counters and checks to a Report.
#pragma once

#include <cstdint>

#include "report.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured loop length
  bool traced = false;    ///< per-layer run: probes + spans
};

/// `order_deep` (deep = true) and `order_wide`: rcm::run_dist_order with
/// the default kRcm spec, at p = 4 and p = 1.
void run_order(const RunConfig& cfg, bool deep, Report& out, Trace& trace);

/// `serve_mix`: one service::ReorderingService fed a seeded mix of cold,
/// hit and repair requests through submit.
void run_serve(const RunConfig& cfg, Report& out, Trace& trace);

}  // namespace perfbench
