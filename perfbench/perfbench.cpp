// drcm layered wall-time benchmark program.
//
//   perfbench --workload order_deep|order_wide|serve_mix --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the per-layer
// probes and records spans (written to --trace-out as a Chrome trace).
// Prints progress on stderr and one JSON line on stdout; exits 1 when any
// output check failed. perfbench/run.py builds and drives it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "layers.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload order_deep|order_wide|serve_mix "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, trace_out;
  RunConfig cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(val, &end);
      have_seconds = end != val && *end == '\0' && cfg.seconds > 0.0;
    } else if (key == "--trace") {
      have_trace = std::strcmp(val, "0") == 0 || std::strcmp(val, "1") == 0;
      cfg.traced = std::strcmp(val, "1") == 0;
    } else if (key == "--trace-out") {
      trace_out = val;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || !have_seed || !have_seconds || !have_trace ||
      (workload != "order_deep" && workload != "order_wide" &&
       workload != "serve_mix")) {
    return usage(argv[0]);
  }

  // The accumulator and thread-count overrides change what is measured;
  // the benchmark runs only with both unset.
  for (const char* var : {"DRCM_SPMSPV_ACC", "DRCM_THREADS"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "%s is set; unset it to run the benchmark\n", var);
      return 2;
    }
  }

  Report out;
  out.info("workload", workload);
  out.info("seed", std::to_string(cfg.seed));
  out.info("trace", cfg.traced ? "1" : "0");
  out.info("compiler", PERFBENCH_COMPILER);
  out.info("build_type", PERFBENCH_BUILD_TYPE);
  out.info("hardware_threads", std::to_string(std::thread::hardware_concurrency()));
  out.info("ranks", std::to_string(kRanks));
  out.info("threads_per_rank", "1");
  out.info("DRCM_SPMSPV_ACC", "unset");
  out.info("DRCM_THREADS", "unset");

  Trace trace(cfg.traced);
  if (workload == "serve_mix") {
    run_serve(cfg, out, trace);
  } else {
    run_order(cfg, workload == "order_deep", out, trace);
  }
  if (cfg.traced && !trace_out.empty()) {
    out.check(trace.write_chrome(trace_out), "write the span trace");
    out.info("trace_file", trace_out);
  }
  out.metric("error_rate", "ratio",
             static_cast<double>(out.failed()) /
                 static_cast<double>(out.attempted()),
             out.attempted());

  std::printf("%s\n", out.to_json().c_str());
  return out.failed() == 0 ? 0 : 1;
}
