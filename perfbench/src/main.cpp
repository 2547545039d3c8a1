// xh_perfbench: the layered benchmark of the xhybrid library.
//
//   xh_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                --work-dir DIR [--spans-out FILE]
//
// Prints human-readable lines, then one JSON result line (README.md). The
// usual entry point is perfbench/run.py, which builds this binary first.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"
#include "util/parse.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: xh_perfbench --workload analyze-table1|serve-xm|"
               "simulate-response|circuit-atpg --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--spans-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to report from an unoptimized "
                       "build (build type %s)\n", XHB_BUILD_TYPE);
  return 2;
#endif
  // Either variable silently moves every job onto another kernel tier or
  // storage backend (the service reads XH_XM_BACKEND at construction).
  for (const char* var : {"XH_ISA", "XH_XM_BACKEND"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to report with %s set\n",
                   var);
      return 2;
    }
  }

  xhb::Options opt;
  bool have_seed = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const char* value = argv[i + 1];
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = xh::parse_u64(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        opt.seconds = xh::parse_f64(value);
      } else if (flag == "--trace") {
        opt.trace = std::strcmp(value, "0") != 0;
      } else if (flag == "--work-dir") {
        opt.work_dir = value;
      } else if (flag == "--spans-out") {
        opt.spans_out = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return usage();
  }
  if (argc % 2 != 1 || !have_seed || opt.work_dir.empty() ||
      !(opt.seconds > 0.0)) {
    return usage();
  }

  std::unique_ptr<xhb::Workload> w;
  if (opt.workload == "analyze-table1") {
    w = xhb::make_analyze(opt);
  } else if (opt.workload == "serve-xm") {
    w = xhb::make_serve(opt);
  } else if (opt.workload == "simulate-response") {
    w = xhb::make_simulate(opt);
  } else if (opt.workload == "circuit-atpg") {
    w = xhb::make_circuit(opt);
  } else {
    return usage();
  }
  try {
    return xhb::measure(*w, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
