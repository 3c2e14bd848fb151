// The four perfbench workloads.  Each runs fixed work sized from
// --seconds, checks the program's outputs, and fills a Report with the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run);
// main.cpp orders them and prints the result.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its sampled spans (JSON lines); empty
  /// writes nothing.
  std::string trace_out;
};

Report run_service_peak(const RunOptions& options);
Report run_service_lan(const RunOptions& options);
Report run_level2_resolve(const RunOptions& options);
Report run_scenario_catalog(const RunOptions& options);

}  // namespace perfbench
