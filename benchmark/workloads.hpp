// The four benchmark workloads. Each builds its inputs from the seed alone,
// repeats its timed operation until `seconds` of wall time have passed (and
// at least a fixed minimum, which also fixes the deterministic metrics),
// checks the library's outputs, and fills the report.
#pragma once

#include <cstdint>

#include "support.hpp"

namespace greenps_bench {

struct RunOptions {
  std::uint64_t seed = 42;
  double seconds = 10;
  bool traced = false;  // also run the checks too costly for timed runs
};

void run_consolidate(const RunOptions& opts, Tracer& tracer, Report& report);
void run_scinet(const RunOptions& opts, Tracer& tracer, Report& report);
void run_churn(const RunOptions& opts, Tracer& tracer, Report& report);
void run_selfheal(const RunOptions& opts, Tracer& tracer, Report& report);

}  // namespace greenps_bench
