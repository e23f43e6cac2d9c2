// Shared harness for the experiment benches (E1-E9).
//
// Runs one evaluated approach end-to-end: deploy the MANUAL baseline,
// profile, reconfigure with CROC (except for the MANUAL/AUTOMATIC
// baselines), then measure a fresh window and report the paper's metrics.
//
// Scale: benches default to a reduced-but-shape-preserving configuration so
// the whole suite finishes in minutes; set GREENPS_FULL=1 for the paper's
// cluster-testbed scale (80 brokers, 40 publishers, 2,000-8,000
// subscriptions).
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "croc/croc.hpp"
#include "obs/report.hpp"
#include "scenario/scenario.hpp"

namespace greenps::bench {

enum class Approach {
  kManual,
  kAutomatic,
  kPairwiseK,
  kPairwiseN,
  kFbf,
  kBinPacking,
  kCramIntersect,
  kCramXor,
  kCramIos,
  kCramIou,
};

[[nodiscard]] const char* approach_name(Approach a);
[[nodiscard]] std::vector<Approach> all_approaches();
[[nodiscard]] std::vector<Approach> proposed_approaches();  // FBF..CRAM-IOU

// ---- environment ----
//
// The bench binaries are the only code in the project that reads GREENPS_*
// variables: the library takes every knob from a field, and the helpers
// below fill those fields. Every bench binary links this file, whose
// start-up also calls obs::trace_start when GREENPS_TRACE=<path> is set
// (the trace is written at exit).

// `name` parsed as a number; `fallback` when unset or empty. Garbage parses
// as 0, which every knob below treats as its default.
[[nodiscard]] double env_double(const char* name, double fallback);

// SimOptions::workers from GREENPS_SIM_WORKERS (unset: one worker).
[[nodiscard]] SimOptions sim_options();
// `base` with CramOptions::threads and rebaseline_interval taken from
// GREENPS_CRAM_THREADS and GREENPS_CRAM_REBASELINE where those are set.
[[nodiscard]] CramOptions cram_options(CramOptions base = {});
// A default CrocConfig whose CRAM options went through cram_options().
[[nodiscard]] CrocConfig croc_config();

struct HarnessConfig {
  ScenarioConfig scenario;
  double profile_seconds = 90.0;
  double measure_seconds = 120.0;
  // Simulator parallelism (workers = event-queue shards). Defaults to
  // GREENPS_SIM_WORKERS (see sim_options()); results are bit-identical for
  // any worker count.
  SimOptions sim = sim_options();
};

struct RunResult {
  Approach approach = Approach::kManual;
  SimSummary summary;
  ReconfigurationReport report;  // success=false for MANUAL/AUTOMATIC
  bool reconfigured = false;
  // Harness instrumentation (profile + reconfiguration + measurement):
  double wall_s = 0;             // wall-clock seconds for the whole run
  std::size_t events = 0;        // discrete events executed
  std::size_t match_walks = 0;   // candidate filter evaluations (this thread)
  std::size_t workers = 1;       // event-loop shards the simulator used
  std::size_t windows = 0;       // lookahead windows opened (0 = serial drain)
};

// GREENPS_OBS_SAMPLE_MS=<ms> samples every broker at that sim-time interval
// and writes the run's rows to GREENPS_OBS_SAMPLES (default
// obs_samples.csv), so after a sweep the file holds the last run's series.
[[nodiscard]] RunResult run_approach(Approach a, const HarnessConfig& cfg);

// Apply `plan` to `sim` with apply_plan_transactional and redeploy. A
// rolled-back apply prints why to stderr (tagged with `what`), leaves `sim`
// on its deployment and returns false.
bool redeploy_plan(Simulation& sim, const ReconfigurationPlan& plan, const char* what);

// Map an approach to a CROC configuration (for the reconfiguring ones).
[[nodiscard]] CrocConfig croc_config_for(Approach a, std::uint64_t seed);

// GREENPS_FULL=1: the paper's scale (see the file comment).
[[nodiscard]] bool full_scale();
// GREENPS_TINY=1: smoke-test scale (a few brokers, seconds of simulated
// time) so a bench binary can run under ctest as a routing regression
// check. Overrides GREENPS_FULL.
[[nodiscard]] bool tiny_scale();

// Column-aligned table printing.
void print_row(const std::vector<std::string>& cells, const std::vector<int>& widths);
[[nodiscard]] std::string fmt(double v, int precision = 1);
[[nodiscard]] std::string pct_change(double baseline, double value);

// Wall-clock budget for a bench binary, read from GREENPS_BENCH_BUDGET_S
// (seconds; unset or <= 0 means unlimited). The clock starts at construction.
// Benches check `exceeded()` between rows and degrade gracefully: the rows
// that completed are printed, the rest are skipped with a "budget exceeded"
// note, and the process still exits 0 — so a full-scale run under a time cap
// yields a partial table instead of a killed process.
class BenchBudget {
 public:
  BenchBudget();
  [[nodiscard]] bool limited() const { return budget_s_ > 0; }
  [[nodiscard]] double budget_seconds() const { return budget_s_; }
  [[nodiscard]] double elapsed() const;
  [[nodiscard]] bool exceeded() const { return limited() && elapsed() >= budget_s_; }
  // If exceeded, prints the standard skip note (naming what is skipped) once
  // and returns true.
  [[nodiscard]] bool skip(const char* what) const;

 private:
  std::chrono::steady_clock::time_point t0_;
  double budget_s_ = 0;
};

// JSON assembly and file writing live in the observability subsystem's
// run-report writer now (one escaping implementation for every BENCH_*.json
// producer); re-exported here so bench code keeps its historical names.
using obs::JsonObject;
using obs::RunReport;
using obs::json_array;
using obs::json_quote;
using obs::write_text_file;

// One BENCH_sim.json row for a completed run: approach, wall clock, event
// throughput, match-walk counters and the headline summary numbers. Callers
// add their sweep coordinates (subs, brokers, ...) on top.
[[nodiscard]] JsonObject run_result_json(const RunResult& r);

// Append Phase 1 gather statistics (message counts, unreachable brokers,
// retries, simulated backoff, epoch-probe reuse) to a JSON row under
// "gather_*" keys. run_result_json applies it automatically; benches that
// assemble rows by hand call it on rows that carry a ReconfigurationReport.
JsonObject& set_gather_stats(JsonObject& row, const GatherStats& g);

// Start the standard sim-bench report (full_scale/tiny_scale header fields
// filled in); benches add rows and sweep-specific header fields on top.
[[nodiscard]] RunReport make_sim_report(const std::string& bench);

// Write BENCH_sim.json (cwd) with the given rendered rows; prints a
// confirmation line. `bench` names the producing experiment ("e1", "e5").
bool write_sim_bench_json(const std::string& bench, const std::vector<std::string>& rows);

}  // namespace greenps::bench
