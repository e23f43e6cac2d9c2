// greenps_bench — the repository benchmark's binary.
//
//   greenps_bench --workload <consolidate|scinet|churn|selfheal> [--seed N]
//                 [--seconds S] [--trace PATH]
//
// Runs one workload in this process and prints its metrics; the last line of
// output is one JSON object (see Report::print). --trace records the
// benchmark's spans, writes them to PATH as Chrome-trace JSON, and runs the
// checks too costly for timed runs. Exits 1 when any check fails and 2 on a
// usage error. The library reads GREENPS_* environment variables as knobs,
// so the binary refuses to run with any of them set: only the workload name
// and the seed may decide the inputs.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "support.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace greenps_bench;

struct Workload {
  const char* name;
  void (*run)(const RunOptions&, Tracer&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"consolidate", run_consolidate},
    {"scinet", run_scinet},
    {"churn", run_churn},
    {"selfheal", run_selfheal},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "greenps_bench: %s\nusage: greenps_bench --workload "
               "<consolidate|scinet|churn|selfheal> [--seed N] [--seconds S] "
               "[--trace PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "GREENPS_", 8) == 0) {
      std::fprintf(stderr, "greenps_bench: unset %s; library knobs must keep their defaults\n",
                   *e);
      return 2;
    }
  }

  const Workload* workload = nullptr;
  RunOptions opts;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) workload = &w;
      }
      if (workload == nullptr) return usage("unknown workload");
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage("--seed takes an unsigned integer");
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opts.seconds > 0)) return usage("--seconds takes a positive number");
    } else if (arg == "--trace") {
      trace_path = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (workload == nullptr) return usage("--workload is required");
  opts.traced = !trace_path.empty();

  std::printf("workload %s, seed %llu, %.1f s timed%s\n", workload->name,
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.traced ? ", traced" : "");
  Tracer tracer(opts.traced, workload->name);
  Report report;
  workload->run(opts, tracer, report);
  report.put("peak_rss_mb", peak_rss_mb(), "MB");

  if (opts.traced) {
    report.put("trace.spans", static_cast<double>(tracer.span_count()), "spans");
    report.put("trace.overhead_ms", 1000.0 * tracer.overhead_s(), "ms");
    std::printf("self time by span:\n");
    for (const Tracer::SelfTime& t : tracer.self_times()) {
      std::printf("  %-26s %6zu x  total %10.4f s  self %10.4f s\n", t.name.c_str(), t.count,
                  t.total_s, t.self_s);
    }
    report.check(tracer.write_chrome_trace(trace_path), "trace written to " + trace_path);
  }
  report.print(workload->name, opts.seed);
  return report.correct() ? 0 : 1;
}
