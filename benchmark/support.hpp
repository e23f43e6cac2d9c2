// Shared plumbing of the greenps benchmark: wall-clock timing, the
// in-memory span recorder behind --trace, and the metric/check report whose
// JSON form is the binary's last line of output.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace greenps_bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Spans recorded by the benchmark around each call into the library. Kept in
// memory and written as Chrome-trace JSON once the workload ends. When
// disabled, open/close do nothing, so untraced runs pay one branch per span.
class Tracer {
 public:
  Tracer(bool enabled, std::string workload);

  // Returns the span's index, or -1 when tracing is off. Spans nest: the
  // innermost open span is the new span's parent.
  int open(const char* name);
  void close(int index);

  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }
  // Wall time spent inside open/close (the recorder's own cost).
  [[nodiscard]] double overhead_s() const { return overhead_s_; }

  struct SelfTime {
    std::string name;
    std::size_t count = 0;
    double total_s = 0;
    double self_s = 0;  // total minus the time covered by child spans
  };
  [[nodiscard]] std::vector<SelfTime> self_times() const;

  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name = nullptr;  // string literal
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
  };

  bool enabled_;
  std::string workload_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  double overhead_s_ = 0;
};

// Runs `fn` inside a span named `name` and returns its wall seconds.
template <typename F>
double timed(Tracer& tracer, const char* name, F&& fn) {
  const int span = tracer.open(name);
  const auto t0 = Clock::now();
  fn();
  const double s = seconds_since(t0);
  tracer.close(span);
  return s;
}

// Metrics, correctness checks and the operation tally of one workload run.
class Report {
 public:
  void put(const std::string& name, double value, const std::string& unit);
  // A failed check makes the run incorrect (non-zero exit).
  void check(bool ok, const std::string& what);
  // `n` attempted operations; `ok` false counts them as failed.
  void op(bool ok, std::uint64_t n = 1);

  [[nodiscard]] bool correct() const { return failed_checks_ == 0; }

  // Human-readable metric table, then one JSON line:
  // {"workload", "seed", "correct", "attempted", "failed", "metrics": {name:
  // {"value", "unit"}}}.
  void print(const std::string& workload, std::uint64_t seed) const;

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::size_t failed_checks_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace greenps_bench
