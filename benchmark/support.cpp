#include "support.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace greenps_bench {

namespace {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Tracer(bool enabled, std::string workload)
    : enabled_(enabled), workload_(std::move(workload)) {}

int Tracer::open(const char* name) {
  if (!enabled_) return -1;
  const auto t0 = Clock::now();
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  const auto t1 = Clock::now();
  spans_.back().start = t1;
  overhead_s_ += std::chrono::duration<double>(t1 - t0).count();
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  const auto t0 = Clock::now();
  spans_[static_cast<std::size_t>(index)].end = t0;
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  overhead_s_ += seconds_since(t0);
}

std::vector<Tracer::SelfTime> Tracer::self_times() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          std::chrono::duration<double>(s.end - s.start).count();
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    t.count += 1;
    const double d = std::chrono::duration<double>(s.end - s.start).count();
    t.total_s += d;
    t.self_s += d - child_s[i];
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  std::sort(out.begin(), out.end(),
            [](const SelfTime& a, const SelfTime& b) { return a.self_s > b.self_s; });
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"workload\":\"%s\"}}\n",
                 i == 0 ? "" : ",", json_escape(s.name).c_str(), us_between(origin_, s.start),
                 us_between(s.start, s.end), i, s.parent, json_escape(workload_).c_str());
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void Report::put(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is finite");
    value = 0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) failed_checks_ += 1;
}

void Report::op(bool ok, std::uint64_t n) {
  attempted_ += n;
  if (!ok) failed_ += n;
}

void Report::print(const std::string& workload, std::uint64_t seed) const {
  for (const Metric& m : metrics_) {
    std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"correct\":%s,\"attempted\":%llu,"
              "\"failed\":%llu,\"metrics\":{",
              json_escape(workload).c_str(), static_cast<unsigned long long>(seed),
              correct() ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i == 0 ? "" : ",",
                json_escape(m.name).c_str(), m.value, json_escape(m.unit).c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // Linux reports kB
}

}  // namespace greenps_bench
