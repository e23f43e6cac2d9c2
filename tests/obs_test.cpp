// Observability subsystem tests: metrics registry and log-histogram math,
// run-report JSON structure, time-series sampler CSV, the span tracer's
// Chrome trace-event output (golden-structure over a tiny CROC run), and
// thread-pool span attribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "croc/croc.hpp"
#include "sim/metrics.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario.hpp"

namespace greenps {
namespace {

// ---- minimal JSON checks ----
//
// A full parser is overkill: the golden tests assert structural invariants
// (balanced braces/brackets outside strings, expected keys present, every
// event object well-formed) that a hand-rolled scan verifies reliably on
// the writer's known output shape.

bool json_balanced(const std::string& s) {
  int depth_obj = 0, depth_arr = 0;
  bool in_str = false, esc = false;
  for (const char c : s) {
    if (esc) {
      esc = false;
      continue;
    }
    if (in_str) {
      if (c == '\\') esc = true;
      if (c == '"') in_str = false;
      continue;
    }
    switch (c) {
      case '"': in_str = true; break;
      case '{': ++depth_obj; break;
      case '}': --depth_obj; break;
      case '[': ++depth_arr; break;
      case ']': --depth_arr; break;
      default: break;
    }
    if (depth_obj < 0 || depth_arr < 0) return false;
  }
  return depth_obj == 0 && depth_arr == 0 && !in_str;
}

std::size_t count_occurrences(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---- metrics registry ----

TEST(MetricsRegistry, CounterGaugeIdentityAndSnapshot) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  obs::Counter& c1 = reg.counter("test.widget_count");
  obs::Counter& c2 = reg.counter("test.widget_count");
  EXPECT_EQ(&c1, &c2);  // lookups intern: same name, same object
  c1.add(3);
  c2.add(4);
  EXPECT_EQ(c1.value(), 7u);

  reg.gauge("test.temperature").set(21.5);
  reg.histogram("test.latency").record(5.0);

  const auto snap = reg.snapshot();
  ASSERT_GE(snap.size(), 3u);
  EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end(), [](const auto& a, const auto& b) {
    return a.name < b.name;
  }));
  bool saw_counter = false;
  for (const auto& e : snap) {
    if (e.name == "test.widget_count") {
      EXPECT_EQ(e.kind, obs::MetricsRegistry::Entry::Kind::kCounter);
      EXPECT_DOUBLE_EQ(e.value, 7.0);
      saw_counter = true;
    }
  }
  EXPECT_TRUE(saw_counter);
  reg.reset();
  EXPECT_EQ(c1.value(), 0u);
}

TEST(LogHistogram, BucketEdgesMatchSpec) {
  // Bucket 0 = [0, first]; bucket i>0 = (first*growth^(i-1), first*growth^i].
  obs::LogHistogram h(100.0, 1.15, 120);
  EXPECT_EQ(h.bucket_for(0.0), 0u);
  EXPECT_EQ(h.bucket_for(100.0), 0u);
  EXPECT_EQ(h.bucket_for(100.0001), 1u);
  EXPECT_EQ(h.bucket_for(114.9), 1u);
  EXPECT_EQ(h.bucket_for(1e18), 119u);  // overflow clamps to last bucket
}

TEST(LogHistogram, PercentileTracksExactOracle) {
  // Log-bucketed percentiles approximate the exact ones within the bucket
  // width: the reported midpoint must be within one growth factor of the
  // true order statistic.
  obs::LogHistogram h(100.0, 1.15, 120);
  std::mt19937_64 rng(42);
  std::lognormal_distribution<double> dist(8.0, 1.2);  // heavy-tailed, like delays
  std::vector<double> exact;
  for (int i = 0; i < 20000; ++i) {
    const double v = dist(rng);
    exact.push_back(v);
    h.record(v);
  }
  std::sort(exact.begin(), exact.end());
  for (const double q : {0.50, 0.90, 0.99}) {
    const double oracle = exact[static_cast<std::size_t>(q * (exact.size() - 1))];
    const double est = h.percentile(q);
    EXPECT_GT(est, oracle / 1.16) << "q=" << q;
    EXPECT_LT(est, oracle * 1.16) << "q=" << q;
  }
  EXPECT_EQ(h.samples(), 20000u);
  EXPECT_NEAR(h.mean(), std::accumulate(exact.begin(), exact.end(), 0.0) / 20000.0, 1e-6);
}

TEST(LogHistogram, MergeAndResetBehave) {
  obs::LogHistogram a(1.0, 1.5, 16);
  obs::LogHistogram b(1.0, 1.5, 16);
  a.record(2.0);
  b.record(8.0);
  b.record(9.0);
  a.merge(b);
  EXPECT_EQ(a.samples(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 19.0);
  a.reset();
  EXPECT_EQ(a.samples(), 0u);
  EXPECT_DOUBLE_EQ(a.percentile(0.5), 0.0);
}

// ---- run report ----

TEST(RunReport, RendersHeaderRowsAndMetrics) {
  obs::MetricsRegistry::global().reset();
  obs::MetricsRegistry::global().counter("report.test_counter").add(11);

  obs::RunReport report("unit_test");
  report.header().set_integer("subscriptions", 120).set_bool("full_scale", false);
  report.add_row(obs::JsonObject().set_string("approach", "FBF").set_number("seconds", 0.5));
  report.add_row(obs::JsonObject().set_string("approach", "CRAM\"quoted\""));
  report.add_metrics_snapshot();

  const std::string doc = report.render("results");
  EXPECT_TRUE(json_balanced(doc));
  // Field order: bench first, then header insertion order, rows key last.
  EXPECT_EQ(doc.find("\"bench\":\"unit_test\""), 1u);
  EXPECT_NE(doc.find("\"subscriptions\":120"), std::string::npos);
  EXPECT_NE(doc.find("\"results\":["), std::string::npos);
  EXPECT_NE(doc.find("\"approach\":\"CRAM\\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(doc.find("\"report.test_counter\":11"), std::string::npos);
  EXPECT_EQ(report.row_count(), 2u);
  EXPECT_LT(doc.find("\"subscriptions\""), doc.find("\"results\""));
}

TEST(RunReport, WritesFileWithTrailingNewline) {
  const std::string path = "obs_report_test.json";
  obs::RunReport report("write_test");
  report.add_row(obs::JsonObject().set_integer("x", 1));
  ASSERT_TRUE(report.write(path, "rows"));
  const std::string content = slurp(path);
  EXPECT_TRUE(json_balanced(content));
  ASSERT_FALSE(content.empty());
  EXPECT_EQ(content.back(), '\n');
  std::remove(path.c_str());
}

TEST(JsonQuote, EscapesControlCharacters) {
  EXPECT_EQ(obs::json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(obs::json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(obs::json_quote("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(obs::json_quote(std::string("a\x01") + "b"), "\"a\\u0001b\"");
}

// ---- sampler ----

TEST(TimeSeriesSampler, RendersCsvWithHeaderAndRows) {
  obs::TimeSeriesSampler s("broker", {"in_rate", "util"});
  s.append(1.0, 7, {3.5, 0.25});
  s.append(2.0, 8, {4.0, 0.5});
  const std::string csv = s.render_csv();
  std::istringstream in(csv);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "time_s,broker,in_rate,util");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "1.000000,7,3.5,0.25");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "2.000000,8,4,0.5");
  EXPECT_FALSE(std::getline(in, line));
  EXPECT_EQ(s.row_count(), 2u);
}

TEST(TimeSeriesSampler, SimulationEmitsSamplesWhenEnabled) {
#if defined(GREENPS_OBS_DISABLE)
  GTEST_SKIP() << "observability compiled out";
#endif
  ScenarioConfig c;
  c.num_brokers = 6;
  c.num_publishers = 2;
  c.subs_per_publisher = 4;
  c.seed = 5;
  const std::string path = "obs_sampler_test.csv";
  Simulation sim = make_simulation(c);
  sim.set_sample_interval_ms(500);
  sim.run(5.0);
  ASSERT_TRUE(sim.samples().write_csv(path));
  const std::string csv = slurp(path);
  ASSERT_FALSE(csv.empty());
  EXPECT_EQ(csv.rfind("time_s,broker,", 0), 0u);
  // 5 s at 500 ms => ~10 sampling points x 6 brokers, plus the header.
  const auto lines = static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_GE(lines, 1u + 9u * 6u);
  std::remove(path.c_str());
}

TEST(TimeSeriesSampler, DisabledByDefault) {
  ScenarioConfig c;
  c.num_brokers = 6;
  c.num_publishers = 2;
  c.subs_per_publisher = 4;
  c.seed = 5;
  Simulation sim = make_simulation(c);
  sim.run(5.0);
  EXPECT_GT(sim.metrics().publications(), 0u);
  EXPECT_EQ(sim.samples().row_count(), 0u);
}

// ---- tracer ----

TEST(Trace, DisabledSpansAreCheap) {
  // Not a benchmark, just a guard against accidental work on the disabled
  // path: a million disabled spans should be effectively free.
  ASSERT_FALSE(obs::trace_enabled());
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000000; ++i) {
    GREENPS_SPAN("noop");
  }
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(secs, 1.0);
}

TEST(Trace, GoldenStructureFromTinyCrocRun) {
#if defined(GREENPS_OBS_DISABLE)
  GTEST_SKIP() << "observability compiled out";
#endif
  const std::string path = "obs_trace_test.trace.json";
  obs::trace_start(path);
  {
    ScenarioConfig c;
    c.num_brokers = 24;
    c.num_publishers = 6;
    c.subs_per_publisher = 20;
    // Tight per-broker bandwidth and a hot publication rate so Phase 2 must
    // allocate several brokers, which in turn makes Phase 3 build at least
    // one recursive layer.
    c.full_out_bw_kb_s = 8.0;
    c.publication_rate = 5.0;
    c.seed = 11;
    Simulation sim = make_simulation(c);
    sim.run(60.0);
    CrocConfig cfg;
    cfg.algorithm = Phase2Algorithm::kCram;
    Croc croc(cfg);
    const ReconfigurationReport report = croc.reconfigure(sim, BrokerId{0});
    ASSERT_TRUE(report.success);
    ASSERT_GT(report.allocated_brokers, 1u);  // guarantees a phase3.layer span
  }
  obs::trace_stop();
  ASSERT_FALSE(obs::trace_enabled());

  const std::string trace = slurp(path);
  ASSERT_FALSE(trace.empty());
  EXPECT_TRUE(json_balanced(trace));
  EXPECT_EQ(trace.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);

  // The full pipeline must appear: Phase 1 gather, Phase 2 (CRAM inside),
  // Phase 3 with at least one recursive layer, and GRAPE placement.
  for (const char* name :
       {"croc.reconfigure", "croc.phase1.gather", "croc.phase2", "croc.phase3",
        "croc.grape", "cram.run", "cram.pair_search", "phase3.layer", "grape.place",
        "sim.run"}) {
    EXPECT_NE(trace.find(std::string("\"name\":\"") + name + "\""), std::string::npos)
        << "missing span: " << name;
  }
  // Spans nest: croc.reconfigure strictly contains croc.phase1.gather
  // (every event carries ts and dur we can compare).
  const auto extract_first = [&trace](const std::string& name, const char* field) {
    const std::size_t at = trace.find("\"name\":\"" + name + "\"");
    EXPECT_NE(at, std::string::npos);
    const std::size_t obj_end = trace.find('}', at);
    const std::size_t f = trace.find(std::string("\"") + field + "\":", at);
    EXPECT_LT(f, obj_end);
    return std::strtoull(trace.c_str() + f + std::strlen(field) + 3, nullptr, 10);
  };
  const auto outer_ts = extract_first("croc.reconfigure", "ts");
  const auto outer_dur = extract_first("croc.reconfigure", "dur");
  const auto inner_ts = extract_first("croc.phase1.gather", "ts");
  const auto inner_dur = extract_first("croc.phase1.gather", "dur");
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur);

  // Every complete event is well-formed (one dur per X event).
  EXPECT_EQ(count_occurrences(trace, "\"ph\":\"X\""), count_occurrences(trace, "\"dur\":"));
  std::remove(path.c_str());
}

// Complete ("X") events of a trace written by the tracer: name, ts and dur.
struct TraceSpan {
  std::string name;
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
};

std::vector<TraceSpan> complete_spans(const std::string& trace) {
  std::vector<TraceSpan> out;
  const std::string open = "{\"name\":\"";
  for (std::size_t at = trace.find(open); at != std::string::npos;
       at = trace.find(open, at + 1)) {
    const std::size_t obj_end = trace.find('}', at);
    const std::string ev = trace.substr(at, obj_end - at);
    if (ev.find("\"ph\":\"X\"") == std::string::npos) continue;
    const auto field = [&ev](const char* key) {
      const std::size_t f = ev.find(std::string("\"") + key + "\":");
      return std::strtoull(ev.c_str() + f + std::strlen(key) + 3, nullptr, 10);
    };
    const std::size_t name_end = ev.find('"', open.size());
    out.push_back({ev.substr(open.size(), name_end - open.size()), field("ts"), field("dur")});
  }
  return out;
}

TEST(Trace, IncrementalBootstrapGatherSpanExcludesCram) {
#if defined(GREENPS_OBS_DISABLE)
  GTEST_SKIP() << "observability compiled out";
#endif
  // With no warm session, reconfigure_incremental gathers and then
  // bootstraps a session, which runs CRAM. The gather span must cover the
  // gather alone, so no cram.* span may start inside it.
  const std::string path = "obs_bootstrap_test.trace.json";
  obs::trace_start(path);
  {
    ScenarioConfig c;
    c.num_brokers = 24;
    c.num_publishers = 6;
    c.subs_per_publisher = 20;
    c.full_out_bw_kb_s = 8.0;
    c.publication_rate = 5.0;
    c.seed = 11;
    Simulation sim = make_simulation(c);
    sim.run(60.0);
    CrocConfig cfg;
    cfg.algorithm = Phase2Algorithm::kCram;
    Croc croc(cfg);
    const ReconfigurationReport report = croc.reconfigure_incremental(sim, BrokerId{0});
    ASSERT_TRUE(report.success);
  }
  obs::trace_stop();

  const std::vector<TraceSpan> spans = complete_spans(slurp(path));
  const auto gather = std::find_if(spans.begin(), spans.end(), [](const TraceSpan& s) {
    return s.name == "croc.phase1.gather";
  });
  ASSERT_NE(gather, spans.end());
  std::size_t cram_spans = 0;
  for (const TraceSpan& s : spans) {
    if (s.name.rfind("cram.", 0) != 0) continue;
    ++cram_spans;
    EXPECT_FALSE(s.ts >= gather->ts && s.ts < gather->ts + gather->dur)
        << s.name << " at " << s.ts << " inside croc.phase1.gather [" << gather->ts << ", "
        << gather->ts + gather->dur << ")";
  }
  EXPECT_GT(cram_spans, 0u);
  std::remove(path.c_str());
}

TEST(Trace, ThreadPoolSpansCarryDistinctThreadsAndTags) {
#if defined(GREENPS_OBS_DISABLE)
  GTEST_SKIP() << "observability compiled out";
#endif
  const std::string path = "obs_pool_test.trace.json";
  obs::trace_start(path);
  {
    ThreadPool pool(4);
    std::atomic<std::uint64_t> sink{0};
    pool.parallel_for_indexed(256, [&](std::size_t i, std::size_t) {
      // Enough work per index that every worker picks up a share.
      std::uint64_t h = i + 1;
      for (int r = 0; r < 20000; ++r) h = h * 6364136223846793005ull + 1442695040888963407ull;
      sink.fetch_add(h, std::memory_order_relaxed);
    });
    ASSERT_NE(sink.load(), 0u);
  }
  obs::trace_stop();

  const std::string trace = slurp(path);
  EXPECT_TRUE(json_balanced(trace));
  // Collect the tids of all pool.work spans; with 4 workers on real work
  // at least two distinct threads must have participated.
  std::set<std::string> tids;
  std::size_t spans = 0;
  for (std::size_t at = trace.find("\"name\":\"pool.work\""); at != std::string::npos;
       at = trace.find("\"name\":\"pool.work\"", at + 1)) {
    ++spans;
    const std::size_t obj_end = trace.find('}', at);
    const std::size_t tid_at = trace.find("\"tid\":", at);
    ASSERT_LT(tid_at, obj_end);
    const std::size_t val = tid_at + 6;
    tids.insert(trace.substr(val, trace.find_first_of(",}", val) - val));
    // The worker slot rides along as args.tag (args follows the outer '}'
    // scan window, so just assert it exists in this object's span).
    EXPECT_NE(trace.find("\"args\":{\"tag\":", at), std::string::npos);
  }
  EXPECT_GE(spans, 2u);
  EXPECT_GE(tids.size(), 2u);
  std::remove(path.c_str());
}

TEST(Trace, CounterAndInstantEventsRender) {
#if defined(GREENPS_OBS_DISABLE)
  GTEST_SKIP() << "observability compiled out";
#endif
  const std::string path = "obs_events_test.trace.json";
  obs::trace_start(path);
  GREENPS_INSTANT("unit.instant");
  GREENPS_COUNTER("unit.counter", 42.5);
  obs::trace_stop();
  const std::string trace = slurp(path);
  EXPECT_TRUE(json_balanced(trace));
  EXPECT_NE(trace.find("\"name\":\"unit.instant\",\"cat\":\"greenps\",\"ph\":\"i\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"unit.counter\",\"cat\":\"greenps\",\"ph\":\"C\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"args\":{\"value\":42.5}"), std::string::npos);
  std::remove(path.c_str());
}

// ---- shared clock ----

TEST(ObsClock, SimTimeIsScopedToEventLoop) {
  EXPECT_FALSE(obs::current_sim_time_us().has_value());
  obs::set_sim_time_us(1500000);
  ASSERT_TRUE(obs::current_sim_time_us().has_value());
  EXPECT_EQ(*obs::current_sim_time_us(), 1500000);
  obs::clear_sim_time();
  EXPECT_FALSE(obs::current_sim_time_us().has_value());
}

TEST(ObsClock, WallClockIsMonotonic) {
  const auto a = obs::wall_now_us();
  const auto b = obs::wall_now_us();
  EXPECT_GE(b, a);
}

// The sim DelayHistogram is a wrapper over obs::LogHistogram; its ms
// percentiles must match the generalized histogram's us percentiles.
TEST(DelayHistogramWrapper, MatchesLogHistogram) {
  DelayHistogram wrapped;
  obs::LogHistogram direct(100.0, 1.15, 120);
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<SimTime> dist(0, 5000000);
  for (int i = 0; i < 5000; ++i) {
    const SimTime d = dist(rng);
    wrapped.record(d);
    direct.record(static_cast<double>(std::max<SimTime>(d, 1)));
  }
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(wrapped.percentile_ms(q), direct.percentile(q) / 1000.0);
  }
}

}  // namespace
}  // namespace greenps
