#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/clock.hpp"

namespace greenps::obs {

namespace {

struct TraceEvent {
  const char* name;
  char ph;           // 'X' complete, 'i' instant, 'C' counter
  std::uint64_t ts;  // µs on the shared obs clock
  std::uint64_t dur = 0;
  std::uint64_t arg = kNoArg;
  double value = 0;  // counters only
};

// One buffer per thread. The owning thread appends under the buffer's own
// mutex (uncontended except during a flush), so a concurrent flush from
// another thread is race-free — this is what keeps the tracer TSan-clean
// while pool workers record spans.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
  std::uint64_t tid = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::uint64_t next_tid = 1;
  std::string path;
  bool started = false;
  bool atexit_registered = false;
  std::atomic<bool> enabled{false};
};

Registry& registry() {
  // Intentionally leaked: worker threads (and their thread_local buffer
  // holders) may outlive static destruction order.
  static Registry* r = new Registry;
  return *r;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Registry& r = registry();
    const std::lock_guard<std::mutex> lk(r.mu);
    b->tid = r.next_tid++;
    r.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

void record(TraceEvent ev) {
  ThreadBuffer& b = local_buffer();
  const std::lock_guard<std::mutex> lk(b.mu);
  b.events.push_back(ev);
}

void append_json(std::string& out, const TraceEvent& ev, std::uint64_t tid) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "{\"name\":\"%s\",\"cat\":\"greenps\",\"ph\":\"%c\",\"pid\":1,\"tid\":%llu,\"ts\":%llu",
                ev.name, ev.ph, static_cast<unsigned long long>(tid),
                static_cast<unsigned long long>(ev.ts));
  out += buf;
  if (ev.ph == 'X') {
    std::snprintf(buf, sizeof(buf), ",\"dur\":%llu", static_cast<unsigned long long>(ev.dur));
    out += buf;
  }
  if (ev.ph == 'i') out += ",\"s\":\"t\"";
  if (ev.ph == 'C') {
    std::snprintf(buf, sizeof(buf), ",\"args\":{\"value\":%.6g}", ev.value);
    out += buf;
  } else if (ev.arg != kNoArg) {
    std::snprintf(buf, sizeof(buf), ",\"args\":{\"tag\":%llu}",
                  static_cast<unsigned long long>(ev.arg));
    out += buf;
  }
  out += '}';
}

// Render all recorded events into one Chrome trace-event JSON document.
// Caller holds no locks; buffers are locked one at a time.
std::string render() {
  struct Out {
    TraceEvent ev;
    std::uint64_t tid;
  };
  std::vector<Out> all;
  Registry& r = registry();
  {
    const std::lock_guard<std::mutex> lk(r.mu);
    for (const auto& b : r.buffers) {
      const std::lock_guard<std::mutex> blk(b->mu);
      for (const TraceEvent& ev : b->events) all.push_back({ev, b->tid});
    }
  }
  // Stable time order makes the file diffable and easy to golden-test.
  std::sort(all.begin(), all.end(), [](const Out& a, const Out& b) {
    return a.ev.ts != b.ev.ts ? a.ev.ts < b.ev.ts : a.tid < b.tid;
  });
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i > 0) out += ",\n";
    append_json(out, all[i].ev, all[i].tid);
  }
  out += "\n]}\n";
  return out;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[greenps obs] cannot write trace %s\n", path.c_str());
    return false;
  }
  const std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = n == content.size() && std::fclose(f) == 0;
  if (!ok) std::fprintf(stderr, "[greenps obs] short write to %s\n", path.c_str());
  return ok;
}

void stop_at_exit() { trace_stop(); }

}  // namespace

bool trace_enabled() { return registry().enabled.load(std::memory_order_relaxed); }

std::uint64_t trace_now_us() { return wall_now_us(); }

void trace_start(const std::string& path) {
  Registry& r = registry();
  {
    const std::lock_guard<std::mutex> lk(r.mu);
    for (const auto& b : r.buffers) {
      const std::lock_guard<std::mutex> blk(b->mu);
      b->events.clear();
    }
    r.path = path;
    r.started = true;
    if (!r.atexit_registered) {
      r.atexit_registered = true;
      std::atexit(stop_at_exit);
    }
  }
  r.enabled.store(true, std::memory_order_relaxed);
}

void trace_stop() {
  Registry& r = registry();
  if (!r.enabled.exchange(false, std::memory_order_relaxed)) return;
  trace_flush();
}

bool trace_flush() {
  Registry& r = registry();
  std::string path;
  {
    const std::lock_guard<std::mutex> lk(r.mu);
    if (!r.started) return false;
    path = r.path;
  }
  return write_file(path, render());
}

std::string trace_path() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lk(r.mu);
  return r.path;
}

void trace_complete(const char* name, std::uint64_t start_us, std::uint64_t end_us,
                    std::uint64_t arg) {
  if (!trace_enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.ph = 'X';
  ev.ts = start_us;
  ev.dur = end_us >= start_us ? end_us - start_us : 0;
  ev.arg = arg;
  record(ev);
}

void trace_instant(const char* name, std::uint64_t arg) {
  if (!trace_enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.ph = 'i';
  ev.ts = trace_now_us();
  ev.arg = arg;
  record(ev);
}

void trace_counter(const char* name, double value) {
  if (!trace_enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.ph = 'C';
  ev.ts = trace_now_us();
  ev.value = value;
  record(ev);
}

}  // namespace greenps::obs
