// Thread-safe span tracer exporting Chrome trace-event JSON.
//
// RAII scoped spans plus instant and counter events are recorded into
// per-thread buffers (one uncontended mutex each) and drained on flush
// into a single JSON document loadable in Perfetto or chrome://tracing.
//
// Tracing is OFF by default and costs one relaxed atomic load per
// disabled GREENPS_SPAN, so the macros can sit on warm paths. Enable it
// with trace_start() (flushed by trace_stop() or at process exit); the
// bench binaries call it when GREENPS_TRACE=<path> is set. Compiling with
// -DGREENPS_OBS_DISABLE removes the macros entirely for zero-footprint
// builds.
//
// Event names must have static storage duration (string literals): the
// tracer stores the pointer, not a copy.
#pragma once

#include <cstdint>
#include <string>

namespace greenps::obs {

// ---- control ----

// Begin recording; events flush to `path` on trace_stop()/process exit.
// Restarting discards anything recorded for the previous path.
void trace_start(const std::string& path);
// Disable recording and write the trace file.
void trace_stop();
// Write everything recorded so far without stopping. Returns false if
// tracing never started or the file cannot be written.
bool trace_flush();
[[nodiscard]] bool trace_enabled();
[[nodiscard]] std::string trace_path();

// ---- event recording ----

inline constexpr std::uint64_t kNoArg = ~std::uint64_t{0};

// Complete event ('X'): [start_us, end_us) on the shared obs clock.
void trace_complete(const char* name, std::uint64_t start_us, std::uint64_t end_us,
                    std::uint64_t arg = kNoArg);
// Instant event ('i') at now.
void trace_instant(const char* name, std::uint64_t arg = kNoArg);
// Counter sample ('C') at now; renders as a value track.
void trace_counter(const char* name, double value);

// Now on the shared obs timeline (µs since process epoch).
[[nodiscard]] std::uint64_t trace_now_us();

class TraceSpan {
 public:
  explicit TraceSpan(const char* name, std::uint64_t arg = kNoArg) {
    if (trace_enabled()) {
      name_ = name;
      arg_ = arg;
      start_ = trace_now_us();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) trace_complete(name_, start_, trace_now_us(), arg_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ = 0;
  std::uint64_t arg_ = kNoArg;
};

}  // namespace greenps::obs

#if defined(GREENPS_OBS_DISABLE)
#define GREENPS_SPAN(name)
#define GREENPS_SPAN_TAGGED(name, arg)
#define GREENPS_INSTANT(name)
#define GREENPS_COUNTER(name, value)
#else
#define GREENPS_OBS_CONCAT2(a, b) a##b
#define GREENPS_OBS_CONCAT(a, b) GREENPS_OBS_CONCAT2(a, b)
// Scoped span: lives until the end of the enclosing block.
#define GREENPS_SPAN(name) \
  const ::greenps::obs::TraceSpan GREENPS_OBS_CONCAT(greenps_span_, __LINE__) { name }
// Scoped span carrying one integer argument (worker slot, layer index...).
#define GREENPS_SPAN_TAGGED(name, arg)                                      \
  const ::greenps::obs::TraceSpan GREENPS_OBS_CONCAT(greenps_span_, __LINE__) { \
    name, static_cast<std::uint64_t>(arg)                                   \
  }
#define GREENPS_INSTANT(name) ::greenps::obs::trace_instant(name)
#define GREENPS_COUNTER(name, value)                                            \
  do {                                                                          \
    if (::greenps::obs::trace_enabled())                                        \
      ::greenps::obs::trace_counter(name, static_cast<double>(value));          \
  } while (0)
#endif
