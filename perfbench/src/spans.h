// In-memory span recorder for the benchmark's traced pass.
//
// A span is one call into a layer's public entry point, timed from the
// outside with std::chrono::steady_clock: name, start, end, the span
// that caused it (parent) and the job it belongs to.  Spans are kept in
// memory and written out once, when the benchmark ends.  A disabled
// tracer records nothing, so the same instrumented loop runs untraced to
// measure the tracing overhead.
//
// Spans nest strictly (one thread, scoped guards), so a span's self time
// is its duration minus the durations of its direct children.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

struct Span {
  std::string name;
  std::int64_t job = -1;  ///< -1: a pass-level span, not owned by a job
  int parent = -1;        ///< index into the tracer's spans, -1 = root
  double start_s = 0.0;   ///< relative to the tracer's epoch
  double end_s = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Tracer* tracer_;
    int index_;
  };

  /// Opens a span as a child of the innermost open span.
  Scope span(const char* name, std::int64_t job = -1);

  /// Self seconds summed per span name.
  std::map<std::string, double> self_seconds() const;

  /// Appends one JSON line per span, tagged with `pass`.
  void append_jsonl(std::string& out, int pass) const;

 private:
  void close(int index);

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
