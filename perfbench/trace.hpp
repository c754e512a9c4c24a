#pragma once
// Span recorder for the traced benchmark run.
//
// The benchmark wraps every call it makes into a library layer in a Span
// ("<layer>.<what>", e.g. "noc.NocSim.run").  Spans nest through a parent
// stack, carry the pass they belong to, and are kept in memory until the run
// ends.  When tracing is off a Span costs one branch and reads no clock, so
// the untraced passes that give the end-to-end figures run the same code.
//
// All spans are opened on the benchmark's main thread: the library may use
// worker threads inside a call, but every call boundary is crossed here.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint32_t id = 0;      // 1-based, unique within the run
  std::uint32_t parent = 0;  // 0 = top level
  std::uint32_t pass = 0;
  const char* name = "";     // static string, "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_pass(std::uint32_t pass) { pass_ = pass; }

  std::uint32_t open(const char* name);
  void close(std::uint32_t id);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Writes one JSON object per line: {"id","parent","pass","name",
  /// "start_ns","end_ns"}.  Returns false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint32_t pass_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(const char* name)
      : id_(Tracer::instance().enabled() ? Tracer::instance().open(name)
                                         : 0) {}
  ~Span() {
    if (id_ != 0) Tracer::instance().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint32_t id_;
};

/// Runs `fn` inside a Span named `name` and returns its result.
template <typename Fn>
decltype(auto) traced(const char* name, Fn&& fn) {
  Span span(name);
  return fn();
}

/// Per-pass aggregation of the traced spans.
struct LayerBreakdown {
  double wall_s = 0.0;           // mean traced pass wall time
  /// Mean self time per pass by layer (the name prefix before the first
  /// '.'); spans named "bench.*" and the pass span itself count as "other".
  /// Library layers plus "other" sum to wall_s.
  std::map<std::string, double> self_s;
  /// Mean inclusive time per pass by full span name.
  std::map<std::string, double> total_s;
};

/// Aggregates the spans of `passes` that sit under a top-level span named
/// `root` (one per pass; its duration is that pass's wall time).
LayerBreakdown breakdown(const std::vector<SpanRecord>& spans,
                         const std::vector<std::uint32_t>& passes,
                         const std::string& root);

}  // namespace perfbench
