#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <unordered_map>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  const std::string layer =
      dot == nullptr ? std::string(name) : std::string(name, dot);
  return layer == "bench" ? "other" : layer;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint32_t Tracer::open(const char* name) {
  SpanRecord s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = stack_.empty() ? 0 : stack_.back();
  s.pass = pass_;
  s.name = name;
  s.start_ns = now_ns();
  spans_.push_back(s);
  stack_.push_back(s.id);
  return s.id;
}

void Tracer::close(std::uint32_t id) {
  spans_[id - 1].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %u, \"parent\": %u, \"pass\": %u, \"name\": "
                 "\"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 s.id, s.parent, s.pass, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

LayerBreakdown breakdown(const std::vector<SpanRecord>& spans,
                         const std::vector<std::uint32_t>& passes,
                         const std::string& root) {
  const std::set<std::uint32_t> pass_set(passes.begin(), passes.end());
  // Parents precede children (ids are assigned at open), so one forward
  // sweep resolves every span's top-level ancestor.
  std::vector<std::uint32_t> top(spans.size() + 1, 0);
  std::vector<bool> wanted(spans.size() + 1, false);
  std::unordered_map<std::uint32_t, double> child_s;  // span id -> children
  for (const SpanRecord& s : spans) {
    top[s.id] = s.parent == 0 ? s.id : top[s.parent];
    wanted[s.id] = pass_set.count(s.pass) != 0 &&
                   root == spans[top[s.id] - 1].name;
    if (wanted[s.id] && s.parent != 0) {
      child_s[s.parent] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  LayerBreakdown b;
  if (pass_set.empty()) return b;
  const double per_pass = 1.0 / static_cast<double>(pass_set.size());
  for (const SpanRecord& s : spans) {
    if (!wanted[s.id]) continue;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    if (s.parent == 0) b.wall_s += dur * per_pass;
    b.self_s[layer_of(s.name)] += (dur - child_s[s.id]) * per_pass;
    b.total_s[s.name] += dur * per_pass;
  }
  return b;
}

}  // namespace perfbench
