// Baseline handling + JSON emission for holms_lint.
//
// The baseline file (tools/holms_lint/baseline.json) grandfathers findings
// that predate the analyzer so CI fails only on regressions.  Keys are
// (rule, file, whitespace-normalized source line) — stable across edits that
// merely shift line numbers — and values are occurrence counts, so dropping
// a finding never hides a new one appearing elsewhere in the same file.

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "lint.hpp"

namespace holms::lint {

namespace {

std::string normalize_ws(const std::string& s) {
  std::string out;
  bool in_space = true;  // also trims leading whitespace
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!in_space) out.push_back(' ');
      in_space = true;
    } else {
      out.push_back(c);
      in_space = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string source_line_of(const std::map<std::string, const SourceFile*>& files,
                           const Finding& f) {
  auto it = files.find(f.file);
  if (it == files.end() || it->second == nullptr) return "";
  const auto& lines = it->second->lines;
  if (f.line == 0 || f.line > lines.size()) return "";
  return lines[f.line - 1];
}

}  // namespace

std::string baseline_key(const Finding& f, const std::string& source_line) {
  return f.rule + "|" + f.file + "|" + normalize_ws(source_line);
}

Baseline make_baseline(const std::vector<Finding>& findings,
                       const std::map<std::string, const SourceFile*>& files) {
  Baseline b;
  for (const Finding& f : findings) {
    if (f.suppressed) continue;  // suppressions are already explicit
    ++b[baseline_key(f, source_line_of(files, f))];
  }
  return b;
}

std::string baseline_to_json(const Baseline& b) {
  std::ostringstream os;
  os << "{\n  \"version\": 1,\n  \"entries\": {";
  bool first = true;
  for (const auto& [key, count] : b) {
    if (!first) os << ',';
    first = false;
    os << "\n    \"" << json_escape(key) << "\": " << count;
  }
  os << (first ? "}" : "\n  }") << "\n}\n";
  return os.str();
}

Baseline parse_baseline_json(const std::string& text) {
  // Minimal parser for the subset baseline_to_json writes: one flat
  // string->integer object under "entries".
  Baseline b;
  const std::size_t entries = text.find("\"entries\"");
  if (entries == std::string::npos) {
    throw std::runtime_error("baseline: no \"entries\" object");
  }
  std::size_t i = text.find('{', entries);
  if (i == std::string::npos) {
    throw std::runtime_error("baseline: malformed \"entries\"");
  }
  ++i;
  while (i < text.size()) {
    while (i < text.size() &&
           (std::isspace(static_cast<unsigned char>(text[i])) ||
            text[i] == ',')) {
      ++i;
    }
    if (i >= text.size() || text[i] == '}') break;
    if (text[i] != '"') throw std::runtime_error("baseline: expected key");
    std::string key;
    ++i;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) {
        ++i;
        switch (text[i]) {
          case 'n': key.push_back('\n'); break;
          case 't': key.push_back('\t'); break;
          default: key.push_back(text[i]);
        }
      } else {
        key.push_back(text[i]);
      }
      ++i;
    }
    ++i;  // closing quote
    while (i < text.size() && (text[i] == ':' ||
                               std::isspace(static_cast<unsigned char>(text[i])))) {
      ++i;
    }
    std::size_t count = 0;
    if (i >= text.size() || !std::isdigit(static_cast<unsigned char>(text[i]))) {
      throw std::runtime_error("baseline: expected count for " + key);
    }
    while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) {
      count = count * 10 + static_cast<std::size_t>(text[i] - '0');
      ++i;
    }
    b[key] = count;
  }
  return b;
}

std::vector<Finding> subtract_baseline(
    const std::vector<Finding>& findings,
    const std::map<std::string, const SourceFile*>& files,
    const Baseline& base) {
  Baseline budget = base;
  std::vector<Finding> fresh;
  for (const Finding& f : findings) {
    if (f.suppressed) continue;
    const std::string key = baseline_key(f, source_line_of(files, f));
    auto it = budget.find(key);
    if (it != budget.end() && it->second > 0) {
      --it->second;
      continue;
    }
    fresh.push_back(f);
  }
  return fresh;
}

Baseline prune_baseline(const Baseline& base,
                        const std::map<std::string, const SourceFile*>& files,
                        std::vector<std::string>* dropped) {
  Baseline pruned;
  for (const auto& [key, count] : base) {
    // key = rule|file|normalized-line; the file component is everything
    // between the first and last '|' (paths never contain '|').
    const std::size_t first = key.find('|');
    const std::size_t last = key.rfind('|');
    bool keep = false;
    if (first != std::string::npos && last != std::string::npos &&
        last > first) {
      keep = files.count(key.substr(first + 1, last - first - 1)) > 0;
    }
    if (keep) {
      pruned[key] = count;
    } else if (dropped != nullptr) {
      dropped->push_back(key);
    }
  }
  return pruned;
}

namespace {

std::string ms_fixed(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", ms);
  return buf;
}

}  // namespace

std::string report_to_json(const std::vector<Finding>& all,
                           const std::vector<Finding>& fresh, bool strict,
                           const ReportStats& stats) {
  std::size_t suppressed = 0;
  std::size_t graph_rules = 0;
  std::size_t stale = 0;
  std::map<std::string, std::size_t> by_rule;
  for (const Finding& f : all) {
    if (f.suppressed) {
      ++suppressed;
    } else {
      ++by_rule[f.rule];
      if (f.rule == "A001" || f.rule == "A002" || f.rule == "D007") {
        ++graph_rules;
      }
      if (f.rule == "X002") ++stale;
    }
  }
  const double total_ms = stats.lint_ms + stats.graph_ms;
  const double files_per_s =
      total_ms > 0.0 ? static_cast<double>(stats.files) / (total_ms / 1000.0)
                     : 0.0;
  std::ostringstream os;
  os << "{\n  \"name\": \"lint\",\n  \"tool\": \"holms_lint\",\n"
     << "  \"version\": 2,\n  \"strict\": "
     << (strict ? "true" : "false") << ",\n  \"files\": " << stats.files
     << ",\n  \"lint_ms\": " << ms_fixed(stats.lint_ms)
     << ",\n  \"graph_build_ms\": " << ms_fixed(stats.graph_ms)
     << ",\n  \"files_per_s\": " << ms_fixed(files_per_s)
     << ",\n  \"src_code_lines\": " << stats.src_code_lines
     << ",\n  \"total_findings\": "
     << (all.size() - suppressed) << ",\n  \"suppressed\": " << suppressed
     << ",\n  \"graph_rules_findings\": " << graph_rules
     << ",\n  \"stale_suppressions\": " << stale
     << ",\n  \"new_findings\": " << fresh.size() << ",\n  \"by_rule\": {";
  bool first = true;
  for (const auto& [rule, count] : by_rule) {
    if (!first) os << ',';
    first = false;
    os << "\n    \"" << rule << "\": " << count;
  }
  os << (first ? "}" : "\n  }") << ",\n  \"findings\": [";
  first = true;
  for (const Finding& f : all) {
    if (!first) os << ',';
    first = false;
    os << "\n    {\"rule\": \"" << f.rule << "\", \"file\": \""
       << json_escape(f.file) << "\", \"line\": " << f.line
       << ", \"suppressed\": " << (f.suppressed ? "true" : "false");
    if (f.suppressed) {
      os << ", \"reason\": \"" << json_escape(f.suppress_reason) << "\"";
    }
    os << ", \"message\": \"" << json_escape(f.message) << "\"}";
  }
  os << (first ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

bool lint_file(const std::string& path, std::vector<Finding>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  const SourceFile f = lex(path, buf.str(), classify_path(path));
  std::vector<Finding> findings = run_rules(f);
  out.insert(out.end(), findings.begin(), findings.end());
  return true;
}

}  // namespace holms::lint
