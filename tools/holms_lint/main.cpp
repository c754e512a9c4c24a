// holms_lint CLI.
//
//   holms_lint [options] <path>...           (files or directories)
//
//   --baseline FILE        grandfather findings listed in FILE
//   --strict               ignore the baseline: fail on ANY unsuppressed
//                          finding (suppressions stay honored — they are
//                          explicit, reviewed annotations)
//   --json FILE            write the machine-readable report (default
//                          LINT_report.json; "-" disables)
//   --layers FILE          layer DAG for the A001 rule (default:
//                          tools/holms_lint/layers.json when present)
//   --graph-dump FILE      write the whole-program index (LINT_graph.json:
//                          nodes, edges, layer ranks, SCCs, rule counts)
//   --write-baseline FILE  regenerate a baseline from the current findings
//                          (canonically sorted; entries whose file is gone
//                          are dropped and reported)
//   --list-rules           print the rule catalogue and exit
//   --quiet                summary only, no per-finding lines
//
// Exit codes: 0 clean (w.r.t. baseline unless --strict), 1 findings,
// 2 usage / IO error.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "graph.hpp"
#include "lint.hpp"

namespace fs = std::filesystem;
using namespace holms::lint;  // HOLMS_LINT_ALLOW(C003): main.cpp, not a header

namespace {

bool lintable_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h";
}

bool skipped_dir(const std::string& name) {
  // lint_fixtures hold deliberate violations for the golden tests; build
  // trees hold generated code.
  return name == "lint_fixtures" || name == ".git" ||
         name.rfind("build", 0) == 0;
}

void collect(const fs::path& root, std::vector<std::string>& out) {
  if (fs::is_regular_file(root)) {
    if (lintable_extension(root)) out.push_back(root.generic_string());
    return;
  }
  if (!fs::is_directory(root)) return;
  for (auto it = fs::recursive_directory_iterator(root);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_directory() && skipped_dir(it->path().filename().string())) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && lintable_extension(it->path())) {
      out.push_back(it->path().generic_string());
    }
  }
}

std::string read_file(const std::string& path, bool& ok) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ok = false;
    return "";
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  ok = true;
  return buf.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string baseline_path;
  std::string json_path = "LINT_report.json";
  std::string write_baseline_path;
  std::string layers_path;  // empty -> probe the default location
  std::string graph_dump_path;
  bool strict = false, quiet = false;

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto need_value = [&](const char* flag) -> std::string {
      if (a + 1 >= argc) {
        std::cerr << "holms_lint: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++a];
    };
    if (arg == "--strict") {
      strict = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--baseline") {
      baseline_path = need_value("--baseline");
    } else if (arg == "--json") {
      json_path = need_value("--json");
    } else if (arg == "--write-baseline") {
      write_baseline_path = need_value("--write-baseline");
    } else if (arg == "--layers") {
      layers_path = need_value("--layers");
    } else if (arg == "--graph-dump") {
      graph_dump_path = need_value("--graph-dump");
    } else if (arg == "--list-rules") {
      for (const RuleInfo& r : rule_catalogue()) {
        std::printf("%s  %s\n", r.id, r.summary);
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: holms_lint [--strict] [--baseline FILE] [--json FILE]\n"
          "                  [--layers FILE] [--graph-dump FILE]\n"
          "                  [--write-baseline FILE] [--list-rules]\n"
          "                  [--quiet] <path>...\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "holms_lint: unknown option " << arg << "\n";
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    std::cerr << "holms_lint: no paths given (try: holms_lint src tests "
                 "bench)\n";
    return 2;
  }

  std::vector<std::string> paths;
  for (const std::string& r : roots) {
    if (!fs::exists(r)) {
      std::cerr << "holms_lint: no such path: " << r << "\n";
      return 2;
    }
    collect(r, paths);
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  using clock = std::chrono::steady_clock;
  const auto ms_between = [](clock::time_point a, clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };

  const auto t_lint0 = clock::now();
  std::vector<SourceFile> sources;
  sources.reserve(paths.size());
  std::vector<Finding> findings;
  for (const std::string& p : paths) {
    bool ok = true;
    const std::string content = read_file(p, ok);
    if (!ok) {
      std::cerr << "holms_lint: cannot read " << p << "\n";
      return 2;
    }
    sources.push_back(lex(p, content, classify_path(p)));
    const std::vector<Finding> fs_ = run_rules(sources.back());
    findings.insert(findings.end(), fs_.begin(), fs_.end());
  }
  std::map<std::string, const SourceFile*> by_path;
  for (const SourceFile& s : sources) by_path[s.path] = &s;
  const auto t_lint1 = clock::now();

  // Whole-program pass: layer config, include/call graph, graph rule pack.
  LayerConfig layers;
  {
    std::string path = layers_path;
    const bool required = !path.empty();
    if (path.empty() && fs::exists("tools/holms_lint/layers.json")) {
      path = "tools/holms_lint/layers.json";
    }
    if (!path.empty()) {
      try {
        if (!load_layers_file(path, layers) && required) {
          std::cerr << "holms_lint: cannot read layers file " << path << "\n";
          return 2;
        }
      } catch (const std::exception& e) {
        std::cerr << "holms_lint: " << path << ": " << e.what() << "\n";
        return 2;
      }
    }
  }
  const ProgramGraph graph = build_graph(sources);
  {
    const std::vector<Finding> graph_findings =
        run_graph_rules(sources, graph, layers, findings);
    findings.insert(findings.end(), graph_findings.begin(),
                    graph_findings.end());
  }
  const auto t_graph1 = clock::now();

  ReportStats stats;
  stats.files = paths.size();
  for (const SourceFile& s : sources) {
    if (s.is_library()) stats.src_code_lines += s.code_lines;
  }
  stats.lint_ms = ms_between(t_lint0, t_lint1);
  stats.graph_ms = ms_between(t_lint1, t_graph1);

  if (!graph_dump_path.empty()) {
    std::map<std::string, std::size_t> rule_counts;
    for (const Finding& f : findings) {
      if (!f.suppressed) ++rule_counts[f.rule];
    }
    const GraphDump dump = make_graph_dump(graph, layers, rule_counts);
    std::ofstream out(graph_dump_path, std::ios::binary);
    if (!out) {
      std::cerr << "holms_lint: cannot write " << graph_dump_path << "\n";
      return 2;
    }
    out << graph_to_json(dump);
  }

  if (!write_baseline_path.empty()) {
    // Regenerate from scratch (std::map keeps entries canonically sorted),
    // prune anything keyed to a file outside this run, and report entries
    // from the previous baseline that disappear — keeps diffs reviewable.
    std::vector<std::string> dropped;
    const Baseline b =
        prune_baseline(make_baseline(findings, by_path), by_path, &dropped);
    {
      bool ok = true;
      const std::string old_text = read_file(write_baseline_path, ok);
      if (ok) {
        try {
          prune_baseline(parse_baseline_json(old_text), by_path, &dropped);
        } catch (const std::exception&) {
          // Unreadable previous baseline: nothing to report dropping.
        }
      }
    }
    std::ofstream out(write_baseline_path, std::ios::binary);
    if (!out) {
      std::cerr << "holms_lint: cannot write " << write_baseline_path << "\n";
      return 2;
    }
    out << baseline_to_json(b);
    std::printf("holms_lint: wrote %zu baseline entr%s to %s\n", b.size(),
                b.size() == 1 ? "y" : "ies", write_baseline_path.c_str());
    for (const std::string& key : dropped) {
      std::printf("holms_lint: dropped stale baseline entry: %s\n",
                  key.c_str());
    }
    return 0;
  }

  Baseline base;
  if (!baseline_path.empty() && !strict) {
    bool ok = true;
    const std::string text = read_file(baseline_path, ok);
    if (!ok) {
      std::cerr << "holms_lint: cannot read baseline " << baseline_path
                << "\n";
      return 2;
    }
    try {
      base = parse_baseline_json(text);
    } catch (const std::exception& e) {
      std::cerr << "holms_lint: " << e.what() << "\n";
      return 2;
    }
  }

  const std::vector<Finding> fresh = subtract_baseline(findings, by_path, base);

  std::size_t suppressed = 0, total = 0;
  for (const Finding& f : findings) {
    f.suppressed ? ++suppressed : ++total;
  }

  if (!quiet) {
    for (const Finding& f : fresh) {
      std::printf("%s:%zu: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                  f.message.c_str());
    }
    if (strict) {
      // --strict surfaces the explicit suppressions too, with their reasons,
      // so "what is being allowed and why" is one command away.
      for (const Finding& f : findings) {
        if (f.suppressed) {
          std::printf("%s:%zu: [%s] suppressed: %s\n", f.file.c_str(), f.line,
                      f.rule.c_str(), f.suppress_reason.c_str());
        }
      }
    }
  }

  if (json_path != "-") {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::cerr << "holms_lint: cannot write " << json_path << "\n";
      return 2;
    }
    out << report_to_json(findings, fresh, strict, stats);
  }

  std::printf(
      "holms_lint: %zu file%s, %zu finding%s (%zu new, %zu baselined, %zu "
      "suppressed)%s\n",
      paths.size(), paths.size() == 1 ? "" : "s", total, total == 1 ? "" : "s",
      fresh.size(), total - fresh.size(), suppressed,
      strict ? " [strict]" : "");
  return fresh.empty() ? 0 : 1;
}
