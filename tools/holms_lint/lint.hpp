#pragma once
// holms_lint — in-tree determinism & contract static analyzer (DESIGN.md §5f).
//
// A preprocessor-aware token scanner over the HolMS sources enforcing the
// project invariants that runtime tests cannot see:
//
//   D-rules (determinism — the bitwise-reproducibility guarantee of §5c–§5e)
//     D001  banned randomness primitive (std engines / distributions /
//           rand / srand / random_device) in library code
//     D002  wall-clock read (steady_clock::now, time(), ...) in library code
//     D003  range-for iteration over an unordered container in library code
//           (iteration order is implementation-defined -> result order isn't)
//     D004  mutable `static` at namespace scope (hidden cross-run state)
//     D005  blocking primitive (this_thread::sleep_for, std::mutex and
//           friends) in library code outside exec/ — the serve layer's
//           never-block discipline: sessions are state machines that yield
//           to the DES kernel, and only the exec worker pool may block
//
//   C-rules (contracts — machine-checkable API conventions)
//     C001  public Params/Options struct without a validate() member
//     C002  `throw std::...` instead of the typed holms exception hierarchy
//     C003  `using namespace` in a header
//     C004  header without `#pragma once`
//
//   H-rules (hygiene)
//     H001  std::cout / printf-family output in library code (route through
//           exec::metrics / trace hooks instead)
//
//   X-rules (lint hygiene)
//     X001  malformed suppression: unknown rule id or missing reason
//     X002  stale suppression: a well-formed HOLMS_LINT_ALLOW that no
//           finding matches any more (graph pass, see graph.hpp)
//
//   A-rules + D007 (whole-program, PR 9 — see graph.hpp)
//     A001  architecture-layering violation (include edge against the layer
//           DAG in tools/holms_lint/layers.json, or into another module's
//           non-public header)
//     A002  include cycle (SCC over the header include graph)
//     D007  interprocedural determinism escape (transitive reach of a
//           D001/D002/D005 primitive, flagged at the outermost frame)
//
// Suppression: `// HOLMS_LINT_ALLOW(rule-id): reason` on the offending line,
// or alone on the line directly above it.  `HOLMS_LINT_ALLOW_FILE(rule-id):
// reason` anywhere in a file suppresses the rule for the whole file (used
// sparingly, e.g. by the EvalCache shards in src/core/evaluator.*).
//
// No libclang: the scanner tokenizes C++ (comments, string/char/raw-string
// literals, preprocessor lines) and the rules pattern-match token sequences.
// That trades soundness for zero dependencies; the golden-fixture suite in
// tests/test_lint.cpp pins one positive and one negative case per rule.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace holms::lint {

/// What a path is, for rule scoping.  Library code gets every rule; tests
/// and benches legitimately use clocks, ad-hoc randomness and stdout, so
/// only the header-wide C-rules apply there.
enum class FileKind {
  kLibrarySource,  // src/**/*.cpp
  kLibraryHeader,  // src/**/*.hpp
  kOtherSource,    // tests/ bench/ examples/ tools/ *.cpp
  kOtherHeader,    // tests/ bench/ examples/ tools/ *.hpp
};

/// Path-based classification used by the CLI (tests use explicit kinds).
FileKind classify_path(const std::string& path);

struct Token {
  enum Kind { kIdent, kNumber, kString, kPunct };
  Kind kind = kPunct;
  std::string text;
  std::size_t line = 0;
};

/// One `#include "..."` directive (quoted form only — system includes carry
/// no architecture information).  Raw target text, as written.
struct IncludeDirective {
  std::string target;
  std::size_t line = 0;
};

struct Suppression {
  std::string rule;
  std::string reason;
  std::size_t comment_line = 0;  // where the comment sits
  std::size_t anchor_line = 0;   // line whose findings it suppresses
  bool file_level = false;
  bool malformed = false;        // unknown rule or empty reason -> X001
};

/// A lexed translation unit plus everything the rules need.
struct SourceFile {
  std::string path;
  FileKind kind = FileKind::kLibrarySource;
  std::vector<Token> tokens;
  std::vector<std::string> lines;  // raw source lines, 1-based via line-1
  std::vector<Suppression> suppressions;
  std::vector<IncludeDirective> includes;  // quoted includes, in file order
  bool has_pragma_once = false;
  /// Lines holding at least one non-comment token or preprocessor directive
  /// (blank and comment-only lines do not count).
  std::size_t code_lines = 0;

  bool is_header() const {
    return kind == FileKind::kLibraryHeader || kind == FileKind::kOtherHeader;
  }
  bool is_library() const {
    return kind == FileKind::kLibrarySource || kind == FileKind::kLibraryHeader;
  }
};

struct Finding {
  std::string rule;
  std::string file;
  std::size_t line = 0;
  std::string message;
  bool suppressed = false;     // matched a HOLMS_LINT_ALLOW
  std::string suppress_reason;
};

struct RuleInfo {
  const char* id;
  const char* summary;
};
const std::vector<RuleInfo>& rule_catalogue();
bool is_known_rule(const std::string& id);

/// Tokenizes `content`; handles //, /* */, string/char/raw-string literals
/// and preprocessor logical lines (with \ continuations), and collects
/// HOLMS_LINT_ALLOW annotations.
SourceFile lex(std::string path, const std::string& content, FileKind kind);

/// Runs every applicable rule on a lexed file and applies its suppressions.
std::vector<Finding> run_rules(const SourceFile& f);

/// Convenience: read + lex + run_rules with path-based classification.
/// Returns false (and leaves `out` untouched) when the file can't be read.
bool lint_file(const std::string& path, std::vector<Finding>& out);

// ---- baseline -------------------------------------------------------------
//
// The baseline grandfathers pre-existing findings so CI fails only on
// regressions.  Keys are (rule, file, whitespace-normalized source line), so
// entries survive unrelated edits that shift line numbers; values are
// occurrence counts, so a key regresses only when new copies appear.

using Baseline = std::map<std::string, std::size_t>;

std::string baseline_key(const Finding& f, const std::string& source_line);
Baseline make_baseline(const std::vector<Finding>& findings,
                       const std::map<std::string, const SourceFile*>& files);
std::string baseline_to_json(const Baseline& b);
/// Parses the subset of JSON baseline_to_json emits; throws std::runtime_error
/// on malformed input.
Baseline parse_baseline_json(const std::string& text);

/// Partitions `findings` (non-suppressed only) into baselined vs new given
/// the per-key budget in `base`.  Marks nothing; returns the new ones.
std::vector<Finding> subtract_baseline(
    const std::vector<Finding>& findings,
    const std::map<std::string, const SourceFile*>& files, const Baseline& base);

/// Drops baseline keys whose file component is not among `existing_files`
/// (linted this run), so --write-baseline output never carries entries for
/// deleted or renamed files.  Returns the pruned baseline; appends the
/// dropped keys to `dropped` when non-null.  std::map keeps the survivors
/// canonically sorted.
Baseline prune_baseline(const Baseline& base,
                        const std::map<std::string, const SourceFile*>& files,
                        std::vector<std::string>* dropped = nullptr);

/// Analyzer cost counters surfaced in LINT_report.json (and from there in
/// bench/history.jsonl via check_thresholds.py --append-history).
struct ReportStats {
  std::size_t files = 0;
  double lint_ms = 0.0;   // lex + per-file rules
  double graph_ms = 0.0;  // whole-program index + graph rules
  /// Sum of SourceFile::code_lines over the library files (src/): the
  /// tracked size of the library, blind to comment churn.
  std::size_t src_code_lines = 0;
};

/// Machine-readable report (LINT_report.json).  `all` holds every finding
/// including the graph pack's; graph_rules_findings / stale_suppressions are
/// derived here so check_thresholds.py can gate them.
std::string report_to_json(const std::vector<Finding>& all,
                           const std::vector<Finding>& fresh, bool strict,
                           const ReportStats& stats = {});

}  // namespace holms::lint
