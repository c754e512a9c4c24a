#pragma once
// holms_lint whole-program index (DESIGN.md §5k).
//
// PR 9 upgrades the analyzer from a per-file token scanner to a two-pass
// whole-program analysis:
//
//   pass 1 (per TU, already done by lex()): token stream, suppressions, and
//          the file's `#include "..."` directives;
//   pass 2 (here): (a) the header include DAG over every linted file and
//          (b) an over-approximate name-resolution call graph built from
//          namespace-qualified function definitions and call sites.
//
// On top of the index sit the graph rule pack:
//
//   A001  architecture-layering violation — an include edge that goes
//         against the layer DAG declared in tools/holms_lint/layers.json,
//         into a module the DAG does not rank, or into another module's
//         non-public header (path matches an `internal_markers` entry)
//   A002  include cycle — a strongly-connected component of the include
//         graph (reported once per SCC, at its lexicographically first file)
//   D007  interprocedural determinism escape — a library function that
//         transitively reaches a D001 randomness / D002 wall-clock / D005
//         blocking primitive through any call chain, flagged at the
//         outermost tainted frame with the full chain as evidence.
//         Primitives inside their sanctioned home (layers.json
//         `rule_homes`: exec/metrics for D002, exec/ for D005; D001 has
//         none, sim::Rng owns its draws) do not taint; files listed under
//         `escape_boundaries` neither source nor propagate taint (the
//         reviewed EvalCache shard locks).
//   X002  stale suppression — a well-formed HOLMS_LINT_ALLOW[_FILE] that no
//         finding (per-file or graph) matched; keeps the reasoned
//         suppressions honest as the code under them evolves
//
// The call graph is deliberately over-approximate (qualified-suffix name
// resolution, no overload or template machinery): it may add edges between
// unrelated same-named functions, never miss a direct named call.  Bodies
// reached only through operator overloads or function pointers are outside
// its reach; DESIGN.md §5k records the limits.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lint.hpp"

namespace holms::lint {

// ---- layer configuration (tools/holms_lint/layers.json) -------------------

struct LayerConfig {
  /// Bands, bottom-up: a module may include same-module headers and any
  /// module in a strictly lower band.  Mirrors DESIGN.md §5's diagram.
  std::vector<std::vector<std::string>> layers;
  std::map<std::string, int> rank;  // module -> band index (derived)
  /// Substrings that mark a header as module-internal (non-public).
  std::vector<std::string> internal_markers;
  /// rule id -> src/-relative path prefixes where the primitive is
  /// sanctioned and does not seed D007 taint.
  std::map<std::string, std::vector<std::string>> rule_homes;
  /// src/-relative path prefixes whose functions neither source nor
  /// propagate D007 taint (reviewed concurrency boundaries).
  std::vector<std::string> escape_boundaries;
  bool loaded = false;
};

/// Parses the checked-in layers.json subset; throws std::runtime_error on
/// malformed input (missing "layers", duplicate module, non-string entries).
LayerConfig parse_layers_json(const std::string& text);

/// Convenience: read + parse.  Returns false when the file can't be read
/// (leaves `out` untouched); still throws on malformed content.
bool load_layers_file(const std::string& path, LayerConfig& out);

// ---- the whole-program index ----------------------------------------------

struct FunctionDef {
  std::string qualified;       // e.g. "holms::markov::solve"
  std::string name;            // last component
  std::string file;
  std::size_t line = 0;        // definition line (D007 findings anchor here)
  std::size_t body_end = 0;    // last body line (encloses primitive findings)
};

struct ProgramGraph {
  std::vector<std::string> files;    // sorted paths; node id = index
  std::vector<std::string> modules;  // parallel: "" for non-src files
  /// Resolved `#include "..."` edges (includer, includee), sorted + deduped.
  std::vector<std::pair<int, int>> include_edges;
  /// Include-graph SCCs of size > 1, members sorted, reported by A002.
  std::vector<std::vector<int>> sccs;
  std::vector<FunctionDef> functions;  // sorted by (file, line)
  /// Resolved call edges (caller fn index, callee fn index), sorted+deduped.
  std::vector<std::pair<int, int>> call_edges;
};

/// "markov" for src/markov/x.hpp (any path containing a src/ segment),
/// "" for tests/bench/tools files.
std::string module_of_path(const std::string& path);

ProgramGraph build_graph(const std::vector<SourceFile>& files);

/// Runs A001/A002/D007/X002.  `per_file` is the concatenated run_rules()
/// output for the same files (suppressed findings included — they seed D007
/// and mark suppressions used for X002).  A001 needs `layers.loaded`; the
/// other rules run regardless.  Suppressions apply to A001/A002/D007
/// findings through the normal HOLMS_LINT_ALLOW machinery; X002 findings are
/// never suppressible (like X001).
std::vector<Finding> run_graph_rules(const std::vector<SourceFile>& files,
                                     const ProgramGraph& g,
                                     const LayerConfig& layers,
                                     const std::vector<Finding>& per_file);

// ---- LINT_graph.json -------------------------------------------------------

/// The serializable subset of the index: everything the dump carries is
/// folded into the fingerprint, so dump -> parse -> graph_fingerprint()
/// reproduces the embedded value exactly (the round-trip gate).
struct GraphDump {
  std::vector<std::vector<std::string>> layers;
  std::vector<std::string> paths;
  std::vector<std::string> modules;
  std::vector<int> ranks;  // -1 for unranked (non-src) nodes
  std::vector<std::pair<int, int>> include_edges;
  std::vector<std::vector<int>> sccs;
  std::size_t functions = 0;
  std::size_t call_edges = 0;
  std::map<std::string, std::size_t> rule_counts;  // unsuppressed, per rule
};

GraphDump make_graph_dump(const ProgramGraph& g, const LayerConfig& layers,
                          const std::map<std::string, std::size_t>& rule_counts);

/// FNV-1a over a canonical serialization of every GraphDump field.
std::uint64_t graph_fingerprint(const GraphDump& d);

/// JSON with the fingerprint embedded as "fingerprint": "<hex>".
std::string graph_to_json(const GraphDump& d);

/// Parses the subset graph_to_json emits; fills `stored_fingerprint` with
/// the embedded hex value.  Throws std::runtime_error on malformed input.
GraphDump parse_graph_json(const std::string& text,
                           std::string* stored_fingerprint = nullptr);

}  // namespace holms::lint
