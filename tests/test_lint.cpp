// Golden-fixture tests for holms_lint (tools/holms_lint, DESIGN.md §5f).
//
// Each rule gets one positive fixture (the violation fires) and one negative
// fixture (near-miss code stays clean), pinning the scanner's heuristics so
// rule edits can't silently widen or narrow them.  Fixtures live in
// tests/lint_fixtures/ — the CLI skips that directory when linting the repo,
// and these tests lex them with an explicit FileKind (their on-disk path
// would classify them as test code and exempt the library-only rules).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "graph.hpp"
#include "lint.hpp"

namespace lint = holms::lint;

namespace {

std::string fixture_text(const std::string& name) {
  const std::string path = std::string(LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

lint::SourceFile lex_fixture(const std::string& name, lint::FileKind kind) {
  return lint::lex(name, fixture_text(name), kind);
}

std::vector<lint::Finding> lint_fixture(const std::string& name,
                                        lint::FileKind kind) {
  const lint::SourceFile f = lex_fixture(name, kind);
  return lint::run_rules(f);
}

std::size_t active_count(const std::vector<lint::Finding>& fs,
                         const std::string& rule) {
  std::size_t n = 0;
  for (const lint::Finding& f : fs) {
    if (!f.suppressed && f.rule == rule) ++n;
  }
  return n;
}

std::size_t active_total(const std::vector<lint::Finding>& fs) {
  std::size_t n = 0;
  for (const lint::Finding& f : fs) {
    if (!f.suppressed) ++n;
  }
  return n;
}

std::size_t suppressed_count(const std::vector<lint::Finding>& fs,
                             const std::string& rule) {
  std::size_t n = 0;
  for (const lint::Finding& f : fs) {
    if (f.suppressed && f.rule == rule) ++n;
  }
  return n;
}

}  // namespace

// ---- D001: banned randomness primitives -----------------------------------

TEST(LintD001, FlagsStdEnginesDistributionsAndRand) {
  const auto fs =
      lint_fixture("d001_bad.cpp", lint::FileKind::kLibrarySource);
  // mt19937, uniform_real_distribution, rand().
  EXPECT_EQ(active_count(fs, "D001"), 3u);
}

TEST(LintD001, IgnoresSimRngAndLookalikeIdentifiers) {
  const auto fs = lint_fixture("d001_ok.cpp", lint::FileKind::kLibrarySource);
  EXPECT_EQ(active_total(fs), 0u);
}

// ---- D002: wall-clock reads -----------------------------------------------

TEST(LintD002, FlagsClockNowAndTimeCalls) {
  const auto fs =
      lint_fixture("d002_bad.cpp", lint::FileKind::kLibrarySource);
  // steady_clock::now() and time(nullptr).
  EXPECT_EQ(active_count(fs, "D002"), 2u);
}

TEST(LintD002, IgnoresSimulatedTimeAndMemberFunctions) {
  const auto fs = lint_fixture("d002_ok.cpp", lint::FileKind::kLibrarySource);
  EXPECT_EQ(active_total(fs), 0u);
}

// ---- D003: range-for over unordered containers ----------------------------

TEST(LintD003, FlagsRangeForOverUnorderedMap) {
  const auto fs =
      lint_fixture("d003_bad.cpp", lint::FileKind::kLibrarySource);
  EXPECT_EQ(active_count(fs, "D003"), 1u);
}

TEST(LintD003, AllowsOrderedIterationAndMembershipTests) {
  const auto fs = lint_fixture("d003_ok.cpp", lint::FileKind::kLibrarySource);
  EXPECT_EQ(active_total(fs), 0u);
}

TEST(LintD003, SeesThroughTypedefsAndUsingAliases) {
  const auto fs =
      lint_fixture("d003_alias_bad.cpp", lint::FileKind::kLibrarySource);
  // using-alias, typedef, and alias-of-alias range-fors all flagged.
  EXPECT_EQ(active_count(fs, "D003"), 3u);
}

TEST(LintD003, IgnoresAliasesOfOrderedContainers) {
  const auto fs =
      lint_fixture("d003_alias_ok.cpp", lint::FileKind::kLibrarySource);
  EXPECT_EQ(active_total(fs), 0u);
}

// ---- D004: mutable statics at namespace scope -----------------------------

TEST(LintD004, FlagsMutableNamespaceScopeStatics) {
  const auto fs =
      lint_fixture("d004_bad.cpp", lint::FileKind::kLibrarySource);
  // `static int call_count;` at file scope and `static double last_result`
  // inside namespace holms.
  EXPECT_EQ(active_count(fs, "D004"), 2u);
}

TEST(LintD004, AllowsConstantsStaticFunctionsAndLocals) {
  const auto fs = lint_fixture("d004_ok.cpp", lint::FileKind::kLibrarySource);
  EXPECT_EQ(active_total(fs), 0u);
}

// ---- D005: blocking primitives outside exec/ ------------------------------

TEST(LintD005, FlagsSleepsAndLockPrimitivesInLibraryCode) {
  const auto fs =
      lint_fixture("d005_bad.cpp", lint::FileKind::kLibrarySource);
  // sleep_for, usleep, mutex, condition_variable, unique_lock.
  EXPECT_EQ(active_count(fs, "D005"), 5u);
}

TEST(LintD005, IgnoresLookalikesMemberCallsAndOwnTypes) {
  const auto fs = lint_fixture("d005_ok.cpp", lint::FileKind::kLibrarySource);
  EXPECT_EQ(active_total(fs), 0u);
}

TEST(LintD005, ExecModuleMayBlock) {
  // The worker pool is the one module allowed to block: the same tokens
  // under an exec/ path produce no findings.
  const lint::SourceFile f =
      lint::lex("src/exec/pool_detail.cpp", fixture_text("d005_bad.cpp"),
                lint::FileKind::kLibrarySource);
  EXPECT_EQ(active_count(lint::run_rules(f), "D005"), 0u);
}

// ---- D006: scalar floating-point reduction loops ---------------------------

TEST(LintD006, FlagsFpCompoundAccumulationInLoops) {
  const auto fs =
      lint_fixture("d006_bad.cpp", lint::FileKind::kLibrarySource);
  // acc += (for), prod *= (single-statement for), level += (while),
  // energy_j += (member declared double in-file).
  EXPECT_EQ(active_count(fs, "D006"), 4u);
}

TEST(LintD006, IgnoresIntegerSubscriptedAndAnnotatedSites) {
  const auto fs = lint_fixture("d006_ok.cpp", lint::FileKind::kLibrarySource);
  EXPECT_EQ(active_total(fs), 0u);
  // The annotated reduction is found but suppressed with a reason.
  EXPECT_EQ(suppressed_count(fs, "D006"), 1u);
}

TEST(LintD006, SimdModuleIsTheBlessedReductionHome) {
  const lint::SourceFile f =
      lint::lex("src/exec/simd_scalar.cpp", fixture_text("d006_bad.cpp"),
                lint::FileKind::kLibrarySource);
  EXPECT_EQ(active_count(lint::run_rules(f), "D006"), 0u);
}

// ---- C001: Params/Options structs must expose validate() ------------------

TEST(LintC001, FlagsParamsStructsWithoutValidate) {
  const auto fs =
      lint_fixture("c001_bad.hpp", lint::FileKind::kLibraryHeader);
  // SolverOptions at namespace scope and Widget::Params nested.
  EXPECT_EQ(active_count(fs, "C001"), 2u);
}

TEST(LintC001, AcceptsValidateMembersAndSkipsNonParamsStructs) {
  const auto fs = lint_fixture("c001_ok.hpp", lint::FileKind::kLibraryHeader);
  EXPECT_EQ(active_total(fs), 0u);
}

// ---- C002: typed exception hierarchy only ---------------------------------

TEST(LintC002, FlagsThrowOfBareStdExceptions) {
  const auto fs =
      lint_fixture("c002_bad.cpp", lint::FileKind::kLibrarySource);
  EXPECT_EQ(active_count(fs, "C002"), 1u);
}

TEST(LintC002, AcceptsTypedHolmsHierarchy) {
  const auto fs = lint_fixture("c002_ok.cpp", lint::FileKind::kLibrarySource);
  EXPECT_EQ(active_total(fs), 0u);
}

// ---- C003: no `using namespace` in headers --------------------------------

TEST(LintC003, FlagsUsingNamespaceInAnyHeader) {
  // Fires in library headers...
  const auto lib =
      lint_fixture("c003_bad.hpp", lint::FileKind::kLibraryHeader);
  EXPECT_EQ(active_count(lib, "C003"), 1u);
  // ...and in test/bench headers too: headers leak regardless of owner.
  const auto other =
      lint_fixture("c003_bad.hpp", lint::FileKind::kOtherHeader);
  EXPECT_EQ(active_count(other, "C003"), 1u);
}

TEST(LintC003, AcceptsScopedAliases) {
  const auto fs = lint_fixture("c003_ok.hpp", lint::FileKind::kLibraryHeader);
  EXPECT_EQ(active_total(fs), 0u);
}

// ---- C004: headers need #pragma once --------------------------------------

TEST(LintC004, FlagsHeaderWithoutPragmaOnce) {
  const auto fs =
      lint_fixture("c004_bad.hpp", lint::FileKind::kLibraryHeader);
  EXPECT_EQ(active_count(fs, "C004"), 1u);
  // The finding anchors to line 1: there is no offending line to point at.
  for (const lint::Finding& f : fs) {
    if (f.rule == "C004") {
      EXPECT_EQ(f.line, 1u);
    }
  }
}

TEST(LintC004, AcceptsPragmaOnce) {
  const auto fs = lint_fixture("c004_ok.hpp", lint::FileKind::kLibraryHeader);
  EXPECT_EQ(active_total(fs), 0u);
}

// ---- H001: no direct console output in library code -----------------------

TEST(LintH001, FlagsCoutAndPrintf) {
  const auto fs =
      lint_fixture("h001_bad.cpp", lint::FileKind::kLibrarySource);
  EXPECT_EQ(active_count(fs, "H001"), 2u);
}

TEST(LintH001, AllowsBufferFormatting) {
  const auto fs = lint_fixture("h001_ok.cpp", lint::FileKind::kLibrarySource);
  EXPECT_EQ(active_total(fs), 0u);
}

// ---- rule scoping ----------------------------------------------------------

TEST(LintScoping, TestAndBenchCodeIsExemptFromLibraryRules) {
  // The same violations that fire in library code are fine in tests/bench:
  // they legitimately use ad-hoc randomness, clocks and stdout.
  for (const char* name :
       {"d001_bad.cpp", "d002_bad.cpp", "d003_bad.cpp", "d004_bad.cpp",
        "d005_bad.cpp", "d006_bad.cpp", "c002_bad.cpp", "h001_bad.cpp"}) {
    const auto fs = lint_fixture(name, lint::FileKind::kOtherSource);
    EXPECT_EQ(active_total(fs), 0u) << name;
  }
  // Header-wide rules still apply to non-library headers...
  const auto hdr = lint_fixture("c004_bad.hpp", lint::FileKind::kOtherHeader);
  EXPECT_EQ(active_count(hdr, "C004"), 1u);
  // ...but C001 (validate members) is a library-API contract only.
  const auto c001 =
      lint_fixture("c001_bad.hpp", lint::FileKind::kOtherHeader);
  EXPECT_EQ(active_count(c001, "C001"), 0u);
}

TEST(LintScoping, ClassifyPathMatchesRepoLayout) {
  EXPECT_EQ(lint::classify_path("src/noc/mapping.cpp"),
            lint::FileKind::kLibrarySource);
  EXPECT_EQ(lint::classify_path("src/noc/mapping.hpp"),
            lint::FileKind::kLibraryHeader);
  EXPECT_EQ(lint::classify_path("tests/test_core.cpp"),
            lint::FileKind::kOtherSource);
  EXPECT_EQ(lint::classify_path("bench/bench_util.hpp"),
            lint::FileKind::kOtherHeader);
}

// ---- suppressions ----------------------------------------------------------

TEST(LintSuppression, LineAndTrailingAllowSilenceTheFinding) {
  const auto fs =
      lint_fixture("suppress_ok.cpp", lint::FileKind::kLibrarySource);
  // Both clock reads are found but suppressed, with their reasons attached.
  EXPECT_EQ(active_total(fs), 0u);
  EXPECT_EQ(suppressed_count(fs, "D002"), 2u);
  for (const lint::Finding& f : fs) {
    EXPECT_TRUE(f.suppressed);
    EXPECT_FALSE(f.suppress_reason.empty());
  }
}

TEST(LintSuppression, MalformedAllowIsX001AndDoesNotSuppress) {
  const auto fs =
      lint_fixture("suppress_bad.cpp", lint::FileKind::kLibrarySource);
  // Missing reason and unknown rule id: two X001s, and both underlying
  // D002 findings stay live.
  EXPECT_EQ(active_count(fs, "X001"), 2u);
  EXPECT_EQ(active_count(fs, "D002"), 2u);
  EXPECT_EQ(suppressed_count(fs, "D002"), 0u);
}

TEST(LintSuppression, FileLevelAllowCoversTheWholeFile) {
  const auto fs =
      lint_fixture("suppress_file.cpp", lint::FileKind::kLibrarySource);
  EXPECT_EQ(active_total(fs), 0u);
  EXPECT_EQ(suppressed_count(fs, "D002"), 2u);
}

// ---- baseline --------------------------------------------------------------

namespace {

struct Linted {
  lint::SourceFile file;
  std::vector<lint::Finding> findings;
  std::map<std::string, const lint::SourceFile*> by_path;

  Linted(const std::string& name, const std::string& content,
         lint::FileKind kind)
      : file(lint::lex(name, content, kind)) {
    findings = lint::run_rules(file);
    by_path[file.path] = &file;
  }
};

}  // namespace

TEST(LintBaseline, GrandfathersExistingFindings) {
  Linted v("d002_bad.cpp", fixture_text("d002_bad.cpp"),
           lint::FileKind::kLibrarySource);
  ASSERT_EQ(active_total(v.findings), 2u);

  const lint::Baseline base = lint::make_baseline(v.findings, v.by_path);
  EXPECT_EQ(
      lint::subtract_baseline(v.findings, v.by_path, base).size(), 0u);
  // With no baseline, everything is new.
  EXPECT_EQ(
      lint::subtract_baseline(v.findings, v.by_path, lint::Baseline{}).size(),
      2u);
}

TEST(LintBaseline, KeysSurviveLineNumberDrift) {
  const std::string original = fixture_text("d002_bad.cpp");
  Linted v("d002_bad.cpp", original, lint::FileKind::kLibrarySource);
  const lint::Baseline base = lint::make_baseline(v.findings, v.by_path);

  // Shift every line down: unrelated edits above a finding must not turn it
  // into a regression.  Keys hash the normalized source line, not its number.
  Linted shifted("d002_bad.cpp", "// new leading comment\n\n\n" + original,
                 lint::FileKind::kLibrarySource);
  ASSERT_EQ(active_total(shifted.findings), 2u);
  EXPECT_NE(shifted.findings[0].line, v.findings[0].line);
  EXPECT_EQ(
      lint::subtract_baseline(shifted.findings, shifted.by_path, base).size(),
      0u);
}

TEST(LintBaseline, NewCopiesOfABaselinedLineAreRegressions) {
  const std::string original = fixture_text("d002_bad.cpp");
  Linted v("d002_bad.cpp", original, lint::FileKind::kLibrarySource);
  const lint::Baseline base = lint::make_baseline(v.findings, v.by_path);

  // Paste an extra copy of a grandfathered violation: the per-key count
  // budget is exhausted and exactly the surplus copy surfaces as new.
  Linted grown("d002_bad.cpp",
               original +
                   "long stamp2() {\n"
                   "  auto t = std::chrono::steady_clock::now();\n"
                   "  return t.time_since_epoch().count();\n"
                   "}\n",
               lint::FileKind::kLibrarySource);
  ASSERT_EQ(active_total(grown.findings), 3u);
  EXPECT_EQ(
      lint::subtract_baseline(grown.findings, grown.by_path, base).size(), 1u);
}

TEST(LintBaseline, JsonRoundTrips) {
  Linted v("d002_bad.cpp", fixture_text("d002_bad.cpp"),
           lint::FileKind::kLibrarySource);
  const lint::Baseline base = lint::make_baseline(v.findings, v.by_path);
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(lint::parse_baseline_json(lint::baseline_to_json(base)), base);

  // The checked-in empty baseline parses too.
  const lint::Baseline empty =
      lint::parse_baseline_json("{\"version\": 1, \"entries\": {}}");
  EXPECT_TRUE(empty.empty());

  EXPECT_THROW(lint::parse_baseline_json("not json"), std::runtime_error);
}

TEST(LintBaseline, SuppressedFindingsNeverReachTheBaselineDiff) {
  Linted v("suppress_ok.cpp", fixture_text("suppress_ok.cpp"),
           lint::FileKind::kLibrarySource);
  ASSERT_EQ(v.findings.size(), 2u);
  // Even an empty baseline reports nothing new: suppression already
  // accounted for these.
  EXPECT_EQ(
      lint::subtract_baseline(v.findings, v.by_path, lint::Baseline{}).size(),
      0u);
  // And suppressed findings are not written into fresh baselines.
  EXPECT_TRUE(lint::make_baseline(v.findings, v.by_path).empty());
}

// ---- the fault layer itself ------------------------------------------------

// PR gate: the failure-domain / burst / crew sources ship rule-clean with
// zero suppressions — no lint-allow escape hatches in holms::fault.
TEST(LintRepo, FaultLayerIsCleanWithZeroSuppressions) {
  const char* files[] = {"fault/schedule.hpp", "fault/schedule.cpp",
                         "fault/domain.hpp",   "fault/domain.cpp",
                         "fault/injector.hpp"};
  for (const char* rel : files) {
    const std::string path = std::string(HOLMS_SRC_DIR) + "/" + rel;
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open()) << "missing source " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    const auto findings =
        lint::run_rules(lint::lex(rel, buf.str(), lint::classify_path(path)));
    for (const lint::Finding& f : findings) {
      ADD_FAILURE() << rel << ":" << f.line << " " << f.rule << " "
                    << f.message << (f.suppressed ? " (suppressed)" : "");
    }
  }
}

TEST(LintRepo, IslandFilesAreCleanWithZeroSuppressions) {
  const char* files[] = {"core/islands.hpp", "core/islands.cpp"};
  for (const char* rel : files) {
    const std::string path = std::string(HOLMS_SRC_DIR) + "/" + rel;
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open()) << "missing source " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    const auto findings =
        lint::run_rules(lint::lex(rel, buf.str(), lint::classify_path(path)));
    for (const lint::Finding& f : findings) {
      ADD_FAILURE() << rel << ":" << f.line << " " << f.rule << " "
                    << f.message << (f.suppressed ? " (suppressed)" : "");
    }
  }
}

// ---- lexer regressions: raw strings, prefixes, CRLF continuations ----------

TEST(LintLexer, RawStringPrefixesAreOpaqueToRules) {
  const auto fs =
      lint_fixture("lexer_raw.cpp", lint::FileKind::kLibrarySource);
  // Every banned token inside the R"..."/u8R"..."/LR"..."/uR"..."/UR"..."
  // bodies and the prefixed ordinary literals is data; only the real
  // std::rand() at the bottom fires.
  EXPECT_EQ(active_count(fs, "D001"), 1u);
  EXPECT_EQ(active_count(fs, "D002"), 0u);
  EXPECT_EQ(active_count(fs, "H001"), 0u);
  EXPECT_EQ(active_total(fs), 1u);
}

TEST(LintLexer, MacroContinuationWithCrlfStaysPreprocessor) {
  // The backslash sits before a CRLF line ending: the continuation line is
  // still part of the directive, so the std::rand() in the macro body never
  // reaches the rules as code.
  const std::string src =
      "#define DRAW(x) \\\r\n"
      "  std::rand() + (x)\r\n"
      "int f(int x) { return x; }\n";
  const lint::SourceFile f =
      lint::lex("src/stream/macro.cpp", src, lint::FileKind::kLibrarySource);
  EXPECT_EQ(active_count(lint::run_rules(f), "D001"), 0u);
  // And lexing resumes correctly after the directive.
  ASSERT_FALSE(f.tokens.empty());
  EXPECT_EQ(f.tokens.front().text, "int");
  EXPECT_EQ(f.tokens.front().line, 3u);
}

TEST(LintLexer, CountsCodeLinesNotCommentsOrBlanks) {
  const std::string src =
      "#pragma once\n"              // 1: directive
      "// comment only\n"           // 2
      "\n"                          // 3
      "/* block\n"                  // 4
      "   comment */\n"             // 5
      "int x = 1;  // trailing\n"   // 6: code
      "const char* s = R\"(a\n"     // 7: raw string opens
      "b)\";\n"                      // 8: ... and closes
      "#define M(a) \\\n"           // 9: directive
      "  (a)\n";                     // 10: its continuation
  const lint::SourceFile f =
      lint::lex("src/x.hpp", src, lint::FileKind::kLibraryHeader);
  EXPECT_EQ(f.code_lines, 6u);
  // Deleting the comments and blank lines leaves the count unchanged.
  const std::string stripped =
      "#pragma once\n"
      "int x = 1;\n"
      "const char* s = R\"(a\n"
      "b)\";\n"
      "#define M(a) \\\n"
      "  (a)\n";
  EXPECT_EQ(lint::lex("src/x.hpp", stripped, lint::FileKind::kLibraryHeader)
                .code_lines,
            6u);
}

TEST(LintLexer, RecordsQuotedIncludesWithLines) {
  const std::string src =
      "#pragma once\n"
      "#include \"markov/api.hpp\"\n"
      "#include <vector>\n"
      "#include \"stream/pipe.hpp\"  // trailing comment\n";
  const lint::SourceFile f =
      lint::lex("src/serve/inc.hpp", src, lint::FileKind::kLibraryHeader);
  ASSERT_EQ(f.includes.size(), 2u);
  EXPECT_EQ(f.includes[0].target, "markov/api.hpp");
  EXPECT_EQ(f.includes[0].line, 2u);
  EXPECT_EQ(f.includes[1].target, "stream/pipe.hpp");
  EXPECT_EQ(f.includes[1].line, 4u);
}

// ---- the whole-program graph pack (graph.hpp) ------------------------------

namespace {

/// Lexes fixtures under fake src/ paths (their on-disk home would classify
/// them as test code), runs the per-file rules, builds the index, and runs
/// the graph pack — the same sequencing the CLI uses.
struct GraphHarness {
  std::vector<lint::SourceFile> files;
  std::vector<lint::Finding> per_file;
  lint::ProgramGraph graph;

  void add(const std::string& fake_path, const std::string& fixture) {
    files.push_back(lint::lex(fake_path, fixture_text(fixture),
                              lint::classify_path(fake_path)));
  }
  std::vector<lint::Finding> run(const lint::LayerConfig& layers) {
    per_file.clear();
    for (const lint::SourceFile& f : files) {
      const auto fs = lint::run_rules(f);
      per_file.insert(per_file.end(), fs.begin(), fs.end());
    }
    graph = lint::build_graph(files);
    return lint::run_graph_rules(files, graph, layers, per_file);
  }
};

lint::LayerConfig test_layers() {
  return lint::parse_layers_json(R"({
    "layers": [["exec"], ["sim"], ["markov", "traffic", "dvfs", "fault"],
               ["stream"], ["asip"], ["noc"], ["wireless"], ["streaming"],
               ["manet"], ["serve"], ["core"]],
    "internal_markers": ["_detail"],
    "rule_homes": {"D001": ["sim/random.hpp"]},
    "escape_boundaries": []
  })");
}

}  // namespace

TEST(LintLayers, CheckedInLayersFileParsesAndRanksBottomUp) {
  lint::LayerConfig cfg;
  ASSERT_TRUE(lint::load_layers_file(HOLMS_LAYERS_FILE, cfg));
  EXPECT_TRUE(cfg.loaded);
  // Spot-check the DESIGN.md §5 dependency order, bottom-up.
  EXPECT_EQ(cfg.rank.at("exec"), 0);
  EXPECT_EQ(cfg.rank.at("sim"), 1);
  EXPECT_LT(cfg.rank.at("markov"), cfg.rank.at("stream"));
  EXPECT_LT(cfg.rank.at("serve"), cfg.rank.at("core"));
  EXPECT_EQ(cfg.rank.count("fault"), 1u);
  EXPECT_EQ(cfg.rank.at("fault"), cfg.rank.at("markov"));
}

TEST(LintLayers, MalformedConfigsThrow) {
  EXPECT_THROW(lint::parse_layers_json("{}"), std::runtime_error);
  EXPECT_THROW(lint::parse_layers_json("not json"), std::runtime_error);
  EXPECT_THROW(lint::parse_layers_json(R"({"layers": [["a"], ["a"]]})"),
               std::runtime_error);
}

TEST(LintA001, UpwardIncludeAcrossTheDagFires) {
  GraphHarness h;
  h.add("src/serve/api.hpp", "a001_serve_api.hpp");
  h.add("src/markov/uses_serve.cpp", "a001_markov_uses_serve.cpp");
  const auto fs = h.run(test_layers());
  ASSERT_EQ(active_count(fs, "A001"), 1u);
  for (const lint::Finding& f : fs) {
    if (f.rule != "A001") continue;
    EXPECT_EQ(f.file, "src/markov/uses_serve.cpp");
    EXPECT_NE(f.message.find("serve"), std::string::npos);
  }
}

TEST(LintA001, DownwardIncludeIsClean) {
  GraphHarness h;
  h.add("src/markov/api.hpp", "a001_markov_api.hpp");
  h.add("src/serve/ok.cpp", "a001_ok.cpp");
  const auto fs = h.run(test_layers());
  EXPECT_EQ(active_count(fs, "A001"), 0u);
  EXPECT_EQ(active_total(fs), 0u);
}

TEST(LintA001, CrossModuleIncludeOfInternalHeaderFires) {
  GraphHarness h;
  h.add("src/exec/impl_detail.hpp", "a001_exec_detail.hpp");
  h.add("src/noc/uses_detail.cpp", "a001_noc_uses_detail.cpp");
  // noc -> exec is the right direction; the "_detail" marker is the offense.
  const auto fs = h.run(test_layers());
  ASSERT_EQ(active_count(fs, "A001"), 1u);
  for (const lint::Finding& f : fs) {
    if (f.rule != "A001") continue;
    EXPECT_EQ(f.file, "src/noc/uses_detail.cpp");
    EXPECT_NE(f.message.find("internal"), std::string::npos);
  }
}

TEST(LintA002, IncludeCycleFiresOncePerScc) {
  GraphHarness h;
  h.add("src/stream/a002_x.hpp", "a002_x.hpp");
  h.add("src/stream/a002_y.hpp", "a002_y.hpp");
  const auto fs = h.run(test_layers());
  // Same module, so no A001 — exactly one A002 for the two-file SCC.
  EXPECT_EQ(active_count(fs, "A001"), 0u);
  ASSERT_EQ(active_count(fs, "A002"), 1u);
  ASSERT_EQ(h.graph.sccs.size(), 1u);
  EXPECT_EQ(h.graph.sccs[0].size(), 2u);
}

TEST(LintA002, AcyclicIncludesAreClean) {
  GraphHarness h;
  h.add("src/markov/api.hpp", "a001_markov_api.hpp");
  h.add("src/serve/ok.cpp", "a001_ok.cpp");
  h.run(test_layers());
  EXPECT_TRUE(h.graph.sccs.empty());
}

TEST(LintD007, ThreeFileChainFlagsTheOutermostFrame) {
  GraphHarness h;
  h.add("src/markov/leaf.cpp", "d007_leaf.cpp");
  h.add("src/stream/mid.cpp", "d007_mid.cpp");
  h.add("src/serve/entry.cpp", "d007_entry.cpp");
  const auto fs = h.run(test_layers());
  // The suppressed D001 in the leaf seeds taint; serve::handle is the only
  // root (stream::shape has a tainted caller, the leaf is the source).
  ASSERT_EQ(active_count(fs, "D007"), 1u);
  for (const lint::Finding& f : fs) {
    if (f.rule != "D007") continue;
    EXPECT_EQ(f.file, "src/serve/entry.cpp");
    EXPECT_NE(f.message.find("handle"), std::string::npos);
    EXPECT_NE(f.message.find("jitter"), std::string::npos);
    EXPECT_NE(f.message.find(" -> "), std::string::npos);
    EXPECT_NE(f.message.find("src/markov/leaf.cpp"), std::string::npos);
  }
  // The leaf's allow is used (by its own D001), so no X002 either.
  EXPECT_EQ(active_count(fs, "X002"), 0u);
}

TEST(LintD007, CleanLeafProducesNoEscape) {
  GraphHarness h;
  h.add("src/markov/leaf.cpp", "d007_ok_leaf.cpp");
  h.add("src/stream/mid.cpp", "d007_mid.cpp");
  h.add("src/serve/entry.cpp", "d007_entry.cpp");
  const auto fs = h.run(test_layers());
  EXPECT_EQ(active_count(fs, "D007"), 0u);
}

TEST(LintD007, RuleHomePrimitivesDoNotTaint) {
  // Same chain, but the layer config declares markov/ the sanctioned home
  // for D001 — the primitive no longer seeds taint.
  GraphHarness h;
  h.add("src/markov/leaf.cpp", "d007_leaf.cpp");
  h.add("src/stream/mid.cpp", "d007_mid.cpp");
  h.add("src/serve/entry.cpp", "d007_entry.cpp");
  lint::LayerConfig layers = test_layers();
  layers.rule_homes["D001"] = {"markov/"};
  const auto fs = h.run(layers);
  EXPECT_EQ(active_count(fs, "D007"), 0u);
}

TEST(LintX002, StaleSuppressionFires) {
  GraphHarness h;
  h.add("src/traffic/x002_bad.cpp", "x002_bad.cpp");
  const auto fs = h.run(test_layers());
  // The D002 allow matches nothing; the D001 allow is still used.
  ASSERT_EQ(active_count(fs, "X002"), 1u);
  for (const lint::Finding& f : fs) {
    if (f.rule != "X002") continue;
    EXPECT_NE(f.message.find("D002"), std::string::npos);
  }
}

TEST(LintX002, LiveSuppressionStaysQuiet) {
  GraphHarness h;
  h.add("src/traffic/x002_ok.cpp", "x002_ok.cpp");
  const auto fs = h.run(test_layers());
  EXPECT_EQ(active_count(fs, "X002"), 0u);
  EXPECT_EQ(active_total(fs), 0u);
}

TEST(LintGraphDump, RoundTripsWithIdenticalFingerprint) {
  GraphHarness h;
  h.add("src/markov/leaf.cpp", "d007_leaf.cpp");
  h.add("src/stream/mid.cpp", "d007_mid.cpp");
  h.add("src/serve/entry.cpp", "d007_entry.cpp");
  const lint::LayerConfig layers = test_layers();
  const auto fs = h.run(layers);
  std::map<std::string, std::size_t> counts;
  for (const lint::Finding& f : fs) {
    if (!f.suppressed) ++counts[f.rule];
  }
  const lint::GraphDump dump = lint::make_graph_dump(h.graph, layers, counts);
  const std::string json = lint::graph_to_json(dump);

  std::string stored;
  const lint::GraphDump parsed = lint::parse_graph_json(json, &stored);
  // dump -> reload -> identical fingerprint, and a canonical serialization:
  // re-emitting the parsed dump reproduces the bytes exactly.
  EXPECT_EQ(lint::graph_fingerprint(parsed), lint::graph_fingerprint(dump));
  EXPECT_FALSE(stored.empty());
  EXPECT_EQ(lint::graph_to_json(parsed), json);
  // Building the index again from the same sources changes nothing.
  const lint::ProgramGraph again = lint::build_graph(h.files);
  EXPECT_EQ(lint::graph_fingerprint(
                lint::make_graph_dump(again, layers, counts)),
            lint::graph_fingerprint(dump));

  EXPECT_THROW(lint::parse_graph_json("not json"), std::runtime_error);
}

TEST(LintBaseline, PruneDropsEntriesForMissingFiles) {
  Linted v("d002_bad.cpp", fixture_text("d002_bad.cpp"),
           lint::FileKind::kLibrarySource);
  lint::Baseline base = lint::make_baseline(v.findings, v.by_path);
  ASSERT_FALSE(base.empty());
  const std::string ghost = "D002|ghost/deleted.cpp|auto t = now();";
  base[ghost] = 2;

  std::vector<std::string> dropped;
  const lint::Baseline pruned = lint::prune_baseline(base, v.by_path, &dropped);
  EXPECT_EQ(pruned.size(), base.size() - 1);
  EXPECT_EQ(pruned.count(ghost), 0u);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0], ghost);
}

// ---- tree-wide gate: the graph pack holds at zero, with zero suppressions --

TEST(LintRepo, GraphRulesCleanZeroSuppressions) {
  namespace stdfs = std::filesystem;
  std::vector<std::string> paths;
  for (const auto& e : stdfs::recursive_directory_iterator(HOLMS_SRC_DIR)) {
    if (!e.is_regular_file()) continue;
    const std::string ext = e.path().extension().string();
    if (ext != ".cpp" && ext != ".hpp" && ext != ".h") continue;
    paths.push_back(e.path().generic_string());
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_FALSE(paths.empty());

  const std::string root(HOLMS_SRC_DIR);
  std::vector<lint::SourceFile> files;
  files.reserve(paths.size());
  std::vector<lint::Finding> per_file;
  for (const std::string& p : paths) {
    std::ifstream in(p, std::ios::binary);
    ASSERT_TRUE(in.is_open()) << p;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string rel = "src" + p.substr(root.size());
    files.push_back(lint::lex(rel, buf.str(), lint::classify_path(rel)));
    const auto fs = lint::run_rules(files.back());
    per_file.insert(per_file.end(), fs.begin(), fs.end());
  }

  lint::LayerConfig layers;
  ASSERT_TRUE(lint::load_layers_file(HOLMS_LAYERS_FILE, layers));
  const lint::ProgramGraph graph = lint::build_graph(files);
  const auto findings = lint::run_graph_rules(files, graph, layers, per_file);
  // Zero A001/A002/D007/X002 — and none hidden behind suppressions either.
  for (const lint::Finding& f : findings) {
    ADD_FAILURE() << f.file << ":" << f.line << " " << f.rule << " "
                  << f.message << (f.suppressed ? " (suppressed)" : "");
  }
  EXPECT_FALSE(graph.include_edges.empty());
  EXPECT_FALSE(graph.call_edges.empty());
}
