// Rule engine for holms_lint.  Every rule is a pass over the token stream of
// one file; see lint.hpp for the catalogue and DESIGN.md §5f for rationale.

#include <array>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "lint.hpp"

namespace holms::lint {

namespace {

// HOLMS_LINT_ALLOW_FILE(D003): the rule tables below are compile-time
// constant string sets that no result-producing code ever iterates.
const std::unordered_set<std::string>& std_engines() {
  static const std::unordered_set<std::string> kSet{
      "random_device",   "mt19937",        "mt19937_64",
      "minstd_rand",     "minstd_rand0",   "default_random_engine",
      "knuth_b",         "ranlux24",       "ranlux24_base",
      "ranlux48",        "ranlux48_base",  "random_shuffle",
  };
  return kSet;
}

const std::unordered_set<std::string>& std_distributions() {
  static const std::unordered_set<std::string> kSet{
      "uniform_real_distribution",    "uniform_int_distribution",
      "bernoulli_distribution",       "binomial_distribution",
      "negative_binomial_distribution", "geometric_distribution",
      "poisson_distribution",         "exponential_distribution",
      "gamma_distribution",           "weibull_distribution",
      "extreme_value_distribution",   "normal_distribution",
      "lognormal_distribution",       "chi_squared_distribution",
      "cauchy_distribution",          "fisher_f_distribution",
      "student_t_distribution",       "discrete_distribution",
      "piecewise_constant_distribution", "piecewise_linear_distribution",
  };
  return kSet;
}

const std::unordered_set<std::string>& unordered_containers() {
  static const std::unordered_set<std::string> kSet{
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset", "flat_hash_map", "flat_hash_set"};
  return kSet;
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == Token::kIdent && t.text == text;
}
bool is_punct(const Token& t, const char* text) {
  return t.kind == Token::kPunct && t.text == text;
}

class Pass {
 public:
  Pass(const SourceFile& f, std::vector<Finding>& out) : f_(f), out_(out) {}

  const Token& tok(std::size_t i) const { return f_.tokens[i]; }
  std::size_t size() const { return f_.tokens.size(); }

  void report(const char* rule, std::size_t line, std::string message) {
    out_.push_back(Finding{rule, f_.path, line, std::move(message), false, {}});
  }

  /// True when the identifier at `i` is written bare or reached through a
  /// qualifier chain containing `std` (so `std::mt19937`, `std::chrono::…`
  /// and unqualified uses match, while `mylib::mt19937` and member accesses
  /// `obj.rand(...)` do not).
  bool bare_or_std(std::size_t i) const {
    if (i == 0) return true;
    const Token& p = f_.tokens[i - 1];
    if (is_punct(p, ".") || is_punct(p, "->")) return false;
    if (!is_punct(p, "::")) return true;
    // Walk the qualifier chain: ident :: ident :: X
    std::size_t j = i - 1;
    while (j >= 1 && is_punct(f_.tokens[j], "::")) {
      if (j == 0) break;
      const Token& q = f_.tokens[j - 1];
      if (q.kind != Token::kIdent) return true;  // ::X — global qualification
      if (q.text == "std") return true;
      if (j < 2) break;
      j -= 2;
    }
    return false;
  }

  bool next_is(std::size_t i, const char* text) const {
    return i + 1 < size() && (f_.tokens[i + 1].kind == Token::kPunct
                                  ? f_.tokens[i + 1].text == text
                                  : false);
  }

  const SourceFile& file() const { return f_; }

 protected:
  const SourceFile& f_;
  std::vector<Finding>& out_;
};

// ---- D001: banned randomness primitives -----------------------------------

void rule_d001(Pass& p) {
  for (std::size_t i = 0; i < p.size(); ++i) {
    const Token& t = p.tok(i);
    if (t.kind != Token::kIdent) continue;
    const bool engine = std_engines().count(t.text) > 0;
    const bool dist = std_distributions().count(t.text) > 0;
    bool call_like = engine || dist;
    if (!call_like && (t.text == "rand" || t.text == "srand")) {
      call_like = p.next_is(i, "(");  // only calls, not variables named rand
    } else if (!engine && !dist) {
      continue;
    }
    if (!call_like || !p.bare_or_std(i)) continue;
    p.report("D001", t.line,
             "banned randomness primitive '" + t.text +
                 "' in library code; draw through sim::Rng "
                 "(exec::stream_seed for parallel streams)");
  }
}

// ---- D002: wall-clock reads -----------------------------------------------

void rule_d002(Pass& p) {
  static const std::array<const char*, 3> kClocks = {
      "steady_clock", "system_clock", "high_resolution_clock"};
  for (std::size_t i = 0; i < p.size(); ++i) {
    const Token& t = p.tok(i);
    if (t.kind != Token::kIdent) continue;
    for (const char* clk : kClocks) {
      if (t.text == clk && i + 2 < p.size() && is_punct(p.tok(i + 1), "::") &&
          is_ident(p.tok(i + 2), "now")) {
        p.report("D002", t.line,
                 std::string("wall-clock read '") + clk +
                     "::now()' in library code; simulation state must come "
                     "from sim::Simulator time, wall time only via "
                     "exec::metrics");
      }
    }
    if ((t.text == "time" || t.text == "clock" || t.text == "gettimeofday" ||
         t.text == "clock_gettime") &&
        p.next_is(i, "(") && p.bare_or_std(i)) {
      p.report("D002", t.line,
               "wall-clock read '" + t.text + "()' in library code");
    }
  }
}

// ---- D003: range-for over unordered containers ----------------------------

void rule_d003(Pass& p) {
  // Pass 0: type names that *are* unordered containers in this file — the
  // std ones plus any typedef/using alias whose target mentions one.  Run to
  // a fixpoint so aliases of aliases resolve regardless of declaration
  // order.  (Purely lexical, like the rest of the scanner: an alias declared
  // in another header is invisible, same as any cross-file type info.)
  std::set<std::string> unordered_types(unordered_containers().begin(),
                                        unordered_containers().end());
  for (bool grew = true; grew;) {
    grew = false;
    for (std::size_t i = 0; i + 2 < p.size(); ++i) {
      if (p.tok(i).kind != Token::kIdent) continue;
      std::size_t name = 0, body_lo = 0;
      if (is_ident(p.tok(i), "using") && p.tok(i + 1).kind == Token::kIdent &&
          is_punct(p.tok(i + 2), "=")) {
        name = i + 1;  // using NAME = <body> ;
        body_lo = i + 3;
      } else if (is_ident(p.tok(i), "typedef")) {
        body_lo = i + 1;  // typedef <body> NAME ;
      } else {
        continue;
      }
      std::size_t semi = body_lo;
      while (semi < p.size() && !is_punct(p.tok(semi), ";")) ++semi;
      if (semi >= p.size()) continue;
      if (name == 0) {  // typedef: the declared name is the token before ';'
        if (semi == body_lo || p.tok(semi - 1).kind != Token::kIdent) continue;
        name = semi - 1;
      }
      bool aliases_unordered = false;
      for (std::size_t j = body_lo; j < semi; ++j) {
        if (j == name) continue;
        if (p.tok(j).kind == Token::kIdent &&
            unordered_types.count(p.tok(j).text) > 0 && p.bare_or_std(j)) {
          aliases_unordered = true;
          break;
        }
      }
      if (aliases_unordered &&
          unordered_types.insert(p.tok(name).text).second) {
        grew = true;
      }
    }
  }

  // Pass 1: names declared with an unordered container type in this file.
  std::set<std::string> unordered_names;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p.tok(i).kind != Token::kIdent ||
        unordered_types.count(p.tok(i).text) == 0) {
      continue;
    }
    std::size_t j = i + 1;
    // Skip template argument list.
    if (j < p.size() && is_punct(p.tok(j), "<")) {
      int depth = 0;
      for (; j < p.size(); ++j) {
        if (is_punct(p.tok(j), "<")) ++depth;
        if (is_punct(p.tok(j), ">") && --depth == 0) {
          ++j;
          break;
        }
      }
    }
    // Skip refs/pointers/cv between type and name.
    while (j < p.size() &&
           (is_punct(p.tok(j), "&") || is_punct(p.tok(j), "*") ||
            is_ident(p.tok(j), "const") || is_ident(p.tok(j), "constexpr"))) {
      ++j;
    }
    // The token after the type must be a *variable* name: alias definitions
    // put another type name there (typedef unordered_map<K,V> MyMap;) and
    // pass 0 already classified those as types, not instances.
    if (j < p.size() && p.tok(j).kind == Token::kIdent &&
        unordered_types.count(p.tok(j).text) == 0) {
      unordered_names.insert(p.tok(j).text);
    }
  }
  if (unordered_names.empty()) return;

  // Pass 2: for ( ... : <expr mentioning such a name> ).
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    if (!is_ident(p.tok(i), "for") || !is_punct(p.tok(i + 1), "(")) continue;
    int depth = 0;
    std::size_t colon = 0, close = 0;
    for (std::size_t j = i + 1; j < p.size(); ++j) {
      if (is_punct(p.tok(j), "(")) ++depth;
      if (is_punct(p.tok(j), ")") && --depth == 0) {
        close = j;
        break;
      }
      if (depth == 1 && colon == 0 && is_punct(p.tok(j), ":")) colon = j;
    }
    if (colon == 0 || close == 0) continue;  // classic for, or unterminated
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (p.tok(j).kind == Token::kIdent &&
          unordered_names.count(p.tok(j).text) > 0) {
        p.report("D003", p.tok(i).line,
                 "range-for over unordered container '" + p.tok(j).text +
                     "': iteration order is implementation-defined; iterate "
                     "a sorted copy or an ordered container on "
                     "result-producing paths");
        break;
      }
    }
  }
}

// ---- D004: mutable statics at namespace scope -----------------------------

void rule_d004(Pass& p) {
  // Scope tracking: push a kind per '{'; namespace scope = every open brace
  // is a namespace (or extern "C") block.
  enum Kind { kNamespace, kOther };
  std::vector<Kind> stack;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const Token& t = p.tok(i);
    if (is_punct(t, "{")) {
      // Look back for what opened this brace.
      Kind k = kOther;
      for (std::size_t back = 1; back <= 8 && back <= i; ++back) {
        const Token& b = p.tok(i - back);
        if (is_punct(b, ";") || is_punct(b, "}") || is_punct(b, "{") ||
            is_punct(b, ")")) {
          break;  // statement boundary or function body — not a namespace
        }
        if (is_ident(b, "namespace")) {
          k = kNamespace;
          break;
        }
        if (is_ident(b, "extern")) {
          k = kNamespace;  // extern "C" { ... } keeps namespace scope
          break;
        }
        if (is_ident(b, "class") || is_ident(b, "struct") ||
            is_ident(b, "union") || is_ident(b, "enum")) {
          break;
        }
      }
      stack.push_back(k);
      continue;
    }
    if (is_punct(t, "}")) {
      if (!stack.empty()) stack.pop_back();
      continue;
    }
    if (!is_ident(t, "static")) continue;
    bool at_namespace_scope = true;
    for (Kind k : stack) at_namespace_scope &= (k == kNamespace);
    if (!at_namespace_scope) continue;
    // Scan the declaration: a '(' before '=' / ';' / '{' means a function;
    // const/constexpr/constinit means immutable.
    bool is_function = false, is_const = false;
    std::size_t line = t.line;
    int angle = 0;
    for (std::size_t j = i + 1; j < p.size(); ++j) {
      const Token& d = p.tok(j);
      if (is_punct(d, "<")) ++angle;
      if (is_punct(d, ">") && angle > 0) --angle;
      if (angle > 0) continue;
      if (is_punct(d, "(")) {
        is_function = true;
        break;
      }
      if (is_ident(d, "const") || is_ident(d, "constexpr") ||
          is_ident(d, "constinit")) {
        is_const = true;
      }
      if (is_punct(d, ";") || is_punct(d, "=") || is_punct(d, "{")) break;
    }
    if (!is_function && !is_const) {
      p.report("D004", line,
               "mutable `static` at namespace scope: hidden global state "
               "breaks run-to-run and thread-count invariance; thread it "
               "through the owning object or make it constexpr");
    }
  }
}

// ---- D005: blocking primitives outside exec/ ------------------------------

const std::unordered_set<std::string>& blocking_sync_types() {
  static const std::unordered_set<std::string> kSet{
      "mutex",          "timed_mutex",        "recursive_mutex",
      "recursive_timed_mutex",                "shared_mutex",
      "shared_timed_mutex",                   "condition_variable",
      "condition_variable_any",               "lock_guard",
      "unique_lock",    "scoped_lock",        "shared_lock",
      "counting_semaphore",                   "binary_semaphore",
      "latch",          "barrier",
  };
  return kSet;
}

void rule_d005(Pass& p) {
  // The exec module owns the worker pool and is the one place allowed to
  // block; everywhere else a session is a non-blocking state machine that
  // yields to the DES kernel between steps (serve/fom.hpp), so sleeps and
  // lock waits in library code would stall a whole locality.
  if (p.file().path.find("exec/") != std::string::npos) return;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const Token& t = p.tok(i);
    if (t.kind != Token::kIdent) continue;
    if (i > 0) {
      const Token& prev = p.tok(i - 1);
      // `struct mutex;` in a non-std namespace declares a new type, not a
      // use of the std primitive.
      if (is_ident(prev, "struct") || is_ident(prev, "class") ||
          is_ident(prev, "enum")) {
        continue;
      }
    }
    const bool sleep_call =
        (t.text == "sleep_for" || t.text == "sleep_until" ||
         t.text == "usleep" || t.text == "nanosleep" || t.text == "sleep") &&
        p.next_is(i, "(");
    const bool sync_type = blocking_sync_types().count(t.text) > 0;
    if ((sleep_call || sync_type) && p.bare_or_std(i)) {
      p.report("D005", t.line,
               "blocking primitive '" + t.text +
                   "' in library code: sessions must yield to the DES kernel "
                   "instead of blocking (serve/fom.hpp); blocking "
                   "synchronization lives only under exec/");
    }
  }
}

// ---- D006: scalar floating-point reduction loops ---------------------------

void rule_d006(Pass& p) {
  // A `+=` / `*=` onto a double/float accumulator inside a loop sums in
  // source order, so its result depends on iteration order — the exact
  // sensitivity the exec::simd lane model exists to pin down (DESIGN.md
  // §5i).  Hot paths must reduce through the fixed-lane kernels; cold or
  // provably order-fixed sites carry a HOLMS_LINT_ALLOW(D006) reason.
  // The simd layer itself is the blessed home of reduction loops.
  if (p.file().path.find("exec/simd") != std::string::npos) return;

  // Pass 0: names declared with a floating-point type in this file (purely
  // lexical, like D003's alias scan: cross-file type info is invisible).
  std::set<std::string> fp_names;
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    if (!is_ident(p.tok(i), "double") && !is_ident(p.tok(i), "float")) {
      continue;
    }
    std::size_t j = i + 1;
    while (j < p.size() &&
           (is_punct(p.tok(j), "*") || is_punct(p.tok(j), "&") ||
            is_ident(p.tok(j), "const"))) {
      ++j;
    }
    // Collect the declarator chain `double a = .., b = ..;` but not function
    // names (`double f(...)`).
    while (j < p.size() && p.tok(j).kind == Token::kIdent) {
      if (j + 1 < p.size() && is_punct(p.tok(j + 1), "(")) break;
      fp_names.insert(p.tok(j).text);
      // Advance to the next declarator in this statement, if any.
      std::size_t k = j + 1;
      int depth = 0;
      for (; k < p.size(); ++k) {
        if (is_punct(p.tok(k), "(") || is_punct(p.tok(k), "[") ||
            is_punct(p.tok(k), "{")) {
          ++depth;
        }
        if (is_punct(p.tok(k), ")") || is_punct(p.tok(k), "]") ||
            is_punct(p.tok(k), "}")) {
          if (depth == 0) break;
          --depth;
        }
        if (depth == 0 && (is_punct(p.tok(k), ";") || is_punct(p.tok(k), ","))) {
          break;
        }
      }
      if (k >= p.size() || !is_punct(p.tok(k), ",")) break;
      j = k + 1;
    }
  }
  if (fp_names.empty()) return;

  // Pass 1: loop bodies.  For each for/while, find the body token range —
  // `{...}` block or single statement — and flag `name +=` / `name *=`
  // where `name` is a known floating-point variable and the loop walks a
  // container: a range-for, or a right-hand side reading a subscripted
  // element.  Scalar recurrences (`t += dt`, `temp *= cooling`) depend on
  // iteration *count*, not order, so they are not reductions and stay
  // clean.  (Subscripted stores `arr[i] +=` put `]` before the operator,
  // so they never match as the target; member targets only match when the
  // member itself was declared double/float in this file.)
  std::set<std::size_t> reported;  // token index of the accumulator
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    if (!is_ident(p.tok(i), "for") && !is_ident(p.tok(i), "while")) continue;
    if (!is_punct(p.tok(i + 1), "(")) continue;
    int depth = 0;
    std::size_t close = 0;
    bool range_for = false;
    for (std::size_t j = i + 1; j < p.size(); ++j) {
      if (is_punct(p.tok(j), "(")) ++depth;
      if (is_punct(p.tok(j), ")") && --depth == 0) {
        close = j;
        break;
      }
      if (depth == 1 && is_punct(p.tok(j), ":") && !is_punct(p.tok(j - 1), ":") &&
          !(j + 1 < p.size() && is_punct(p.tok(j + 1), ":"))) {
        range_for = is_ident(p.tok(i), "for");
      }
    }
    if (close == 0 || close + 1 >= p.size()) continue;
    std::size_t body_lo = close + 1, body_hi = body_lo;
    if (is_punct(p.tok(body_lo), "{")) {
      int braces = 0;
      for (std::size_t j = body_lo; j < p.size(); ++j) {
        if (is_punct(p.tok(j), "{")) ++braces;
        if (is_punct(p.tok(j), "}") && --braces == 0) {
          body_hi = j;
          break;
        }
      }
    } else {
      while (body_hi < p.size() && !is_punct(p.tok(body_hi), ";")) ++body_hi;
    }
    for (std::size_t j = body_lo; j + 2 < body_hi; ++j) {
      const Token& t = p.tok(j);
      if (t.kind != Token::kIdent || fp_names.count(t.text) == 0) continue;
      const bool compound =
          (is_punct(p.tok(j + 1), "+") || is_punct(p.tok(j + 1), "*")) &&
          is_punct(p.tok(j + 2), "=");
      if (!compound) continue;
      // Container evidence: range-for, or a `[` in the right-hand side.
      bool subscripted = false;
      for (std::size_t k = j + 3; k < body_hi && !is_punct(p.tok(k), ";");
           ++k) {
        if (is_punct(p.tok(k), "[")) {
          subscripted = true;
          break;
        }
      }
      if ((!range_for && !subscripted) || !reported.insert(j).second) {
        continue;
      }
      p.report("D006", t.line,
               "floating-point container reduction '" + t.text + " " +
                   p.tok(j + 1).text +
                   "= ...' in a loop: source-order accumulation; reduce "
                   "through exec::simd's fixed-lane kernels or annotate the "
                   "order-insensitive/cold site with HOLMS_LINT_ALLOW(D006)");
    }
  }
}

// ---- C001: Params/Options structs must expose validate() ------------------

bool params_like(const std::string& name) {
  auto ends_with = [&](const char* suffix) {
    const std::string s = suffix;
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  return ends_with("Params") || ends_with("Options");
}

void rule_c001(Pass& p) {
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    if (!is_ident(p.tok(i), "struct") && !is_ident(p.tok(i), "class")) {
      continue;
    }
    const Token& name = p.tok(i + 1);
    if (name.kind != Token::kIdent || !params_like(name.text)) continue;
    // Find the opening brace of the definition (skip final / base clause);
    // stop at ';' (forward declaration) or '=' (alias-like, not ours).
    std::size_t open = 0;
    for (std::size_t j = i + 2; j < p.size(); ++j) {
      if (is_punct(p.tok(j), "{")) {
        open = j;
        break;
      }
      if (is_punct(p.tok(j), ";") || is_punct(p.tok(j), "=") ||
          is_punct(p.tok(j), ")")) {
        break;  // fwd decl, or `struct X` used inside another declaration
      }
    }
    if (open == 0) continue;
    int depth = 0;
    bool has_validate = false;
    std::size_t j = open;
    for (; j < p.size(); ++j) {
      if (is_punct(p.tok(j), "{")) ++depth;
      if (is_punct(p.tok(j), "}") && --depth == 0) break;
      if (is_ident(p.tok(j), "validate") && j + 1 < p.size() &&
          is_punct(p.tok(j + 1), "(")) {
        has_validate = true;
      }
    }
    if (!has_validate) {
      p.report("C001", name.line,
               "public struct '" + name.text +
                   "' has no validate() member; every Params/Options struct "
                   "must carry its contract checks (throwing "
                   "holms::InvalidArgument)");
    }
  }
}

// ---- C002: typed exception hierarchy only ---------------------------------

void rule_c002(Pass& p) {
  for (std::size_t i = 0; i + 2 < p.size(); ++i) {
    if (!is_ident(p.tok(i), "throw")) continue;
    if (is_ident(p.tok(i + 1), "std") && is_punct(p.tok(i + 2), "::")) {
      const std::string what =
          i + 3 < p.size() ? p.tok(i + 3).text : std::string("?");
      p.report("C002", p.tok(i).line,
               "`throw std::" + what +
                   "`: public APIs must throw the typed holms hierarchy "
                   "(holms::InvalidArgument / OutOfRange / RuntimeError, "
                   "exec/error.hpp)");
    }
  }
}

// ---- C003: no `using namespace` in headers --------------------------------

void rule_c003(Pass& p) {
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    if (is_ident(p.tok(i), "using") && is_ident(p.tok(i + 1), "namespace")) {
      p.report("C003", p.tok(i).line,
               "`using namespace` in a header leaks into every includer");
    }
  }
}

// ---- H001: no direct stdout/stderr in library code ------------------------

void rule_h001(Pass& p) {
  for (std::size_t i = 0; i < p.size(); ++i) {
    const Token& t = p.tok(i);
    if (t.kind != Token::kIdent) continue;
    const bool stream = t.text == "cout" || t.text == "cerr" ||
                        t.text == "clog";
    const bool fn = (t.text == "printf" || t.text == "fprintf" ||
                     t.text == "puts" || t.text == "putchar" ||
                     t.text == "fputs") &&
                    p.next_is(i, "(");
    if ((stream || fn) && p.bare_or_std(i)) {
      p.report("H001", t.line,
               "direct console output '" + t.text +
                   "' in library code; route through exec::metrics / trace "
                   "hooks so callers own the I/O policy");
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> kRules{
      {"D001", "banned randomness primitive in library code"},
      {"D002", "wall-clock read in library code"},
      {"D003", "range-for over an unordered container in library code"},
      {"D004", "mutable static at namespace scope"},
      {"D005", "blocking primitive (sleep / lock wait) outside exec/"},
      {"D006", "scalar floating-point reduction loop outside exec/simd"},
      {"C001", "Params/Options struct without validate() member"},
      {"C002", "throw of a bare std:: exception (use exec/error.hpp types)"},
      {"C003", "using namespace in a header"},
      {"C004", "header without #pragma once"},
      {"H001", "direct console output in library code"},
      {"X001", "malformed HOLMS_LINT_ALLOW (unknown rule or missing reason)"},
      {"X002", "stale HOLMS_LINT_ALLOW that no finding matches any more"},
      {"A001", "architecture-layering violation (include against layers.json)"},
      {"A002", "include cycle (SCC over the header include graph)"},
      {"D007", "interprocedural determinism escape (transitive D001/D002/D005)"},
  };
  return kRules;
}

bool is_known_rule(const std::string& id) {
  for (const RuleInfo& r : rule_catalogue()) {
    if (id == r.id) return true;
  }
  return false;
}

std::vector<Finding> run_rules(const SourceFile& f) {
  std::vector<Finding> findings;
  Pass p(f, findings);

  if (f.is_library()) {
    rule_d001(p);
    rule_d002(p);
    rule_d003(p);
    rule_d004(p);
    rule_d005(p);
    rule_d006(p);
    rule_c002(p);
    rule_h001(p);
  }
  if (f.is_header()) {
    rule_c003(p);
    if (f.kind == FileKind::kLibraryHeader) rule_c001(p);
    if (!f.has_pragma_once) {
      findings.push_back(Finding{"C004", f.path, 1,
                                 "header is missing #pragma once", false, {}});
    }
  }
  // X001 findings for malformed annotations (never suppressible).
  for (const Suppression& s : f.suppressions) {
    if (s.malformed) {
      findings.push_back(
          Finding{"X001", f.path, s.comment_line,
                  "malformed HOLMS_LINT_ALLOW: need a known rule id and a "
                  "non-empty reason (`// HOLMS_LINT_ALLOW(D001): why`)",
                  false, {}});
    }
  }

  // Apply suppressions.
  for (Finding& fd : findings) {
    if (fd.rule == "X001") continue;
    for (const Suppression& s : f.suppressions) {
      if (s.malformed || s.rule != fd.rule) continue;
      if (s.file_level || s.anchor_line == fd.line) {
        fd.suppressed = true;
        fd.suppress_reason = s.reason;
        break;
      }
    }
  }
  return findings;
}

}  // namespace holms::lint
