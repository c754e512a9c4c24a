// Tokenizer for holms_lint: enough C++ lexing to make token-sequence rules
// reliable — comments, string/char/raw-string literals and preprocessor
// logical lines are consumed here so the rules never see their contents.

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "lint.hpp"

namespace holms::lint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Parses `HOLMS_LINT_ALLOW(rule): reason` / `HOLMS_LINT_ALLOW_FILE(...)`
/// out of a comment body.  Malformed annotations are kept (flagged as X001).
void parse_allow(const std::string& comment, std::size_t line,
                 bool code_before_comment, SourceFile& out) {
  const std::string tag = "HOLMS_LINT_ALLOW";
  std::size_t pos = comment.find(tag);
  if (pos == std::string::npos) return;
  std::size_t p = pos + tag.size();
  Suppression s;
  s.comment_line = line;
  if (comment.compare(p, 5, "_FILE") == 0) {
    s.file_level = true;
    p += 5;
  }
  // (rule-id)
  if (p >= comment.size() || comment[p] != '(') {
    s.malformed = true;
    out.suppressions.push_back(std::move(s));
    return;
  }
  const std::size_t close = comment.find(')', p);
  if (close == std::string::npos) {
    s.malformed = true;
    out.suppressions.push_back(std::move(s));
    return;
  }
  s.rule = comment.substr(p + 1, close - p - 1);
  // ": reason"
  std::size_t r = close + 1;
  while (r < comment.size() && (comment[r] == ' ' || comment[r] == '\t')) ++r;
  if (r < comment.size() && comment[r] == ':') {
    ++r;
    while (r < comment.size() && (comment[r] == ' ' || comment[r] == '\t')) ++r;
    s.reason = comment.substr(r);
    while (!s.reason.empty() &&
           (s.reason.back() == ' ' || s.reason.back() == '\t')) {
      s.reason.pop_back();
    }
  }
  if (s.reason.empty() || !is_known_rule(s.rule)) s.malformed = true;
  // A trailing comment suppresses its own line; a comment-only line
  // suppresses the next code line (resolved after lexing — anchor_line = 0
  // marks "pending").
  s.anchor_line = (code_before_comment && !s.file_level) ? line : 0;
  out.suppressions.push_back(std::move(s));
}

}  // namespace

SourceFile lex(std::string path, const std::string& content, FileKind kind) {
  SourceFile out;
  out.path = std::move(path);
  out.kind = kind;

  // Raw lines (for baseline keys).
  {
    std::size_t start = 0;
    for (std::size_t i = 0; i <= content.size(); ++i) {
      if (i == content.size() || content[i] == '\n') {
        out.lines.push_back(content.substr(start, i - start));
        start = i + 1;
      }
    }
  }

  std::size_t i = 0;
  std::size_t line = 1;
  std::size_t last_token_line = 0;  // to know if a comment trails code
  std::size_t last_code_line = 0;   // last line counted in code_lines

  // Counts lines [from, to] as code; lines arrive in increasing order.
  auto mark_code = [&](std::size_t from, std::size_t to) {
    from = std::max(from, last_code_line + 1);
    if (to < from) return;
    out.code_lines += to - from + 1;
    last_code_line = to;
  };
  auto push = [&](Token::Kind k, std::string text) {
    out.tokens.push_back(Token{k, std::move(text), line});
    last_token_line = line;
    mark_code(line, line);
  };

  const std::size_t n = content.size();
  while (i < n) {
    const char c = content[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      std::size_t end = content.find('\n', i);
      if (end == std::string::npos) end = n;
      parse_allow(content.substr(i + 2, end - i - 2), line,
                  last_token_line == line, out);
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      std::size_t end = content.find("*/", i + 2);
      if (end == std::string::npos) end = n;
      line += static_cast<std::size_t>(
          std::count(content.begin() + static_cast<std::ptrdiff_t>(i),
                     content.begin() + static_cast<std::ptrdiff_t>(
                                           std::min(end, n)),
                     '\n'));
      i = std::min(end + 2, n);
      continue;
    }
    // Preprocessor logical line (only at start of line, possibly indented —
    // last_token_line check is unnecessary: '#' is not a token we emit).
    if (c == '#') {
      const std::size_t directive_line = line;
      std::size_t end = i;
      std::string directive;
      while (end < n) {
        if (content[end] == '\n') {
          // Backslash continuation, tolerating CRLF ("\\\r\n").
          std::size_t back = end;
          if (back > 0 && content[back - 1] == '\r') --back;
          if (back > 0 && content[back - 1] == '\\') {
            ++line;
            ++end;
            continue;
          }
          break;
        }
        directive.push_back(content[end]);
        ++end;
      }
      mark_code(directive_line, line);
      if (directive.find("pragma") != std::string::npos &&
          directive.find("once") != std::string::npos) {
        out.has_pragma_once = true;
      }
      // Record quoted includes for the whole-program pass (graph.hpp).
      // System includes (<...>) carry no architecture information.
      {
        std::size_t p = 1;  // past '#'
        while (p < directive.size() &&
               (directive[p] == ' ' || directive[p] == '\t')) {
          ++p;
        }
        if (directive.compare(p, 7, "include") == 0) {
          const std::size_t open = directive.find('"', p + 7);
          if (open != std::string::npos) {
            const std::size_t close = directive.find('"', open + 1);
            if (close != std::string::npos && close > open + 1) {
              out.includes.push_back(IncludeDirective{
                  directive.substr(open + 1, close - open - 1),
                  directive_line});
            }
          }
        }
      }
      i = end;
      continue;
    }
    // Raw string literal R"delim( ... )delim", with optional encoding prefix
    // (u8R, uR, UR, LR).  Handled before the identifier branch so the prefix
    // doesn't get lexed as an ident and the body as code.
    {
      std::size_t raw_r = std::string::npos;  // index of the 'R'
      if (c == 'R' && i + 1 < n && content[i + 1] == '"') {
        raw_r = i;
      } else if ((c == 'u' || c == 'U' || c == 'L') && i + 2 < n) {
        std::size_t r = i + 1;
        if (c == 'u' && content[r] == '8') ++r;  // u8R"..."
        if (r + 1 < n && content[r] == 'R' && content[r + 1] == '"') raw_r = r;
      }
      if (raw_r != std::string::npos) {
        const std::size_t open_line = line;
        std::size_t p = raw_r + 2;
        std::string delim;
        while (p < n && content[p] != '(') delim.push_back(content[p++]);
        const std::string closer = ")" + delim + "\"";
        std::size_t end = content.find(closer, p);
        if (end == std::string::npos) end = n;
        line += static_cast<std::size_t>(
            std::count(content.begin() + static_cast<std::ptrdiff_t>(i),
                       content.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(end, n)),
                       '\n'));
        mark_code(open_line, line);  // every line the literal spans
        push(Token::kString, "<raw-string>");
        i = std::min(end + closer.size(), n);
        continue;
      }
    }
    // Encoding-prefixed ordinary literal (u8"...", u'.', U"...", L"...").
    // Skip the prefix; the string/char branch below consumes the body.
    if ((c == 'u' || c == 'U' || c == 'L') && i + 1 < n) {
      std::size_t q = i + 1;
      if (c == 'u' && content[q] == '8' && q + 1 < n) ++q;
      if (content[q] == '"' || content[q] == '\'') {
        i = q;
        // fall through to the literal branch via the loop: re-dispatch
        const char quote = content[i];
        const std::size_t open_line = line;
        std::size_t p = i + 1;
        while (p < n && content[p] != quote) {
          if (content[p] == '\\' && p + 1 < n) ++p;
          if (content[p] == '\n') ++line;
          ++p;
        }
        mark_code(open_line, line);
        push(Token::kString, quote == '"' ? "<string>" : "<char>");
        i = p + 1;
        continue;
      }
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      const std::size_t open_line = line;
      std::size_t p = i + 1;
      while (p < n && content[p] != quote) {
        if (content[p] == '\\' && p + 1 < n) ++p;
        if (content[p] == '\n') ++line;
        ++p;
      }
      mark_code(open_line, line);
      push(Token::kString, quote == '"' ? "<string>" : "<char>");
      i = p + 1;
      continue;
    }
    // Identifier / keyword.
    if (ident_start(c)) {
      std::size_t p = i + 1;
      while (p < n && ident_char(content[p])) ++p;
      push(Token::kIdent, content.substr(i, p - i));
      i = p;
      continue;
    }
    // Number (incl. 0x..., digit separators, suffixes — swallowed greedily).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t p = i + 1;
      while (p < n && (ident_char(content[p]) || content[p] == '\'' ||
                       ((content[p] == '+' || content[p] == '-') &&
                        (content[p - 1] == 'e' || content[p - 1] == 'E')))) {
        ++p;
      }
      push(Token::kNumber, content.substr(i, p - i));
      i = p;
      continue;
    }
    // Multi-char puncts the rules care about.
    if (c == ':' && i + 1 < n && content[i + 1] == ':') {
      push(Token::kPunct, "::");
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && content[i + 1] == '>') {
      push(Token::kPunct, "->");
      i += 2;
      continue;
    }
    push(Token::kPunct, std::string(1, c));
    ++i;
  }

  // Resolve comment-only suppressions to the next line holding a token.
  for (Suppression& s : out.suppressions) {
    if (s.file_level || s.anchor_line != 0) continue;
    for (const Token& t : out.tokens) {
      if (t.line > s.comment_line) {
        s.anchor_line = t.line;
        break;
      }
    }
    if (s.anchor_line == 0) s.anchor_line = s.comment_line;  // trailing EOF
  }
  return out;
}

FileKind classify_path(const std::string& path) {
  const bool header = path.size() >= 4 &&
                      (path.rfind(".hpp") == path.size() - 4 ||
                       path.rfind(".h") == path.size() - 2);
  // Normalize: a path is library code when it lives under a src/ directory.
  const bool lib = path.rfind("src/", 0) == 0 ||
                   path.find("/src/") != std::string::npos;
  if (lib) return header ? FileKind::kLibraryHeader : FileKind::kLibrarySource;
  return header ? FileKind::kOtherHeader : FileKind::kOtherSource;
}

}  // namespace holms::lint
