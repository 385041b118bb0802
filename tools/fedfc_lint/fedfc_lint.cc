// fedfc_lint: repo-invariant linter for the FedForecaster tree.
//
// Walks src/ (all rules) and tests/ (the rules marked include_tests) and
// enforces invariants that keep federated rounds deterministic, the wire
// protocol centralized, and errors unignorable (see docs/STATIC_ANALYSIS.md).
//
// Architecture: every file is lexed ONCE into a shared token stream
// (identifiers, punctuation, string/char/number literals, with comments and
// preprocessor directives captured out-of-band), and each rule pattern-matches
// over that stream. Rules therefore never fire on prose in comments or on
// text inside string literals, and never re-scan the raw bytes. Most rules
// are per-file; `layering` is the first whole-program pass — it sees every
// lexed file at once (plus bench/, examples/ and tools/ as extra translation
// units) and checks the include graph itself.
//
//   wire_keys       Payload Set*/Get* calls with a string-literal key (raw
//                   wire-key literals) may only appear in fl/task_codec.{h,cc}.
//                   Everything else must go through the typed codecs. src-only:
//                   tests legitimately probe payloads with literal keys.
//   rng             No std::rand / srand / std::random_device / time(nullptr)
//                   outside core/rng.{h,cc}. All randomness must flow through
//                   the seeded fedfc::Rng so rounds are reproducible.
//   threads         No raw std::thread / std::jthread / std::async outside
//                   core/thread_pool.{h,cc}. Concurrency goes through the
//                   pool, which the TSan gate instruments.
//   guards          Every header uses the canonical include guard
//                   FEDFC_<PATH>_H_ (FEDFC_TESTS_<PATH>_H_ under tests/, and
//                   never #pragma once). Applies to tests/ too.
//   sockets         Raw POSIX socket syscalls (socket/connect/send/recv/
//                   accept/bind/listen) may only appear in src/net/socket.cc.
//                   All other code — tests included — goes through
//                   net::Socket/Listener.
//   result_discard  No `(void)`-casting of a call expression. Result<T> and
//                   Status are [[nodiscard]]; a bare (void) cast silences the
//                   compiler invisibly. The only sanctioned discard carries a
//                   `// fedfc-allow(result_discard): <reason>` annotation on
//                   the same or preceding line.
//   locks           Outside core/sync.h, the std:: synchronization vocabulary
//                   (<mutex>/<condition_variable>/<shared_mutex> includes,
//                   std::mutex-family types, RAII holders, condvars) and
//                   manual .lock()/.unlock()/.try_lock() calls are banned.
//                   Concurrency goes through the clang-Thread-Safety-annotated
//                   fedfc::Mutex/MutexLock/CondVar wrappers, which the
//                   analysis can see; a raw std::mutex is invisible to it.
//   includes        #include paths are repo-root-relative: no `../` or `./`
//                   segments, no absolute paths, and never an #include of a
//                   .cc/.cpp file.
//   layering        Whole-program: builds the include graph of src/ + tests/
//                   (with bench/, examples/ and tools/ as extra TU roots) and
//                   enforces the module DAG
//                     core <- {ts, data} <- {ml, features} <- fl
//                          <- {net, automl}
//                   rejects include cycles, flags src/ headers no translation
//                   unit reaches, and bans any #include from tools/.
//
// Per-line escape hatch (audited, greppable): a comment of the form
//   // fedfc-allow(<rule>): <non-empty reason>
// on the violating line or the line directly above suppresses that rule
// there. Only the annotation-aware rules (result_discard, locks, includes)
// honour it; the five original invariants cannot be silenced.
//
// Usage:
//   fedfc_lint [--format=json] <repo_root>   lint <repo_root>/src and /tests
//   fedfc_lint --self-test [rule]            run embedded rule self-tests
//   fedfc_lint --list-rules                  print every rule + scope
//
// Exit codes: 0 clean / self-tests pass, 1 violations found / self-test
// failed, 2 usage or I/O error.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Violation {
  std::string file;  // Path relative to its tree root (src/ or tests/).
  size_t line = 0;   // 1-based.
  std::string rule;
  std::string detail;
};

struct SourceFile {
  std::string rel_path;      // Relative to its tree root, forward slashes.
  std::string content;
  std::string tree = "src";  // "src" or "tests".
};

// --- Lexer ----------------------------------------------------------------
//
// One pass over the raw bytes produces everything every rule needs:
//   tokens      identifiers, punctuation, string/char/number literals
//   comments    text + line of every // and /* */ comment (for fedfc-allow)
//   directives  full text + line of every preprocessor directive line
// Comment and literal *contents* never become tokens, so token-matching
// rules are immune to prose by construction.

enum class TokKind { kIdent, kPunct, kString, kChar, kNumber };

struct Token {
  TokKind kind;
  std::string text;  // Punct/ident spelling; literals keep their quotes.
  size_t line;       // 1-based.
};

struct Comment {
  size_t line;       // 1-based line where the comment starts.
  std::string text;  // Without the // or /* */ markers.
};

struct Directive {
  size_t line;       // 1-based.
  std::string text;  // Full directive line, continuations joined, no comments.
};

struct LexedFile {
  std::string rel_path;
  std::string tree;
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  std::vector<Directive> directives;
  /// fedfc-allow annotations: rule name -> lines carrying an annotation.
  std::map<std::string, std::set<size_t>> allow;
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

/// Records `text` as a comment and, when it carries a fedfc-allow annotation
/// with a non-empty reason, registers the allowance for `line` and `line + 1`
/// (annotation-above-the-statement is the common layout).
void AddComment(LexedFile* out, size_t line, std::string text) {
  static constexpr std::string_view kMarker = "fedfc-allow(";
  size_t pos = text.find(kMarker);
  if (pos != std::string::npos) {
    size_t name_begin = pos + kMarker.size();
    size_t close = text.find(')', name_begin);
    if (close != std::string::npos) {
      std::string rule = text.substr(name_begin, close - name_begin);
      // A justification is mandatory: "): <reason>" with a non-blank reason.
      size_t colon = text.find(':', close);
      bool has_reason = false;
      if (colon != std::string::npos) {
        for (size_t i = colon + 1; i < text.size(); ++i) {
          if (!std::isspace(static_cast<unsigned char>(text[i]))) {
            has_reason = true;
            break;
          }
        }
      }
      if (!rule.empty() && has_reason) {
        out->allow[rule].insert(line);
        out->allow[rule].insert(line + 1);
      }
    }
  }
  out->comments.push_back({line, std::move(text)});
}

/// True when a fedfc-allow(rule) annotation covers `line` (i.e. sits on that
/// line or the one above it).
bool IsAllowed(const LexedFile& f, const std::string& rule, size_t line) {
  auto it = f.allow.find(rule);
  return it != f.allow.end() && it->second.count(line) > 0;
}

/// Lexes one source file. Multi-char punctuation relevant to the rules
/// (`::`, `->`) is kept as a single token; everything else punct-like is
/// emitted one char at a time.
LexedFile Lex(const SourceFile& src) {
  LexedFile out;
  out.rel_path = src.rel_path;
  out.tree = src.tree;
  const std::string& s = src.content;
  size_t line = 1;
  bool at_line_start = true;  // Only whitespace seen since the last newline.
  size_t i = 0;
  while (i < s.size()) {
    char c = s[i];
    char next = i + 1 < s.size() ? s[i + 1] : '\0';
    if (c == '\n') {
      ++line;
      at_line_start = true;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor directive: '#' as the first non-whitespace char of a line.
    // Captures the whole logical line (backslash continuations joined);
    // trailing // comments are routed to the comment list so fedfc-allow
    // still works on directive lines.
    if (c == '#' && at_line_start) {
      const size_t directive_line = line;
      std::string text;
      bool in_quote = false;
      while (i < s.size() && s[i] != '\n') {
        if (s[i] == '\\' && i + 1 < s.size() && s[i + 1] == '\n') {
          text.push_back(' ');
          i += 2;
          ++line;
          continue;
        }
        if (s[i] == '"') in_quote = !in_quote;
        if (!in_quote && s[i] == '/' && i + 1 < s.size() && s[i + 1] == '/') {
          std::string comment;
          i += 2;
          while (i < s.size() && s[i] != '\n') comment.push_back(s[i++]);
          AddComment(&out, line, std::move(comment));
          break;
        }
        text.push_back(s[i++]);
      }
      out.directives.push_back({directive_line, std::move(text)});
      at_line_start = false;
      continue;
    }
    at_line_start = false;
    if (c == '/' && next == '/') {
      std::string text;
      const size_t comment_line = line;
      i += 2;
      while (i < s.size() && s[i] != '\n') text.push_back(s[i++]);
      AddComment(&out, comment_line, std::move(text));
      continue;
    }
    if (c == '/' && next == '*') {
      std::string text;
      const size_t comment_line = line;
      i += 2;
      while (i + 1 < s.size() && !(s[i] == '*' && s[i + 1] == '/')) {
        if (s[i] == '\n') ++line;
        text.push_back(s[i++]);
      }
      i = i + 1 < s.size() ? i + 2 : s.size();
      AddComment(&out, comment_line, std::move(text));
      continue;
    }
    if (c == '"') {
      std::string text(1, '"');
      ++i;
      while (i < s.size() && s[i] != '"') {
        if (s[i] == '\\' && i + 1 < s.size()) {
          text.push_back(s[i++]);
        }
        if (i < s.size()) {
          if (s[i] == '\n') ++line;
          text.push_back(s[i++]);
        }
      }
      if (i < s.size()) ++i;  // Closing quote.
      text.push_back('"');
      out.tokens.push_back({TokKind::kString, std::move(text), line});
      continue;
    }
    if (c == '\'') {
      std::string text(1, '\'');
      ++i;
      while (i < s.size() && s[i] != '\'') {
        if (s[i] == '\\' && i + 1 < s.size()) {
          text.push_back(s[i++]);
        }
        if (i < s.size()) {
          if (s[i] == '\n') ++line;
          text.push_back(s[i++]);
        }
      }
      if (i < s.size()) ++i;
      text.push_back('\'');
      out.tokens.push_back({TokKind::kChar, std::move(text), line});
      continue;
    }
    if (IsDigit(c) || (c == '.' && IsDigit(next))) {
      std::string text;
      while (i < s.size() &&
             (IsIdentChar(s[i]) || s[i] == '.' || s[i] == '\'' ||
              ((s[i] == '+' || s[i] == '-') && i > 0 &&
               (s[i - 1] == 'e' || s[i - 1] == 'E' || s[i - 1] == 'p' ||
                s[i - 1] == 'P')))) {
        text.push_back(s[i++]);
      }
      out.tokens.push_back({TokKind::kNumber, std::move(text), line});
      continue;
    }
    if (IsIdentStart(c)) {
      std::string text;
      while (i < s.size() && IsIdentChar(s[i])) text.push_back(s[i++]);
      out.tokens.push_back({TokKind::kIdent, std::move(text), line});
      continue;
    }
    // Punctuation. Only the two-char sequences the rules care about are
    // fused; everything else stays single-char.
    if ((c == ':' && next == ':') || (c == '-' && next == '>')) {
      out.tokens.push_back({TokKind::kPunct, std::string{c, next}, line});
      i += 2;
      continue;
    }
    out.tokens.push_back({TokKind::kPunct, std::string(1, c), line});
    ++i;
  }
  return out;
}

// --- Token-stream helpers -------------------------------------------------

bool TokIs(const Token& t, TokKind kind, std::string_view text) {
  return t.kind == kind && t.text == text;
}
bool IsPunct(const Token& t, std::string_view text) {
  return TokIs(t, TokKind::kPunct, text);
}
bool IsIdent(const Token& t, std::string_view text) {
  return TokIs(t, TokKind::kIdent, text);
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// --- Directive helpers ----------------------------------------------------

/// Extracts the path from an #include directive ("..." or <...>). Returns ""
/// when the directive is not an #include or its delimiters are malformed.
std::string ParseIncludePath(const Directive& d) {
  std::istringstream iss(d.text);
  std::string directive;
  iss >> directive;
  if (directive != "#include") return {};
  const size_t open = d.text.find_first_of("\"<", directive.size());
  if (open == std::string::npos) return {};
  const char close_char = d.text[open] == '"' ? '"' : '>';
  const size_t close = d.text.find(close_char, open + 1);
  if (close == std::string::npos) return {};
  return d.text.substr(open + 1, close - open - 1);
}

// --- Rule: wire_keys ------------------------------------------------------

bool IsWireKeyExempt(const std::string& rel_path) {
  // The codec owns the wire keys; Payload itself only sees caller-supplied
  // keys (its own tests and implementation never hardcode protocol keys).
  return rel_path == "fl/task_codec.h" || rel_path == "fl/task_codec.cc" ||
         rel_path == "fl/payload.h" || rel_path == "fl/payload.cc";
}

void CheckWireKeys(const LexedFile& f, std::vector<Violation>* out) {
  if (IsWireKeyExempt(f.rel_path)) return;
  static const std::set<std::string, std::less<>> kAccessors = {
      "SetDouble", "SetInt", "SetString", "SetTensor",
      "GetDouble", "GetInt", "GetString", "GetTensor",
  };
  const auto& t = f.tokens;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind == TokKind::kIdent && kAccessors.count(t[i].text) > 0 &&
        IsPunct(t[i + 1], "(") && t[i + 2].kind == TokKind::kString) {
      out->push_back({f.rel_path, t[i].line, "wire_keys",
                      t[i].text +
                          " with a string-literal key outside "
                          "fl/task_codec — route through the typed codec"});
    }
  }
}

// --- Rule: rng ------------------------------------------------------------

bool IsRngExempt(const std::string& rel_path) {
  return rel_path == "core/rng.h" || rel_path == "core/rng.cc";
}

void CheckRng(const LexedFile& f, std::vector<Violation>* out) {
  if (IsRngExempt(f.rel_path)) return;
  const auto& t = f.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    // random_device in any qualification (std::random_device, bare).
    if (IsIdent(t[i], "random_device")) {
      out->push_back({f.rel_path, t[i].line, "rng",
                      "unseeded randomness (random_device) outside core/rng — "
                      "use fedfc::Rng"});
      continue;
    }
    // std::rand / std::srand.
    if ((IsIdent(t[i], "rand") || IsIdent(t[i], "srand")) && i >= 2 &&
        IsPunct(t[i - 1], "::") && IsIdent(t[i - 2], "std")) {
      out->push_back({f.rel_path, t[i].line, "rng",
                      "unseeded randomness (std::" + t[i].text +
                          ") outside core/rng — use fedfc::Rng"});
      continue;
    }
    // time(nullptr) / time(NULL) wall-clock seeding.
    if (IsIdent(t[i], "time") && i + 3 < t.size() && IsPunct(t[i + 1], "(") &&
        (IsIdent(t[i + 2], "nullptr") || IsIdent(t[i + 2], "NULL")) &&
        IsPunct(t[i + 3], ")")) {
      out->push_back({f.rel_path, t[i].line, "rng",
                      "unseeded randomness (time(" + t[i + 2].text +
                          ")) outside core/rng — use fedfc::Rng"});
    }
  }
}

// --- Rule: threads --------------------------------------------------------

bool IsThreadsExempt(const std::string& rel_path) {
  return rel_path == "core/thread_pool.h" || rel_path == "core/thread_pool.cc";
}

void CheckThreads(const LexedFile& f, std::vector<Violation>* out) {
  if (IsThreadsExempt(f.rel_path)) return;
  const auto& t = f.tokens;
  for (size_t i = 2; i < t.size(); ++i) {
    if (!(IsIdent(t[i], "thread") || IsIdent(t[i], "jthread") ||
          IsIdent(t[i], "async"))) {
      continue;
    }
    if (!(IsPunct(t[i - 1], "::") && IsIdent(t[i - 2], "std"))) continue;
    // `std::thread::hardware_concurrency()` is a capacity query, not a
    // spawned thread; the pool itself decides how many workers to run.
    if (IsIdent(t[i], "thread") && i + 1 < t.size() &&
        IsPunct(t[i + 1], "::")) {
      continue;
    }
    out->push_back({f.rel_path, t[i].line, "threads",
                    "raw std::" + t[i].text +
                        " outside core/thread_pool — submit work to the pool "
                        "so TSan covers it"});
  }
}

// --- Rule: guards ---------------------------------------------------------

std::string CanonicalGuard(const std::string& rel_path) {
  std::string guard = "FEDFC_";
  for (char c : rel_path) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      guard.push_back(
          static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    } else {
      guard.push_back('_');
    }
  }
  guard.push_back('_');
  return guard;
}

void CheckGuards(const LexedFile& f, std::vector<Violation>* out) {
  if (!EndsWith(f.rel_path, ".h")) return;
  // Headers under tests/ get a TESTS_ segment so their guards can never
  // collide with a same-named header under src/.
  const std::string expected = CanonicalGuard(
      f.tree == "src" ? f.rel_path : f.tree + "/" + f.rel_path);
  bool has_ifndef = false;
  bool has_define = false;
  for (const Directive& d : f.directives) {
    std::istringstream iss(d.text);
    std::string directive, name;
    iss >> directive >> name;
    if (directive == "#pragma" && name == "once") {
      out->push_back({f.rel_path, d.line, "guards",
                      "#pragma once — this tree uses canonical include guards ("
                          + expected + ")"});
      return;
    }
    if (!has_ifndef && directive == "#ifndef") {
      has_ifndef = true;
      if (name != expected) {
        out->push_back({f.rel_path, d.line, "guards",
                        "include guard '" + name + "' != canonical '" +
                            expected + "'"});
        return;
      }
    } else if (has_ifndef && !has_define && directive == "#define") {
      has_define = true;
      if (name != expected) {
        out->push_back({f.rel_path, d.line, "guards",
                        "guard #define '" + name + "' != canonical '" +
                            expected + "'"});
        return;
      }
    }
  }
  if (!has_ifndef || !has_define) {
    out->push_back({f.rel_path, 1, "guards",
                    "missing include guard (expected " + expected + ")"});
  }
}

// --- Rule: sockets --------------------------------------------------------

void CheckSockets(const LexedFile& f, std::vector<Violation>* out) {
  // The one file allowed to touch the raw syscalls; everything else uses the
  // net::Socket/Listener wrappers.
  if (f.tree == "src" && f.rel_path == "net/socket.cc") return;
  static const std::set<std::string, std::less<>> kSyscalls = {
      "socket", "connect", "send", "recv", "accept", "bind", "listen",
  };
  const auto& t = f.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || kSyscalls.count(t[i].text) == 0 ||
        !IsPunct(t[i + 1], "(")) {
      continue;
    }
    out->push_back({f.rel_path, t[i].line, "sockets",
                    "raw " + t[i].text +
                        "() outside net/socket.cc — use net::Socket / "
                        "net::Listener"});
  }
}

// --- Rule: result_discard (new) -------------------------------------------
//
// Result<T> and Status are [[nodiscard]], so the compiler rejects silent
// drops; the one way to silence it is a `(void)` cast, and this rule makes
// that cast auditable: every `(void)`-cast of a *call expression* must carry
// a `// fedfc-allow(result_discard): <reason>` annotation on the same or the
// preceding line. `(void)param;` unused-parameter suppressions (no call
// involved) stay allowed.

void CheckResultDiscard(const LexedFile& f, std::vector<Violation>* out) {
  const auto& t = f.tokens;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (!(IsPunct(t[i], "(") && IsIdent(t[i + 1], "void") &&
          IsPunct(t[i + 2], ")"))) {
      continue;
    }
    // `foo(void)` parameter lists: the '(' follows the declarator name.
    if (i > 0 && t[i - 1].kind == TokKind::kIdent) continue;
    // Does the casted expression contain a call? Scan to the end of the
    // statement (';' or ',' at depth 0, or an unbalanced ')').
    bool has_call = false;
    int depth = 0;
    for (size_t j = i + 3; j < t.size(); ++j) {
      if (IsPunct(t[j], "(")) {
        ++depth;
        has_call = true;
      } else if (IsPunct(t[j], ")")) {
        if (--depth < 0) break;
      } else if (depth == 0 &&
                 (IsPunct(t[j], ";") || IsPunct(t[j], ","))) {
        break;
      }
    }
    if (!has_call) continue;
    if (IsAllowed(f, "result_discard", t[i].line)) continue;
    out->push_back(
        {f.rel_path, t[i].line, "result_discard",
         "(void)-cast of a call discards its result invisibly — propagate or "
         "handle it, or annotate `// fedfc-allow(result_discard): <reason>`"});
  }
}

// --- Rule: locks (retargeted) ---------------------------------------------
//
// core/sync.h is the ONE file that may name the std:: synchronization
// vocabulary. Everywhere else, mutexes are fedfc::Mutex held via
// fedfc::MutexLock and waits go through fedfc::CondVar, so the clang Thread
// Safety Analysis (-Wthread-safety, see docs/STATIC_ANALYSIS.md) sees every
// acquisition — a raw std::mutex is invisible to it and silently exempt from
// the race checking this tree relies on. Three spellings are banned outside
// core/sync.h:
//   * #include <mutex> / <condition_variable> / <shared_mutex>
//   * std::mutex-family types, std:: RAII holders (lock_guard, unique_lock,
//     scoped_lock, shared_lock) and std::condition_variable{,_any}
//   * manual .lock()/.unlock()/.try_lock() member calls — the annotated
//     spellings are Mutex::Lock/Unlock; lowercase means a raw primitive
//     whose early-return paths can leak a held lock unchecked.

void CheckLocks(const LexedFile& f, std::vector<Violation>* out) {
  if (f.tree == "src" && f.rel_path == "core/sync.h") return;
  static const std::set<std::string, std::less<>> kBannedHeaders = {
      "mutex", "condition_variable", "shared_mutex"};
  for (const Directive& d : f.directives) {
    const std::string path = ParseIncludePath(d);
    if (path.empty() || kBannedHeaders.count(path) == 0) continue;
    if (IsAllowed(f, "locks", d.line)) continue;
    out->push_back({f.rel_path, d.line, "locks",
                    "#include <" + path +
                        "> outside core/sync.h — use the annotated "
                        "fedfc::Mutex/MutexLock/CondVar wrappers"});
  }
  static const std::set<std::string, std::less<>> kBannedTypes = {
      "mutex", "timed_mutex", "recursive_mutex", "recursive_timed_mutex",
      "shared_mutex", "shared_timed_mutex", "lock_guard", "unique_lock",
      "scoped_lock", "shared_lock", "condition_variable",
      "condition_variable_any"};
  const auto& t = f.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (i >= 2 && t[i].kind == TokKind::kIdent &&
        kBannedTypes.count(t[i].text) > 0 && IsPunct(t[i - 1], "::") &&
        IsIdent(t[i - 2], "std")) {
      if (IsAllowed(f, "locks", t[i].line)) continue;
      out->push_back({f.rel_path, t[i].line, "locks",
                      "std::" + t[i].text +
                          " outside core/sync.h — thread-safety analysis "
                          "cannot see it; use fedfc::Mutex/MutexLock/CondVar"});
      continue;
    }
    if (i >= 1 && i + 1 < t.size() &&
        (IsIdent(t[i], "lock") || IsIdent(t[i], "unlock") ||
         IsIdent(t[i], "try_lock")) &&
        (IsPunct(t[i - 1], ".") || IsPunct(t[i - 1], "->")) &&
        IsPunct(t[i + 1], "(")) {
      if (IsAllowed(f, "locks", t[i].line)) continue;
      out->push_back({f.rel_path, t[i].line, "locks",
                      "manual ." + t[i].text +
                          "() — hold locks via fedfc::MutexLock so no "
                          "early-return path can leak them"});
    }
  }
}

// --- Rule: includes (new) -------------------------------------------------
//
// Include paths are repo-root-relative (the build adds src/ to the include
// path; nothing else). `../` escapes break that invariant silently when
// files move, `./` is redundant, absolute paths are machine-specific, and
// #include of a .cc file double-defines symbols.

void CheckIncludes(const LexedFile& f, std::vector<Violation>* out) {
  for (const Directive& d : f.directives) {
    const std::string path = ParseIncludePath(d);
    if (path.empty()) continue;
    std::string problem;
    if (path.find("../") != std::string::npos) {
      problem = "parent-relative include '" + path + "'";
    } else if (path.rfind("./", 0) == 0) {
      problem = "'./'-relative include '" + path + "'";
    } else if (path[0] == '/') {
      problem = "absolute include '" + path + "'";
    } else if (EndsWith(path, ".cc") || EndsWith(path, ".cpp") ||
               EndsWith(path, ".cxx")) {
      problem = "#include of an implementation file '" + path + "'";
    }
    if (problem.empty()) continue;
    if (IsAllowed(f, "includes", d.line)) continue;
    out->push_back({f.rel_path, d.line, "includes",
                    problem + " — include repo-root-relative headers only"});
  }
}

// --- Rule: intrinsics (new) -----------------------------------------------
//
// SIMD intrinsics live only under src/ml/kernels/ (the runtime-dispatched
// backend layer; see docs/ARCHITECTURE.md, "Kernel layer"). Anywhere else,
// <immintrin.h>-family includes or _mm*/__m256-style identifiers bypass the
// scalar-oracle parity contract and break non-x86 builds.

void CheckIntrinsics(const LexedFile& f, std::vector<Violation>* out) {
  if (f.tree == "src" && f.rel_path.rfind("ml/kernels/", 0) == 0) return;
  for (const Directive& d : f.directives) {
    const std::string path = ParseIncludePath(d);
    if (EndsWith(path, "intrin.h")) {
      out->push_back({f.rel_path, d.line, "intrinsics",
                      "#include <" + path +
                          "> outside src/ml/kernels/ — add a backend op "
                          "instead of inlining SIMD"});
    }
  }
  for (const Token& tok : f.tokens) {
    if (tok.kind != TokKind::kIdent) continue;
    const std::string& id = tok.text;
    if (id.rfind("_mm", 0) != 0 && id.rfind("__m128", 0) != 0 &&
        id.rfind("__m256", 0) != 0 && id.rfind("__m512", 0) != 0) {
      continue;
    }
    out->push_back({f.rel_path, tok.line, "intrinsics",
                    "x86 intrinsic '" + id +
                        "' outside src/ml/kernels/ — add a backend op "
                        "instead of inlining SIMD"});
  }
}

// --- Rule: layering (new, whole-program) -----------------------------------
//
// fedfc_lint's first cross-file pass. It sees every lexed file at once —
// src/ and tests/ plus the bench/, examples/ and tools/ trees as extra
// translation-unit roots — builds the include graph, and enforces:
//
//   1. The module DAG: a src/<module>/ file may include only from its own
//      module or the modules listed in AllowedDeps(). The layer order is
//          core <- {ts, data} <- {ml, features} <- fl <- {net, automl} <- serve
//      net and automl are siblings (neither may include the other); serve
//      sits above both and nothing in src/ includes from it. tools/ is a
//      sink nothing includes from. tests/ are DAG-exempt: a test may reach
//      into any module it exercises.
//   2. No include cycles anywhere in the graph (DFS back-edge detection).
//   3. No orphan headers: every src/ header must be reachable from some
//      translation unit the build compiles (a .cc/.cpp under src/, tests/,
//      bench/, examples/ or tools/).
//
// There is deliberately no fedfc-allow escape: a new inter-module edge means
// editing AllowedDeps() here, in a reviewed diff, not annotating the call
// site.

/// module -> modules it may additionally include from. Including from the
/// own module is always legal; absence from this map means the module is
/// unknown to the layering policy and every outward edge is rejected.
const std::map<std::string, std::set<std::string>>& AllowedDeps() {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"core", {}},
      {"ts", {"core"}},
      {"data", {"core", "ts"}},
      {"ml", {"core", "ts", "data"}},
      {"features", {"core", "ts", "data", "ml"}},
      {"fl", {"core", "ts", "data", "ml", "features"}},
      {"net", {"core", "ts", "data", "ml", "features", "fl"}},
      {"automl", {"core", "ts", "data", "ml", "features", "fl"}},
      // Serving sits above everything: it may reach the whole training
      // stack, and nothing in src/ may include from it (tools/, bench/ and
      // tests/ are the only consumers).
      {"serve", {"core", "ts", "data", "ml", "features", "fl", "net", "automl"}},
  };
  return kAllowed;
}

/// First path segment ("fl/server.h" -> "fl"); "" for root-level files.
std::string ModuleOf(const std::string& rel_path) {
  const size_t slash = rel_path.find('/');
  return slash == std::string::npos ? std::string() : rel_path.substr(0, slash);
}

/// Directory part ("net/worker_test.cc" -> "net"); "" for root-level files.
std::string DirOf(const std::string& rel_path) {
  const size_t slash = rel_path.rfind('/');
  return slash == std::string::npos ? std::string() : rel_path.substr(0, slash);
}

void CheckLayering(const std::vector<LexedFile>& program,
                   std::vector<Violation>* out) {
  // Node ids are tree-prefixed paths ("src/core/sync.h"). A quoted include
  // resolves src-root-relative first (the build's only -I is src/), then
  // relative to the including file's directory (tests' local harness
  // headers), then tree-root-relative. Unresolved paths are system or
  // third-party headers and stay outside the graph.
  std::set<std::string> nodes;
  for (const LexedFile& f : program) nodes.insert(f.tree + "/" + f.rel_path);

  struct Edge {
    std::string to;
    size_t line;
  };
  std::map<std::string, std::vector<Edge>> graph;
  for (const LexedFile& f : program) {
    const std::string id = f.tree + "/" + f.rel_path;
    graph[id];  // Every file is a node, even with no in-tree includes.
    for (const Directive& d : f.directives) {
      const std::string path = ParseIncludePath(d);
      if (path.empty()) continue;
      if (path.rfind("tools/", 0) == 0 && f.tree != "tools") {
        // Only the linted trees report; aux trees are roots, not subjects.
        if (f.tree == "src" || f.tree == "tests") {
          out->push_back({id, d.line, "layering",
                          "#include \"" + path +
                              "\" — tools/ is a sink; nothing includes from "
                              "it"});
        }
        continue;
      }
      const std::string dir = DirOf(f.rel_path);
      std::string target;
      for (const std::string& cand :
           {"src/" + path,
            f.tree + "/" + (dir.empty() ? path : dir + "/" + path),
            f.tree + "/" + path}) {
        if (nodes.count(cand) > 0) {
          target = cand;
          break;
        }
      }
      if (!target.empty()) graph[id].push_back({target, d.line});
    }
  }

  // 1. Module DAG over src -> src edges.
  for (const auto& entry : graph) {
    const std::string& from = entry.first;
    if (from.rfind("src/", 0) != 0) continue;
    const std::string from_mod = ModuleOf(from.substr(4));
    if (from_mod.empty()) continue;
    for (const Edge& e : entry.second) {
      if (e.to.rfind("src/", 0) != 0) continue;
      const std::string to_mod = ModuleOf(e.to.substr(4));
      if (to_mod.empty() || to_mod == from_mod) continue;
      const auto it = AllowedDeps().find(from_mod);
      if (it == AllowedDeps().end()) {
        out->push_back({from, e.line, "layering",
                        "module '" + from_mod +
                            "' is not in the layering map — add it to "
                            "AllowedDeps() in a reviewed diff"});
      } else if (it->second.count(to_mod) == 0) {
        out->push_back({from, e.line, "layering",
                        "'" + from_mod + "' may not include from '" + to_mod +
                            "' — the module DAG is core <- {ts, data} <- "
                            "{ml, features} <- fl <- {net, automl}"});
      }
    }
  }

  // 2. Include cycles: colored DFS; every back edge closes a cycle. The
  // recursion depth is the include-chain depth, which the DAG keeps shallow.
  std::map<std::string, int> color;  // 0 unvisited / 1 on stack / 2 done.
  std::vector<std::string> stack;
  const auto dfs = [&](const auto& self, const std::string& node) -> void {
    color[node] = 1;
    stack.push_back(node);
    for (const Edge& e : graph.at(node)) {
      const int c = color[e.to];
      if (c == 1) {
        std::string desc;
        for (auto it = std::find(stack.begin(), stack.end(), e.to);
             it != stack.end(); ++it) {
          desc += *it + " -> ";
        }
        desc += e.to;
        out->push_back({node, e.line, "layering", "include cycle: " + desc});
      } else if (c == 0) {
        self(self, e.to);
      }
    }
    stack.pop_back();
    color[node] = 2;
  };
  for (const auto& entry : graph) {
    if (color[entry.first] == 0) dfs(dfs, entry.first);
  }

  // 3. Orphan headers: BFS from every translation unit the build compiles.
  std::set<std::string> reached;
  std::vector<std::string> frontier;
  for (const auto& entry : graph) {
    if (EndsWith(entry.first, ".cc") || EndsWith(entry.first, ".cpp")) {
      if (reached.insert(entry.first).second) frontier.push_back(entry.first);
    }
  }
  while (!frontier.empty()) {
    const std::string node = frontier.back();
    frontier.pop_back();
    for (const Edge& e : graph.at(node)) {
      if (reached.insert(e.to).second) frontier.push_back(e.to);
    }
  }
  for (const auto& entry : graph) {
    const std::string& node = entry.first;
    if (node.rfind("src/", 0) != 0 || !EndsWith(node, ".h")) continue;
    if (reached.count(node) > 0) continue;
    out->push_back({node, 1, "layering",
                    "orphan header: no translation unit under src/, tests/, "
                    "bench/, examples/ or tools/ includes it"});
  }
}

// --- fuzz_coverage: every untrusted-byte decoder has a fuzz harness -------
//
// The fuzz-coverage map (docs/STATIC_ANALYSIS.md "Fuzzing"). A function
// declared in a src/ header whose name marks it as a decoder of untrusted
// bytes — prefix Decode*/Deserialize*/Parse*, or one of the exact
// tensor/payload/span entry points — must be exercised by name in some
// harness under tests/fuzz/*_fuzz.cc. Entry points that are only reachable
// through another fuzzed decoder may be exempted here, with a reason; an
// exempt entry whose name disappears from src/ headers fires too, so the
// list cannot rot.

struct FuzzExempt {
  std::string_view name;
  std::string_view reason;
};

constexpr FuzzExempt kFuzzExempts[] = {
    {"Decode",
     "SearchSpace::Decode takes trusted unit-cube points; the wire path is "
     "Configuration::FromTensor, which is fuzzed"},
    {"FromSpan",
     "GbdtTree::FromSpan is internal to the model blob; reachable only "
     "through DeserializeModel, which is fuzzed"},
};

/// Exact-match decoder entry points that the prefix scan cannot see.
constexpr std::string_view kFuzzExactNames[] = {"FromPayload", "FromTensor",
                                                "FromSpan"};

bool IsDecoderName(const std::string& name) {
  for (std::string_view exact : kFuzzExactNames) {
    if (name == exact) return true;
  }
  for (std::string_view prefix : {"Decode", "Deserialize", "Parse"}) {
    if (name.compare(0, prefix.size(), prefix) == 0) return true;
  }
  return false;
}

void CheckFuzzCoverage(const std::vector<LexedFile>& program,
                       std::vector<Violation>* out) {
  // The harness vocabulary: every identifier token in tests/fuzz/*_fuzz.cc.
  // Token-level matching means comments and string literals cannot satisfy
  // coverage — the harness has to actually name the function in code.
  std::set<std::string> fuzzed;
  for (const LexedFile& f : program) {
    if (f.tree != "tests" || f.rel_path.rfind("fuzz/", 0) != 0 ||
        !EndsWith(f.rel_path, "_fuzz.cc")) {
      continue;
    }
    for (const Token& t : f.tokens) {
      if (t.kind == TokKind::kIdent) fuzzed.insert(t.text);
    }
  }

  // Registered entry points: decoder-named identifier immediately followed
  // by '(' in a src/ header (declarations and inline definitions alike).
  std::set<std::string> declared;
  std::set<std::string> reported;  // One report per name, first site wins.
  for (const LexedFile& f : program) {
    if (f.tree != "src" || !EndsWith(f.rel_path, ".h")) continue;
    for (size_t i = 0; i + 1 < f.tokens.size(); ++i) {
      const Token& t = f.tokens[i];
      if (t.kind != TokKind::kIdent || !IsDecoderName(t.text)) continue;
      const Token& next = f.tokens[i + 1];
      if (next.kind != TokKind::kPunct || next.text != "(") continue;
      declared.insert(t.text);
      bool exempt = false;
      for (const FuzzExempt& e : kFuzzExempts) {
        if (t.text == e.name) exempt = true;
      }
      if (exempt || fuzzed.count(t.text) > 0) continue;
      if (!reported.insert(t.text).second) continue;
      out->push_back(
          {"src/" + f.rel_path, t.line, "fuzz_coverage",
           "untrusted-byte decoder '" + t.text +
               "' has no fuzz harness: no tests/fuzz/*_fuzz.cc names it — "
               "add a harness (or an exempt entry with a reason in "
               "kFuzzExempts) per docs/STATIC_ANALYSIS.md"});
    }
  }

  // Stale exemptions: an exempt name no src/ header declares any more.
  for (const FuzzExempt& e : kFuzzExempts) {
    if (declared.count(std::string(e.name)) == 0) {
      out->push_back({"tools/fedfc_lint/fedfc_lint.cc", 1, "fuzz_coverage",
                      "stale fuzz exemption '" + std::string(e.name) +
                          "': no src/ header declares it — remove the "
                          "kFuzzExempts entry"});
    }
  }
}

// --- Driver ---------------------------------------------------------------

struct Rule {
  std::string_view name;
  /// Per-file check; null for whole-program rules.
  void (*check)(const LexedFile&, std::vector<Violation>*);
  /// Whether the rule also walks tests/. Rules stay src-only when tests
  /// legitimately need the pattern (literal payload keys in assertions).
  bool include_tests;
  std::string_view summary;  // One line for --list-rules.
  /// Whole-program check over every lexed file at once (src/ + tests/ + aux
  /// trees); runs after the per-file walk. Null for per-file rules.
  void (*check_program)(const std::vector<LexedFile>&,
                        std::vector<Violation>*) = nullptr;
};

constexpr Rule kRules[] = {
    {"wire_keys", CheckWireKeys, false,
     "literal Payload wire keys only in fl/task_codec.{h,cc}"},
    {"rng", CheckRng, false,
     "no unseeded randomness outside core/rng.{h,cc}"},
    {"threads", CheckThreads, false,
     "no raw std::thread/jthread/async outside core/thread_pool.{h,cc}"},
    {"guards", CheckGuards, true,
     "canonical FEDFC_* include guards, never #pragma once"},
    {"sockets", CheckSockets, true,
     "raw POSIX socket syscalls only in src/net/socket.cc"},
    {"result_discard", CheckResultDiscard, true,
     "no (void)-cast of calls without fedfc-allow(result_discard)"},
    {"locks", CheckLocks, true,
     "std:: sync vocabulary only in core/sync.h; use fedfc::Mutex/MutexLock"},
    {"includes", CheckIncludes, true,
     "repo-root-relative includes: no ../ ./ absolute or .cc includes"},
    {"intrinsics", CheckIntrinsics, true,
     "SIMD intrinsics (<*intrin.h>, _mm*/__m*) only in src/ml/kernels/"},
    {"layering", nullptr, true,
     "module DAG core<-{ts,data}<-{ml,features}<-fl<-{net,automl}; no "
     "cycles, orphan headers, or includes from tools/",
     CheckLayering},
    {"fuzz_coverage", nullptr, true,
     "every Decode*/Deserialize*/Parse*/From{Payload,Tensor,Span} decoder "
     "declared in a src/ header is named by a tests/fuzz/*_fuzz.cc harness",
     CheckFuzzCoverage},
};

/// Reads and lexes every .h/.cc/.cpp under `<repo_root>/<tree>` into
/// `program` in deterministic (sorted) order. Returns 2 on I/O error, else 0.
int LexTree(const fs::path& repo_root, const std::string& tree,
            std::vector<LexedFile>* program) {
  const fs::path root = repo_root / tree;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());  // Deterministic report order.
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "fedfc_lint: cannot read %s\n", path.string().c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    SourceFile file;
    file.rel_path = fs::relative(path, root).generic_string();
    file.content = buf.str();
    file.tree = tree;
    program->push_back(Lex(file));
  }
  return 0;
}

/// Lints every source file under `<repo_root>/<tree>`, applying the per-file
/// rules whose applicability matches, and appends each lexed file to
/// `program` for the whole-program rules. Violations come back tree-prefixed
/// ("tests/net/foo_test.cc:12"). Returns 2 on I/O error, else 0.
int LintOneTree(const fs::path& repo_root, const std::string& tree,
                std::vector<Violation>* violations, size_t* n_files,
                std::vector<LexedFile>* program) {
  const size_t first = program->size();
  const int rc = LexTree(repo_root, tree, program);
  if (rc != 0) return rc;
  for (size_t fi = first; fi < program->size(); ++fi) {
    const LexedFile& lexed = (*program)[fi];  // Shared by every rule below.
    ++*n_files;
    const size_t before = violations->size();
    for (const Rule& rule : kRules) {
      if (rule.check == nullptr) continue;  // Whole-program rules run later.
      if (tree == "tests" && !rule.include_tests) continue;
      rule.check(lexed, violations);
    }
    for (size_t i = before; i < violations->size(); ++i) {
      (*violations)[i].file = tree + "/" + (*violations)[i].file;
    }
  }
  return 0;
}

/// JSON-escapes for the --format=json emitter (quotes, backslashes, control
/// chars; everything else passes through).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

int LintTree(const fs::path& repo_root, bool json) {
  if (!fs::is_directory(repo_root / "src")) {
    std::fprintf(stderr, "fedfc_lint: %s is not a directory\n",
                 (repo_root / "src").string().c_str());
    return 2;
  }
  std::vector<Violation> violations;
  std::vector<LexedFile> program;
  size_t n_files = 0;
  for (const std::string& tree : {std::string("src"), std::string("tests")}) {
    if (!fs::is_directory(repo_root / tree)) continue;  // tests/ is optional.
    int rc = LintOneTree(repo_root, tree, &violations, &n_files, &program);
    if (rc != 0) return rc;
  }
  // The aux trees are lexed (not per-file linted) so the whole-program rules
  // see every translation unit the build compiles: a header consumed only by
  // a benchmark or an example is reachable, not orphaned.
  for (const std::string& tree :
       {std::string("bench"), std::string("examples"), std::string("tools")}) {
    if (!fs::is_directory(repo_root / tree)) continue;
    int rc = LexTree(repo_root, tree, &program);
    if (rc != 0) return rc;
  }
  // Whole-program rules emit already-prefixed node ids ("src/fl/server.cc").
  for (const Rule& rule : kRules) {
    if (rule.check_program != nullptr) rule.check_program(program, &violations);
  }
  if (json) {
    // One record per violation: {"file","line","rule","detail"}. An empty
    // array means clean — scripts can `jq length`.
    std::printf("[");
    for (size_t i = 0; i < violations.size(); ++i) {
      const Violation& v = violations[i];
      std::printf("%s\n  {\"file\": \"%s\", \"line\": %zu, \"rule\": \"%s\", "
                  "\"detail\": \"%s\"}",
                  i == 0 ? "" : ",", JsonEscape(v.file).c_str(), v.line,
                  JsonEscape(v.rule).c_str(), JsonEscape(v.detail).c_str());
    }
    std::printf("%s]\n", violations.empty() ? "" : "\n");
    return violations.empty() ? 0 : 1;
  }
  if (violations.empty()) {
    std::printf("fedfc_lint: %zu files clean (%zu rules)\n", n_files,
                std::size(kRules));
    return 0;
  }
  for (const Violation& v : violations) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", v.file.c_str(), v.line,
                 v.rule.c_str(), v.detail.c_str());
  }
  std::fprintf(stderr, "fedfc_lint: %zu violation(s) in %zu files\n",
               violations.size(), n_files);
  return 1;
}

// --- Self-tests -----------------------------------------------------------
//
// Each rule gets (a) a seeded violation that must fire and (b) a clean /
// exempt sample that must not, proving both halves of the invariant. The
// cases run through the same Lex() the tree lint uses, so the lexer itself
// is under test here too.

struct SelfTestCase {
  std::string_view rule;
  SourceFile file;
  bool expect_violation;
  std::string_view what;
};

const std::vector<SelfTestCase>& SelfTestCases() {
  static const std::vector<SelfTestCase> cases = {
      // wire_keys
      {"wire_keys",
       {"automl/bad.cc", "void F(fedfc::fl::Payload* p) {\n"
                         "  p->SetDouble(\"loss\", 1.0);\n}\n"},
       true, "literal Payload key outside the codec fires"},
      {"wire_keys",
       {"fl/task_codec.cc", "void F(fedfc::fl::Payload* p) {\n"
                            "  p->SetDouble(\"loss\", 1.0);\n}\n"},
       false, "the codec itself may use literal keys"},
      {"wire_keys",
       {"fl/server.cc", "double G(const Payload& p, const std::string& key) {\n"
                        "  return *p.GetDouble(key);\n}\n"},
       false, "variable keys (aggregation helpers) are allowed"},
      {"wire_keys",
       {"automl/doc.cc", "// call SetDouble(\"loss\", v) via the codec\n"},
       false, "mentions in comments do not fire"},
      // rng
      {"rng",
       {"ts/bad.cc", "#include <cstdlib>\n"
                     "int F() { return std::rand(); }\n"},
       true, "std::rand outside core/rng fires"},
      {"rng",
       {"ml/bad_seed.cc", "uint64_t Seed() { return time(nullptr); }\n"},
       true, "time(nullptr) seeding fires"},
      {"rng",
       {"core/rng.cc", "uint64_t Entropy() { return std::random_device{}(); }\n"},
       false, "core/rng may touch entropy sources"},
      {"rng",
       {"ml/ok.cc", "double F(fedfc::Rng* rng) { return rng->Uniform(0, 1); }\n"},
       false, "seeded fedfc::Rng use is clean"},
      {"rng",
       {"ml/strand.cc", "void F(Strands* s) { s->strand(); }\n"},
       false, "identifiers merely containing 'rand' do not fire"},
      // threads
      {"threads",
       {"automl/bad_thread.cc", "#include <thread>\n"
                                "void F() { std::thread t([] {}); t.join(); }\n"},
       true, "raw std::thread outside the pool fires"},
      {"threads",
       {"fl/bad_async.cc", "#include <future>\n"
                           "auto F() { return std::async([] { return 1; }); }\n"},
       true, "std::async fires"},
      {"threads",
       {"core/thread_pool.cc", "void Spawn() { workers_.emplace_back(std::thread(\n"
                               "    [] {})); }\n"},
       false, "the pool implementation may spawn threads"},
      {"threads",
       {"core/ok.cc",
        "size_t F() { return std::thread::hardware_concurrency(); }\n"},
       false, "hardware_concurrency query is allowed"},
      // guards
      {"guards",
       {"ts/bad_pragma.h", "#pragma once\nint F();\n"},
       true, "#pragma once fires"},
      {"guards",
       {"ts/bad_guard.h", "#ifndef WRONG_NAME_H\n#define WRONG_NAME_H\n"
                          "int F();\n#endif\n"},
       true, "non-canonical guard name fires"},
      {"guards",
       {"ts/missing.h", "int F();\n"},
       true, "missing guard fires"},
      {"guards",
       {"ts/good.h", "#ifndef FEDFC_TS_GOOD_H_\n#define FEDFC_TS_GOOD_H_\n"
                     "int F();\n#endif  // FEDFC_TS_GOOD_H_\n"},
       false, "canonical guard is clean"},
      {"guards",
       {"net/helpers.h",
        "#ifndef FEDFC_TESTS_NET_HELPERS_H_\n"
        "#define FEDFC_TESTS_NET_HELPERS_H_\n"
        "int F();\n#endif  // FEDFC_TESTS_NET_HELPERS_H_\n",
        "tests"},
       false, "tests/ headers use the TESTS_-prefixed canonical guard"},
      {"guards",
       {"net/helpers.h",
        "#ifndef FEDFC_NET_HELPERS_H_\n#define FEDFC_NET_HELPERS_H_\n"
        "int F();\n#endif\n",
        "tests"},
       true, "a tests/ header with the src-style guard fires"},
      // sockets
      {"sockets",
       {"fl/bad_socket.cc", "#include <sys/socket.h>\n"
                            "int F() { return socket(AF_INET, SOCK_STREAM, 0); }\n"},
       true, "raw socket() outside net/socket.cc fires"},
      {"sockets",
       {"automl/bad_send.cc",
        "long F(int fd, const void* p, unsigned long n) {\n"
        "  return send(fd, p, n, 0); }\n"},
       true, "raw send() fires"},
      {"sockets",
       {"bad_connect_test.cc",
        "void F(int fd, const sockaddr* a, unsigned l) { ::connect(fd, a, l); }\n",
        "tests"},
       true, "raw ::connect() in tests/ fires too"},
      {"sockets",
       {"net/socket.cc", "int Open() { return socket(AF_INET, SOCK_STREAM, 0); }\n"},
       false, "net/socket.cc itself may use the syscalls"},
      {"sockets",
       {"net/tcp_transport.cc",
        "Status Reconnect() { return Socket::ConnectTcp(host_, port_, 100)\n"
        "    .status(); }\n"},
       false, "wrapper-API names containing the tokens do not fire"},
      {"sockets",
       {"net/doc.cc", "// the worker calls accept( under the hood\n"},
       false, "mentions in comments do not fire"},
      // result_discard
      {"result_discard",
       {"fl/bad_discard.cc", "void F(Transport* t) {\n"
                             "  (void)t->Shutdown();\n}\n"},
       true, "(void)-cast of a call fires"},
      {"result_discard",
       {"net/bad_chain.cc", "void F(Socket* s) {\n"
                            "  (void)s->SendAll(data, n, 100);\n}\n"},
       true, "(void)-cast of a multi-arg call fires"},
      {"result_discard",
       {"fl/ok_param.cc", "void F(const Payload& request) {\n"
                          "  (void)request;\n}\n"},
       false, "(void)param unused-parameter suppression is clean"},
      {"result_discard",
       {"fl/sig.cc", "int main(void) { return 0; }\n"},
       false, "foo(void) parameter lists are not casts"},
      {"result_discard",
       {"fl/doc.cc", "// never write (void)Foo() without an annotation\n"},
       false, "mentions in comments do not fire"},
      // locks
      {"locks",
       {"fl/bad_mutex.cc", "#include <mutex>\n"
                           "std::mutex g_mu;\n"},
       true, "raw std::mutex (and its include) outside core/sync.h fires"},
      {"locks",
       {"net/bad_raii.cc",
        "void F(std::mutex& m) { std::lock_guard<std::mutex> g(m); }\n"},
       true, "std::lock_guard fires — the analysis cannot see raw holders"},
      {"locks",
       {"automl/bad_cv.cc", "#include <condition_variable>\n"},
       true, "#include <condition_variable> fires"},
      {"locks",
       {"fl/bad_manual.cc", "void F(Handle* h) { h->lock(); }\n"},
       true, "manual ->lock() fires even on non-std handle types"},
      {"locks",
       {"core/thread_pool.cc",
        "void F() { std::unique_lock<std::mutex> l; }\n"},
       true, "the old core/thread_pool exemption is gone"},
      {"locks",
       {"core/sync.h", "#include <mutex>\n"
                       "class Mutex { std::mutex raw_; };\n"},
       false, "core/sync.h is the one home of the std:: vocabulary"},
      {"locks",
       {"fl/ok_wrapper.cc", "void F(fedfc::Mutex& m) {\n"
                            "  fedfc::MutexLock lock(m);\n}\n"},
       false, "the annotated fedfc wrappers are clean"},
      {"locks",
       {"ml/ok_ident.cc", "int mutex = 0; int F() { return mutex; }\n"},
       false, "a bare 'mutex' identifier without std:: does not fire"},
      {"locks",
       {"fl/doc.cc", "// the old code held a std::mutex and called .lock()\n"},
       false, "mentions in comments do not fire"},
      // includes
      {"includes",
       {"fl/bad_parent.cc", "#include \"../core/status.h\"\n"},
       true, "parent-relative ../ include fires"},
      {"includes",
       {"fl/bad_dot.cc", "#include \"./payload.h\"\n"},
       true, "./-relative include fires"},
      {"includes",
       {"fl/bad_impl.cc", "#include \"fl/payload.cc\"\n"},
       true, "#include of a .cc file fires"},
      {"includes",
       {"fl/bad_abs.cc", "#include \"/usr/include/weird.h\"\n"},
       true, "absolute include fires"},
      {"includes",
       {"fl/ok.cc", "#include \"core/status.h\"\n#include <vector>\n"},
       false, "repo-root-relative + system includes are clean"},
      {"includes",
       {"fl/doc.cc", "// historically this was #include \"../core/status.h\"\n"},
       false, "mentions in comments do not fire"},
      // intrinsics
      {"intrinsics",
       {"core/bad_simd.cc", "#include <immintrin.h>\n"
                            "double F(__m256d v) { return _mm256_cvtsd_f64(v); }\n"},
       true, "immintrin.h + _mm* outside the kernel layer fires"},
      {"intrinsics",
       {"ml/nn/bad_sse.cc", "#include <emmintrin.h>\n"},
       true, "any *intrin.h header outside src/ml/kernels/ fires"},
      {"intrinsics",
       {"bad_simd_test.cc",
        "int F() { __m128i v = _mm_setzero_si128(); return 0; }\n", "tests"},
       true, "intrinsics in tests/ fire too"},
      {"intrinsics",
       {"ml/kernels/avx2.cc",
        "#include <immintrin.h>\n"
        "double F(__m256d v) { return _mm256_cvtsd_f64(v); }\n"},
       false, "src/ml/kernels/ is the one tree allowed to use intrinsics"},
      {"intrinsics",
       {"ml/doc.cc", "// the avx2 backend uses _mm256_fmadd_pd here\n"},
       false, "mentions in comments do not fire"},
      {"intrinsics",
       {"ml/ok_ident.cc", "int _member = 0; int F() { return _member; }\n"},
       false, "ordinary underscore identifiers do not fire"},
  };
  return cases;
}

/// Cases exercising the fedfc-allow annotation machinery shared by the
/// result_discard/locks/includes rules (split out for readability only).
const std::vector<SelfTestCase>& AnnotationSelfTestCases() {
  static const std::vector<SelfTestCase> cases = {
      {"result_discard",
       {"net/allowed_above.cc",
        "void F(Socket* s) {\n"
        "  // fedfc-allow(result_discard): best-effort, errno logged below\n"
        "  (void)s->SendAll(data, n, 100);\n}\n"},
       false, "annotation on the preceding line silences the discard"},
      {"result_discard",
       {"net/allowed_same.cc",
        "void F(Socket* s) {\n"
        "  (void)s->Flush();  // fedfc-allow(result_discard): fire-and-forget\n"
        "}\n"},
       false, "annotation on the same line silences the discard"},
      {"result_discard",
       {"net/no_reason.cc",
        "void F(Socket* s) {\n"
        "  // fedfc-allow(result_discard):\n"
        "  (void)s->Flush();\n}\n"},
       true, "an annotation without a reason does not count"},
      {"result_discard",
       {"net/wrong_rule.cc",
        "void F(Socket* s) {\n"
        "  // fedfc-allow(locks): mismatched rule name\n"
        "  (void)s->Flush();\n}\n"},
       true, "an annotation for a different rule does not count"},
      {"includes",
       {"fl/allowed.cc",
        "// fedfc-allow(includes): generated amalgamation, tracked in #123\n"
        "#include \"../generated/tables.h\"\n"},
       false, "fedfc-allow(includes) silences an include violation"},
      {"locks",
       {"fl/allowed_lock.cc",
        "// fedfc-allow(locks): vendor FFI shim hands a native handle across\n"
        "#include <mutex>\n"},
       false, "fedfc-allow(locks) silences a raw-mutex include"},
  };
  return cases;
}

/// Self-test cases for whole-program rules: each case is a miniature tree
/// (several SourceFiles, with their `tree` field set) fed through Lex() and
/// the rule's check_program, expected to fire or stay clean as a whole.
struct ProgramSelfTestCase {
  std::string_view rule;
  std::vector<SourceFile> files;
  bool expect_violation;
  std::string_view what;
};

const std::vector<ProgramSelfTestCase>& ProgramSelfTestCases() {
  static const std::vector<ProgramSelfTestCase> cases = {
      // -- fire: DAG edges --
      {"layering",
       {{"automl/engine.h", "int E();\n"},
        {"net/bad.cc", "#include \"automl/engine.h\"\n"}},
       true, "net including from automl (sibling leaves) fires"},
      {"layering",
       {{"fl/server.h", "int V();\n"},
        {"ts/bad.cc", "#include \"fl/server.h\"\n"}},
       true, "an upward edge (ts -> fl) fires"},
      {"layering",
       {{"core/util.h", "int U();\n"},
        {"experiments/new.cc", "#include \"core/util.h\"\n"}},
       true, "a src/ module missing from the layering map fires"},
      // -- fire: cycles / orphans / tools --
      {"layering",
       {{"fl/a.h", "#include \"fl/b.h\"\n"},
        {"fl/b.h", "#include \"fl/a.h\"\n"},
        {"fl/use.cc", "#include \"fl/a.h\"\n"}},
       true, "an include cycle fires"},
      {"layering",
       {{"fl/used.h", "int U();\n"},
        {"fl/orphan.h", "int O();\n"},
        {"fl/use.cc", "#include \"fl/used.h\"\n"}},
       true, "a src/ header no translation unit reaches is an orphan"},
      {"layering",
       {{"fl/bad_tool.cc", "#include \"tools/fedfc_lint/rules.h\"\n"}},
       true, "including from tools/ fires"},
      // -- fire: serve is a top layer nothing in src/ may include --
      {"layering",
       {{"serve/server.h", "int S();\n"},
        {"fl/bad.cc", "#include \"serve/server.h\"\n"}},
       true, "fl including from serve (an upward edge) fires"},
      {"layering",
       {{"serve/registry.h", "int R();\n"},
        {"net/bad.cc", "#include \"serve/registry.h\"\n"}},
       true, "net including from serve fires — nothing in src/ depends on "
             "serve"},
      {"layering",
       {{"serve/service.h", "int S();\n"},
        {"automl/bad.cc", "#include \"serve/service.h\"\n"}},
       true, "automl including from serve fires (publish lives in automl "
             "precisely to avoid this edge)"},
      // -- clean --
      {"layering",
       {{"automl/model_io.h", "int A();\n"},
        {"net/frame.h", "int F();\n"},
        {"serve/server.h",
         "#include \"automl/model_io.h\"\n#include \"net/frame.h\"\nint "
         "S();\n"},
        {"automl/model_io.cc", "#include \"automl/model_io.h\"\n"},
        {"net/frame.cc", "#include \"net/frame.h\"\n"},
        {"fedfc_serve.cc", "#include \"serve/server.h\"\n", "tools"}},
       false, "serve spanning both siblings (automl + net), reached from "
              "tools/, is clean"},
      {"layering",
       {{"core/util.h", "int U();\n"},
        {"ts/series.h", "#include \"core/util.h\"\nint S();\n"},
        {"data/loader.h", "#include \"ts/series.h\"\nint L();\n"},
        {"ml/model.h", "#include \"data/loader.h\"\nint M();\n"},
        {"features/gen.h", "#include \"ml/model.h\"\nint G();\n"},
        {"fl/server.h", "#include \"features/gen.h\"\nint V();\n"},
        {"net/transport.h", "#include \"fl/server.h\"\nint T();\n"},
        {"automl/engine.h", "#include \"fl/server.h\"\nint E();\n"},
        {"net/transport.cc", "#include \"net/transport.h\"\n"},
        {"automl/engine.cc", "#include \"automl/engine.h\"\n"}},
       false, "the full module chain with every header reached is clean"},
      {"layering",
       {{"core/util.h", "int U();\n"},
        {"core/util.cc", "#include \"core/util.h\"\n"},
        {"net/worker_harness.h", "#include \"core/util.h\"\nint H();\n",
         "tests"},
        {"net/worker_test.cc", "#include \"worker_harness.h\"\n", "tests"}},
       false, "tests resolve same-dir harness headers and are DAG-exempt"},
      {"layering",
       {{"ml/kernels/avx2.h", "int K();\n"},
        {"kernel_bench.cc", "#include \"ml/kernels/avx2.h\"\n", "bench"}},
       false, "a header reached only from bench/ is not an orphan"},
      // -- fuzz_coverage. Clean cases must declare every kFuzzExempts name
      // (currently Decode, FromSpan) in a src/ header: the stale-exemption
      // check fires otherwise, which is itself under test below. --
      {"fuzz_coverage",
       {{"net/frame.h", "int Decode(int);\nint FromSpan(int);\n"
                        "int DecodeFrame(int);\n"},
        {"fuzz/other_fuzz.cc", "int x = Unrelated();\n", "tests"}},
       true, "a src/ header decoder no harness names fires"},
      {"fuzz_coverage",
       {{"fl/payload.h", "int Decode(int);\nint FromSpan(int);\n"
                         "int Deserialize(int);\n"}},
       true, "a decoder with no tests/fuzz tree at all fires"},
      {"fuzz_coverage",
       {{"net/frame.h", "int Decode(int);\nint FromSpan(int);\n"
                        "int DecodeFrame(int);\n"},
        {"fuzz/frame_fuzz.cc", "// DecodeFrame\nint y = 0;\n", "tests"}},
       true, "naming the decoder only in a harness comment does not count"},
      {"fuzz_coverage",
       {{"net/frame.h", "int DecodeFrame(int);\n"},
        {"fuzz/frame_fuzz.cc", "int x = DecodeFrame(1);\n", "tests"}},
       true, "a stale kFuzzExempts entry (exempt name never declared) fires"},
      {"fuzz_coverage",
       {{"net/frame.h", "int Decode(int);\nint FromSpan(int);\n"
                        "int DecodeFrame(int);\n"},
        {"fuzz/frame_fuzz.cc", "int x = DecodeFrame(1);\n", "tests"}},
       false, "a harness naming the decoder as a code token is clean"},
      {"fuzz_coverage",
       {{"automl/search_space.h", "int Decode(int);\nint FromSpan(int);\n"
                                  "int FromTensor(int);\n"},
        {"fuzz/model_artifact_fuzz.cc", "int x = FromTensor(1);\n", "tests"}},
       false, "exempt entry points (Decode, FromSpan) need no harness"},
      {"fuzz_coverage",
       {{"core/checked.h", "int Decode(int);\nint FromSpan(int);\n"
                           "int ParseThing(const char*);\n"},
        {"fuzz/thing_fuzz.cc", "int x = ParseThing(\"\");\n", "tests"},
        {"fuzz/helper.cc", "int NotAHarness();\n", "tests"}},
       false, "only *_fuzz.cc files register coverage; helpers are ignored"},
  };
  return cases;
}

int RunSelfTests(std::string_view only_rule) {
  int failures = 0;
  size_t run = 0;
  std::vector<SelfTestCase> all = SelfTestCases();
  const auto& extra = AnnotationSelfTestCases();
  all.insert(all.end(), extra.begin(), extra.end());
  for (const SelfTestCase& tc : all) {
    if (!only_rule.empty() && tc.rule != only_rule) continue;
    ++run;
    const Rule* rule = nullptr;
    for (const Rule& r : kRules) {
      if (r.name == tc.rule) rule = &r;
    }
    if (rule == nullptr || rule->check == nullptr) {
      std::fprintf(stderr, "self-test: unknown per-file rule %s\n",
                   std::string(tc.rule).c_str());
      return 2;
    }
    std::vector<Violation> found;
    const LexedFile lexed = Lex(tc.file);
    rule->check(lexed, &found);
    const bool fired = !found.empty();
    if (fired != tc.expect_violation) {
      ++failures;
      std::fprintf(stderr, "FAIL [%s] %s (%s): expected %s, got %s\n",
                   std::string(tc.rule).c_str(), tc.file.rel_path.c_str(),
                   std::string(tc.what).c_str(),
                   tc.expect_violation ? "violation" : "clean",
                   fired ? "violation" : "clean");
    } else {
      std::printf("ok   [%s] %s\n", std::string(tc.rule).c_str(),
                  std::string(tc.what).c_str());
    }
  }
  for (const ProgramSelfTestCase& tc : ProgramSelfTestCases()) {
    if (!only_rule.empty() && tc.rule != only_rule) continue;
    ++run;
    const Rule* rule = nullptr;
    for (const Rule& r : kRules) {
      if (r.name == tc.rule) rule = &r;
    }
    if (rule == nullptr || rule->check_program == nullptr) {
      std::fprintf(stderr, "self-test: unknown whole-program rule %s\n",
                   std::string(tc.rule).c_str());
      return 2;
    }
    std::vector<LexedFile> program;
    program.reserve(tc.files.size());
    for (const SourceFile& f : tc.files) program.push_back(Lex(f));
    std::vector<Violation> found;
    rule->check_program(program, &found);
    const bool fired = !found.empty();
    if (fired != tc.expect_violation) {
      ++failures;
      std::fprintf(stderr, "FAIL [%s] %zu-file program (%s): expected %s, "
                   "got %s\n",
                   std::string(tc.rule).c_str(), tc.files.size(),
                   std::string(tc.what).c_str(),
                   tc.expect_violation ? "violation" : "clean",
                   fired ? "violation" : "clean");
      for (const Violation& v : found) {
        std::fprintf(stderr, "  %s:%zu: %s\n", v.file.c_str(), v.line,
                     v.detail.c_str());
      }
    } else {
      std::printf("ok   [%s] %s\n", std::string(tc.rule).c_str(),
                  std::string(tc.what).c_str());
    }
  }
  if (run == 0) {
    std::fprintf(stderr, "self-test: no cases for rule '%s'\n",
                 std::string(only_rule).c_str());
    return 2;
  }
  std::printf("fedfc_lint self-test: %zu case(s), %d failure(s)\n", run,
              failures);
  return failures == 0 ? 0 : 1;
}

int ListRules() {
  for (const Rule& rule : kRules) {
    std::printf("%-15s %-11s %s\n", std::string(rule.name).c_str(),
                rule.check_program != nullptr
                    ? "program"
                    : (rule.include_tests ? "src+tests" : "src-only"),
                std::string(rule.summary).c_str());
  }
  std::printf("%zu rules; per-line escape: // fedfc-allow(<rule>): <reason> "
              "(result_discard, locks, includes only)\n",
              std::size(kRules));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string_view> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "--self-test") {
    return RunSelfTests(args.size() >= 2 ? args[1] : std::string_view());
  }
  if (!args.empty() && args[0] == "--list-rules") {
    return ListRules();
  }
  bool json = false;
  std::string root;
  for (std::string_view arg : args) {
    if (arg == "--format=json") {
      json = true;
    } else if (arg == "--format=text") {
      json = false;
    } else if (!arg.empty() && arg[0] != '-' && root.empty()) {
      root = std::string(arg);
    } else {
      root.clear();
      break;
    }
  }
  if (root.empty()) {
    std::fprintf(stderr,
                 "usage: fedfc_lint [--format=json|text] <repo_root> | "
                 "fedfc_lint --self-test [rule] | fedfc_lint --list-rules\n");
    return 2;
  }
  return LintTree(root, json);
}
