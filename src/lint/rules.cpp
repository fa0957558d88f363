// The lint rule catalog (docs/STATIC_ANALYSIS.md). Each rule is a small
// token-stream scanner; the catalog mirrors the src/check/invariants.hpp
// style: a stable dotted id, a family, and a one-line summary that doubles
// as the SARIF rule description.
#include "lint/rules.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>

#include "common/json.hpp"

namespace mac3d::lint {
namespace {

// ---- Catalog -------------------------------------------------------------

const std::vector<RuleInfo> kCatalog = {
    {"det.activity_oracle", "DET",
     "a header-declared tickable component (void tick(Cycle ...)) must "
     "also declare the wake oracle the event-driven engine calls "
     "(next_event, or Node's next_activity_cycle) and the register_census "
     "the idle census calls (docs/PARALLELISM.md)"},
    {"det.env_access", "DET",
     "environment reads outside the config layer make runs depend on "
     "ambient state; route configuration through SimConfig"},
    {"det.rand_source", "DET",
     "nondeterministic or implementation-defined random sources are "
     "banned in simulation code; use common/rng.hpp (DESIGN.md inv. 9)"},
    {"det.static_mutable_local", "DET",
     "mutable function-local statics carry hidden cross-run state that "
     "survives between simulations sharing a process"},
    {"det.unordered_iteration", "DET",
     "iterating a std::unordered_{map,set} visits hash order, which "
     "breaks the serial/event bit-identity contract "
     "(docs/PARALLELISM.md); iterate a sorted view or use std::map"},
    {"det.wall_clock", "DET",
     "wall-clock time sources in simulation code leak host timing into "
     "results; simulated time comes from the cycle counter"},
    {"obs.metric_name_grammar", "OBS",
     "metric-name string literals in a collect_metrics body must parse "
     "against the namespace grammar in docs/metrics_schema.json"},
    {"obs.stage_taxonomy", "OBS",
     "lifecycle stage-name literals must be members of the 10-stage "
     "taxonomy in src/obs/obs.hpp"},
    {"sync.invariant_ids", "SYNC",
     "every invariant id registered in src/check/invariants.hpp must "
     "appear in docs/INVARIANTS.md and vice versa"},
    {"sync.metrics_schema", "SYNC",
     "docs/metrics_schema.json must exist, parse, and agree with the "
     "metric-namespace table in docs/OBSERVABILITY.md"},
    {"sync.stage_docs", "SYNC",
     "the stage taxonomy in src/obs/obs.hpp and the stage table in "
     "docs/OBSERVABILITY.md must list exactly the same stages"},
};

// ---- Small token helpers -------------------------------------------------

[[nodiscard]] bool is_punct(const Token& token, std::string_view text) {
  return token.kind == Tok::kPunct && token.text == text;
}

[[nodiscard]] bool is_ident(const Token& token, std::string_view text) {
  return token.kind == Tok::kIdent && token.text == text;
}

[[nodiscard]] const Token* at(const std::vector<Token>& tokens,
                              std::size_t i) {
  return i < tokens.size() ? &tokens[i] : nullptr;
}

[[nodiscard]] bool next_is_call(const std::vector<Token>& tokens,
                                std::size_t i) {
  const Token* next = at(tokens, i + 1);
  return next != nullptr && is_punct(*next, "(");
}

[[nodiscard]] bool prev_is_member_access(const std::vector<Token>& tokens,
                                         std::size_t i) {
  if (i == 0) return false;
  const Token& prev = tokens[i - 1];
  return is_punct(prev, ".") || is_punct(prev, "->");
}

/// Index just past the ')' or '}' matching the '(' or '{' at `open` (or
/// tokens.size()).
[[nodiscard]] std::size_t skip_group(const std::vector<Token>& tokens,
                                     std::size_t open) {
  const std::string_view opener = tokens[open].text;
  const std::string_view closer = opener == "(" ? ")" : "}";
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    if (is_punct(tokens[i], opener)) ++depth;
    if (is_punct(tokens[i], closer) && --depth == 0) return i + 1;
  }
  return tokens.size();
}

[[nodiscard]] bool path_starts_with(std::string_view path,
                                    std::string_view prefix) {
  return path.substr(0, prefix.size()) == prefix;
}

[[nodiscard]] std::string lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

void add_finding(std::vector<Finding>& out, std::string_view rule,
                 std::string file, std::uint32_t line, std::uint32_t col,
                 std::string message) {
  out.push_back({std::string(rule), std::move(file), line, col,
                 std::move(message), false});
}

// ---- DET: det.rand_source / det.wall_clock / det.env_access --------------

// Identifier call sites banned outright (libc/std random and wall-clock
// entry points) and type names whose mere mention is a violation.
const std::set<std::string, std::less<>> kRandCalls = {
    "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48", "random"};
const std::set<std::string, std::less<>> kRandTypes = {
    "random_device",       "mt19937",
    "mt19937_64",          "minstd_rand",
    "minstd_rand0",        "default_random_engine",
    "knuth_b",             "uniform_int_distribution",
    "uniform_real_distribution", "normal_distribution",
    "bernoulli_distribution",    "poisson_distribution",
    "exponential_distribution",  "discrete_distribution"};
const std::set<std::string, std::less<>> kClockCalls = {"time", "clock"};
const std::set<std::string, std::less<>> kClockNames = {
    "system_clock",  "steady_clock", "high_resolution_clock",
    "gettimeofday",  "clock_gettime", "timespec_get"};
const std::set<std::string, std::less<>> kEnvCalls = {
    "getenv", "secure_getenv", "setenv", "putenv", "unsetenv"};

void det_banned_idents(const FileTokens& file, std::vector<Finding>& out) {
  const bool rng_impl = file.path == "src/common/rng.hpp";
  const bool config_layer = path_starts_with(file.path, "src/common/config.");
  // host_now_seconds() (docs/OBSERVABILITY.md §profiler) is the one
  // sanctioned wall-clock read: host-time attribution lives in the
  // non-diffed `host` report section and never feeds simulated time.
  const bool host_profiler = file.path == "src/obs/profiler.cpp";
  const auto& tokens = file.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.kind != Tok::kIdent) continue;
    if (prev_is_member_access(tokens, i)) continue;  // member of another type
    const bool call = next_is_call(tokens, i);
    if (!rng_impl) {
      if ((call && kRandCalls.count(token.text) != 0) ||
          kRandTypes.count(token.text) != 0) {
        add_finding(out, "det.rand_source", file.path, token.line, token.col,
                    "banned nondeterministic random source '" + token.text +
                        "'; use the fixed-algorithm generators in "
                        "common/rng.hpp");
        continue;
      }
    }
    if (!host_profiler &&
        ((call && kClockCalls.count(token.text) != 0) ||
         kClockNames.count(token.text) != 0)) {
      add_finding(out, "det.wall_clock", file.path, token.line, token.col,
                  "wall-clock time source '" + token.text +
                      "' in simulation code; simulated time must come from "
                      "the cycle counter");
      continue;
    }
    if (!config_layer && call && kEnvCalls.count(token.text) != 0) {
      add_finding(out, "det.env_access", file.path, token.line, token.col,
                  "environment read '" + token.text +
                      "' outside the config layer; route run configuration "
                      "through SimConfig (src/common/config.*)");
    }
  }
}

// ---- DET: det.unordered_iteration ----------------------------------------

/// Names declared in this file with an unordered container type
/// (declarations and parameters both count).
[[nodiscard]] std::set<std::string, std::less<>> unordered_names(
    const std::vector<Token>& tokens) {
  const std::set<std::string, std::less<>> kContainers = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  std::set<std::string, std::less<>> names;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != Tok::kIdent ||
        kContainers.count(tokens[i].text) == 0) {
      continue;
    }
    std::size_t j = i + 1;
    const Token* open = at(tokens, j);
    if (open == nullptr || !is_punct(*open, "<")) continue;
    int depth = 0;
    for (; j < tokens.size(); ++j) {
      if (is_punct(tokens[j], "<")) ++depth;
      if (is_punct(tokens[j], ">")) --depth;
      if (is_punct(tokens[j], ">>")) depth -= 2;
      if (depth <= 0) break;
    }
    ++j;  // past the closing angle
    while (j < tokens.size() &&
           (is_punct(tokens[j], "&") || is_punct(tokens[j], "*") ||
            is_ident(tokens[j], "const"))) {
      ++j;
    }
    const Token* name = at(tokens, j);
    if (name != nullptr && name->kind == Tok::kIdent) {
      names.insert(name->text);
    }
  }
  return names;
}

void det_unordered_iteration(const FileTokens& file,
                             std::vector<Finding>& out) {
  const auto names = unordered_names(file.tokens);
  if (names.empty()) return;
  const auto& tokens = file.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    // Range-for whose sequence expression mentions an unordered name.
    if (is_ident(tokens[i], "for") && next_is_call(tokens, i)) {
      const std::size_t close = skip_group(tokens, i + 1);
      std::size_t colon = 0;
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (is_punct(tokens[j], "(")) ++depth;
        if (is_punct(tokens[j], ")")) --depth;
        if (depth == 1 && is_punct(tokens[j], ":")) {
          colon = j;
          break;
        }
      }
      if (colon != 0) {
        for (std::size_t j = colon + 1; j + 1 < close; ++j) {
          if (tokens[j].kind == Tok::kIdent &&
              names.count(tokens[j].text) != 0) {
            add_finding(
                out, "det.unordered_iteration", file.path, tokens[i].line,
                tokens[i].col,
                "range-for over unordered container '" + tokens[j].text +
                    "' visits hash order; iterate a sorted view or use "
                    "std::map (serial/event bit-identity contract)");
            break;
          }
        }
      }
    }
    // Explicit iterator walk: name.begin() / name->begin() / cbegin().
    if (tokens[i].kind == Tok::kIdent && names.count(tokens[i].text) != 0 &&
        i + 2 < tokens.size() &&
        (is_punct(tokens[i + 1], ".") || is_punct(tokens[i + 1], "->")) &&
        (is_ident(tokens[i + 2], "begin") ||
         is_ident(tokens[i + 2], "cbegin")) &&
        next_is_call(tokens, i + 2)) {
      add_finding(out, "det.unordered_iteration", file.path, tokens[i].line,
                  tokens[i].col,
                  "iterator walk over unordered container '" +
                      tokens[i].text +
                      "' visits hash order; iterate a sorted view or use "
                      "std::map (serial/event bit-identity contract)");
    }
  }
}

// ---- DET: det.activity_oracle --------------------------------------------

void det_activity_oracle(const FileTokens& file, std::vector<Finding>& out) {
  // Headers only: the contract is about the component's public interface,
  // and implementation files repeat the method names anyway.
  if (file.path.size() < 4 ||
      file.path.compare(file.path.size() - 4, 4, ".hpp") != 0) {
    return;
  }
  const auto& tokens = file.tokens;
  bool has_wake = false;
  bool has_census = false;
  for (const Token& token : tokens) {
    if (token.kind != Tok::kIdent) continue;
    if (token.text == "next_event" || token.text == "next_activity_cycle") {
      has_wake = true;
    }
    if (token.text == "register_census") has_census = true;
  }
  if (has_wake && has_census) return;
  std::string missing;
  if (!has_wake) missing = "a wake oracle (next_event)";
  if (!has_census) {
    if (!missing.empty()) missing += " and ";
    missing += "register_census";
  }
  for (std::size_t i = 0; i + 3 < tokens.size(); ++i) {
    if (is_ident(tokens[i], "void") && is_ident(tokens[i + 1], "tick") &&
        is_punct(tokens[i + 2], "(") && is_ident(tokens[i + 3], "Cycle")) {
      add_finding(out, "det.activity_oracle", file.path, tokens[i + 1].line,
                  tokens[i + 1].col,
                  "tickable component declares tick(Cycle) but not " +
                      missing +
                      "; the event-driven engine wakes it and the idle "
                      "census registers it (docs/PARALLELISM.md)");
    }
  }
}

// ---- DET: det.static_mutable_local ---------------------------------------

enum class ScopeKind : std::uint8_t { kNamespace, kClass, kFunction, kBlock };

void det_static_mutable_local(const FileTokens& file,
                              std::vector<Finding>& out) {
  const auto& tokens = file.tokens;
  std::vector<ScopeKind> scopes;
  std::vector<std::string> recent;  // idents since the last boundary
  const Token* prev = nullptr;

  const auto in_function = [&]() {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (*it == ScopeKind::kFunction) return true;
      if (*it == ScopeKind::kClass || *it == ScopeKind::kNamespace) {
        return false;
      }
    }
    return false;
  };

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (is_punct(token, "{")) {
      ScopeKind kind = ScopeKind::kBlock;
      const bool header_class =
          std::find_if(recent.begin(), recent.end(), [](const auto& t) {
            return t == "class" || t == "struct" || t == "union" ||
                   t == "enum";
          }) != recent.end();
      const bool header_ns =
          std::find(recent.begin(), recent.end(), "namespace") !=
          recent.end();
      if (header_ns) {
        kind = ScopeKind::kNamespace;
      } else if (header_class) {
        kind = ScopeKind::kClass;
      } else if (prev != nullptr &&
                 (is_punct(*prev, ")") || is_punct(*prev, "]") ||
                  is_ident(*prev, "else") || is_ident(*prev, "do") ||
                  is_ident(*prev, "try") || is_ident(*prev, "const") ||
                  is_ident(*prev, "noexcept") ||
                  is_ident(*prev, "override") || is_ident(*prev, "final") ||
                  is_ident(*prev, "mutable"))) {
        kind = ScopeKind::kFunction;
      }
      scopes.push_back(kind);
      recent.clear();
    } else if (is_punct(token, "}")) {
      if (!scopes.empty()) scopes.pop_back();
      recent.clear();
    } else if (is_punct(token, ";")) {
      recent.clear();
    } else if (token.kind == Tok::kIdent) {
      recent.push_back(token.text);
    }

    if (is_ident(token, "static") && in_function()) {
      bool immutable = false;
      for (std::size_t j = i + 1; j < tokens.size(); ++j) {
        if (is_punct(tokens[j], ";") || is_punct(tokens[j], "=") ||
            is_punct(tokens[j], "{") || is_punct(tokens[j], "(")) {
          break;
        }
        if (is_ident(tokens[j], "const") ||
            is_ident(tokens[j], "constexpr")) {
          immutable = true;
          break;
        }
      }
      if (!immutable) {
        add_finding(out, "det.static_mutable_local", file.path, token.line,
                    token.col,
                    "mutable function-local static carries hidden "
                    "cross-run state; hoist it into the component or make "
                    "it constexpr");
      }
    }
    prev = &token;
  }
}

// ---- OBS: obs.metric_name_grammar ----------------------------------------

/// Whether the metric-name literal `literal` parses against `patterns`:
/// a concatenation tail (`name + ".routed"`) must end some concrete
/// pattern, a concatenation head (`"node" + id`) must begin one, and any
/// other literal must match one whole.
[[nodiscard]] bool metric_literal_ok(const std::vector<std::string>& patterns,
                                     const std::string& literal, bool head) {
  for (const std::string& pattern : patterns) {
    if (literal.front() == '.') {
      if (pattern.size() >= literal.size() &&
          pattern.compare(pattern.size() - literal.size(), literal.size(),
                          literal) == 0) {
        return true;
      }
    } else if (head ? path_starts_with(pattern, literal)
                    : pattern_match(pattern, literal)) {
      return true;
    }
  }
  return false;
}

void obs_metric_name_grammar(const RepoModel& model, const FileTokens& file,
                             std::vector<Finding>& out) {
  if (!model.schema.valid) return;  // sync.metrics_schema reports instead
  const std::vector<std::string> patterns = model.schema.patterns();
  const auto& tokens = file.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    // A collect_metrics definition: the name, its parameters, any
    // qualifiers (const, noexcept), then the body.
    if (!is_ident(tokens[i], "collect_metrics") || !next_is_call(tokens, i)) {
      continue;
    }
    std::size_t open = skip_group(tokens, i + 1);
    while (open < tokens.size() && tokens[open].kind == Tok::kIdent) ++open;
    if (open >= tokens.size() || !is_punct(tokens[open], "{")) continue;
    const std::size_t close = skip_group(tokens, open);
    for (std::size_t j = open + 1; j < close; ++j) {
      if (tokens[j].kind != Tok::kString || tokens[j].text.empty()) {
        continue;
      }
      const std::string& literal = tokens[j].text;
      const Token* next = at(tokens, j + 1);
      const bool head = next != nullptr && is_punct(*next, "+");
      if (!metric_literal_ok(patterns, literal, head)) {
        add_finding(out, "obs.metric_name_grammar", file.path,
                    tokens[j].line, tokens[j].col,
                    "metric name '" + literal +
                        "' does not parse against the namespace grammar in "
                        "docs/metrics_schema.json");
      }
    }
  }
}

// ---- OBS: obs.stage_taxonomy ---------------------------------------------

void obs_stage_taxonomy(const RepoModel& model, const FileTokens& file,
                        std::vector<Finding>& out) {
  if (model.stage_names.empty()) return;  // sync.stage_docs reports instead
  const std::set<std::string, std::less<>> canonical(
      model.stage_names.begin(), model.stage_names.end());
  const auto& tokens = file.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.kind != Tok::kIdent || !next_is_call(tokens, i)) continue;
    if (lower(token.text).find("stage") == std::string::npos) continue;
    const std::size_t close = skip_group(tokens, i + 1);
    for (std::size_t j = i + 2; j < close; ++j) {
      if (tokens[j].kind != Tok::kString) continue;
      if (canonical.count(tokens[j].text) == 0) {
        add_finding(out, "obs.stage_taxonomy", file.path, tokens[j].line,
                    tokens[j].col,
                    "stage name '" + tokens[j].text +
                        "' is not a member of the 10-stage lifecycle "
                        "taxonomy (src/obs/obs.hpp)");
      }
    }
  }
}

// ---- Markdown helpers (SYNC rules) ---------------------------------------

struct DocLine {
  std::size_t number = 0;  ///< 1-based
  std::string text;
};

[[nodiscard]] std::vector<DocLine> doc_lines(const std::string& text) {
  std::vector<DocLine> lines;
  std::size_t number = 1;
  std::string current;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back({number++, current});
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) lines.push_back({number, current});
  return lines;
}

/// First backticked span of a markdown table row ("" when not a row).
[[nodiscard]] std::string table_row_first_cell(const std::string& line) {
  std::size_t i = line.find_first_not_of(" \t");
  if (i == std::string::npos || line[i] != '|') return "";
  const std::size_t tick = line.find('`', i);
  if (tick == std::string::npos) return "";
  const std::size_t end = line.find('`', tick + 1);
  if (end == std::string::npos) return "";
  return line.substr(tick + 1, end - tick - 1);
}

/// Lines of the section whose heading contains `keyword` (case-fold),
/// up to the next heading of the same-or-higher level.
[[nodiscard]] std::vector<DocLine> doc_section(
    const std::vector<DocLine>& lines, std::string_view keyword) {
  const std::string needle = lower(keyword);
  std::size_t level = 0;
  std::vector<DocLine> section;
  bool active = false;
  for (const DocLine& line : lines) {
    std::size_t hashes = 0;
    while (hashes < line.text.size() && line.text[hashes] == '#') ++hashes;
    const bool heading = hashes > 0 && hashes < line.text.size() &&
                         line.text[hashes] == ' ';
    if (heading && active && hashes <= level) break;
    if (heading && lower(line.text).find(needle) != std::string::npos) {
      active = true;
      level = hashes;
      continue;
    }
    if (active) section.push_back(line);
  }
  return section;
}

[[nodiscard]] bool looks_like_invariant_id(const std::string& text) {
  if (text.find('.') == std::string::npos) return false;
  return std::all_of(text.begin(), text.end(), [](unsigned char c) {
    return std::islower(c) != 0 || std::isdigit(c) != 0 || c == '_' ||
           c == '.';
  });
}

// ---- SYNC: sync.invariant_ids --------------------------------------------

void sync_invariant_ids(const RepoModel& model, std::vector<Finding>& out) {
  const std::string header_path = "src/check/invariants.hpp";
  const std::string doc_path = "docs/INVARIANTS.md";
  if (!model.inv_header_present) {
    add_finding(out, "sync.invariant_ids", header_path, 0, 0,
                "src/check/invariants.hpp not found; the invariant catalog "
                "cannot be reconciled with docs/INVARIANTS.md");
    return;
  }
  if (!model.inv_doc_present) {
    add_finding(out, "sync.invariant_ids", doc_path, 0, 0,
                "docs/INVARIANTS.md not found; the invariant catalog "
                "cannot be reconciled with src/check/invariants.hpp");
    return;
  }

  // Registered ids: `Invariant kName{ "dotted.id", ... }`.
  std::map<std::string, std::uint32_t> registered;  // id -> line
  const auto& tokens = model.inv_header;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (!is_ident(tokens[i], "Invariant")) continue;
    for (std::size_t j = i + 1; j < tokens.size() && j < i + 4; ++j) {
      if (is_punct(tokens[j], "{")) {
        const Token* id = at(tokens, j + 1);
        if (id != nullptr && id->kind == Tok::kString) {
          registered.emplace(id->text, id->line);
        }
        break;
      }
    }
  }

  // Documented ids: table rows whose first cell is a backticked dotted id.
  std::map<std::string, std::size_t> documented;  // id -> doc line
  for (const DocLine& line : doc_lines(model.inv_doc)) {
    const std::string cell = table_row_first_cell(line.text);
    if (looks_like_invariant_id(cell)) {
      documented.emplace(cell, line.number);
    }
  }

  for (const auto& [id, line] : registered) {
    if (documented.count(id) == 0) {
      add_finding(out, "sync.invariant_ids", header_path, line, 0,
                  "invariant id '" + id +
                      "' is registered in src/check/invariants.hpp but has "
                      "no row in docs/INVARIANTS.md");
    }
  }
  for (const auto& [id, line] : documented) {
    if (registered.count(id) == 0) {
      add_finding(out, "sync.invariant_ids", doc_path,
                  static_cast<std::uint32_t>(line), 0,
                  "invariant id '" + id +
                      "' is documented in docs/INVARIANTS.md but not "
                      "registered in src/check/invariants.hpp");
    }
  }
}

// ---- SYNC: sync.stage_docs -----------------------------------------------

void sync_stage_docs(const RepoModel& model, std::vector<Finding>& out) {
  const std::string header_path = "src/obs/obs.hpp";
  const std::string doc_path = "docs/OBSERVABILITY.md";
  if (model.stage_names.empty()) {
    add_finding(out, "sync.stage_docs", header_path, 0, 0,
                "could not parse the stage taxonomy out of "
                "src/obs/obs.hpp (to_string(Stage) case arms)");
    return;
  }
  if (model.stage_count >= 0 &&
      model.stage_count != static_cast<long>(model.stage_names.size())) {
    std::ostringstream message;
    message << "kStageCount is " << model.stage_count << " but "
            << model.stage_names.size()
            << " stage names are defined in to_string(Stage)";
    add_finding(out, "sync.stage_docs", header_path, 0, 0, message.str());
  }
  if (!model.obs_doc_present) {
    add_finding(out, "sync.stage_docs", doc_path, 0, 0,
                "docs/OBSERVABILITY.md not found; the stage taxonomy "
                "cannot be reconciled");
    return;
  }

  const std::set<std::string, std::less<>> code(model.stage_names.begin(),
                                                model.stage_names.end());
  std::map<std::string, std::size_t> documented;
  const auto lines = doc_lines(model.obs_doc);
  for (const DocLine& line : doc_section(lines, "stage taxonomy")) {
    const std::string cell = table_row_first_cell(line.text);
    if (cell.empty() || cell.find('.') != std::string::npos) continue;
    if (std::all_of(cell.begin(), cell.end(), [](unsigned char c) {
          return std::islower(c) != 0 || c == '_';
        })) {
      documented.emplace(cell, line.number);
    }
  }

  for (const std::string& name : model.stage_names) {
    if (documented.count(name) == 0) {
      add_finding(out, "sync.stage_docs", doc_path, 0, 0,
                  "stage '" + name +
                      "' exists in src/obs/obs.hpp but has no row in the "
                      "docs/OBSERVABILITY.md stage-taxonomy table");
    }
  }
  for (const auto& [name, line] : documented) {
    if (code.count(name) == 0) {
      add_finding(out, "sync.stage_docs", doc_path,
                  static_cast<std::uint32_t>(line), 0,
                  "stage '" + name +
                      "' is documented in docs/OBSERVABILITY.md but is not "
                      "a member of the taxonomy in src/obs/obs.hpp");
    }
  }
}

// ---- SYNC: sync.metrics_schema -------------------------------------------

void sync_metrics_schema(const RepoModel& model, std::vector<Finding>& out) {
  const std::string schema_path = "docs/metrics_schema.json";
  if (!model.schema.present) {
    add_finding(out, "sync.metrics_schema", schema_path, 0, 0,
                "docs/metrics_schema.json not found; the metric-name "
                "grammar cannot be enforced");
    return;
  }
  if (!model.schema.valid) {
    add_finding(out, "sync.metrics_schema", schema_path, 0, 0,
                "docs/metrics_schema.json is invalid: " +
                    model.schema.error);
    return;
  }
  if (!model.obs_doc_present) {
    add_finding(out, "sync.metrics_schema", "docs/OBSERVABILITY.md", 0, 0,
                "docs/OBSERVABILITY.md not found; the metric namespaces "
                "cannot be reconciled with docs/metrics_schema.json");
    return;
  }

  const auto lines = doc_lines(model.obs_doc);
  std::map<std::string, std::size_t> doc_namespaces;
  for (const DocLine& line : doc_section(lines, "metric namespaces")) {
    const std::string cell = table_row_first_cell(line.text);
    if (!cell.empty()) doc_namespaces.emplace(cell, line.number);
  }

  std::set<std::string, std::less<>> schema_docs;
  for (const MetricsSchema::Family& family : model.schema.families) {
    schema_docs.insert(family.doc);
    if (doc_namespaces.count(family.doc) == 0) {
      add_finding(out, "sync.metrics_schema", schema_path, 0, 0,
                  "schema family '" + family.doc +
                      "' has no row in the docs/OBSERVABILITY.md "
                      "metric-namespaces table");
    }
  }
  for (const auto& [doc, line] : doc_namespaces) {
    if (schema_docs.count(doc) == 0) {
      add_finding(out, "sync.metrics_schema", "docs/OBSERVABILITY.md",
                  static_cast<std::uint32_t>(line), 0,
                  "metric namespace '" + doc +
                      "' is documented but has no family in "
                      "docs/metrics_schema.json");
    }
  }
}

}  // namespace

// ---- Public helpers ------------------------------------------------------

const std::vector<RuleInfo>& rule_catalog() { return kCatalog; }

const RuleInfo* find_rule(std::string_view id) {
  for (const RuleInfo& rule : kCatalog) {
    if (rule.id == id) return &rule;
  }
  return nullptr;
}

bool pattern_match(std::string_view pattern, std::string_view name) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < pattern.size()) {
    if (pattern[i] == '<') {
      // A run of adjacent placeholders (`link<S><D>`) shares one greedy
      // digit span; each placeholder still demands at least one digit.
      std::size_t needed = 0;
      while (i < pattern.size() && pattern[i] == '<') {
        while (i < pattern.size() && pattern[i] != '>') ++i;
        if (i < pattern.size()) ++i;  // past '>'
        ++needed;
      }
      std::size_t digits = 0;
      while (j < name.size() &&
             std::isdigit(static_cast<unsigned char>(name[j])) != 0) {
        ++j;
        ++digits;
      }
      if (digits < needed) return false;
      continue;
    }
    if (j >= name.size() || pattern[i] != name[j]) return false;
    ++i;
    ++j;
  }
  return j == name.size();
}

std::vector<std::string> MetricsSchema::patterns() const {
  std::vector<std::string> out;
  for (const Family& family : families) {
    if (family.names.empty()) {
      out.push_back(family.prefix);
      continue;
    }
    for (const std::string& name : family.names) {
      out.push_back(family.prefix + "." + name);
    }
  }
  return out;
}

std::vector<std::string> taxonomy_from_obs_header(
    const std::vector<Token>& tokens) {
  // `case Stage::kX: return "name";` — collect the literals in order.
  std::vector<std::string> names;
  for (std::size_t i = 0; i + 5 < tokens.size(); ++i) {
    if (is_ident(tokens[i], "Stage") && is_punct(tokens[i + 1], "::") &&
        tokens[i + 2].kind == Tok::kIdent &&
        is_punct(tokens[i + 3], ":") && is_ident(tokens[i + 4], "return") &&
        tokens[i + 5].kind == Tok::kString) {
      names.push_back(tokens[i + 5].text);
    }
  }
  return names;
}

long count_from_obs_header(const std::vector<Token>& tokens) {
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (is_ident(tokens[i], "kStageCount") && is_punct(tokens[i + 1], "=") &&
        tokens[i + 2].kind == Tok::kNumber) {
      return std::strtol(tokens[i + 2].text.c_str(), nullptr, 10);
    }
  }
  return -1;
}

MetricsSchema parse_metrics_schema(const std::string& text, bool present) {
  MetricsSchema schema;
  schema.present = present;
  if (!present) return schema;
  JsonValue doc;
  std::string error;
  if (!parse_json(text, doc, error)) {
    schema.error = error;
    return schema;
  }
  if (doc.string_or("schema") != "mac3d-metrics-schema/1") {
    schema.error = "unrecognized schema tag '" + doc.string_or("schema") +
                   "' (want mac3d-metrics-schema/1)";
    return schema;
  }
  const JsonValue* families = doc.find("families");
  if (families == nullptr ||
      families->kind != JsonValue::Kind::kArray ||
      families->items.empty()) {
    schema.error = "missing or empty 'families' array";
    return schema;
  }
  for (const JsonValue& entry : families->items) {
    MetricsSchema::Family family;
    family.doc = entry.string_or("doc");
    family.prefix = entry.string_or("prefix");
    if (family.doc.empty() || family.prefix.empty()) {
      schema.error = "family entries need nonempty 'doc' and 'prefix'";
      return schema;
    }
    const JsonValue* names = entry.find("names");
    if (names != nullptr && names->kind == JsonValue::Kind::kArray) {
      for (const JsonValue& name : names->items) {
        if (name.kind == JsonValue::Kind::kString) {
          family.names.push_back(name.string);
        }
      }
    }
    schema.families.push_back(std::move(family));
  }
  schema.valid = true;
  return schema;
}

void run_file_rules(const RepoModel& model, const FileTokens& file,
                    std::vector<Finding>& out) {
  const bool sim_code = path_starts_with(file.path, "src/");
  if (sim_code) {
    det_banned_idents(file, out);
    det_unordered_iteration(file, out);
    det_static_mutable_local(file, out);
    det_activity_oracle(file, out);
  }
  // Grammar/taxonomy rules also cover the CLI, which registers metrics
  // and renders stage names; the obs subsystem itself is exempt (it
  // defines both vocabularies).
  if (!path_starts_with(file.path, "src/obs/")) {
    obs_metric_name_grammar(model, file, out);
    obs_stage_taxonomy(model, file, out);
  }
}

void run_repo_rules(const RepoModel& model, std::vector<Finding>& out) {
  sync_invariant_ids(model, out);
  sync_stage_docs(model, out);
  sync_metrics_schema(model, out);
}

}  // namespace mac3d::lint
