// sac_lint: command-line front end of the static analyzer (src/analysis/).
//
// Input files hold binding directives followed by one query expression:
//
//   # comments are fine anywhere (the lexer skips them)
//   % matrix A 256 192        # rows cols [block], default block 64
//   % matrix B 192 128
//   % vector x 256            # size [block]
//   % coo    S 256 256        # rows cols
//   % scalar n 256
//   tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
//               kk == k, let v = a*b, group by (i,j) ]
//
// Directive lines are blanked (not removed) before parsing, so every
// diagnostic's line:col agrees with the file as written. Queries are
// analyzed only -- no engine operator ever runs, so declared arrays need
// no data.
//
// Exit status: 0 clean, 1 diagnostics reported (errors, or warnings under
// --Werror), 2 usage/input problems.
//
// Flags:
//   --Werror         treat warnings as errors for the exit status
//   --explain        also print the chosen strategy and symbolic plan
//   --cost           also print the cost-model table (docs/COST_MODEL.md)
//   --format=sarif   emit one SARIF 2.1.0 log on stdout instead of text
//   --json=PATH      also write {"analysis_version":1,"files":[...]} with
//                    one machine-readable analysis object per input file
//   --calibrate      treat FILE args as BENCH_*.json reports and fit the
//                    cost-model constants to their measured counters
//   --list-rules     print the lint-rule catalog and exit

#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/analysis.h"
#include "src/analysis/cost.h"
#include "src/analysis/lint.h"
#include "src/common/json.h"
#include "src/common/trace.h"
#include "src/planner/plan.h"
#include "src/runtime/value.h"
#include "src/storage/tiled.h"

namespace {

using sac::analysis::AnalysisReport;
using sac::analysis::Diagnostic;
using sac::planner::Binding;
using sac::planner::Bindings;

struct ParsedFile {
  Bindings binds;
  std::string query;  // directive lines blanked, positions preserved
};

/// Parses one `% kind name args...` directive. Returns false (with a
/// message on stderr) on malformed input.
bool ParseDirective(const std::string& line, int lineno,
                    const std::string& file, Bindings* binds) {
  std::istringstream in(line);
  std::string percent, kind, name;
  in >> percent >> kind >> name;
  auto fail = [&](const std::string& why) {
    std::cerr << file << ":" << lineno << ": bad directive: " << why << "\n";
    return false;
  };
  if (name.empty()) return fail("expected '% <kind> <name> ...'");
  if (kind == "matrix" || kind == "coo") {
    int64_t rows = -1, cols = -1, block = 64;
    in >> rows >> cols;
    if (rows <= 0 || cols <= 0) return fail("expected '" + kind + " NAME ROWS COLS [BLOCK]'");
    in >> block;  // optional; keeps 64 on failure
    if (block <= 0) return fail("block must be positive");
    if (kind == "matrix") {
      binds->emplace(name, Binding::Tiled(sac::storage::TiledMatrix{
                               rows, cols, block, nullptr}));
    } else {
      binds->emplace(name,
                     Binding::Coo(sac::storage::CooMatrix{rows, cols, nullptr}));
    }
    return true;
  }
  if (kind == "vector") {
    int64_t size = -1, block = 64;
    in >> size;
    if (size <= 0) return fail("expected 'vector NAME SIZE [BLOCK]'");
    in >> block;
    if (block <= 0) return fail("block must be positive");
    binds->emplace(name, Binding::Vector(sac::storage::BlockVector{
                             size, block, nullptr}));
    return true;
  }
  if (kind == "scalar") {
    std::string value;
    in >> value;
    if (value.empty()) return fail("expected 'scalar NAME VALUE'");
    try {
      if (value.find_first_of(".eE") == std::string::npos) {
        binds->emplace(name, Binding::Scalar(sac::runtime::Value::Int(
                                 std::stoll(value))));
      } else {
        binds->emplace(name, Binding::Scalar(sac::runtime::Value::Double(
                                 std::stod(value))));
      }
    } catch (const std::exception&) {
      return fail("'" + value + "' is not a number");
    }
    return true;
  }
  return fail("unknown binding kind '" + kind +
              "' (matrix, vector, coo, scalar)");
}

bool LoadFile(const std::string& path, ParsedFile* out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << path << ": cannot open\n";
    return false;
  }
  std::string line;
  int lineno = 0;
  bool ok = true;
  while (std::getline(in, line)) {
    ++lineno;
    // Tolerate leading whitespace before '%'.
    const size_t first = line.find_first_not_of(" \t");
    if (first != std::string::npos && line[first] == '%') {
      ok = ParseDirective(line.substr(first), lineno, path, &out->binds) && ok;
      out->query += "\n";  // keep line numbers aligned with the file
      continue;
    }
    out->query += line;
    out->query += "\n";
  }
  return ok;
}

// ---------------------------------------------------------------------------
// SARIF 2.1.0 output
// ---------------------------------------------------------------------------

const char* SarifLevel(Diagnostic::Severity s) {
  switch (s) {
    case Diagnostic::Severity::kError: return "error";
    case Diagnostic::Severity::kWarning: return "warning";
    case Diagnostic::Severity::kNote: return "note";
  }
  return "note";
}

/// One finding bound to the file it came from.
struct FileDiagnostic {
  std::string file;
  Diagnostic diag;
};

/// Renders one SARIF 2.1.0 log covering every analyzed file: the tool's
/// rule catalog (checker error codes + registered lint rules), then one
/// result per diagnostic with its physical location and -- for the
/// quantified rules -- an `estimatedBytes` property.
std::string RenderSarif(const std::vector<FileDiagnostic>& findings) {
  using sac::trace::JsonEscape;
  std::ostringstream os;
  os.precision(15);
  os << "{\"$schema\":"
        "\"https://json.schemastore.org/sarif-2.1.0.json\","
        "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
        "\"name\":\"sac_lint\",\"rules\":[";
  bool first = true;
  auto rule = [&](const std::string& id, const std::string& text) {
    if (!first) os << ",";
    first = false;
    os << "{\"id\":\"" << JsonEscape(id)
       << "\",\"shortDescription\":{\"text\":\"" << JsonEscape(text)
       << "\"}}";
  };
  rule("SAC-E000", "syntax error");
  rule("SAC-E001", "unbound variable");
  rule("SAC-E002", "generator iterates over a scalar");
  rule("SAC-E003", "index arity mismatch");
  rule("SAC-E004", "dimension conformance (inner-dimension mismatch)");
  rule("SAC-E005", "scalar/tile confusion");
  rule("SAC-E006", "no translation strategy applies");
  rule("SAC-E007", "plan invariant violated (planner bug guard)");
  for (const sac::analysis::LintRule* r : sac::analysis::LintRules()) {
    rule(r->code(), r->summary());
  }
  os << "]}},\"results\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Diagnostic& d = findings[i].diag;
    if (i > 0) os << ",";
    os << "{\"ruleId\":\"" << JsonEscape(d.code) << "\",\"level\":\""
       << SarifLevel(d.severity) << "\",\"message\":{\"text\":\""
       << JsonEscape(d.message) << "\"},\"locations\":[{"
       << "\"physicalLocation\":{\"artifactLocation\":{\"uri\":\""
       << JsonEscape(findings[i].file) << "\"}";
    if (d.span.IsSet()) {
      os << ",\"region\":{\"startLine\":" << d.span.begin.line
         << ",\"startColumn\":" << d.span.begin.col << "}";
    }
    os << "}}]";
    if (d.estimated_bytes > 0) {
      os << ",\"properties\":{\"estimatedBytes\":" << d.estimated_bytes
         << "}";
    }
    os << "}";
  }
  os << "]}]}\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// --calibrate: fit the cost-model constants to committed BENCH reports
// ---------------------------------------------------------------------------

/// One bench stage turned into a regression observation of
///   wall_ms = cross/1e6 * a + local/1e6 * b + tasks/1e3 * c + flops/1e6 * d.
struct Observation {
  double features[4] = {0, 0, 0, 0};
  double time_ms = 0;
  std::string label;
};

/// Extracts the observations the model is calibrated on: every stage of
/// the SAC series of fig4a (elementwise addition) and the SAC / SAC GBJ
/// series of fig4b (dense multiply). MLlib rows model a different kernel
/// baseline and fig4c mixes whole-iteration loops; both excluded. One
/// observation per stage keeps shuffle stages (bytes) and compute stages
/// (flops) apart, which whole-row totals -- where bytes and flops both
/// grow with n^3 -- cannot.
bool CollectObservations(const std::string& path,
                         std::vector<Observation>* out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << path << ": cannot open\n";
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  sac::json::Value root;
  sac::Status st = sac::json::Parse(buf.str(), &root);
  if (!st.ok()) {
    std::cerr << path << ": " << st.ToString() << "\n";
    return false;
  }
  for (const sac::json::Value& row : root.At("rows").array) {
    const std::string figure = row.GetStr("figure");
    const std::string series = row.GetStr("series");
    if (!(figure == "fig4a" && series == "SAC") &&
        !(figure == "fig4b" && (series == "SAC" || series == "SAC GBJ"))) {
      continue;
    }
    for (const sac::json::Value& stage : row.At("stages").array) {
      const double wall_ms = stage.GetNum("wall_ms");
      if (wall_ms <= 0) continue;
      Observation ob;
      // shuffle_bytes counts the cross-executor bytes only; executor-
      // local bytes are metered separately.
      ob.features[0] = stage.GetNum("cross_executor_bytes") / 1e6;
      ob.features[1] = stage.GetNum("local_shuffle_bytes") / 1e6;
      ob.features[2] = stage.GetNum("tasks_run") / 1e3;
      ob.features[3] = (stage.GetNum("flops_generic") +
                        stage.GetNum("flops_packed") +
                        stage.GetNum("flops_jvmlike")) /
                       1e6;
      ob.time_ms = wall_ms;
      ob.label = figure + "/" + series + " n=" +
                 std::to_string(row.GetInt("n")) + " " +
                 stage.GetStr("label");
      out->push_back(ob);
    }
  }
  return true;
}

/// Non-negative least squares on the 4x4 normal equations via projected
/// coordinate descent: each pass minimizes over one coefficient with the
/// others held fixed, clamped at zero. Plain OLS turns the near-collinear
/// byte columns (cross is a fixed fraction of total within one figure)
/// into negative ns/byte rates; the non-negativity constraint is what
/// keeps the fitted constants physically meaningful. Returns false when a
/// feature column is entirely absent from the observations.
bool FitConstants(const std::vector<Observation>& obs, double coef[4]) {
  double ata[4][4] = {};
  double atb[4] = {};
  for (const Observation& ob : obs) {
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        ata[i][j] += ob.features[i] * ob.features[j];
      }
      atb[i] += ob.features[i] * ob.time_ms;
    }
  }
  for (int i = 0; i < 4; ++i) {
    if (ata[i][i] < 1e-12) return false;
    coef[i] = 0;
  }
  for (int pass = 0; pass < 500; ++pass) {
    double delta = 0;
    for (int i = 0; i < 4; ++i) {
      double num = atb[i];
      for (int j = 0; j < 4; ++j) {
        if (j != i) num -= ata[i][j] * coef[j];
      }
      const double next = std::max(0.0, num / ata[i][i]);
      delta = std::max(delta, std::fabs(next - coef[i]));
      coef[i] = next;
    }
    if (delta < 1e-9) break;
  }
  return true;
}

int RunCalibrate(const std::vector<std::string>& files) {
  std::vector<Observation> obs;
  for (const std::string& f : files) {
    if (!CollectObservations(f, &obs)) return 2;
  }
  if (obs.size() < 4) {
    std::cerr << "calibrate: only " << obs.size()
              << " usable stages (need >= 4); pass BENCH_fig4a/BENCH_fig4b "
                 "reports\n";
    return 2;
  }
  double coef[4];
  if (!FitConstants(obs, coef)) {
    std::cerr << "calibrate: singular system; rows are not independent\n";
    return 2;
  }
  const sac::analysis::CostModel shipped;
  std::cout << "calibration over " << obs.size() << " stages:\n";
  std::cout.precision(3);
  std::cout << std::fixed;
  std::cout << "  ns_per_cross_byte = " << coef[0] << "   (shipped "
            << shipped.ns_per_cross_byte << ")\n"
            << "  ns_per_local_byte = " << coef[1] << "   (shipped "
            << shipped.ns_per_local_byte << ")\n"
            << "  us_per_task       = " << coef[2] << "   (shipped "
            << shipped.us_per_task << ")\n"
            << "  ns_per_flop_packed = " << coef[3] << "   (shipped "
            << shipped.ns_per_flop_packed
            << "; the benches run the default packed backend)\n";
  double abs_err = 0;
  double abs_y = 0;
  for (const Observation& ob : obs) {
    double pred = 0;
    for (int i = 0; i < 4; ++i) pred += coef[i] * ob.features[i];
    abs_err += std::fabs(pred - ob.time_ms);
    abs_y += std::fabs(ob.time_ms);
  }
  std::cout << "  fit: mean |err| = " << abs_err / obs.size() << " ms ("
            << (abs_y > 0 ? 100.0 * abs_err / abs_y : 0)
            << "% of measured)\n";
  return 0;
}

void PrintRuleCatalog() {
  std::cout << "comprehension checks (errors):\n"
            << "  SAC-E000  syntax error\n"
            << "  SAC-E001  unbound variable\n"
            << "  SAC-E002  generator iterates over a scalar\n"
            << "  SAC-E003  index arity mismatch\n"
            << "  SAC-E004  dimension conformance (inner-dimension mismatch)\n"
            << "  SAC-E005  scalar/tile confusion\n"
            << "  SAC-E006  no translation strategy applies\n"
            << "  SAC-E007  plan invariant violated (planner bug guard)\n"
            << "plan lints (warnings):\n";
  for (const sac::analysis::LintRule* rule : sac::analysis::LintRules()) {
    std::cout << "  " << rule->code() << "   " << rule->summary() << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool werror = false;
  bool explain = false;
  bool cost = false;
  bool sarif = false;
  bool calibrate = false;
  std::string json_path;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--Werror") == 0) {
      werror = true;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      explain = true;
    } else if (std::strcmp(argv[i], "--cost") == 0) {
      cost = true;
    } else if (std::strcmp(argv[i], "--calibrate") == 0) {
      calibrate = true;
    } else if (std::strcmp(argv[i], "--format=sarif") == 0) {
      sarif = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--list-rules") == 0) {
      PrintRuleCatalog();
      return 0;
    } else if (argv[i][0] == '-') {
      std::cerr << "unknown flag '" << argv[i] << "'\n";
      return 2;
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.empty()) {
    std::cerr << "usage: sac_lint [--Werror] [--explain] [--cost] "
                 "[--format=sarif] [--json=PATH] [--calibrate] "
                 "[--list-rules] FILE...\n";
    return 2;
  }
  if (calibrate) return RunCalibrate(files);

  bool any_error = false;
  bool any_warning = false;
  std::vector<FileDiagnostic> findings;  // --format=sarif
  std::string json_files;                // --json=PATH
  for (const std::string& file : files) {
    ParsedFile parsed;
    if (!LoadFile(file, &parsed)) return 2;
    auto report = sac::analysis::AnalyzeQuery(parsed.query, parsed.binds);
    if (!report.ok()) {
      std::cerr << file << ": internal error: "
                << report.status().ToString() << "\n";
      return 2;
    }
    const AnalysisReport& r = report.value();
    for (const Diagnostic& d : r.diagnostics) {
      if (sarif) {
        findings.push_back(FileDiagnostic{file, d});
      } else {
        std::cout << d.Render(file) << "\n";
      }
      if (d.severity == Diagnostic::Severity::kError) any_error = true;
      if (d.severity == Diagnostic::Severity::kWarning) any_warning = true;
    }
    if (!json_path.empty()) {
      std::string one = sac::analysis::RenderAnalysisJson(r, file);
      while (!one.empty() && one.back() == '\n') one.pop_back();
      if (!json_files.empty()) json_files += ",";
      json_files += one;
    }
    if (!sarif && explain && !r.strategy.empty()) {
      std::cout << file << ": strategy: " << r.strategy << "\n";
      if (!r.explanation.empty()) {
        std::cout << file << ":   " << r.explanation << "\n";
      }
      if (!r.plan_tree.empty()) std::cout << r.plan_tree;
    }
    if (!sarif && cost && r.has_cost) {
      std::cout << file << ":\n" << r.cost_table;
    }
  }
  if (sarif) std::cout << RenderSarif(findings);
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << json_path << ": cannot write\n";
      return 2;
    }
    out << "{\"analysis_version\":1,\"files\":[" << json_files << "]}\n";
  }
  if (any_error || (werror && any_warning)) return 1;
  return 0;
}
