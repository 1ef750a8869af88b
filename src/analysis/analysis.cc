#include "src/analysis/analysis.h"

#include <cctype>
#include <sstream>
#include <utility>

#include "src/common/trace.h"
#include "src/comp/parser.h"
#include "src/comp/rewrite.h"
#include "src/runtime/memory.h"

namespace sac::analysis {

namespace {

/// Parser/lexer statuses embed the position as a trailing "... at L:C";
/// recover it so parse errors render like every other diagnostic.
comp::Span SpanFromMessage(const std::string& msg) {
  const size_t at = msg.rfind(" at ");
  if (at == std::string::npos) return {};
  int line = 0, col = 0;
  const char* p = msg.c_str() + at + 4;
  while (std::isdigit(static_cast<unsigned char>(*p))) {
    line = line * 10 + (*p++ - '0');
  }
  if (*p != ':') return {};
  ++p;
  while (std::isdigit(static_cast<unsigned char>(*p))) {
    col = col * 10 + (*p++ - '0');
  }
  if (line <= 0 || col <= 0) return {};
  const comp::Pos pos{line, col};
  return comp::Span{pos, pos};
}

comp::Span SpanOf(const comp::ExprPtr& e) {
  if (e == nullptr) return {};
  if (e->span.IsSet()) return e->span;
  return comp::Span{e->pos, e->pos};
}

}  // namespace

std::string AnalysisReport::Render(const std::string& file) const {
  std::string out = RenderAll(diagnostics, file);
  if (!strategy.empty()) {
    out += "strategy: " + strategy + "\n";
    if (!explanation.empty()) out += "  " + explanation + "\n";
  }
  if (!plan_tree.empty()) {
    out += "plan:\n";
    // Indent the tree two spaces per line.
    size_t start = 0;
    while (start < plan_tree.size()) {
      size_t end = plan_tree.find('\n', start);
      if (end == std::string::npos) end = plan_tree.size();
      out += "  " + plan_tree.substr(start, end - start) + "\n";
      start = end + 1;
    }
  }
  if (has_cost && !cost_table.empty()) out += cost_table;
  return out;
}

std::string RenderAnalysisJson(const AnalysisReport& report,
                               const std::string& file) {
  std::ostringstream os;
  os.precision(15);
  os << "{\"analysis_version\":2";
  os << ",\"file\":\"" << trace::JsonEscape(file) << "\"";
  os << ",\"strategy\":\"" << trace::JsonEscape(report.strategy) << "\"";
  os << ",\"explanation\":\"" << trace::JsonEscape(report.explanation)
     << "\"";
  os << ",\"diagnostics\":[";
  for (size_t i = 0; i < report.diagnostics.size(); ++i) {
    const Diagnostic& d = report.diagnostics[i];
    if (i > 0) os << ",";
    os << "{\"code\":\"" << trace::JsonEscape(d.code) << "\"";
    os << ",\"severity\":\"" << SeverityName(d.severity) << "\"";
    os << ",\"line\":" << d.span.begin.line;
    os << ",\"col\":" << d.span.begin.col;
    os << ",\"message\":\"" << trace::JsonEscape(d.message) << "\"";
    if (d.estimated_bytes > 0) {
      os << ",\"estimated_bytes\":" << d.estimated_bytes;
    }
    os << "}";
  }
  os << "]";
  if (report.has_cost) {
    os << ",\"cost\":{\"exact\":" << (report.cost_exact ? "true" : "false");
    os << ",\"resident_bytes\":" << report.resident_bytes;
    os << ",\"shuffle_bytes\":" << report.shuffle_bytes;
    os << ",\"cross_executor_bytes\":" << report.cross_bytes;
    os << ",\"tasks\":" << report.tasks;
    os << ",\"flops\":" << report.flops;
    os << ",\"nodes\":[";
    for (size_t i = 0; i < report.cost_rows.size(); ++i) {
      const AnalysisReport::CostRow& r = report.cost_rows[i];
      if (i > 0) os << ",";
      os << "{\"node\":\"" << trace::JsonEscape(r.node) << "\"";
      os << ",\"known\":" << (r.known ? "true" : "false");
      os << ",\"records\":" << r.records;
      os << ",\"output_bytes\":" << r.output_bytes;
      os << ",\"local_shuffle_bytes\":" << r.local_bytes;
      os << ",\"cross_executor_bytes\":" << r.cross_bytes;
      os << ",\"tasks\":" << r.tasks;
      os << ",\"flops\":" << r.flops;
      os << ",\"num_partitions\":" << r.num_partitions << "}";
    }
    os << "]";
    os << ",\"predicted_shuffle_by_label\":{";
    bool first = true;
    for (const auto& [label, bytes] : report.predicted_shuffle_by_label) {
      if (!first) os << ",";
      first = false;
      os << "\"" << trace::JsonEscape(label) << "\":" << bytes;
    }
    os << "}}";
  }
  os << "}\n";
  return os.str();
}

Result<AnalysisReport> AnalyzeQuery(const std::string& src,
                                    const planner::Bindings& binds,
                                    const planner::PlannerOptions& opts,
                                    uint64_t memory_budget_bytes) {
  AnalysisReport report;

  // Phase 1: parse.
  Result<comp::ExprPtr> parsed = comp::Parse(src);
  if (!parsed.ok()) {
    report.diagnostics.push_back(
        Error("SAC-E000", parsed.status().message(),
              SpanFromMessage(parsed.status().message())));
    return report;
  }
  const comp::ExprPtr& query = parsed.value();

  // Phase 2: comprehension checks on the parsed tree (spans intact).
  const SymbolTable syms = SymbolsFromBindings(binds);
  CheckComprehension(query, syms, &report.diagnostics);
  if (HasErrors(report.diagnostics)) {
    SortDiagnostics(&report.diagnostics);
    return report;
  }

  // Phase 3: normalize and plan.
  Result<comp::ExprPtr> norm =
      comp::Normalize(query, [&binds](const std::string& name) {
        auto it = binds.find(name);
        return it != binds.end() &&
               it->second.kind != planner::Binding::Kind::kScalar;
      });
  if (!norm.ok()) {
    report.diagnostics.push_back(Error("SAC-E006", norm.status().message(),
                                       SpanOf(query)));
    SortDiagnostics(&report.diagnostics);
    return report;
  }
  Result<planner::CompiledQuery> compiled =
      planner::CompileQuery(norm.value(), binds, opts);
  if (!compiled.ok()) {
    report.diagnostics.push_back(
        Error("SAC-E006",
              "no translation strategy applies: " +
                  compiled.status().message(),
              SpanOf(query)));
    SortDiagnostics(&report.diagnostics);
    return report;
  }
  const planner::CompiledQuery& q = compiled.value();
  report.strategy = planner::StrategyName(q.strategy);
  report.explanation = q.explanation;
  if (q.plan != nullptr) report.plan_tree = planner::PlanToString(q.plan);

  // Phases 4 + 5: DAG invariants, then the lint rules. The env var wins
  // over the configured budget, mirroring the engine's runtime behavior,
  // so `SAC_MEM_BUDGET=... sac_lint ...` previews the out-of-core
  // warnings any binary would run under.
  const PlanGraph graph = PlanGraph::FromQuery(
      q, &binds, runtime::memory::BudgetFromEnv(memory_budget_bytes),
      opts.cluster);
  Status verified = VerifyPlan(graph);
  if (!verified.ok()) {
    report.diagnostics.push_back(
        Error("SAC-E007", verified.message(), SpanOf(query)));
  }
  LintPlan(graph, &report.diagnostics);

  // Cost model over the symbolic plan (plain data only; the report must
  // not keep pointers into the plan it outlives).
  if (!graph.nodes.empty()) {
    const CostEstimate est = EstimateCost(graph);
    report.has_cost = true;
    report.cost_exact = est.exact;
    report.resident_bytes = est.resident_bytes;
    report.shuffle_bytes = est.totals.shuffle_bytes;
    report.cross_bytes = est.totals.cross_bytes;
    report.tasks = est.totals.tasks;
    report.flops = est.totals.flops;
    report.predicted_shuffle_by_label = est.shuffle_by_engine_label;
    report.cost_table = RenderCostTable(est);
    for (const CostEstimate::Item& item : est.items) {
      AnalysisReport::CostRow row;
      if (item.node != nullptr) {
        row.node = planner::PlanOpName(item.node->op);
        const std::string& name = item.node->op == planner::PlanNode::Op::kSource
                                      ? item.node->source
                                      : item.node->label;
        if (!name.empty()) row.node += " " + name;
      }
      row.known = item.shape.known;
      row.records = item.shape.records;
      row.output_bytes = item.cost.output_bytes;
      row.local_bytes = item.cost.local_bytes;
      row.cross_bytes = item.cost.cross_bytes;
      row.tasks = item.cost.tasks;
      row.flops = item.cost.flops;
      row.num_partitions = item.shape.num_partitions;
      report.cost_rows.push_back(std::move(row));
    }
  }

  SortDiagnostics(&report.diagnostics);
  return report;
}

}  // namespace sac::analysis
