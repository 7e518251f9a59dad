// knctl — the operator CLI the paper's prototype ships ("a CLI for
// operating knactors", §4). Works on spec files:
//
//   knctl lint <spec.yaml>...           unified static analyzer: graph
//                                       checks, expression type inference,
//                                       expression semantics (KN5xx), Sync
//                                       pipeline schema flow, RBAC
//                                       pre-flight — located diagnostics
//                                       with stable KN### codes; several
//                                       specs aggregate into one deduped,
//                                       sorted report with one exit code
//   knctl lint --project <dir>          whole-composition lint: loads every
//                                       spec in the directory, auto-
//                                       registers its schemas, and adds the
//                                       cross-spec KN6xx passes (dead
//                                       exchange, shadowed write, cross-
//                                       file cycle, fan-out amplification)
//   knctl analyze <dxg.yaml>            static analysis (cycles, unused
//                                       inputs, unresolved aliases, schema
//                                       conformance with --schema files)
//   knctl analyze --cost <dir>          per-round cost model for a project:
//                                       mapping evaluation counts and the
//                                       planner's per-stage record counts
//                                       for every Sync route
//   knctl schema  <schema.yaml>         inspect a data-store schema
//   knctl gen (reconciler|accessors|dxg) <schema.yaml>
//                                       code generation to stdout
//   knctl fmt <file.yaml>               parse + re-emit normalized YAML
//   knctl query '<pipeline>' <records.jsonl>
//                                       run a Log-DE query over JSONL
//                                       records (one JSON object per line)
//   knctl trace (retail|<dxg.yaml>)     run a composition with causal
//                                       tracing on and export the trace
//                                       (--format chrome loads into
//                                       chrome://tracing / Perfetto)
//   knctl explain <store>/<key>         print a derived record's lineage
//                                       DAG with per-stage latencies
//   knctl recover --inspect <dir>       offline scan of a persistence
//                                       directory (de/persist): per-
//                                       generation snapshot/journal health,
//                                       the recovery base recover() would
//                                       load, and the replay delta — exit 1
//                                       flags torn artifacts needing
//                                       operator attention
//   knctl demo                          run all of the above on the
//                                       paper's Fig. 5 / Fig. 6 specs
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/compose_graph.h"
#include "analysis/lint.h"
#include "analysis/rbac_preflight.h"
#include "apps/retail_knactor.h"
#include "apps/retail_specs.h"
#include "common/json.h"
#include "common/strings.h"
#include "core/cast.h"
#include "core/codegen.h"
#include "core/dxg.h"
#include "core/runtime.h"
#include "core/trace_export.h"
#include "de/log.h"
#include "de/persist/engine.h"
#include "de/query.h"
#include "de/schema.h"
#include "sim/clock.h"
#include "yaml/yaml.h"

namespace {

using knactor::common::Result;

Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return knactor::common::Error::not_found("cannot open '" + path + "'");
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Flags shared by `lint` and `analyze`.
struct SpecFlags {
  std::vector<std::string> schema_texts;
  std::string rbac_text;
  std::string principal;
  std::string format = "text";
};

/// Exit codes shared by `analyze` and `lint`: 0 clean (warnings only),
/// 1 findings, 2 unusable input — so CI can distinguish "fix your spec"
/// from "fix your invocation".
int cmd_analyze(const std::string& text,
                const std::vector<std::string>& schema_texts,
                const std::string& format) {
  bool json = format == "json";
  knactor::de::SchemaRegistry schemas;
  for (const auto& schema_text : schema_texts) {
    auto added = schemas.add_yaml(schema_text);
    if (!added.ok()) {
      std::fprintf(stderr, "schema: %s\n", added.error().to_string().c_str());
      return 2;
    }
  }
  auto dxg = knactor::core::Dxg::parse(text);
  if (!dxg.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 dxg.error().to_string().c_str());
    return 2;
  }
  auto issues = knactor::core::analyze(
      dxg.value(), schema_texts.empty() ? nullptr : &schemas);
  if (json) {
    knactor::common::Value::Array list;
    for (const auto& issue : issues) {
      knactor::common::Value::Object obj;
      obj.set("kind",
              knactor::common::Value(std::string(
                  knactor::core::issue_kind_name(issue.kind))));
      obj.set("code",
              knactor::common::Value(std::string(
                  knactor::core::issue_kind_code(issue.kind))));
      obj.set("detail", knactor::common::Value(issue.detail));
      list.push_back(knactor::common::Value(std::move(obj)));
    }
    knactor::common::Value::Object root;
    root.set("inputs", knactor::common::Value(static_cast<std::int64_t>(
                           dxg.value().inputs().size())));
    root.set("mappings", knactor::common::Value(
                             static_cast<std::int64_t>(dxg.value().size())));
    root.set("issues", knactor::common::Value(std::move(list)));
    std::printf("%s\n", knactor::common::to_json_pretty(
                            knactor::common::Value(std::move(root)))
                            .c_str());
    return issues.empty() ? 0 : 1;
  }
  std::printf("inputs:   %zu\nmappings: %zu\n", dxg.value().inputs().size(),
              dxg.value().size());
  if (issues.empty()) {
    std::printf("analysis: clean\n");
    return 0;
  }
  for (const auto& issue : issues) {
    std::printf("%-18s [%s] %s\n", knactor::core::issue_kind_name(issue.kind),
                knactor::core::issue_kind_code(issue.kind),
                issue.detail.c_str());
  }
  return 1;
}

/// Shared lint finish path (single file, multi-arg, --project): dedupe +
/// stable sort, render once, one summary line, one exit code.
int finish_lint(const std::string& label,
                std::vector<knactor::analysis::Diagnostic> diags,
                const std::string& format) {
  namespace analysis = knactor::analysis;
  analysis::dedupe_diagnostics(diags);
  if (format == "json") {
    std::fputs(analysis::render_json(diags).c_str(), stdout);
  } else if (diags.empty()) {
    std::printf("%s: clean\n", label.c_str());
  } else {
    std::fputs(analysis::render_text(diags).c_str(), stdout);
  }
  if (analysis::has_parse_failure(diags)) return 2;
  return analysis::has_errors(diags) ? 1 : 0;
}

int cmd_lint(const std::string& file, const std::string& text,
             const std::vector<std::string>& schema_texts,
             const std::string& rbac_text, const std::string& principal,
             const std::string& format) {
  namespace analysis = knactor::analysis;
  knactor::de::SchemaRegistry schemas;
  for (const auto& schema_text : schema_texts) {
    auto added = schemas.add_yaml(schema_text);
    if (!added.ok()) {
      std::fprintf(stderr, "schema: %s\n", added.error().to_string().c_str());
      return 2;
    }
  }
  analysis::RbacSpec rbac;
  analysis::LintOptions options;
  options.file = file;
  options.schemas = schema_texts.empty() ? nullptr : &schemas;
  options.principal = principal;
  if (!rbac_text.empty()) {
    auto parsed = analysis::parse_rbac(rbac_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "rbac: %s\n", parsed.error().to_string().c_str());
      return 2;
    }
    rbac = parsed.take();
    options.rbac = &rbac;
  }
  return finish_lint(file, analysis::lint_spec(text, options), format);
}

/// Whole-composition lint over an already-loaded project; `label` names
/// the input in the clean message (the directory, or the spec list).
int cmd_lint_project(knactor::analysis::Project& project,
                     const std::string& label, const SpecFlags& flags) {
  namespace analysis = knactor::analysis;
  for (const auto& schema_text : flags.schema_texts) {
    auto added = project.schemas.add_yaml(schema_text);
    if (!added.ok()) {
      std::fprintf(stderr, "schema: %s\n", added.error().to_string().c_str());
      return 2;
    }
  }
  analysis::RbacSpec rbac;
  analysis::ProjectLintOptions options;
  options.principal = flags.principal;
  if (!flags.rbac_text.empty()) {
    auto parsed = analysis::parse_rbac(flags.rbac_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "rbac: %s\n", parsed.error().to_string().c_str());
      return 2;
    }
    rbac = parsed.take();
    options.rbac = &rbac;
  }
  return finish_lint(label, analysis::lint_project(project, options),
                     flags.format);
}

/// `knctl analyze --cost <dir>` — per-round cost model for the project.
int cmd_analyze_cost(const std::string& dir, std::size_t records,
                     const std::string& format) {
  namespace analysis = knactor::analysis;
  auto project = analysis::Project::load_dir(dir);
  if (!project.load_diags.empty()) {
    std::fputs(analysis::render_text(project.load_diags).c_str(), stderr);
    return 2;
  }
  auto report = analysis::estimate_project_cost(project, records);
  if (format == "json") {
    std::printf("%s\n",
                knactor::common::to_json_pretty(report.to_value()).c_str());
  } else {
    std::fputs(report.to_text().c_str(), stdout);
  }
  return 0;
}

int cmd_schema(const std::string& text) {
  auto schema = knactor::de::parse_schema(text);
  if (!schema.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 schema.error().to_string().c_str());
    return 2;
  }
  std::printf("schema: %s\n", schema.value().id.c_str());
  for (const auto& field : schema.value().fields) {
    std::printf("  %-16s %-8s%s%s\n", field.name.c_str(), field.type.c_str(),
                field.external ? " external" : "",
                field.required ? " required" : "");
  }
  auto external = schema.value().external_fields();
  std::printf("external fields (integrator-filled): %zu\n", external.size());
  return 0;
}

int cmd_gen(const std::string& kind, const std::string& text) {
  auto schema = knactor::de::parse_schema(text);
  if (!schema.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 schema.error().to_string().c_str());
    return 2;
  }
  knactor::core::CodegenOptions options;
  Result<std::string> generated =
      kind == "reconciler"
          ? knactor::core::generate_reconciler(schema.value(), options)
          : kind == "accessors"
                ? knactor::core::generate_accessors(schema.value(), options)
                : knactor::core::generate_dxg_stub(schema.value());
  if (!generated.ok()) {
    std::fprintf(stderr, "codegen: %s\n",
                 generated.error().to_string().c_str());
    return 2;
  }
  std::fputs(generated.value().c_str(), stdout);
  return 0;
}

int cmd_fmt(const std::string& text) {
  auto parsed = knactor::yaml::parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.error().to_string().c_str());
    return 2;
  }
  std::fputs(knactor::yaml::dump(parsed.value()).c_str(), stdout);
  return 0;
}

int cmd_query(const std::string& pipeline_text, const std::string& jsonl) {
  auto query = knactor::de::parse_query(pipeline_text);
  if (!query.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 query.error().to_string().c_str());
    return 2;
  }
  std::vector<knactor::common::Value> records;
  for (const auto& line : knactor::common::split(jsonl, '\n')) {
    if (knactor::common::trim(line).empty()) continue;
    auto record = knactor::common::parse_json(line);
    if (!record.ok()) {
      std::fprintf(stderr, "bad record: %s\n",
                   record.error().to_string().c_str());
      return 2;
    }
    records.push_back(record.take());
  }
  // Load the records into a latency-free Log pool and query it there, so
  // the pipeline runs exactly as LogPool::query runs it: scan hints, then
  // the fused plan.
  knactor::sim::VirtualClock clock;
  knactor::de::LogDe log(clock, knactor::de::LogDeProfile::instant());
  knactor::de::LogPool& pool = log.create_pool("records");
  auto loaded = pool.append_batch_sync("knctl", std::move(records));
  if (!loaded.ok()) {
    std::fprintf(stderr, "load error: %s\n",
                 loaded.error().to_string().c_str());
    return 2;
  }
  auto result = pool.query_sync("knctl", query.value());
  if (!result.ok()) {
    std::fprintf(stderr, "pipeline error: %s\n",
                 result.error().to_string().c_str());
    return 2;
  }
  for (const auto& record : result.value()) {
    std::printf("%s\n", knactor::common::to_json(*record).c_str());
  }
  return 0;
}

/// Runs a composition with causal tracing + lineage enabled. `spec` is
/// either the built-in "retail" app (one sample order through the Fig. 6
/// DXG) or a DXG YAML file; for the file form, `data_text` optionally
/// seeds stores before the pass: a JSON/YAML object of shape
/// {alias: {key: object, ...}, ...}. On success fills `de_out` with the
/// DE hosting the composed stores (its kernel holds the provenance ring).
int run_traced_composition(const std::string& spec,
                           const std::string& data_text,
                           knactor::core::Runtime& rt,
                           knactor::de::ObjectDe** de_out) {
  namespace core = knactor::core;
  namespace de = knactor::de;
  rt.enable_lineage();
  if (spec == "retail") {
    auto app = knactor::apps::build_retail_knactor_app(rt);
    *de_out = app.de;
    auto started = rt.start_all();
    if (!started.ok()) {
      std::fprintf(stderr, "start: %s\n", started.error().to_string().c_str());
      return 2;
    }
    auto order = app.place_order_sync(knactor::apps::sample_order());
    if (!order.ok()) {
      std::fprintf(stderr, "order: %s\n", order.error().to_string().c_str());
      return 2;
    }
    return 0;
  }
  auto text = read_file(spec);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.error().to_string().c_str());
    return 2;
  }
  auto dxg = core::Dxg::parse(text.value());
  if (!dxg.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 dxg.error().to_string().c_str());
    return 2;
  }
  de::ObjectDe& dex = rt.add_object_de("object", de::ObjectDeProfile::redis());
  // Route DE-side spans (epoch pipeline, `sub.filter`/`sub.deliver`) into
  // the same tracer as the integrator passes, so `trace` and `explain`
  // can report per-subscription delivery latency and selectivity.
  dex.set_observability(&rt.tracer(), nullptr);
  *de_out = &dex;
  std::map<std::string, de::ObjectStore*> bindings;
  for (const auto& [alias, store_id] : dxg.value().inputs()) {
    // Store ids are paths ("OnlineRetail/v1/Checkout/knactor-checkout");
    // the store name is the last segment.
    auto slash = store_id.rfind('/');
    std::string store_name =
        slash == std::string::npos ? store_id : store_id.substr(slash + 1);
    bindings[alias] = &dex.create_store(store_name);
  }
  rt.add_integrator(std::make_unique<core::CastIntegrator>(
      "trace", dex, dxg.take(), bindings, core::CastIntegrator::Options{},
      nullptr, &rt.tracer()));
  auto started = rt.start_all();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.error().to_string().c_str());
    return 2;
  }
  if (!data_text.empty()) {
    auto seed = knactor::common::parse_json(data_text);
    if (!seed.ok()) {
      auto yaml_seed = knactor::yaml::parse(data_text);
      if (!yaml_seed.ok()) {
        std::fprintf(stderr, "data: %s\n",
                     seed.error().to_string().c_str());
        return 2;
      }
      seed = yaml_seed.take();
    }
    if (!seed.value().is_object()) {
      std::fprintf(stderr, "data: expected {alias: {key: object}}\n");
      return 2;
    }
    for (const auto& [alias, objects] : seed.value().as_object()) {
      auto it = bindings.find(alias);
      de::ObjectStore* store =
          it != bindings.end() ? it->second : dex.store(alias);
      if (store == nullptr || !objects.is_object()) {
        std::fprintf(stderr, "data: unknown alias '%s'\n", alias.c_str());
        return 2;
      }
      for (const auto& [key, object] : objects.as_object()) {
        store->put("knctl", key, object,
                   [](knactor::common::Result<std::uint64_t>) {});
      }
    }
  }
  rt.run_until_idle();
  return 0;
}

int cmd_trace(const std::string& spec, const std::string& format,
              const std::string& data_text) {
  knactor::core::Runtime rt;
  knactor::de::ObjectDe* dex = nullptr;
  int rc = run_traced_composition(spec, data_text, rt, &dex);
  if (rc != 0) return rc;
  auto spans = rt.tracer().spans();
  if (format == "chrome") {
    std::fputs(knactor::core::export_chrome_trace(spans).c_str(), stdout);
    std::fputs("\n", stdout);
  } else {
    std::fputs(knactor::core::export_text_summary(spans).c_str(), stdout);
  }
  return 0;
}

int cmd_explain(const std::string& target, const std::string& spec,
                const std::string& data_text) {
  auto slash = target.find('/');
  if (slash == std::string::npos) {
    std::fprintf(stderr, "explain: target must be <store>/<key>\n");
    return 2;
  }
  const std::string store = target.substr(0, slash);
  const std::string key = target.substr(slash + 1);
  knactor::core::Runtime rt;
  knactor::de::ObjectDe* dex = nullptr;
  int rc = run_traced_composition(spec, data_text, rt, &dex);
  if (rc != 0) return rc;
  std::string out = knactor::core::explain(
      dex->kernel().provenance(), rt.tracer().spans(), store, key);
  std::fputs(out.c_str(), stdout);
  // "no lineage" is a findings-style outcome (exit 1), like lint.
  return out.rfind("no lineage", 0) == 0 ? 1 : 0;
}

/// `knctl recover --inspect <dir>` — offline health scan of a persistence
/// directory. Uses the same recovery-base rule as Engine::recover(), so
/// what it prints is what a restart would actually do. Exit codes follow
/// the lint convention: 0 healthy, 1 torn artifacts found (recovery still
/// works — the torn suffix is simply dropped), 2 unusable directory.
int cmd_recover_inspect(const std::string& dir, const std::string& format) {
  namespace persist = knactor::de::persist;
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    std::fprintf(stderr, "recover: '%s' is not a directory\n", dir.c_str());
    return 2;
  }
  const std::vector<persist::GenerationInfo> gens = persist::Engine::inspect(dir);
  const auto base = persist::Engine::recovery_base(gens);
  std::uint64_t replay_frames = 0;
  std::uint64_t replay_records = 0;
  bool torn = false;
  for (const auto& gen : gens) {
    torn = torn || gen.journal_torn || (gen.has_snapshot && !gen.snapshot_valid);
    if (!base || gen.generation >= *base) {
      replay_frames += gen.journal_frames;
      replay_records += gen.journal_records;
    }
  }
  if (format == "json") {
    knactor::common::Value::Array rows;
    for (const auto& gen : gens) {
      knactor::common::Value::Object row;
      row.set("generation", knactor::common::Value(
                                static_cast<std::int64_t>(gen.generation)));
      row.set("has_snapshot", knactor::common::Value(gen.has_snapshot));
      row.set("snapshot_valid", knactor::common::Value(gen.snapshot_valid));
      row.set("snapshot_bytes", knactor::common::Value(
                                    static_cast<std::int64_t>(gen.snapshot_bytes)));
      row.set("snapshot_objects",
              knactor::common::Value(
                  static_cast<std::int64_t>(gen.snapshot_objects)));
      row.set("has_journal", knactor::common::Value(gen.has_journal));
      row.set("journal_bytes", knactor::common::Value(
                                   static_cast<std::int64_t>(gen.journal_bytes)));
      row.set("journal_valid_bytes",
              knactor::common::Value(
                  static_cast<std::int64_t>(gen.journal_valid_bytes)));
      row.set("journal_frames", knactor::common::Value(
                                    static_cast<std::int64_t>(gen.journal_frames)));
      row.set("journal_records",
              knactor::common::Value(
                  static_cast<std::int64_t>(gen.journal_records)));
      row.set("journal_torn", knactor::common::Value(gen.journal_torn));
      rows.push_back(knactor::common::Value(std::move(row)));
    }
    knactor::common::Value::Object root;
    root.set("dir", knactor::common::Value(dir));
    root.set("generations", knactor::common::Value(std::move(rows)));
    root.set("recovery_base",
             base ? knactor::common::Value(static_cast<std::int64_t>(*base))
                  : knactor::common::Value());
    root.set("replay_frames",
             knactor::common::Value(static_cast<std::int64_t>(replay_frames)));
    root.set("replay_records",
             knactor::common::Value(static_cast<std::int64_t>(replay_records)));
    root.set("torn_artifacts", knactor::common::Value(torn));
    std::printf("%s\n", knactor::common::to_json_pretty(
                            knactor::common::Value(std::move(root)))
                            .c_str());
    return torn ? 1 : 0;
  }
  if (gens.empty()) {
    std::printf("%s: no persistence generations (recovery starts empty)\n",
                dir.c_str());
    return 0;
  }
  for (const auto& gen : gens) {
    std::printf("generation %llu:",
                static_cast<unsigned long long>(gen.generation));
    if (gen.has_snapshot) {
      std::printf("  snapshot %s (%llu objects, %llu bytes)",
                  gen.snapshot_valid ? "valid" : "TORN",
                  static_cast<unsigned long long>(gen.snapshot_objects),
                  static_cast<unsigned long long>(gen.snapshot_bytes));
    } else {
      std::printf("  snapshot none");
    }
    if (gen.has_journal) {
      std::printf("  journal %s (%llu frames, %llu records, %llu/%llu bytes "
                  "valid)\n",
                  gen.journal_torn ? "TORN" : "clean",
                  static_cast<unsigned long long>(gen.journal_frames),
                  static_cast<unsigned long long>(gen.journal_records),
                  static_cast<unsigned long long>(gen.journal_valid_bytes),
                  static_cast<unsigned long long>(gen.journal_bytes));
    } else {
      std::printf("  journal none\n");
    }
  }
  if (base) {
    std::printf("recovery base: generation %llu (replay %llu frames / %llu "
                "records)\n",
                static_cast<unsigned long long>(*base),
                static_cast<unsigned long long>(replay_frames),
                static_cast<unsigned long long>(replay_records));
  } else {
    std::printf("recovery base: none — full replay of %llu frames / %llu "
                "records from the empty image\n",
                static_cast<unsigned long long>(replay_frames),
                static_cast<unsigned long long>(replay_records));
  }
  if (torn) std::printf("torn artifacts present: recovery will drop them\n");
  return torn ? 1 : 0;
}

int cmd_demo() {
  std::printf("== knctl schema (Fig. 5, Checkout) ==\n");
  (void)cmd_schema(knactor::apps::kCheckoutSchema);
  std::printf("\n== knctl analyze (Fig. 6 DXG) ==\n");
  int rc = cmd_analyze(knactor::apps::kRetailDxg, {}, "text");
  std::printf("\n== knctl gen dxg (from the Shipping schema) ==\n");
  (void)cmd_gen("dxg", knactor::apps::kShippingSchema);
  return rc;
}

void usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  knctl lint <spec.yaml>... [--schema <schema.yaml>]... "
      "[--rbac <policy.yaml>]\n"
      "             [--as <principal>] [--format text|json]\n"
      "  knctl lint --project <dir> [--schema <schema.yaml>]... "
      "[--rbac <policy.yaml>]\n"
      "             [--as <principal>] [--format text|json]\n"
      "  knctl analyze <dxg.yaml> [--schema <schema.yaml>]... "
      "[--format text|json]\n"
      "  knctl analyze --cost <dir> [--records <n>] [--format text|json]\n"
      "  knctl schema <schema.yaml>\n"
      "  knctl gen (reconciler|accessors|dxg) <schema.yaml>\n"
      "  knctl fmt <file.yaml>\n"
      "  knctl query '<pipeline>' <records.jsonl>\n"
      "  knctl trace (retail|<dxg.yaml>) [--format text|chrome] "
      "[--data <seed.json|yaml>]\n"
      "  knctl explain <store>/<key> [--spec retail|<dxg.yaml>] "
      "[--data <seed.json|yaml>]\n"
      "  knctl recover --inspect <dir> [--format text|json]\n"
      "  knctl demo\n"
      "exit codes for lint/analyze/recover: 0 clean, 1 findings, "
      "2 unusable input\n");
}

/// Parses [--schema f]... [--rbac f] [--as p] [--format text|json] from
/// args[start..]; returns false (after printing usage) on bad flags.
bool parse_spec_flags(const std::vector<std::string>& args, std::size_t start,
                      bool allow_rbac, SpecFlags& flags) {
  for (std::size_t i = start; i < args.size(); i += 2) {
    if (i + 1 >= args.size()) {
      usage();
      return false;
    }
    const std::string& flag = args[i];
    const std::string& value = args[i + 1];
    if (flag == "--schema") {
      auto text = read_file(value);
      if (!text.ok()) {
        std::fprintf(stderr, "%s\n", text.error().to_string().c_str());
        return false;
      }
      flags.schema_texts.push_back(text.take());
    } else if (flag == "--rbac" && allow_rbac) {
      auto text = read_file(value);
      if (!text.ok()) {
        std::fprintf(stderr, "%s\n", text.error().to_string().c_str());
        return false;
      }
      flags.rbac_text = text.take();
    } else if (flag == "--as" && allow_rbac) {
      flags.principal = value;
    } else if (flag == "--format" && (value == "text" || value == "json")) {
      flags.format = value;
    } else {
      usage();
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    // Bare invocation (e.g. from a bench/CI sweep) runs the demo.
    return cmd_demo();
  }
  const std::string& command = args[0];
  if (command == "demo") return cmd_demo();
  if (command == "analyze" && args.size() >= 3 && args[1] == "--cost") {
    std::size_t records = 100;
    std::string format = "text";
    for (std::size_t i = 3; i < args.size(); i += 2) {
      if (i + 1 >= args.size()) {
        usage();
        return 2;
      }
      const std::string& flag = args[i];
      const std::string& value = args[i + 1];
      if (flag == "--records" && !value.empty()) {
        char* end = nullptr;
        unsigned long long n = std::strtoull(value.c_str(), &end, 10);
        if (end == nullptr || *end != '\0') {
          usage();
          return 2;
        }
        records = static_cast<std::size_t>(n);
      } else if (flag == "--format" && (value == "text" || value == "json")) {
        format = value;
      } else {
        usage();
        return 2;
      }
    }
    return cmd_analyze_cost(args[2], records, format);
  }
  if (command == "analyze" && args.size() >= 2) {
    auto text = read_file(args[1]);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.error().to_string().c_str());
      return 2;
    }
    SpecFlags flags;
    if (!parse_spec_flags(args, 2, /*allow_rbac=*/false, flags)) return 2;
    return cmd_analyze(text.value(), flags.schema_texts, flags.format);
  }
  if (command == "lint" && args.size() >= 2) {
    if (args[1] == "--project") {
      if (args.size() < 3) {
        usage();
        return 2;
      }
      SpecFlags flags;
      if (!parse_spec_flags(args, 3, /*allow_rbac=*/true, flags)) return 2;
      auto project = knactor::analysis::Project::load_dir(args[2]);
      return cmd_lint_project(project, args[2], flags);
    }
    // Leading positionals are spec files; the first `--` flag ends them.
    std::vector<std::string> files;
    std::size_t next = 1;
    while (next < args.size() && args[next].rfind("--", 0) != 0) {
      files.push_back(args[next++]);
    }
    if (files.empty()) {
      usage();
      return 2;
    }
    SpecFlags flags;
    if (!parse_spec_flags(args, next, /*allow_rbac=*/true, flags)) return 2;
    if (files.size() == 1) {
      auto text = read_file(files[0]);
      if (!text.ok()) {
        std::fprintf(stderr, "%s\n", text.error().to_string().c_str());
        return 2;
      }
      return cmd_lint(files[0], text.value(), flags.schema_texts,
                      flags.rbac_text, flags.principal, flags.format);
    }
    // Several specs aggregate through the project path: duplicates are
    // linted once, findings dedupe + sort, one summary, one exit code.
    std::vector<std::string> unique_files;
    for (const auto& file : files) {
      if (std::find(unique_files.begin(), unique_files.end(), file) ==
          unique_files.end()) {
        unique_files.push_back(file);
      }
    }
    std::vector<std::pair<std::string, std::string>> named;
    std::vector<knactor::analysis::Diagnostic> io_diags;
    std::string label;
    for (const auto& file : unique_files) {
      if (!label.empty()) label += ", ";
      label += file;
      auto text = read_file(file);
      if (text.ok()) {
        named.emplace_back(file, text.take());
      } else {
        io_diags.push_back(knactor::analysis::make_diag(
            "KN400", {file, 0, 0},
            "cannot read file: " + text.error().to_string()));
      }
    }
    auto project = knactor::analysis::Project::from_files(named);
    project.load_diags.insert(project.load_diags.end(), io_diags.begin(),
                              io_diags.end());
    return cmd_lint_project(project, label, flags);
  }
  if (command == "schema" && args.size() == 2) {
    auto text = read_file(args[1]);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.error().to_string().c_str());
      return 2;
    }
    return cmd_schema(text.value());
  }
  if (command == "gen" && args.size() == 3 &&
      (args[1] == "reconciler" || args[1] == "accessors" || args[1] == "dxg")) {
    auto text = read_file(args[2]);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.error().to_string().c_str());
      return 2;
    }
    return cmd_gen(args[1], text.value());
  }
  if (command == "fmt" && args.size() == 2) {
    auto text = read_file(args[1]);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.error().to_string().c_str());
      return 2;
    }
    return cmd_fmt(text.value());
  }
  if ((command == "trace" || command == "explain") && args.size() >= 2) {
    std::string format = "text";
    std::string spec = command == "trace" ? args[1] : "retail";
    std::string data_text;
    for (std::size_t i = 2; i < args.size(); i += 2) {
      if (i + 1 >= args.size()) {
        usage();
        return 2;
      }
      const std::string& flag = args[i];
      const std::string& value = args[i + 1];
      if (flag == "--format" && (value == "text" || value == "chrome")) {
        format = value;
      } else if (flag == "--data") {
        auto text = read_file(value);
        if (!text.ok()) {
          std::fprintf(stderr, "%s\n", text.error().to_string().c_str());
          return 2;
        }
        data_text = text.take();
      } else if (flag == "--spec" && command == "explain") {
        spec = value;
      } else {
        usage();
        return 2;
      }
    }
    return command == "trace" ? cmd_trace(spec, format, data_text)
                              : cmd_explain(args[1], spec, data_text);
  }
  if (command == "recover" && args.size() >= 3 && args[1] == "--inspect") {
    std::string format = "text";
    for (std::size_t i = 3; i < args.size(); i += 2) {
      if (i + 1 >= args.size()) {
        usage();
        return 2;
      }
      if (args[i] == "--format" &&
          (args[i + 1] == "text" || args[i + 1] == "json")) {
        format = args[i + 1];
      } else {
        usage();
        return 2;
      }
    }
    return cmd_recover_inspect(args[2], format);
  }
  if (command == "query" && args.size() == 3) {
    auto jsonl = read_file(args[2]);
    if (!jsonl.ok()) {
      std::fprintf(stderr, "%s\n", jsonl.error().to_string().c_str());
      return 2;
    }
    return cmd_query(args[1], jsonl.value());
  }
  usage();
  return 2;
}
