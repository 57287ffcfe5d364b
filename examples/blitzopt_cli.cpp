// blitzopt: command-line join-order optimizer over .bjq query files.
//
// Usage:
//   blitzopt <query.bjq> [--execute] [--counts] [--tree] [--explain]
//           [--report] [--deadline-ms=<ms>] [--max-table-mb=<mb>]
//           [--no-degrade] [--exhaustive-limit=<n>] [--threads=<n>]
//           [--simd=<auto|scalar|block|avx2|avx512>]
//           [--estimator=<paper|hist|noest>]
//           [--trace-out=<file>] [--metrics-out=<file>]
//           [--profile=<file>]
//
// Runs the library's front door (OptimizeQuery): exhaustive blitzsplit up
// to --exhaustive-limit relations, the hybrid optimizer beyond, under the
// optional resource budget. When a budget is armed and a tier exhausts it,
// the optimizer degrades exhaustive -> hybrid -> greedy and the output
// names the tier that served the query; --no-degrade surfaces the budget
// error instead.
//
// --estimator selects the cardinality estimator (card/estimator.h); it
// overrides the query file's `estimator` directive. paper is the exact
// Section 5.1 derivation; noest is the Simpli-Squared estimate-free
// signal; hist builds equi-depth histograms over synthetic base tables
// generated from the catalog (exec/datagen.h + exec/stats.h). The printed
// cost is always re-evaluated under the true statistics, so comparing runs
// across estimators measures estimator regret directly.
//
// Exit codes:
//   0  success
//   1  optimizer or execution error
//   2  usage error
//   3  query parse/validation error
//   4  resource budget exhausted (deadline, memory cap, or cancellation)
//
// --trace-out writes a Chrome trace-viewer JSON (open in chrome://tracing
// or https://ui.perfetto.dev) spanning the optimize->plan->execute
// pipeline; --metrics-out writes the metrics registry (counters, gauges,
// latency percentiles) as JSON; --profile writes the performance
// observatory's profile JSON (hardware counters per scope plus the
// per-phase, per-rank DP attribution — see src/obs/profiler/).
//
// The .bjq format (see src/textio/bjq.h):
//   relation <name> <cardinality> [<tuple_bytes>]   (synonym: table)
//   predicate <a> <b> <selectivity>
//   join <a>.<col> = <b>.<col> [<distinct_a> <distinct_b>]
//   costmodel <naive|sm|dnl|min>
//   threshold <initial_plan_cost_threshold>
//   estimator <paper|hist|noest>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/optimize_query.h"
#include "card/fanout.h"
#include "card/histogram.h"
#include "card/no_estimate.h"
#include "common/strings.h"
#include "exec/datagen.h"
#include "exec/executor.h"
#include "exec/stats.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profiler/profiler.h"
#include "obs/trace.h"
#include "plan/explain.h"
#include "plan/plan.h"
#include "textio/bjq.h"

namespace {

// Exit codes; parse, optimizer, and budget failures are distinguishable so
// scripts can react (e.g. re-queue a budget-exhausted query off-peak).
constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitParse = 3;
constexpr int kExitBudget = 4;
constexpr int kExitDeadline = 5;

int Usage() {
  std::fprintf(
      stderr,
      "usage: blitzopt <query.bjq> [--execute] [--counts] [--tree] "
      "[--explain] [--report] [--deadline-ms=<ms>] [--max-table-mb=<mb>] "
      "[--no-degrade] [--exhaustive-limit=<n>] [--threads=<n>] "
      "[--simd=<auto|scalar|block|avx2|avx512>] "
      "[--estimator=<paper|hist|noest>] "
      "[--trace-out=<file>] [--metrics-out=<file>] [--profile=<file>]\n");
  return kExitUsage;
}

int OptimizeExitCode(const blitz::Status& status) {
  switch (status.code()) {
    case blitz::StatusCode::kResourceExhausted:
      // Memory budget: re-queueing unchanged will fail again; re-queue
      // off-peak with a bigger --max-table-mb (or let degradation run).
      return kExitBudget;
    case blitz::StatusCode::kDeadlineExceeded:
    case blitz::StatusCode::kCancelled:
      // Time budget or external cancellation: the same query may well
      // succeed on retry with a fresh deadline.
      return kExitDeadline;
    default:
      return kExitError;
  }
}

/// Installs/uninstalls the global trace recorder, metrics registry, and
/// profiler for the duration of the run and writes the requested files at
/// exit.
class ObsSession {
 public:
  ObsSession(std::string trace_path, std::string metrics_path,
             std::string profile_path)
      : trace_path_(std::move(trace_path)),
        metrics_path_(std::move(metrics_path)),
        profile_path_(std::move(profile_path)) {
    if (!trace_path_.empty()) blitz::SetGlobalTraceRecorder(&recorder_);
    if (!metrics_path_.empty()) blitz::SetGlobalMetrics(&metrics_);
    if (!profile_path_.empty()) blitz::SetGlobalProfiler(&profiler_);
  }

  ~ObsSession() {
    blitz::SetGlobalTraceRecorder(nullptr);
    blitz::SetGlobalMetrics(nullptr);
    blitz::SetGlobalProfiler(nullptr);
    if (!trace_path_.empty()) {
      const blitz::Status status =
          blitz::WriteChromeTraceFile(recorder_, trace_path_);
      if (status.ok()) {
        std::printf("trace written to %s (%zu spans)\n", trace_path_.c_str(),
                    recorder_.num_events());
      } else {
        std::fprintf(stderr, "trace export failed: %s\n",
                     status.ToString().c_str());
      }
    }
    if (!metrics_path_.empty()) {
      const blitz::Status status =
          blitz::WriteMetricsJsonFile(metrics_, metrics_path_);
      if (status.ok()) {
        std::printf("metrics written to %s\n", metrics_path_.c_str());
      } else {
        std::fprintf(stderr, "metrics export failed: %s\n",
                     status.ToString().c_str());
      }
    }
    if (!profile_path_.empty()) {
      const blitz::Status status =
          blitz::WriteTextFile(profile_path_, profiler_.ToJson() + "\n");
      if (status.ok()) {
        std::printf("profile written to %s (%s backend)\n",
                    profile_path_.c_str(), profiler_.backend());
      } else {
        std::fprintf(stderr, "profile export failed: %s\n",
                     status.ToString().c_str());
      }
    }
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::string profile_path_;
  blitz::TraceRecorder recorder_;
  blitz::MetricsRegistry metrics_;
  blitz::Profiler profiler_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace blitz;
  if (argc < 2) return Usage();

  std::string path;
  std::string trace_out;
  std::string metrics_out;
  std::string profile_out;
  bool execute = false;
  bool counts = false;
  bool tree = false;
  bool explain = false;
  bool show_report = false;
  bool degrade = true;
  double deadline_ms = 0;
  double max_table_mb = 0;
  int exhaustive_limit = 16;
  int threads = 1;
  SimdLevel simd = SimdLevel::kAuto;
  std::optional<EstimatorKind> estimator_flag;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value_of = [&](std::string_view prefix) -> std::string_view {
      return arg.substr(prefix.size());
    };
    if (arg == "--execute") {
      execute = true;
    } else if (arg == "--counts") {
      counts = true;
    } else if (arg == "--tree") {
      tree = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--report") {
      show_report = true;
    } else if (arg == "--no-degrade") {
      degrade = false;
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      if (!ParseDouble(value_of("--deadline-ms="), &deadline_ms) ||
          !(deadline_ms > 0)) {
        std::fprintf(stderr, "error: bad --deadline-ms value\n");
        return kExitUsage;
      }
    } else if (arg.rfind("--max-table-mb=", 0) == 0) {
      if (!ParseDouble(value_of("--max-table-mb="), &max_table_mb) ||
          !(max_table_mb > 0)) {
        std::fprintf(stderr, "error: bad --max-table-mb value\n");
        return kExitUsage;
      }
    } else if (arg.rfind("--exhaustive-limit=", 0) == 0) {
      if (!ParseInt(value_of("--exhaustive-limit="), &exhaustive_limit) ||
          exhaustive_limit < 1) {
        std::fprintf(stderr, "error: bad --exhaustive-limit value\n");
        return kExitUsage;
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      // 0 = one thread per hardware core (see ParallelOptimizerOptions).
      if (!ParseInt(value_of("--threads="), &threads) || threads < 0) {
        std::fprintf(stderr, "error: bad --threads value\n");
        return kExitUsage;
      }
    } else if (arg.rfind("--simd=", 0) == 0) {
      // auto = cpuid probe + BLITZ_SIMD env override; a forced level is
      // clamped to what this machine supports (see simd/dispatch.h).
      Result<SimdLevel> parsed = ParseSimdLevel(value_of("--simd="));
      if (!parsed.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     parsed.status().ToString().c_str());
        return kExitUsage;
      }
      simd = *parsed;
    } else if (arg.rfind("--estimator=", 0) == 0) {
      const std::optional<EstimatorKind> kind =
          EstimatorKindFromName(value_of("--estimator="));
      if (!kind.has_value()) {
        std::fprintf(stderr, "error: bad --estimator value (valid: %s)\n",
                     EstimatorKindNames());
        return kExitUsage;
      }
      estimator_flag = kind;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = value_of("--trace-out=");
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = value_of("--metrics-out=");
    } else if (arg.rfind("--profile=", 0) == 0) {
      profile_out = value_of("--profile=");
    } else if (path.empty()) {
      path = arg;
    } else {
      return Usage();
    }
  }
  if (path.empty()) return Usage();
  if ((!trace_out.empty() && trace_out == metrics_out)) {
    std::fprintf(stderr,
                 "error: --trace-out and --metrics-out must differ\n");
    return kExitUsage;
  }
  ObsSession obs(trace_out, metrics_out, profile_out);

  Result<QuerySpec> spec = LoadBjqFile(path);
  if (!spec.ok()) {
    std::fprintf(stderr, "error: %s\n", spec.status().ToString().c_str());
    return kExitParse;
  }
  std::printf("%d relations, %d predicates, cost model %s\n",
              spec->catalog.num_relations(), spec->graph.num_predicates(),
              CostModelKindToString(spec->cost_model));

  QueryOptimizerOptions options;
  options.cost_model = spec->cost_model;
  options.exhaustive_limit = exhaustive_limit;
  options.initial_cost_threshold = spec->threshold;
  // Always collected: the summary line prints the resolved SIMD level and
  // any degradation steps from the report.
  options.collect_report = true;
  options.count_operations = counts;
  // --profile opts the DP passes into the per-phase attribution pass (the
  // profiled copy also folds into the global Profiler installed above).
  options.collect_profile = !profile_out.empty();
  options.degrade_on_budget = degrade;
  options.parallel.num_threads = threads;
  options.simd = simd;
  if (deadline_ms > 0) options.budget.deadline_seconds = deadline_ms * 1e-3;
  if (max_table_mb > 0) {
    // A positive flag always arms the cap: tiny values must not truncate to
    // 0 bytes, which ResourceBudget treats as "no cap".
    options.budget.max_dp_table_bytes = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(max_table_mb * 1024.0 * 1024.0));
  }

  // The CLI flag overrides the file's `estimator` directive; default paper.
  // Non-paper estimators are owned here and must outlive OptimizeQuery.
  const EstimatorKind estimator_kind = estimator_flag.has_value()
                                           ? *estimator_flag
                                           : spec->estimator.value_or(
                                                 EstimatorKind::kPaperFanout);
  std::optional<NoEstimateEstimator> no_estimate;
  std::unique_ptr<SampleHistogramEstimator> histogram;
  if (estimator_kind == EstimatorKind::kNoEstimate) {
    no_estimate.emplace(spec->graph);
    options.estimator = &*no_estimate;
  } else if (estimator_kind == EstimatorKind::kSampleHistogram) {
    // Histograms are sampled from synthetic base tables realizing the
    // catalog's statistics — the closest a statistics-only front end can
    // get to "scan the data".
    Result<std::vector<ExecTable>> tables =
        GenerateTables(spec->catalog, spec->graph, DataGenOptions{});
    if (!tables.ok()) {
      std::fprintf(stderr, "error: %s\n", tables.status().ToString().c_str());
      return kExitError;
    }
    Result<std::unique_ptr<SampleHistogramEstimator>> built =
        BuildHistogramEstimator(spec->graph, *tables);
    if (!built.ok()) {
      std::fprintf(stderr, "error: %s\n", built.status().ToString().c_str());
      return kExitError;
    }
    histogram = std::move(*built);
    options.estimator = histogram.get();
  }

  Result<OptimizedQuery> optimized =
      OptimizeQuery(spec->catalog, spec->graph, options);
  if (!optimized.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 optimized.status().ToString().c_str());
    return OptimizeExitCode(optimized.status());
  }

  std::printf("plan: %s\n", optimized->plan.ToString(&spec->catalog).c_str());
  if (tree) {
    std::printf("%s", optimized->plan.ToTreeString(&spec->catalog).c_str());
  }
  if (explain) {
    std::printf("%s", ExplainPlan(optimized->plan, spec->catalog,
                                  spec->graph, spec->cost_model)
                          .c_str());
  }
  std::printf("cost: %g (%d optimizer pass%s, tier %s%s, simd %s, "
              "estimator %s)\n",
              optimized->cost, optimized->passes,
              optimized->passes == 1 ? "" : "es",
              OptimizerTierName(optimized->tier),
              optimized->exact() ? ", exact" : "",
              SimdLevelName(optimized->report->simd_level),
              EstimatorKindName(estimator_kind));
  for (const std::string& step : optimized->report->degradations) {
    std::printf("degraded: %s\n", step.c_str());
  }
  std::vector<double> base_cards(spec->catalog.num_relations());
  for (int i = 0; i < spec->catalog.num_relations(); ++i) {
    base_cards[i] = spec->catalog.cardinality(i);
  }
  std::printf("estimated result cardinality: %g\n",
              FanoutJoinCardinality(spec->graph, spec->catalog.AllRelations(),
                                    base_cards));
  if (counts) {
    std::printf("operation counts: %s\n",
                optimized->report->counters.ToString().c_str());
  }
  if (show_report) {
    std::printf("report: %s\n", optimized->ReportToString().c_str());
  }

  if (execute) {
    // Refuse to materialize unreasonably large intermediates: the bundled
    // engine is a validator, not a warehouse.
    constexpr double kMaxRows = 5e6;
    double biggest = 0;
    std::function<void(const PlanNode&)> scan = [&](const PlanNode& node) {
      biggest = std::max(
          biggest, FanoutJoinCardinality(spec->graph, node.set, base_cards));
      if (!node.is_leaf()) {
        scan(*node.left);
        scan(*node.right);
      }
    };
    scan(optimized->plan.root());
    if (biggest > kMaxRows) {
      std::printf(
          "skipping --execute: an intermediate result is estimated at %g "
          "rows (limit %g)\n",
          biggest, kMaxRows);
      return kExitOk;
    }
    Result<std::vector<ExecTable>> tables =
        GenerateTables(spec->catalog, spec->graph, DataGenOptions{});
    if (!tables.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   tables.status().ToString().c_str());
      return kExitError;
    }
    Result<ExecutionResult> result =
        ExecutePlan(optimized->plan, *tables, spec->graph);
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   result.status().ToString().c_str());
      return kExitError;
    }
    std::printf("executed on synthetic data: %llu result rows\n",
                static_cast<unsigned long long>(result->result.num_rows()));
  }
  return kExitOk;
}
