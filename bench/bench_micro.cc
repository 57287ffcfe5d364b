// Google-benchmark microbenchmarks for the performance-critical kernels:
// the subset successor loop, the full Cartesian and join optimizers at
// several n, the Pi_fan recurrence versus direct selectivity products, and
// the cost-model kappa'' kernels.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "benchlib/bench_json.h"
#include "card/fanout.h"
#include "catalog/catalog.h"
#include "common/check.h"
#include "common/strings.h"
#include "core/optimizer.h"
#include "core/subset_enum.h"
#include "cost/cost_model.h"
#include "query/workload.h"
#include "simd/dispatch.h"

namespace blitz {
namespace {

void BM_SubsetSuccessorLoop(benchmark::State& state) {
  // Iterate all proper subsets of an n-member set via the succ operator.
  const int n = static_cast<int>(state.range(0));
  const std::uint64_t s = (std::uint64_t{1} << n) - 1;
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (std::uint64_t lhs = s & (~s + 1); lhs != s; lhs = s & (lhs - s)) {
      sum += lhs;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * ((1 << n) - 2));
}
BENCHMARK(BM_SubsetSuccessorLoop)->Arg(10)->Arg(15)->Arg(20);

void BM_CartesianOptimize(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Result<Catalog> catalog =
      Catalog::FromCardinalities(std::vector<double>(n, 100.0));
  BLITZ_CHECK(catalog.ok());
  for (auto _ : state) {
    Result<OptimizeOutcome> outcome =
        OptimizeCartesian(*catalog, OptimizerOptions{});
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_CartesianOptimize)->Arg(8)->Arg(11)->Arg(14);

void BM_CartesianOptimizeSimd(benchmark::State& state) {
  // The split-filter kernel comparison at one n: arg 1 selects the forced
  // dispatch level (unsupported levels clamp down, so the benchmark runs
  // everywhere — compare against the scalar row on this machine).
  const int n = static_cast<int>(state.range(0));
  const SimdLevel level = static_cast<SimdLevel>(state.range(1));
  Result<Catalog> catalog =
      Catalog::FromCardinalities(std::vector<double>(n, 100.0));
  BLITZ_CHECK(catalog.ok());
  OptimizerOptions options;
  options.simd = level;
  for (auto _ : state) {
    Result<OptimizeOutcome> outcome = OptimizeCartesian(*catalog, options);
    benchmark::DoNotOptimize(outcome);
  }
  state.SetLabel(SimdLevelName(ResolveSimdLevel(level)));
}
BENCHMARK(BM_CartesianOptimizeSimd)
    ->Args({14, static_cast<int>(SimdLevel::kScalar)})
    ->Args({14, static_cast<int>(SimdLevel::kBlock)})
    ->Args({14, static_cast<int>(SimdLevel::kAvx2)})
    ->Args({14, static_cast<int>(SimdLevel::kAvx512)});

void BM_JoinOptimize(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  WorkloadSpec spec;
  spec.num_relations = n;
  spec.topology = Topology::kCyclePlus3;
  spec.mean_cardinality = 100;
  spec.variability = 0.5;
  Result<Workload> workload = MakeWorkload(spec);
  BLITZ_CHECK(workload.ok());
  for (auto _ : state) {
    Result<OptimizeOutcome> outcome =
        OptimizeJoin(workload->catalog, workload->graph, OptimizerOptions{});
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_JoinOptimize)->Arg(10)->Arg(12)->Arg(14);

void BM_JoinOptimizeReuseTable(benchmark::State& state) {
  // In-place re-optimization (no per-run table allocation).
  const int n = static_cast<int>(state.range(0));
  WorkloadSpec spec;
  spec.num_relations = n;
  spec.topology = Topology::kCyclePlus3;
  spec.mean_cardinality = 100;
  spec.variability = 0.5;
  Result<Workload> workload = MakeWorkload(spec);
  BLITZ_CHECK(workload.ok());
  OptimizerOptions options;
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(workload->catalog, workload->graph, options);
  BLITZ_CHECK(outcome.ok());
  for (auto _ : state) {
    Result<float> cost = ReoptimizeJoinInPlace(
        workload->catalog, workload->graph, options, &outcome->table,
        nullptr);
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_JoinOptimizeReuseTable)->Arg(12)->Arg(14);

void BM_PiFanRecurrence(benchmark::State& state) {
  // Cardinalities for all 2^n subsets via the Equation (10)/(11)
  // recurrences.
  const int n = static_cast<int>(state.range(0));
  WorkloadSpec spec;
  spec.num_relations = n;
  spec.topology = Topology::kClique;
  spec.mean_cardinality = 100;
  spec.variability = 0.5;
  Result<Workload> workload = MakeWorkload(spec);
  BLITZ_CHECK(workload.ok());
  std::vector<double> base_cards(n);
  for (int i = 0; i < n; ++i) {
    base_cards[i] = workload->catalog.cardinality(i);
  }
  std::vector<double> cards;
  for (auto _ : state) {
    FanoutComputeAllCardinalities(workload->graph, base_cards, &cards);
    benchmark::DoNotOptimize(cards.data());
  }
  state.SetItemsProcessed(state.iterations() * (1 << n));
}
BENCHMARK(BM_PiFanRecurrence)->Arg(12)->Arg(16);

void BM_PiFanDirect(benchmark::State& state) {
  // The same quantity computed naively (direct induced-subgraph product per
  // subset) — the recurrence's O(2^n) total beats this O(2^n * n^2) badly.
  const int n = static_cast<int>(state.range(0));
  WorkloadSpec spec;
  spec.num_relations = n;
  spec.topology = Topology::kClique;
  spec.mean_cardinality = 100;
  spec.variability = 0.5;
  Result<Workload> workload = MakeWorkload(spec);
  BLITZ_CHECK(workload.ok());
  std::vector<double> base_cards(n);
  for (int i = 0; i < n; ++i) {
    base_cards[i] = workload->catalog.cardinality(i);
  }
  std::vector<double> cards(std::uint64_t{1} << n);
  for (auto _ : state) {
    for (std::uint64_t s = 1; s < cards.size(); ++s) {
      cards[s] = FanoutJoinCardinality(workload->graph, RelSet::FromWord(s),
                                       base_cards);
    }
    benchmark::DoNotOptimize(cards.data());
  }
  state.SetItemsProcessed(state.iterations() * (1 << n));
}
BENCHMARK(BM_PiFanDirect)->Arg(12);

void BM_KappaKernels(benchmark::State& state) {
  const CostModelKind kind = static_cast<CostModelKind>(state.range(0));
  double out = 1e6;
  double lhs = 1e3;
  double rhs = 2e3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvalKappaDoublePrime(kind, out, lhs, rhs));
    out += 1;  // defeat constant folding
  }
}
BENCHMARK(BM_KappaKernels)
    ->Arg(static_cast<int>(CostModelKind::kNaive))
    ->Arg(static_cast<int>(CostModelKind::kSortMerge))
    ->Arg(static_cast<int>(CostModelKind::kDiskNestedLoops))
    ->Arg(static_cast<int>(CostModelKind::kMinSmDnl));

/// Console reporter that additionally collects every run into a unified
/// "blitz-bench-v1" BenchReport (benchlib/bench_json.h), so bench_micro's
/// --json output feeds the same tools/bench_diff gate as the macro benches
/// instead of google-benchmark's native schema.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  bool ReportContext(const Context& context) override {
    report_.AddMeta("cpus", StrFormat("%d", context.cpu_info.num_cpus));
    report_.AddMeta("cpu_mhz",
                    StrFormat("%.0f", context.cpu_info.cycles_per_second / 1e6));
    return ConsoleReporter::ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      // With repetitions enabled, gate on the aggregates only (their names
      // already carry the _mean/_median suffix); single runs pass through.
      report_.AddPoint(run.benchmark_name(), run.GetAdjustedRealTime(),
                       benchmark::GetTimeUnitString(run.time_unit));
    }
  }

  BenchReport* report() { return &report_; }

 private:
  BenchReport report_;
};

}  // namespace
}  // namespace blitz

// Custom main instead of BENCHMARK_MAIN(): accepts the repo-wide
// `--json <path>` convention (shared with bench_fig2_cartesian), emitting
// the unified blitz-bench-v1 schema consumed by tools/bench_diff; every
// native --benchmark_* flag still works unchanged.
int main(int argc, char** argv) {
  std::vector<char*> args;
  std::string json_path;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  int translated_argc = static_cast<int>(args.size());
  benchmark::Initialize(&translated_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(translated_argc, args.data())) {
    return 1;
  }
  blitz::CollectingReporter reporter;
  reporter.report()->bench = "micro";
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    const blitz::Status status =
        blitz::WriteBenchJsonFile(*reporter.report(), json_path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu points)\n", json_path.c_str(),
                reporter.report()->points.size());
  }
  return 0;
}
