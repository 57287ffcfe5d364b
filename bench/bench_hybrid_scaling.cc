// Extension bench (Section 7 direction): the hybrid randomized/DP optimizer
// on joins beyond comfortable exhaustive reach. For n where exhaustive
// blitzsplit still runs we report the hybrid's cost ratio to the true
// optimum; beyond that we compare against greedy. Demonstrates graceful
// scaling: exhaustive search is O(3^n), the hybrid is a handful of
// O(3^block) solves per restart.
//
// Environment knobs: BLITZ_BENCH_MIN_SECONDS (default 0.05),
// BLITZ_HYBRID_MAX_N (default 24), BLITZ_HYBRID_EXACT_MAX_N (default 16).

#include <cstdio>

#include "baseline/greedy.h"
#include "baseline/hybrid.h"
#include "benchlib/table_out.h"
#include "benchlib/timing.h"
#include "common/strings.h"
#include "core/optimizer.h"
#include "query/workload.h"

namespace blitz {
namespace {

int Run() {
  const double min_seconds = BenchMinSeconds(0.05);
  const int max_n = BenchEnvInt("BLITZ_HYBRID_MAX_N", 24);
  const int exact_max_n = BenchEnvInt("BLITZ_HYBRID_EXACT_MAX_N", 16);

  std::printf(
      "Hybrid randomized/DP optimizer scaling (cycle+3 topology,\n"
      "mean cardinality 1000, variability 0.5, naive cost model,\n"
      "block size 12, 4 restarts)\n\n");

  TextTable out;
  out.SetHeader({"n", "hybrid (ms)", "exact (ms)", "hybrid/exact cost",
                 "hybrid/greedy cost"});

  for (int n = 10; n <= max_n; n += 2) {
    WorkloadSpec spec;
    spec.num_relations = n;
    spec.topology = Topology::kCyclePlus3;
    spec.mean_cardinality = 1000;
    spec.variability = 0.5;
    Result<Workload> workload = MakeWorkload(spec);
    if (!workload.ok()) continue;

    HybridOptions hybrid_options;
    hybrid_options.block_size = 12;
    hybrid_options.restarts = 4;
    double hybrid_cost = 0;
    const TimingResult hybrid_time = TimeIt(
        [&] {
          Result<HybridResult> result =
              OptimizeHybrid(workload->catalog, workload->graph,
                             OptimizerOptions{}, hybrid_options);
          if (result.ok()) hybrid_cost = result->cost;
        },
        min_seconds);

    std::string exact_ms = "-";
    std::string exact_ratio = "-";
    if (n <= exact_max_n) {
      double exact_cost = 0;
      const TimingResult exact_time = TimeIt(
          [&] {
            Result<OptimizeOutcome> result = OptimizeJoin(
                workload->catalog, workload->graph, OptimizerOptions{});
            if (result.ok()) exact_cost = result->cost;
          },
          min_seconds);
      exact_ms = StrFormat("%.1f", exact_time.seconds_per_run * 1e3);
      exact_ratio = StrFormat("%.3f", hybrid_cost / exact_cost);
    }

    Result<GreedyResult> greedy = OptimizeGreedy(
        workload->catalog, workload->graph, CostModelKind::kNaive,
        GreedyCriterion::kMinOutputCardinality);
    const std::string greedy_ratio =
        greedy.ok() ? StrFormat("%.3f", hybrid_cost / greedy->cost) : "-";

    out.AddRow({StrFormat("%d", n),
                StrFormat("%.1f", hybrid_time.seconds_per_run * 1e3),
                exact_ms, exact_ratio, greedy_ratio});
  }
  std::printf("%s\n", out.ToString().c_str());
  std::printf(
      "Reading: hybrid/exact near 1.000 where checkable; hybrid time grows\n"
      "mildly with n while exhaustive time multiplies ~9x per +2 relations.\n");
  return 0;
}

}  // namespace
}  // namespace blitz

int main() { return blitz::Run(); }
