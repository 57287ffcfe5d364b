// Cross-method comparison (the Section 2 / Section 7 context): blitzsplit's
// bushy-with-products search against the restricted and heuristic
// alternatives it argues against or complements —
//   * left-deep DP with products (System R-style space),
//   * connected-subgraph bushy DP without products (the common exclusion),
//   * DPsize (Starburst-style size-driven enumeration, O(4^n) enumerator),
//   * greedy (GOO-style),
//   * iterative improvement and simulated annealing [Ste96],
//   * uniform random sampling [GLPK94-inspired].
// For each we report wall-clock time and plan cost relative to the
// blitzsplit optimum.

#include <cstdio>
#include <functional>
#include <string>

#include "baseline/dpccp.h"
#include "baseline/dpsize.h"
#include "baseline/dpsub.h"
#include "baseline/greedy.h"
#include "baseline/hybrid.h"
#include "baseline/leftdeep.h"
#include "baseline/local_search.h"
#include "baseline/random_plans.h"
#include "baseline/topdown.h"
#include "benchlib/table_out.h"
#include "benchlib/timing.h"
#include "common/strings.h"
#include "core/optimizer.h"
#include "query/workload.h"

namespace blitz {
namespace {

struct MethodResult {
  bool ok = false;
  double cost = 0;
  double seconds = 0;
};

int Run() {
  const int n = BenchEnvInt("BLITZ_COMPARE_N", 13);
  const double min_seconds = BenchMinSeconds(0.05);
  std::printf(
      "Optimizer comparison at n = %d (cost ratios relative to the\n"
      "bushy-with-products optimum found by blitzsplit; naive cost model)\n\n",
      n);

  for (const Topology topology :
       {Topology::kChain, Topology::kStar, Topology::kClique}) {
    for (const double mean : {21.5, 1e4}) {
      WorkloadSpec spec;
      spec.num_relations = n;
      spec.topology = topology;
      spec.mean_cardinality = mean;
      spec.variability = 0.5;
      Result<Workload> workload = MakeWorkload(spec);
      if (!workload.ok()) continue;
      const Catalog& catalog = workload->catalog;
      const JoinGraph& graph = workload->graph;

      // Reference: blitzsplit.
      double reference_cost = 0;
      const TimingResult blitz_time = TimeIt(
          [&] {
            Result<OptimizeOutcome> r =
                OptimizeJoin(catalog, graph, OptimizerOptions{});
            if (r.ok()) reference_cost = r->cost;
          },
          min_seconds);

      auto time_method =
          [&](const std::function<MethodResult()>& fn) -> MethodResult {
        MethodResult result;
        const TimingResult timing = TimeIt(
            [&] { result = fn(); }, min_seconds);
        result.seconds = timing.seconds_per_run;
        return result;
      };

      const MethodResult left_deep = time_method([&] {
        Result<LeftDeepResult> r =
            OptimizeLeftDeep(catalog, graph, CostModelKind::kNaive);
        return r.ok() ? MethodResult{true, r->cost, 0} : MethodResult{};
      });
      const MethodResult dpsub = time_method([&] {
        Result<DpSubResult> r =
            OptimizeDpSubNoProducts(catalog, graph, CostModelKind::kNaive);
        return r.ok() ? MethodResult{true, r->cost, 0} : MethodResult{};
      });
      const MethodResult dpsize = time_method([&] {
        Result<DpSizeResult> r = OptimizeDpSize(
            catalog, graph, CostModelKind::kNaive, DpSizeOptions{});
        return r.ok() ? MethodResult{true, r->cost, 0} : MethodResult{};
      });
      const MethodResult greedy = time_method([&] {
        Result<GreedyResult> r =
            OptimizeGreedy(catalog, graph, CostModelKind::kNaive,
                           GreedyCriterion::kMinOutputCardinality);
        return r.ok() ? MethodResult{true, r->cost, 0} : MethodResult{};
      });
      const MethodResult ii = time_method([&] {
        LocalSearchOptions options;
        options.max_moves = 4000;
        Result<LocalSearchResult> r = OptimizeIterativeImprovement(
            catalog, graph, CostModelKind::kNaive, options);
        return r.ok() ? MethodResult{true, r->cost, 0} : MethodResult{};
      });
      const MethodResult sa = time_method([&] {
        LocalSearchOptions options;
        options.max_moves = 4000;
        Result<LocalSearchResult> r = OptimizeSimulatedAnnealing(
            catalog, graph, CostModelKind::kNaive, options);
        return r.ok() ? MethodResult{true, r->cost, 0} : MethodResult{};
      });
      const MethodResult sampling = time_method([&] {
        Rng rng(1);
        Result<RandomSamplingResult> r = OptimizeByRandomSampling(
            catalog, graph, CostModelKind::kNaive, 1000, &rng);
        return r.ok() ? MethodResult{true, r->cost, 0} : MethodResult{};
      });
      const MethodResult dpccp = time_method([&] {
        Result<DpCcpResult> r =
            OptimizeDpCcp(catalog, graph, CostModelKind::kNaive);
        return r.ok() ? MethodResult{true, r->cost, 0} : MethodResult{};
      });
      const MethodResult topdown = time_method([&] {
        Result<TopDownResult> r = OptimizeTopDown(
            catalog, graph, CostModelKind::kNaive, TopDownOptions{});
        return r.ok() ? MethodResult{true, r->cost, 0} : MethodResult{};
      });
      const MethodResult hybrid = time_method([&] {
        HybridOptions options;
        options.block_size = 10;
        options.restarts = 2;
        Result<HybridResult> r =
            OptimizeHybrid(catalog, graph, OptimizerOptions{}, options);
        return r.ok() ? MethodResult{true, r->cost, 0} : MethodResult{};
      });

      std::printf("--- topology %s, mean cardinality %.3g ---\n",
                  TopologyToString(topology), mean);
      TextTable out;
      out.SetHeader({"method", "time (ms)", "cost / optimal"});
      out.AddRow({"blitzsplit (bushy+products)",
                  StrFormat("%.1f", blitz_time.seconds_per_run * 1e3),
                  "1.000"});
      auto add = [&](const char* name, const MethodResult& m) {
        out.AddRow({name,
                    m.ok ? StrFormat("%.1f", m.seconds * 1e3) : "-",
                    m.ok ? StrFormat("%.3f", m.cost / reference_cost)
                         : "failed"});
      };
      add("left-deep DP (+products)", left_deep);
      add("DPsub (no products)", dpsub);
      add("DPsize (bushy+products)", dpsize);
      add("DPccp (no products, 2006)", dpccp);
      add("top-down memo (Volcano-style)", topdown);
      add("hybrid random-blocks DP", hybrid);
      add("greedy (GOO)", greedy);
      add("iterative improvement", ii);
      add("simulated annealing", sa);
      add("random sampling (1000)", sampling);
      std::printf("%s\n", out.ToString().c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace blitz

int main() { return blitz::Run(); }
