#include "baseline/hybrid.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "baseline/greedy.h"
#include "baseline/local_search.h"
#include "card/fanout.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/optimizer.h"
#include "governor/faultpoints.h"
#include "governor/governor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/evaluate.h"

namespace blitz {

namespace {

struct Unit {
  Plan plan;
  RelSet base_set;
  double card = 0;
};

/// Grows a block of up to `limit` units, BFS-style through unit-level
/// connectivity starting from a random seed; pads with random unconnected
/// units if the reachable component is smaller than 2.
std::vector<size_t> PickBlock(const std::vector<Unit>& units,
                              const JoinGraph& graph, int limit, Rng* rng) {
  const size_t n = units.size();
  std::vector<bool> in_block(n, false);
  std::vector<size_t> block;
  std::vector<size_t> frontier;
  const size_t seed = rng->NextBounded(n);
  block.push_back(seed);
  in_block[seed] = true;
  frontier.push_back(seed);
  while (!frontier.empty() && block.size() < static_cast<size_t>(limit)) {
    // Pop a random frontier element for decomposition diversity.
    const size_t pick = rng->NextBounded(frontier.size());
    const size_t current = frontier[pick];
    frontier.erase(frontier.begin() + static_cast<std::ptrdiff_t>(pick));
    for (size_t other = 0;
         other < n && block.size() < static_cast<size_t>(limit); ++other) {
      if (!in_block[other] && graph.AnyEdgeSpans(units[current].base_set,
                                                 units[other].base_set)) {
        in_block[other] = true;
        block.push_back(other);
        frontier.push_back(other);
      }
    }
  }
  // Guarantee progress: a block must fuse at least two units.
  while (block.size() < 2 && block.size() < n) {
    const size_t extra = rng->NextBounded(n);
    if (!in_block[extra]) {
      in_block[extra] = true;
      block.push_back(extra);
    }
  }
  return block;
}

/// Replaces the leaves of a block-level plan (which reference block
/// indexes) with the units' accumulated plans.
Plan ComposePlan(const PlanNode& node, std::vector<Unit>* units,
                 const std::vector<size_t>& block) {
  if (node.is_leaf()) {
    return std::move((*units)[block[static_cast<size_t>(node.relation())]]
                         .plan);
  }
  Plan left = ComposePlan(*node.left, units, block);
  Plan right = ComposePlan(*node.right, units, block);
  return Plan::Join(std::move(left), std::move(right));
}

}  // namespace

Status HybridOptions::Validate() const {
  if (block_size < 2 || block_size > kMaxRelations) {
    return Status::InvalidArgument("block_size must be in [2, kMaxRelations]");
  }
  if (restarts < 1) {
    return Status::InvalidArgument("need at least one restart");
  }
  if (polish_moves < 0) {
    return Status::InvalidArgument("polish_moves must be non-negative");
  }
  return Status::OK();
}

Result<HybridResult> OptimizeHybrid(const Catalog& catalog,
                                    const JoinGraph& graph,
                                    const OptimizerOptions& pass,
                                    const HybridOptions& search) {
  const int n = catalog.num_relations();
  if (graph.num_relations() != n) {
    return Status::InvalidArgument("catalog/graph relation-count mismatch");
  }
  BLITZ_RETURN_IF_ERROR(search.Validate());
  BLITZ_RETURN_IF_ERROR(pass.parallel.Validate());
  // Fault point: fail the whole hybrid tier deterministically so the
  // degradation ladder's hybrid -> greedy step is testable.
  if (std::optional<FaultSpec> fault = FaultHit(kFaultHybridRun)) {
    if (fault->kind == FaultKind::kFailStatus) return fault->status;
  }
  // One shared clock for every restart, block solve, and polish loop.
  const ResourceBudget budget = pass.budget.Resolved();
  GovernorState governor(budget);
  if (governor.active() && governor.CheckNow()) return governor.status();

  const MetricTimer timer;
  TraceSpan span("OptimizeHybrid");
  span.AddArg("n", n);
  span.AddArg("restarts", search.restarts);

  // The cardinality seam: null or exact keeps the Section 5.1 unit
  // statistics verbatim; a non-exact estimator replaces every cardinality,
  // pair selectivity, and candidate-plan cost the search reads.
  const CardinalityEstimator* est =
      (pass.estimator != nullptr && !pass.estimator->exact())
          ? pass.estimator
          : nullptr;
  if (est != nullptr && est->num_relations() != n) {
    return Status::InvalidArgument("estimator/catalog relation-count mismatch");
  }

  std::vector<double> base_cards(n);
  for (int i = 0; i < n; ++i) {
    base_cards[i] = est != nullptr ? est->BaseCardinality(i)
                                   : catalog.cardinality(i);
  }

  const auto plan_cost = [&](const Plan& plan) {
    return est != nullptr
               ? EvaluateCost(plan, *est, pass.cost_model)
               : EvaluateCost(plan, catalog, graph, pass.cost_model);
  };

  Rng rng(search.seed);
  HybridResult best;
  best.cost = std::numeric_limits<double>::infinity();
  bool budget_exhausted = false;

  auto polish = [&](Plan* plan, double* cost) {
    if (!search.polish || n < 3) return;
    for (int move = 0; move < search.polish_moves; ++move) {
      Plan candidate = plan->Clone();
      if (!ApplyRandomMove(&candidate, &rng)) break;
      const double candidate_cost = plan_cost(candidate);
      if (candidate_cost < *cost) {
        *plan = std::move(candidate);
        *cost = candidate_cost;
      }
    }
  };

  if (search.seed_with_greedy && n >= 2) {
    Result<GreedyResult> greedy =
        OptimizeGreedy(catalog, graph, pass.cost_model,
                       GreedyCriterion::kMinOutputCardinality,
                       pass.estimator);
    if (greedy.ok()) {
      double cost = greedy->cost;
      Plan plan = std::move(greedy->plan);
      polish(&plan, &cost);
      if (cost < best.cost) {
        best.cost = cost;
        best.plan = std::move(plan);
      }
    }
  }

  for (int restart = 0; restart < search.restarts; ++restart) {
    // If the budget ran out, return what the finished restarts found (a
    // valid plan beats an error) — fail only when nothing completed yet.
    if (governor.active() && governor.CheckNow()) {
      if (best.cost < std::numeric_limits<double>::infinity()) break;
      return governor.status();
    }
    TraceSpan restart_span("hybrid_restart");
    restart_span.AddArg("restart", restart);
    std::vector<Unit> units;
    units.reserve(n);
    for (int i = 0; i < n; ++i) {
      units.push_back(Unit{Plan::Leaf(i), RelSet::Singleton(i),
                           base_cards[i]});
    }

    while (units.size() > 1) {
      const std::vector<size_t> block = PickBlock(
          units, graph,
          std::min<int>(search.block_size,
                        static_cast<int>(units.size())),
          &rng);

      // Block-level statistics: each unit becomes a pseudo-relation.
      std::vector<double> block_cards(block.size());
      for (size_t m = 0; m < block.size(); ++m) {
        block_cards[m] = units[block[m]].card;
      }
      Result<Catalog> block_catalog = Catalog::FromCardinalities(block_cards);
      if (!block_catalog.ok()) return block_catalog.status();
      JoinGraph block_graph(static_cast<int>(block.size()));
      for (size_t a = 0; a < block.size(); ++a) {
        for (size_t b = a + 1; b < block.size(); ++b) {
          if (graph.AnyEdgeSpans(units[block[a]].base_set,
                                 units[block[b]].base_set)) {
            const double selectivity =
                est != nullptr
                    ? est->EstimateSpanSelectivity(units[block[a]].base_set,
                                                   units[block[b]].base_set)
                    : graph.PiSpan(units[block[a]].base_set,
                                   units[block[b]].base_set);
            BLITZ_RETURN_IF_ERROR(block_graph.AddPredicate(
                static_cast<int>(a), static_cast<int>(b), selectivity));
          }
        }
      }

      // Exact bushy-with-products solve of the block, governed by the
      // run-wide budget (absolute deadline, per-table memory cap).
      OptimizerOptions dp_options;
      dp_options.cost_model = pass.cost_model;
      dp_options.budget = budget;
      dp_options.parallel = pass.parallel;
      dp_options.simd = pass.simd;
      Result<OptimizeOutcome> outcome =
          OptimizeJoin(*block_catalog, block_graph, dp_options);
      if (!outcome.ok()) {
        // A budget abort mid-restart falls back to the best finished
        // restart if there is one; anything else propagates.
        const StatusCode code = outcome.status().code();
        const bool budget_abort = code == StatusCode::kDeadlineExceeded ||
                                  code == StatusCode::kCancelled ||
                                  code == StatusCode::kResourceExhausted;
        if (budget_abort &&
            best.cost < std::numeric_limits<double>::infinity()) {
          budget_exhausted = true;
          break;
        }
        return outcome.status();
      }
      ++best.dp_invocations;
      Result<Plan> block_plan = Plan::ExtractFromTable(outcome->table);
      if (!block_plan.ok()) return block_plan.status();

      // Fuse the block into one unit carrying the composed plan.
      Unit fused;
      fused.plan = ComposePlan(block_plan->root(), &units, block);
      fused.base_set = fused.plan.relations();
      fused.card =
          est != nullptr
              ? est->EstimateCardinality(fused.base_set)
              : FanoutJoinCardinality(graph, fused.base_set, base_cards);

      // Remove the block's units (descending index order keeps positions
      // valid), then append the fused unit.
      std::vector<size_t> sorted_block = block;
      std::sort(sorted_block.rbegin(), sorted_block.rend());
      for (const size_t index : sorted_block) {
        units.erase(units.begin() + static_cast<std::ptrdiff_t>(index));
      }
      units.push_back(std::move(fused));
    }

    if (budget_exhausted) break;

    Plan plan = std::move(units[0].plan);
    double cost = plan_cost(plan);
    // Short first-improvement descent around the decomposed solution.
    polish(&plan, &cost);

    restart_span.AddArg("cost", cost);
    if (cost < best.cost) {
      best.cost = cost;
      best.plan = std::move(plan);
    }
  }
  span.AddArg("cost", best.cost);
  span.AddArg("dp_invocations", best.dp_invocations);
  if (MetricsRegistry* metrics = GlobalMetrics()) {
    metrics->AddCounter("hybrid.calls");
    metrics->AddCounter("hybrid.restarts",
                        static_cast<std::uint64_t>(search.restarts));
    metrics->AddCounter("hybrid.dp_invocations",
                        static_cast<std::uint64_t>(best.dp_invocations));
    metrics->RecordLatency("hybrid.seconds", timer.ElapsedSeconds());
  }
  return best;
}

}  // namespace blitz
