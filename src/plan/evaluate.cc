#include "plan/evaluate.h"

#include <vector>

#include "card/fanout.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace blitz {

namespace {

std::vector<double> BaseCards(const Catalog& catalog) {
  std::vector<double> cards(catalog.num_relations());
  for (int i = 0; i < catalog.num_relations(); ++i) {
    cards[i] = catalog.cardinality(i);
  }
  return cards;
}

/// Recursive double-precision cost; `cards` is threaded through to avoid
/// per-node recomputation. Returns the subtree cost and writes the subtree's
/// output cardinality to *out_card.
double CostRec(const PlanNode& node, const std::vector<double>& cards,
               const JoinGraph& graph, CostModelKind kind, double* out_card) {
  if (node.is_leaf()) {
    *out_card = cards[node.relation()];
    return 0.0;  // cost(R) = 0, Equation (1).
  }
  double lhs_card = 0;
  double rhs_card = 0;
  const double lhs_cost = CostRec(*node.left, cards, graph, kind, &lhs_card);
  const double rhs_cost = CostRec(*node.right, cards, graph, kind, &rhs_card);
  const double span = graph.PiSpan(node.left->set, node.right->set);
  *out_card = lhs_card * rhs_card * span;
  return lhs_cost + rhs_cost + EvalJoinCost(kind, *out_card, lhs_card,
                                            rhs_card);
}

/// Single-precision variant mirroring the operation order of the blitzsplit
/// inner loop: operand costs summed in float, kappa'' rounded to float and
/// added, then kappa' rounded to float and added last.
float CostRecFloat(const PlanNode& node, const std::vector<double>& cards,
                   const JoinGraph& graph, CostModelKind kind,
                   double* out_card) {
  if (node.is_leaf()) {
    *out_card = cards[node.relation()];
    return 0.0f;
  }
  double lhs_card = 0;
  double rhs_card = 0;
  const float lhs_cost =
      CostRecFloat(*node.left, cards, graph, kind, &lhs_card);
  const float rhs_cost =
      CostRecFloat(*node.right, cards, graph, kind, &rhs_card);
  const double span = graph.PiSpan(node.left->set, node.right->set);
  *out_card = lhs_card * rhs_card * span;
  const float oprnd_cost = lhs_cost + rhs_cost;
  const float kappa2 = static_cast<float>(
      EvalKappaDoublePrime(kind, *out_card, lhs_card, rhs_card));
  const float kappa1 =
      static_cast<float>(EvalKappaPrime(kind, *out_card));
  return (oprnd_cost + kappa2) + kappa1;
}

/// Estimator-resolved mirror of CostRec: cardinalities from
/// EstimateCardinality instead of the induced-subgraph product.
double CostRecEst(const PlanNode& node, const CardinalityEstimator& estimator,
                  CostModelKind kind, double* out_card) {
  if (node.is_leaf()) {
    *out_card = estimator.BaseCardinality(node.relation());
    return 0.0;
  }
  double lhs_card = 0;
  double rhs_card = 0;
  const double lhs_cost = CostRecEst(*node.left, estimator, kind, &lhs_card);
  const double rhs_cost = CostRecEst(*node.right, estimator, kind, &rhs_card);
  *out_card = estimator.EstimateCardinality(node.set);
  return lhs_cost + rhs_cost + EvalJoinCost(kind, *out_card, lhs_card,
                                            rhs_card);
}

/// Estimator-resolved mirror of CostRecFloat (same float operation order).
float CostRecFloatEst(const PlanNode& node,
                      const CardinalityEstimator& estimator,
                      CostModelKind kind, double* out_card) {
  if (node.is_leaf()) {
    *out_card = estimator.BaseCardinality(node.relation());
    return 0.0f;
  }
  double lhs_card = 0;
  double rhs_card = 0;
  const float lhs_cost =
      CostRecFloatEst(*node.left, estimator, kind, &lhs_card);
  const float rhs_cost =
      CostRecFloatEst(*node.right, estimator, kind, &rhs_card);
  *out_card = estimator.EstimateCardinality(node.set);
  const float oprnd_cost = lhs_cost + rhs_cost;
  const float kappa2 = static_cast<float>(
      EvalKappaDoublePrime(kind, *out_card, lhs_card, rhs_card));
  const float kappa1 =
      static_cast<float>(EvalKappaPrime(kind, *out_card));
  return (oprnd_cost + kappa2) + kappa1;
}

}  // namespace

double EvaluateCardinality(const PlanNode& node, const Catalog& catalog,
                           const JoinGraph& graph) {
  return FanoutJoinCardinality(graph, node.set, BaseCards(catalog));
}

double EvaluateCost(const PlanNode& node, const Catalog& catalog,
                    const JoinGraph& graph, CostModelKind kind) {
  double out_card = 0;
  return CostRec(node, BaseCards(catalog), graph, kind, &out_card);
}

float EvaluateCostFloat(const PlanNode& node, const Catalog& catalog,
                        const JoinGraph& graph, CostModelKind kind) {
  double out_card = 0;
  return CostRecFloat(node, BaseCards(catalog), graph, kind, &out_card);
}

double EvaluateCost(const Plan& plan, const Catalog& catalog,
                    const JoinGraph& graph, CostModelKind kind) {
  BLITZ_CHECK(!plan.empty());
  TraceSpan span("EvaluateCost", "plan");
  if (MetricsRegistry* metrics = GlobalMetrics()) {
    metrics->AddCounter("plan.cost_evaluations");
  }
  const double cost = EvaluateCost(plan.root(), catalog, graph, kind);
  span.AddArg("cost", cost);
  return cost;
}

float EvaluateCostFloat(const Plan& plan, const Catalog& catalog,
                        const JoinGraph& graph, CostModelKind kind) {
  BLITZ_CHECK(!plan.empty());
  return EvaluateCostFloat(plan.root(), catalog, graph, kind);
}

double EvaluateCardinality(const PlanNode& node,
                           const CardinalityEstimator& estimator) {
  return estimator.EstimateCardinality(node.set);
}

double EvaluateCost(const PlanNode& node,
                    const CardinalityEstimator& estimator,
                    CostModelKind kind) {
  double out_card = 0;
  return CostRecEst(node, estimator, kind, &out_card);
}

double EvaluateCost(const Plan& plan, const CardinalityEstimator& estimator,
                    CostModelKind kind) {
  BLITZ_CHECK(!plan.empty());
  if (MetricsRegistry* metrics = GlobalMetrics()) {
    metrics->AddCounter("plan.cost_evaluations");
  }
  return EvaluateCost(plan.root(), estimator, kind);
}

float EvaluateCostFloat(const PlanNode& node,
                        const CardinalityEstimator& estimator,
                        CostModelKind kind) {
  double out_card = 0;
  return CostRecFloatEst(node, estimator, kind, &out_card);
}

float EvaluateCostFloat(const Plan& plan,
                        const CardinalityEstimator& estimator,
                        CostModelKind kind) {
  BLITZ_CHECK(!plan.empty());
  return EvaluateCostFloat(plan.root(), estimator, kind);
}

}  // namespace blitz
