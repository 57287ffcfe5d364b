#include "testing/oracles.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "baseline/dpccp.h"
#include "common/strings.h"
#include "plan/evaluate.h"

namespace blitz::fuzz {
namespace {

/// Relative float-vs-double tolerance for cost comparisons. Costs are
/// non-negative sums (no cancellation); the float accumulation of a depth-n
/// plan carries at most ~n * 2^-24 relative error, so 2e-4 is generous for
/// every n the harness reaches.
constexpr double kCostTol = 2e-4;

/// Relative tolerance between the double-precision Pi_fan recurrences and a
/// direct selectivity-product scan (same precision, different association
/// order).
constexpr double kCardTol = 1e-8;

bool RelClose(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max({std::abs(a), std::abs(b), 1.0});
}

}  // namespace

Result<BruteForceTable> BruteForceAllSubsets(const Catalog& catalog,
                                             const JoinGraph& graph,
                                             CostModelKind cost_model,
                                             int max_n) {
  const int n = catalog.num_relations();
  if (n != graph.num_relations()) {
    return Status::InvalidArgument(
        StrFormat("catalog has %d relations, graph %d", n,
                  graph.num_relations()));
  }
  if (n < 1 || n > max_n) {
    return Status::InvalidArgument(
        StrFormat("brute-force oracle limited to n in [1, %d], got %d", max_n,
                  n));
  }

  using Word = RelSet::Word;
  const Word rows = Word{1} << n;
  BruteForceTable ref;
  ref.num_relations = n;
  ref.card.assign(rows, 0.0);
  ref.cost.assign(rows, std::numeric_limits<double>::infinity());
  ref.best_lhs.assign(rows, 0);

  // Cardinalities straight from the Section 5.1 definition: every base
  // cardinality in S, every predicate wholly inside S.
  for (Word s = 1; s < rows; ++s) {
    double card = 1.0;
    RelSet::FromWord(s).ForEach(
        [&](int i) { card *= catalog.cardinality(i); });
    for (const Predicate& p : graph.predicates()) {
      if ((s >> p.lhs) & 1 && (s >> p.rhs) & 1) card *= p.selectivity;
    }
    ref.card[s] = card;
  }

  // Bottom-up optima over ALL ordered splits (each unordered split is
  // visited twice — deliberately naive).
  for (Word s = 1; s < rows; ++s) {
    if (RelSet::FromWord(s).IsSingleton()) {
      ref.cost[s] = 0.0;
      continue;
    }
    double best = std::numeric_limits<double>::infinity();
    Word best_lhs = 0;
    for (Word lhs = (s - 1) & s; lhs != 0; lhs = (lhs - 1) & s) {
      const Word rhs = s ^ lhs;
      const double cost =
          ref.cost[lhs] + ref.cost[rhs] +
          EvalJoinCost(cost_model, ref.card[s], ref.card[lhs], ref.card[rhs]);
      if (cost < best) {
        best = cost;
        best_lhs = lhs;
      }
    }
    ref.cost[s] = best;
    ref.best_lhs[s] = static_cast<std::uint32_t>(best_lhs);
  }
  return ref;
}

OracleVerdict CompareDpTableToBruteForce(const DpTable& table,
                                         const BruteForceTable& reference,
                                         float threshold) {
  if (table.num_relations() != reference.num_relations) {
    return OracleVerdict::Fail(
        StrFormat("table n=%d vs reference n=%d", table.num_relations(),
                  reference.num_relations));
  }
  const bool unbounded = !(threshold < kRejectedCost);
  const double th = static_cast<double>(threshold);
  for (std::uint64_t s = 1; s < table.size(); ++s) {
    const RelSet set = RelSet::FromWord(s);
    if (!RelClose(table.card(set), reference.card[s], kCardTol)) {
      return OracleVerdict::Fail(StrFormat(
          "card mismatch at %s: dp=%.17g reference=%.17g",
          set.ToString().c_str(), table.card(set), reference.card[s]));
    }
    const double ref_cost = reference.cost[s];
    if (table.rejected(set)) {
      if (unbounded) {
        if (ref_cost < kFloatOverflowBand) {
          return OracleVerdict::Fail(StrFormat(
              "dp rejected %s but reference optimum %.17g is representable",
              set.ToString().c_str(), ref_cost));
        }
      } else if (ref_cost < th * (1.0 - 1e-3)) {
        return OracleVerdict::Fail(StrFormat(
            "dp rejected %s under threshold %g but reference optimum is "
            "%.17g",
            set.ToString().c_str(), th, ref_cost));
      }
      continue;
    }
    // Skip the genuinely ambiguous band right at the threshold, where
    // float-vs-double rounding decides acceptance either way.
    if (!unbounded && std::abs(ref_cost - th) <= 1e-3 * th) continue;
    if (!RelClose(static_cast<double>(table.cost(set)), ref_cost, kCostTol)) {
      return OracleVerdict::Fail(StrFormat(
          "cost mismatch at %s: dp=%.9g reference=%.17g",
          set.ToString().c_str(), static_cast<double>(table.cost(set)),
          ref_cost));
    }
  }
  return OracleVerdict::Pass();
}

RecostResult RecostPlan(const PlanNode& node, const Catalog& catalog,
                        const JoinGraph& graph, CostModelKind cost_model) {
  if (node.is_leaf()) {
    return RecostResult{catalog.cardinality(node.relation()), 0.0};
  }
  const RecostResult lhs = RecostPlan(*node.left, catalog, graph, cost_model);
  const RecostResult rhs = RecostPlan(*node.right, catalog, graph, cost_model);
  RecostResult out;
  out.card =
      lhs.card * rhs.card * graph.PiSpan(node.left->set, node.right->set);
  out.cost = lhs.cost + rhs.cost +
             EvalJoinCost(cost_model, out.card, lhs.card, rhs.card);
  return out;
}

namespace {

/// Recursive worker for CheckPlanAgainstDpTable: validates structure,
/// recosts, and checks the table entry for every node. Returns the recost
/// result; appends the first failure to *failure (and short-circuits).
RecostResult CheckNode(const PlanNode& node, const Catalog& catalog,
                       const JoinGraph& graph, CostModelKind cost_model,
                       const DpTable& table, std::string* failure) {
  if (node.is_leaf()) {
    if (!node.set.IsSingleton() && failure->empty()) {
      *failure = StrFormat("leaf with non-singleton set %s",
                           node.set.ToString().c_str());
    }
    return RecostResult{catalog.cardinality(node.relation()), 0.0};
  }
  if ((node.left == nullptr || node.right == nullptr ||
       node.left->set.Intersects(node.right->set) ||
       node.left->set.Union(node.right->set) != node.set) &&
      failure->empty()) {
    *failure = StrFormat("inconsistent operand sets at %s",
                         node.set.ToString().c_str());
    return RecostResult{};
  }
  const RecostResult lhs =
      CheckNode(*node.left, catalog, graph, cost_model, table, failure);
  const RecostResult rhs =
      CheckNode(*node.right, catalog, graph, cost_model, table, failure);
  if (!failure->empty()) return RecostResult{};

  RecostResult out;
  out.card =
      lhs.card * rhs.card * graph.PiSpan(node.left->set, node.right->set);
  out.cost = lhs.cost + rhs.cost +
             EvalJoinCost(cost_model, out.card, lhs.card, rhs.card);

  if (table.rejected(node.set)) {
    *failure = StrFormat("plan uses rejected table entry %s",
                         node.set.ToString().c_str());
    return out;
  }
  if (!RelClose(table.card(node.set), out.card, kCardTol)) {
    *failure = StrFormat("recost card mismatch at %s: dp=%.17g recost=%.17g",
                         node.set.ToString().c_str(), table.card(node.set),
                         out.card);
    return out;
  }
  if (!RelClose(static_cast<double>(table.cost(node.set)), out.cost,
                kCostTol)) {
    *failure = StrFormat("recost cost mismatch at %s: dp=%.9g recost=%.17g",
                         node.set.ToString().c_str(),
                         static_cast<double>(table.cost(node.set)), out.cost);
    return out;
  }
  // The float re-evaluation replays the blitzsplit accumulation order, so
  // an extracted subtree must reproduce its table cost bit for bit.
  const float replayed =
      EvaluateCostFloat(node, catalog, graph, cost_model);
  const float stored = table.cost(node.set);
  if (std::memcmp(&replayed, &stored, sizeof(float)) != 0) {
    *failure = StrFormat(
        "float replay mismatch at %s: dp=%.9g replay=%.9g",
        node.set.ToString().c_str(),
        static_cast<double>(table.cost(node.set)),
        static_cast<double>(replayed));
  }
  return out;
}

}  // namespace

OracleVerdict CheckPlanAgainstDpTable(const Plan& plan, const Catalog& catalog,
                                      const JoinGraph& graph,
                                      CostModelKind cost_model,
                                      const DpTable& table) {
  if (plan.empty()) return OracleVerdict::Fail("empty plan");
  if (plan.NumLeaves() != plan.relations().size()) {
    return OracleVerdict::Fail(
        StrFormat("plan has %d leaves over %d relations", plan.NumLeaves(),
                  plan.relations().size()));
  }
  std::string failure;
  CheckNode(plan.root(), catalog, graph, cost_model, table, &failure);
  if (!failure.empty()) return OracleVerdict::Fail(failure);
  return OracleVerdict::Pass();
}

OracleVerdict CheckAgainstDpCcp(const Catalog& catalog, const JoinGraph& graph,
                                CostModelKind cost_model,
                                double blitz_root_cost,
                                int plan_cartesian_products) {
  if (!graph.IsConnected(catalog.AllRelations())) {
    return OracleVerdict::Pass();  // DPccp does not apply.
  }
  Result<DpCcpResult> dpccp = OptimizeDpCcp(catalog, graph, cost_model);
  if (!dpccp.ok()) {
    return OracleVerdict::Fail(
        StrFormat("dpccp failed on a connected graph: %s",
                  dpccp.status().ToString().c_str()));
  }
  const double slack =
      kCostTol * std::max({blitz_root_cost, dpccp->cost, 1.0});
  if (blitz_root_cost > dpccp->cost + slack) {
    return OracleVerdict::Fail(StrFormat(
        "blitzsplit optimum %.17g above the product-free optimum %.17g",
        blitz_root_cost, dpccp->cost));
  }
  if (plan_cartesian_products == 0 &&
      std::abs(blitz_root_cost - dpccp->cost) > slack) {
    return OracleVerdict::Fail(StrFormat(
        "product-free winning plan but costs differ: blitzsplit=%.17g "
        "dpccp=%.17g",
        blitz_root_cost, dpccp->cost));
  }
  return OracleVerdict::Pass();
}

OracleVerdict TablesBitIdentical(const DpTable& a, const DpTable& b) {
  if (a.num_relations() != b.num_relations() ||
      a.has_pi_fan() != b.has_pi_fan() || a.has_aux() != b.has_aux()) {
    return OracleVerdict::Fail("table shapes differ");
  }
  DpTable& ma = const_cast<DpTable&>(a);
  DpTable& mb = const_cast<DpTable&>(b);
  const std::size_t rows = static_cast<std::size_t>(a.size());
  if (std::memcmp(ma.cost_data(), mb.cost_data(), rows * sizeof(float)) != 0) {
    return OracleVerdict::Fail("cost columns differ");
  }
  if (std::memcmp(ma.card_data(), mb.card_data(), rows * sizeof(double)) !=
      0) {
    return OracleVerdict::Fail("card columns differ");
  }
  if (std::memcmp(ma.best_lhs_data(), mb.best_lhs_data(),
                  rows * sizeof(std::uint32_t)) != 0) {
    return OracleVerdict::Fail("best_lhs columns differ");
  }
  if (a.has_pi_fan() &&
      std::memcmp(ma.pi_fan_data(), mb.pi_fan_data(),
                  rows * sizeof(double)) != 0) {
    return OracleVerdict::Fail("pi_fan columns differ");
  }
  if (a.has_aux() &&
      std::memcmp(ma.aux_data(), mb.aux_data(), rows * sizeof(double)) != 0) {
    return OracleVerdict::Fail("aux columns differ");
  }
  return OracleVerdict::Pass();
}

}  // namespace blitz::fuzz
