#ifndef BLITZ_TESTING_ORACLES_H_
#define BLITZ_TESTING_ORACLES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "core/dp_table.h"
#include "cost/cost_model.h"
#include "plan/plan.h"
#include "query/join_graph.h"

namespace blitz::fuzz {

/// Outcome of one oracle check: ok with an empty message, or a failure
/// description naming the first diverging subset/node.
struct OracleVerdict {
  bool ok = true;
  std::string message;

  static OracleVerdict Pass() { return OracleVerdict{}; }
  static OracleVerdict Fail(std::string msg) {
    return OracleVerdict{false, std::move(msg)};
  }
};

/// Reference costs at/above this are treated as float-overflow territory: a
/// DP pass (single-precision, Section 6.3) is entitled to reject them.
inline constexpr double kFloatOverflowBand = 3.0e38;

// ---------------------------------------------------------------------------
// Oracle 1: naive full-subset brute force.
//
// Written fresh for the differential harness and deliberately naive: every
// subset's cardinality is recomputed directly from the Section 5.1
// definition (product of base cardinalities times every induced predicate's
// selectivity, by scanning the whole predicate list), and every subset's
// optimum minimizes over ALL ordered nonempty splits — no successor
// enumeration, no Pi_fan recurrence, no float arithmetic, no shared code
// with the blitzsplit core beyond the cost-model formulas themselves.
// ---------------------------------------------------------------------------

/// Per-subset reference results, indexed by subset word like the DP table.
struct BruteForceTable {
  int num_relations = 0;
  std::vector<double> card;              ///< Direct-definition cardinality.
  std::vector<double> cost;              ///< Double-precision optimum.
  std::vector<std::uint32_t> best_lhs;   ///< One optimal split (informational).
};

/// Fills the reference table; O(4^n)-flavored work, capped at `max_n`
/// relations (kInvalidArgument beyond).
Result<BruteForceTable> BruteForceAllSubsets(const Catalog& catalog,
                                             const JoinGraph& graph,
                                             CostModelKind cost_model,
                                             int max_n = 14);

/// Compares every subset of a filled DP table against the reference.
/// `threshold` is the cost threshold the DP pass ran under (kRejectedCost
/// for an unbounded pass): a rejected DP row must have its reference
/// optimum at/above the threshold (or in float-overflow territory for
/// unbounded passes), a surviving row must match within float-vs-double
/// tolerance. Reference costs within the tolerance band of the threshold
/// itself are skipped as genuinely ambiguous.
OracleVerdict CompareDpTableToBruteForce(const DpTable& table,
                                         const BruteForceTable& reference,
                                         float threshold = kRejectedCost);

// ---------------------------------------------------------------------------
// Oracle 2: plan re-coster.
//
// Recomputes cardinality and cost bottom-up from an emitted plan tree — a
// third computation path (per-join Pi_span products, not the full induced
// scan and not the DP recurrences) — and checks each subtree against the DP
// table entry for its relation set. Because extraction follows best_lhs
// links, every subtree of an extracted plan must BE the table's optimum for
// its set: double-recost within tolerance, and the float re-evaluation
// (plan/evaluate.h) bit-identical to the stored cost.
// ---------------------------------------------------------------------------

/// Bottom-up recomputation for one subtree.
struct RecostResult {
  double card = 0;
  double cost = 0;
};
RecostResult RecostPlan(const PlanNode& node, const Catalog& catalog,
                        const JoinGraph& graph, CostModelKind cost_model);

/// Structural validity (each relation exactly once, consistent sets) plus
/// the per-node table checks described above.
OracleVerdict CheckPlanAgainstDpTable(const Plan& plan, const Catalog& catalog,
                                      const JoinGraph& graph,
                                      CostModelKind cost_model,
                                      const DpTable& table);

// ---------------------------------------------------------------------------
// Oracle 3: DPccp (baseline/dpccp.h), the independent product-free exact
// optimizer. For connected graphs: blitzsplit's optimum can only be at or
// below DPccp's (its search space is a superset), and whenever blitzsplit's
// winning plan contains no Cartesian product the two optima must agree.
// Disconnected graphs pass trivially (DPccp does not apply).
// ---------------------------------------------------------------------------

OracleVerdict CheckAgainstDpCcp(const Catalog& catalog, const JoinGraph& graph,
                                CostModelKind cost_model,
                                double blitz_root_cost,
                                int plan_cartesian_products);

/// Bitwise comparison of every allocated column of two DP tables — the
/// cross-config determinism assertion shared by the differential driver and
/// the parallel/SIMD test suites.
OracleVerdict TablesBitIdentical(const DpTable& a, const DpTable& b);

}  // namespace blitz::fuzz

#endif  // BLITZ_TESTING_ORACLES_H_
