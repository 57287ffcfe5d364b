#ifndef BLITZ_COST_COST_MODEL_H_
#define BLITZ_COST_COST_MODEL_H_

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>

#include "common/status.h"

namespace blitz {

/// Identifies one of the built-in cost models. The optimizer core is a
/// template over a cost-model policy type (so each model gets its own tight
/// inner loop); this enum is the runtime-dispatch handle used by the facade,
/// the plan evaluator, and the text formats.
enum class CostModelKind {
  kNaive,            ///< kappa_0: cost = |R_out| (Section 3.1).
  kSortMerge,        ///< kappa_sm (Appendix).
  kDiskNestedLoops,  ///< kappa_dnl (Appendix), K = 10, M = 100.
  kMinSmDnl,         ///< min(kappa_sm, kappa_dnl) — multiple join algorithms
                     ///< as discussed in Section 6.5.
  kHash,             ///< kappa_h: build + probe + output (extension; not in
                     ///< the paper's test matrix).
  kMinAll,           ///< min(kappa_sm, kappa_dnl, kappa_h) — the Section 6.5
                     ///< treatment extended to three algorithms.
};

/// "naive", "sm", "dnl", "min", "hash", or "minall".
const char* CostModelKindToString(CostModelKind kind);

/// Parses the strings produced by CostModelKindToString (plus a few long
/// aliases: "sortmerge", "disknestedloops", "minsmdnl").
Result<CostModelKind> ParseCostModelKind(std::string_view s);

/// Default parameters of the disk-nested-loops model, from the Appendix:
/// "we arbitrarily set K = 10 and M = 100".
inline constexpr double kDnlBlockingFactor = 10.0;  // K
inline constexpr double kDnlMemoryBlocks = 100.0;   // M

// ---------------------------------------------------------------------------
// Cost-model policy types.
//
// Each policy supplies the paper's decomposition kappa = kappa' + kappa''
// (Section 3.2): KappaPrime is the split-independent component (a function of
// the output cardinality only, evaluated once per subset, outside the
// best-split loop), and KappaDoublePrime is the split-dependent component
// (evaluated inside the loop, ideally rarely thanks to the nested-if
// short-circuiting). Both components must be non-negative or the
// short-circuiting would be unsound.
//
// Models that can memoize a per-subset quantity (kappa_sm's x*(1+log x))
// declare kNeedsAux = true and provide Aux(card); the DP table then carries
// one extra column, exactly as suggested in the Appendix ("the expensive
// logarithm computation in this model can be memoized in the dynamic
// programming table").
// ---------------------------------------------------------------------------

// Models additionally declare two traits for the SIMD best-split filter
// (simd/split_filter.h, DESIGN.md section 9):
//
//   kSplitGateTight — kappa'' = 0, which makes the model-independent
//     operand gate of the best-split loop
//         cost[lhs] + cost[rhs] < best
//     the *complete* cost comparison. The operand filter then prunes to
//     the true improvements on every pass, counting passes included. For
//     models with a large split-dependent kappa'' the operand gate passes
//     nearly every split (best tracks dpnd = oprnd + kappa'' minima, far
//     above the operand sums), so batching it alone is pure overhead.
//   kSplitBound — what the filter evaluates on passes that count nothing
//     (NoInstrumentation):
//       kOperand   the operand gate only (complete for gate-tight models);
//       kSeparable the whole split cost, KappaDoublePrime being exactly
//                  lhs_aux + rhs_aux (requires kNeedsAux);
//       kDnl       the whole split cost, KappaDoublePrime being exactly
//                  kappa_dnl's expression below.
//     The kappa_sm lanes repeat KappaDoublePrime's IEEE operations, so
//     that filter is exact; the kappa_dnl vector lanes bracket it within
//     a slack of 12 double ulps (kDnlBracket* in simd/split_filter.h).
//     Either way a lane is dismissed only when its split cannot beat the
//     live best. Counting and profiling passes keep the operand gate,
//     whose survivors define the Section 3.3 counters.
//
// Auto dispatch consults both (core/optimizer.cc ResolvePassSimd);
// explicit --simd= / BLITZ_SIMD requests override the policy.

/// What the SIMD split filter evaluates for a model on production passes
/// (see kSplitBound above).
enum class SplitBound { kOperand, kSeparable, kDnl };

/// kappa_0(R_out, R_lhs, R_rhs) = |R_out|. Decomposes as kappa' = |R_out|,
/// kappa'' = 0.
struct NaiveCostModel {
  static constexpr CostModelKind kKind = CostModelKind::kNaive;
  static constexpr bool kNeedsAux = false;
  static constexpr bool kSplitGateTight = true;
  static constexpr SplitBound kSplitBound = SplitBound::kOperand;

  static double Aux(double) { return 0.0; }

  double KappaPrime(double out_card) const { return out_card; }

  double KappaDoublePrime(double /*out_card*/, double /*lhs_card*/,
                          double /*rhs_card*/, double /*lhs_aux*/,
                          double /*rhs_aux*/) const {
    return 0.0;
  }
};

/// kappa_sm = |R_lhs|(1 + log|R_lhs|) + |R_rhs|(1 + log|R_rhs|).
/// Decomposes as kappa' = 0 and kappa'' = the whole thing, with the
/// x(1 + log x) terms memoized per table entry.
///
/// Estimated cardinalities can fall below 1, where log goes negative and
/// would violate the non-negativity requirement; we clamp the argument to 1
/// (a sub-tuple input costs as much as a one-tuple input).
struct SortMergeCostModel {
  static constexpr CostModelKind kKind = CostModelKind::kSortMerge;
  static constexpr bool kNeedsAux = true;
  static constexpr bool kSplitGateTight = false;
  static constexpr SplitBound kSplitBound = SplitBound::kSeparable;

  static double Aux(double card) {
    const double x = std::max(card, 1.0);
    return x * (1.0 + std::log(x));
  }

  double KappaPrime(double /*out_card*/) const { return 0.0; }

  double KappaDoublePrime(double /*out_card*/, double /*lhs_card*/,
                          double /*rhs_card*/, double lhs_aux,
                          double rhs_aux) const {
    return lhs_aux + rhs_aux;
  }
};

/// kappa_dnl = 2|R_out|/K + |R_lhs||R_rhs| / (K^2 (M-1)) +
///             min(|R_lhs|,|R_rhs|)/K, with blocking factor K and M memory
/// blocks. The 2|R_out|/K term is split-independent and becomes kappa'.
struct DiskNestedLoopsCostModel {
  static constexpr CostModelKind kKind = CostModelKind::kDiskNestedLoops;
  static constexpr bool kNeedsAux = false;
  static constexpr bool kSplitGateTight = false;
  static constexpr SplitBound kSplitBound = SplitBound::kDnl;

  static double Aux(double) { return 0.0; }

  double KappaPrime(double out_card) const {
    return 2.0 * out_card / blocking_factor;
  }

  /// The SIMD whole-cost filter repeats this expression lane-wise,
  /// operation for operation (simd/split_filter.h SplitFilterDnlFn);
  /// change both together.
  double KappaDoublePrime(double /*out_card*/, double lhs_card,
                          double rhs_card, double /*lhs_aux*/,
                          double /*rhs_aux*/) const {
    return lhs_card * rhs_card / KappaDivisor() +
           std::min(lhs_card, rhs_card) / blocking_factor;
  }

  /// K^2 (M - 1), the divisor of the |R_lhs||R_rhs| term.
  double KappaDivisor() const {
    return blocking_factor * blocking_factor * (memory_blocks - 1.0);
  }

  double blocking_factor = kDnlBlockingFactor;
  double memory_blocks = kDnlMemoryBlocks;
};

/// min(kappa_sm, kappa_dnl): the Section 6.5 treatment of multiple join
/// algorithms. The min of two decomposable functions does not decompose
/// term-wise, so kappa' = 0 and kappa'' computes both totals. ("There is no
/// need to keep track of which algorithm yields the minimum" — the choice is
/// re-derived by a plan traversal afterwards; see plan/algorithm_choice.h.)
struct MinSmDnlCostModel {
  static constexpr CostModelKind kKind = CostModelKind::kMinSmDnl;
  static constexpr bool kNeedsAux = true;
  static constexpr bool kSplitGateTight = false;
  static constexpr SplitBound kSplitBound = SplitBound::kOperand;

  static double Aux(double card) { return SortMergeCostModel::Aux(card); }

  double KappaPrime(double /*out_card*/) const { return 0.0; }

  double KappaDoublePrime(double out_card, double lhs_card, double rhs_card,
                          double lhs_aux, double rhs_aux) const {
    const double sm = sm_model.KappaDoublePrime(out_card, lhs_card, rhs_card,
                                                lhs_aux, rhs_aux);
    const double dnl =
        dnl_model.KappaPrime(out_card) +
        dnl_model.KappaDoublePrime(out_card, lhs_card, rhs_card, 0.0, 0.0);
    return std::min(sm, dnl);
  }

  SortMergeCostModel sm_model;
  DiskNestedLoopsCostModel dnl_model;
};

/// kappa_h = |R_lhs| + |R_rhs| + |R_out|: a classical in-memory hash-join
/// cost (build the smaller side, probe the other, emit the output). Not one
/// of the paper's three models; provided as an extension so the
/// multi-algorithm treatment of Section 6.5 can choose among three
/// algorithms. Decomposes as kappa' = |R_out| and kappa'' = |L| + |R|.
struct HashCostModel {
  static constexpr CostModelKind kKind = CostModelKind::kHash;
  static constexpr bool kNeedsAux = false;
  static constexpr bool kSplitGateTight = false;
  static constexpr SplitBound kSplitBound = SplitBound::kOperand;

  static double Aux(double) { return 0.0; }

  double KappaPrime(double out_card) const { return out_card; }

  double KappaDoublePrime(double /*out_card*/, double lhs_card,
                          double rhs_card, double /*lhs_aux*/,
                          double /*rhs_aux*/) const {
    return lhs_card + rhs_card;
  }
};

/// min(kappa_sm, kappa_dnl, kappa_h): Section 6.5's "the cost of a join is
/// kappa = min(...)" with a third algorithm added. As with MinSmDnl, the
/// min does not decompose term-wise, so kappa' = 0.
struct MinAllCostModel {
  static constexpr CostModelKind kKind = CostModelKind::kMinAll;
  static constexpr bool kNeedsAux = true;
  static constexpr bool kSplitGateTight = false;
  static constexpr SplitBound kSplitBound = SplitBound::kOperand;

  static double Aux(double card) { return SortMergeCostModel::Aux(card); }

  double KappaPrime(double /*out_card*/) const { return 0.0; }

  double KappaDoublePrime(double out_card, double lhs_card, double rhs_card,
                          double lhs_aux, double rhs_aux) const {
    const double two = min_sm_dnl.KappaDoublePrime(out_card, lhs_card,
                                                   rhs_card, lhs_aux,
                                                   rhs_aux);
    const double hash =
        hash_model.KappaPrime(out_card) +
        hash_model.KappaDoublePrime(out_card, lhs_card, rhs_card, 0.0, 0.0);
    return std::min(two, hash);
  }

  MinSmDnlCostModel min_sm_dnl;
  HashCostModel hash_model;
};

// ---------------------------------------------------------------------------
// Runtime evaluation (used by the plan evaluator and baselines, where the
// per-join cost is not on a 3^n-iteration hot path).
// ---------------------------------------------------------------------------

/// Full kappa(R_out, R_lhs, R_rhs) = kappa' + kappa'' for the given model.
double EvalJoinCost(CostModelKind kind, double out_card, double lhs_card,
                    double rhs_card);

/// The split-independent component kappa'(R_out) alone.
double EvalKappaPrime(CostModelKind kind, double out_card);

/// The split-dependent component kappa''.
double EvalKappaDoublePrime(CostModelKind kind, double out_card,
                            double lhs_card, double rhs_card);

/// Invokes fn(model) with the concrete policy object for `kind`. This is the
/// bridge from the runtime enum to the compile-time policy world.
template <typename Fn>
decltype(auto) DispatchCostModel(CostModelKind kind, Fn&& fn) {
  switch (kind) {
    case CostModelKind::kNaive:
      return fn(NaiveCostModel{});
    case CostModelKind::kSortMerge:
      return fn(SortMergeCostModel{});
    case CostModelKind::kDiskNestedLoops:
      return fn(DiskNestedLoopsCostModel{});
    case CostModelKind::kMinSmDnl:
      return fn(MinSmDnlCostModel{});
    case CostModelKind::kHash:
      return fn(HashCostModel{});
    case CostModelKind::kMinAll:
      return fn(MinAllCostModel{});
  }
  // Unreachable for valid enum values.
  return fn(NaiveCostModel{});
}

}  // namespace blitz

#endif  // BLITZ_COST_COST_MODEL_H_
