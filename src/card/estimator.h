#ifndef BLITZ_CARD_ESTIMATOR_H_
#define BLITZ_CARD_ESTIMATOR_H_

#include <optional>
#include <string_view>
#include <vector>

#include "core/relset.h"

namespace blitz {

/// The concrete estimator behind a CardinalityEstimator handle. Kinds are
/// stable wire/CLI names ("--estimator=paper"), so additions append only.
enum class EstimatorKind {
  /// The paper's Section 5.1 Pi_fan recurrence over declared selectivities.
  /// Exact on the synthetic grid: values are bit-identical to the fused
  /// derivation inside BlitzSplit, so DP tables and counters are unchanged.
  kPaperFanout = 0,
  /// Equi-depth histograms over base-table join-key columns, combined under
  /// the classical attribute-independence assumption.
  kSampleHistogram,
  /// Simpli-Squared's estimate-free signal: no cardinalities at all, only a
  /// preference for subsets that bind more join predicates.
  kNoEstimate,
};

/// Short stable name: "paper", "hist", "noest".
const char* EstimatorKindName(EstimatorKind kind);

/// Inverse of EstimatorKindName; nullopt for anything it never emits.
std::optional<EstimatorKind> EstimatorKindFromName(std::string_view name);

/// Comma-separated list of all valid names, for CLI usage strings.
const char* EstimatorKindNames();

/// The seam every consumer of per-subset cardinalities resolves through:
/// the DP drivers, the hybrid and greedy tiers, the plan evaluator, and the
/// fuzzer oracles all take a `const CardinalityEstimator*` and never touch
/// FanoutJoinCardinality (card/fanout.h) directly. Implementations are immutable after
/// construction and safe to share across threads. They do not own the join
/// graph they were built over; the graph must outlive the estimator.
///
/// Estimates must be positive and finite for every nonempty subset —
/// downstream code builds catalogs and DP tables out of them, and both
/// reject non-positive cardinalities. Implementations clamp to enforce it.
class CardinalityEstimator {
 public:
  virtual ~CardinalityEstimator() = default;

  virtual EstimatorKind kind() const = 0;

  /// Number of base relations the estimator was built over. Options
  /// validation checks this against the catalog before any DP runs.
  virtual int num_relations() const = 0;

  /// Estimated |R_i| — the singleton estimate.
  virtual double BaseCardinality(int i) const = 0;

  /// Estimated cardinality of joining all relations in the nonempty set S.
  virtual double EstimateCardinality(RelSet s) const = 0;

  /// Fills `cards` with the estimate for every subset (indexed by set word;
  /// size 2^num_relations; entry 0 unused). A non-exact estimator's DP pass
  /// (CardSource::kPreloaded, core/blitzsplit.h) copies this into its card
  /// column once, before the sequential or rank-parallel driver runs.
  /// Implementations override when they can beat the generic per-subset
  /// loop.
  virtual void EstimateAll(std::vector<double>* cards) const;

  /// True iff estimates reproduce the paper's exact derivation bit-for-bit
  /// (only PaperFanoutEstimator). Exact estimators ride the fused Pi_fan
  /// hot path (CardSource::kFanout) unchanged; non-exact ones take the
  /// preloaded-card path (CardSource::kPreloaded).
  virtual bool exact() const { return false; }

  /// The estimator's implied selectivity of joining disjoint U and V:
  /// est(U ∪ V) / (est(U) · est(V)), clamped into (0, 1]. The hybrid tier's
  /// unit-pair fan under a non-exact estimator.
  double EstimateSpanSelectivity(RelSet u, RelSet v) const;

  /// Stable name for reports and wire responses.
  const char* name() const { return EstimatorKindName(kind()); }
};

}  // namespace blitz

#endif  // BLITZ_CARD_ESTIMATOR_H_
