#ifndef BLITZ_CORE_BLITZSPLIT_H_
#define BLITZ_CORE_BLITZSPLIT_H_

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/dp_table.h"
#include "core/instrumentation.h"
#include "core/relset.h"
#include "governor/governor.h"
#include "query/join_graph.h"
#include "simd/split_filter.h"

namespace blitz {

// The per-subset kernel must be inlined into each driver's subset loop so the
// model, threshold, and column pointers stay in registers across iterations —
// with two call sites (sequential + rank-parallel driver) the compiler
// otherwise outlines it. The drivers themselves get the opposite treatment:
// left to its own devices the inliner merges them into the large entry-point
// functions, where register pressure from the surrounding tracing/governor
// code degrades the split loop by ~20%; noinline keeps each instantiation a
// standalone function whose registers belong to the hot loop alone.
#if defined(__GNUC__) || defined(__clang__)
#define BLITZ_ALWAYS_INLINE inline __attribute__((always_inline))
#define BLITZ_NOINLINE __attribute__((noinline))
#else
#define BLITZ_ALWAYS_INLINE inline
#define BLITZ_NOINLINE
#endif

/// Where a pass's per-subset cardinalities come from. This is the only
/// thing that distinguishes the pure Cartesian optimizer (Sections 3-4),
/// the join optimizer (Section 5) and the estimator seam
/// (card/estimator.h): a join is a Cartesian product with different
/// intermediate cardinalities, so compute_properties(S) varies with the
/// source while find_best_split(S) — gate, SIMD filter, tie-breaks,
/// counters — is the same code for all three.
enum class CardSource {
  /// Sections 3-4: card(S) = card(U) * card(V). No graph, no pi_fan column.
  kProduct,
  /// Section 5: the Pi_fan recurrence fused into the pass over the graph's
  /// selectivities. Graph non-null, pi_fan column allocated.
  kFanout,
  /// The card column is filled from CardinalityEstimator::EstimateAll
  /// once, before the pass; compute_properties only reads it. There is no
  /// recurrence to fuse for an arbitrary estimate. No graph, no pi_fan
  /// column.
  kPreloaded,
};

namespace internal {

/// The per-subset body of procedure blitzsplit — compute_properties(S)
/// followed by find_best_split(S) — operating on raw DP-table columns.
///
/// Shared verbatim by the sequential integer-order driver below and the
/// rank-synchronous parallel driver (parallel/blitzsplit_ranked.h). The DP
/// recurrences read only rows of strictly smaller cardinality than S (every
/// split side, and the pi_fan operands U|W and U|Z, is a proper subset), and
/// write only row S itself — so any driver that completes all ranks < |S|
/// before processing S may invoke this from any thread: distinct subsets
/// touch disjoint rows, and bit-identical inputs give bit-identical rows
/// regardless of the visit order across subsets of equal cardinality.
/// `split_kernel` (nullable, loop-invariant per pass) is the resolved SIMD
/// build/filter pair from simd/dispatch.h, with `scratch` its dense
/// compaction workspace (non-null iff split_kernel is, capacity >= 2^n).
/// When null — or for subsets below kSimdMinPopcount, or in the flat
/// kNestedIfs=false ablation — the classic scalar loop runs unchanged.
/// When set, the nested-if best-split loop runs batched (simd/
/// split_filter.h): the build stage materializes the successor order as
/// the dense rank -> subset map idx[] and compacts the cost column into
/// dc[] (one gather pass, prefetched); the filter stage then evaluates the
/// model-independent gate
///     cost[lhs] + cost[rhs] < best_cost_so_far
/// as dc[r] + dc[full_rank - r] < best over kSplitFilterBlock-lane blocks
/// of ranks — contiguous loads only — against the block-entry best, and
/// only surviving lanes re-run the exact scalar nested-if body, in rank
/// (= successor) order, against the live best. The filter is conservative
/// (block-entry best >= live best), so survivors are a superset of the
/// scalar loop's passes and the re-run makes identical decisions — the
/// filled row, the best_lhs tie-break (first strict improvement in
/// successor order wins), and the instrumentation counts are bit-identical
/// for every cost model.
/// `kCards` selects compute_properties(S) only (see CardSource); the
/// find_best_split half only ever reads the cost and card columns.
template <typename CostModel, CardSource kCards, bool kNestedIfs,
          typename Instr>
BLITZ_ALWAYS_INLINE void BlitzProcessSubset(
    const CostModel& model, const JoinGraph* graph, float cost_threshold,
    std::uint64_t s, float* cost, double* card, std::uint32_t* best,
    double* pi_fan, double* aux, Instr* instr,
    const SplitKernel* split_kernel = nullptr,
    SplitScratch* scratch = nullptr) {
  // Phase attribution (ProfilingInstrumentation): ProfBegin charges the
  // inter-subset gap to the driver phase; the marks below partition the
  // body into {table_write, gate_filter, survivor_replay, kappa2} so the
  // buckets sum to the pass wall time. All Prof* hooks are empty inline
  // functions on the production policies.
  instr->ProfBegin(s);
  instr->OnSubsetVisited();

  // --- compute_properties(S) ---------------------------------------
  // U = {min S} = delta_S(1) = S & -S; V = S - U.
  const std::uint64_t u = s & (~s + 1);
  const std::uint64_t v = s ^ u;
  double out_card;
  if constexpr (kCards == CardSource::kPreloaded) {
    // Preloaded by the driver from the estimator; nothing to derive.
    out_card = card[s];
  } else if constexpr (kCards == CardSource::kFanout) {
    double fan;
    if ((v & (v - 1)) == 0) {
      // Doubleton {R,R'}: Pi_fan is the selectivity of the predicate
      // connecting R and R', or 1 if there is none (Section 5.4).
      fan = graph->Selectivity(std::countr_zero(u), std::countr_zero(v));
    } else {
      // Recurrence (10): split V into disjoint W and Z; we use W = {min V}.
      const std::uint64_t w = v & (~v + 1);
      const std::uint64_t z = v ^ w;
      fan = pi_fan[u | w] * pi_fan[u | z];
    }
    pi_fan[s] = fan;
    // Recurrence (11): card(S) = card(U) * card(V) * Pi_fan(S).
    out_card = card[u] * card[v] * fan;
  } else {
    out_card = card[u] * card[v];
  }
  if constexpr (kCards != CardSource::kPreloaded) card[s] = out_card;
  if constexpr (CostModel::kNeedsAux) aux[s] = CostModel::Aux(out_card);

  // --- find_best_split(S) ------------------------------------------
  // kappa'(S) is split-independent, so compute it before the loop; if it
  // already overflows or reaches the plan-cost threshold, no plan for S
  // can survive, and the loop is avoided entirely (Sections 6.3-6.4).
  const float kappa_prime = static_cast<float>(model.KappaPrime(out_card));
  if (!(kappa_prime < cost_threshold)) {
    cost[s] = kRejectedCost;
    best[s] = 0;
    instr->OnThresholdSkip();
    instr->ProfMark(DpPhase::kTableWrite);
    return;
  }
  // compute_properties, kappa', and the skip-path row write all charge to
  // the table-write phase.
  instr->ProfMark(DpPhase::kTableWrite);

  float best_cost_so_far = kRejectedCost;
  std::uint32_t best_lhs = 0;

  // The exact Section 4.2 nested-if body for one candidate split, against
  // the live best — shared by the classic loop and the blocked filter's
  // survivor re-run so both paths make bit-identical decisions. `ctx` is
  // the phase this call's gate work charges to (gate_filter from the
  // scalar loop, survivor_replay from the SIMD re-run); a dead constant
  // unless the policy profiles.
  const auto try_split_nested = [&](std::uint64_t lhs, DpPhase ctx) {
    const std::uint64_t rhs = s ^ lhs;
    // Nested ifs (Section 4.2): each comparison can dismiss the split
    // before the next, increasingly expensive, quantity is computed.
    const float lhs_cost = cost[lhs];
    if (!(lhs_cost < best_cost_so_far)) return;
    const float oprnd_cost = lhs_cost + cost[rhs];
    if (!(oprnd_cost < best_cost_so_far)) return;
    instr->OnOperandPass();
    instr->ProfMark(ctx);
    float kappa2;
    if constexpr (CostModel::kNeedsAux) {
      kappa2 = static_cast<float>(model.KappaDoublePrime(
          out_card, card[lhs], card[rhs], aux[lhs], aux[rhs]));
    } else {
      kappa2 = static_cast<float>(
          model.KappaDoublePrime(out_card, card[lhs], card[rhs], 0, 0));
    }
    instr->OnKappa2Evaluated();
    const float dpnd_cost = oprnd_cost + kappa2;
    if (dpnd_cost < best_cost_so_far) {
      best_cost_so_far = dpnd_cost;
      best_lhs = static_cast<std::uint32_t>(lhs);
      instr->OnImprovement();
    }
    instr->ProfMark(DpPhase::kKappa2);
  };

  // S_lhs ranges over all nonempty proper subsets of S via the successor
  // operator succ(S_lhs) = S & (S_lhs - S); starting from 0 the first
  // value is S & -S and the sequence ends when S itself is reached.
  if constexpr (kNestedIfs) {
    const int k = std::popcount(s);
    if (split_kernel != nullptr && k >= kSimdMinPopcount) {
      // Batched dense-compaction path (simd/split_filter.h). The proper
      // splits of S are dense ranks 1 .. full_rank - 1, and the successor
      // enumeration the scalar loop performs is exactly increasing rank —
      // u = S & -S is rank 1 — so scanning ranks in blocks and replaying
      // survivors in lane order preserves the visit order the tie-break
      // depends on.
      const std::uint32_t full_rank = (std::uint32_t{1} << k) - 1;
      std::uint32_t* const idx = scratch->idx.data();
      float* const dc = scratch->dc.data();
      split_kernel->build(cost, s, k, idx, dc);
      std::uint32_t r = 1;
      while (r < full_rank) {
        std::uint32_t c = full_rank - r;
        if (c > static_cast<std::uint32_t>(kSplitFilterBlock)) {
          c = static_cast<std::uint32_t>(kSplitFilterBlock);
        }
        instr->OnLoopIterationBlock(c);
        std::uint64_t mask = split_kernel->filter(
            dc, full_rank, r, static_cast<int>(c), best_cost_so_far);
        instr->OnFilterSurvivors(
            c, static_cast<std::uint64_t>(std::popcount(mask)));
        instr->ProfMark(DpPhase::kGateFilter);
        while (mask != 0) {
          const int lane = std::countr_zero(mask);
          mask &= mask - 1;
          try_split_nested(idx[r + static_cast<std::uint32_t>(lane)],
                           DpPhase::kSurvivorReplay);
        }
        instr->ProfMark(DpPhase::kSurvivorReplay);
        r += c;
      }
    } else {
      for (std::uint64_t lhs = u; lhs != s; lhs = s & (lhs - s)) {
        instr->OnLoopIteration();
        try_split_nested(lhs, DpPhase::kGateFilter);
      }
      instr->ProfMark(DpPhase::kGateFilter);
    }
  } else {
    // Flat variant for the nested-if ablation: kappa'' is evaluated on
    // every one of the ~3^n iterations, so there is no cheap
    // model-independent gate for a SIMD filter to batch.
    for (std::uint64_t lhs = u; lhs != s; lhs = s & (lhs - s)) {
      instr->OnLoopIteration();
      const std::uint64_t rhs = s ^ lhs;
      const float oprnd_cost = cost[lhs] + cost[rhs];
      instr->OnOperandPass();
      float kappa2;
      if constexpr (CostModel::kNeedsAux) {
        kappa2 = static_cast<float>(model.KappaDoublePrime(
            out_card, card[lhs], card[rhs], aux[lhs], aux[rhs]));
      } else {
        kappa2 = static_cast<float>(
            model.KappaDoublePrime(out_card, card[lhs], card[rhs], 0, 0));
      }
      instr->OnKappa2Evaluated();
      const float dpnd_cost = oprnd_cost + kappa2;
      if (dpnd_cost < best_cost_so_far) {
        best_cost_so_far = dpnd_cost;
        best_lhs = static_cast<std::uint32_t>(lhs);
        instr->OnImprovement();
      }
    }
    // The flat ablation has no gate; its whole loop charges to kappa2.
    instr->ProfMark(DpPhase::kKappa2);
  }

  float total = best_cost_so_far + kappa_prime;
  // Reject plans whose cost overflows single precision (Section 6.3) or
  // reaches the simulated-overflow threshold (Section 6.4).
  if (!(total < cost_threshold)) total = kRejectedCost;
  cost[s] = total;
  best[s] = best_lhs;
  instr->ProfMark(DpPhase::kTableWrite);
}

/// First loop of procedure blitzsplit: init_singleton for each relation,
/// after copying every row's estimate into the card column when the source
/// is kPreloaded. `cards` is as documented on RunBlitzSplit. Shared by the
/// sequential and rank-parallel drivers.
template <typename CostModel, CardSource kCards>
inline void BlitzInitSingletons(const std::vector<double>& cards, int n,
                                float* cost, double* card,
                                std::uint32_t* best, double* pi_fan,
                                double* aux) {
  if constexpr (kCards == CardSource::kPreloaded) {
    // Row 0 (the empty set) is unused and left untouched.
    std::copy(cards.begin() + 1, cards.end(), card + 1);
  }
  for (int i = 0; i < n; ++i) {
    const std::uint64_t w = std::uint64_t{1} << i;
    if constexpr (kCards != CardSource::kPreloaded) card[w] = cards[i];
    cost[w] = 0.0f;
    best[w] = 0;
    if constexpr (kCards == CardSource::kFanout) pi_fan[w] = 1.0;
    if constexpr (CostModel::kNeedsAux) aux[w] = CostModel::Aux(card[w]);
  }
}

/// Validates the (problem, table, configuration) contract shared by both
/// drivers. Checks are BLITZ_CHECK assertions (programmer errors).
template <typename CostModel, CardSource kCards>
inline void BlitzCheckPass(const std::vector<double>& cards,
                           const JoinGraph* graph, const DpTable& table) {
  const int n = table.num_relations();
  BLITZ_CHECK(n >= 1 && n <= kMaxRelations);
  BLITZ_CHECK(cards.size() == (kCards == CardSource::kPreloaded
                                   ? std::uint64_t{1} << n
                                   : static_cast<std::uint64_t>(n)));
  BLITZ_CHECK((graph != nullptr) == (kCards == CardSource::kFanout));
  BLITZ_CHECK(table.has_pi_fan() == (kCards == CardSource::kFanout));
  BLITZ_CHECK(table.has_aux() == CostModel::kNeedsAux);
}

}  // namespace internal

/// The blitzsplit dynamic programming core (Figure 1 of the paper, with the
/// Section 4 lightweight realization and the Section 5 join extension).
///
/// Fills `table` bottom-up for every nonempty subset of its n relations.
/// Returns the cost of the best plan for the full set (kRejectedCost if
/// every plan was rejected by the threshold).
///
/// Template parameters:
///   CostModel   — a cost-model policy from cost/cost_model.h, supplying the
///                 kappa = kappa' + kappa'' decomposition.
///   kCards      — where cardinalities come from (CardSource): kProduct is
///                 the pure Cartesian-product optimizer of Sections 3-4 (one
///                 multiplication in compute_properties); kFanout adds the
///                 Section 5 selectivity recurrences (three
///                 multiplications); kPreloaded reads estimator output.
///   kNestedIfs  — true uses the Section 4.2 nested-if short-circuiting in
///                 find_best_split; false evaluates kappa'' on every loop
///                 iteration (the ablation of Section 6.2).
///   Instr       — instrumentation policy (NoInstrumentation,
///                 CountingInstrumentation or ProfilingInstrumentation).
///
/// `cards` holds the n base cardinalities for kProduct and kFanout, and
/// for kPreloaded every subset's estimate indexed by set word (size 2^n,
/// entry 0 ignored) from CardinalityEstimator::EstimateAll, which the
/// driver copies into the card column before the pass.
///
/// `cost_threshold` implements Section 6.4: any subset whose
/// split-independent cost kappa'(S) already reaches the threshold has its
/// best-split loop skipped entirely, and any completed cost reaching the
/// threshold is rejected (set to kRejectedCost). Passing +infinity leaves
/// only the genuine float-overflow rejection of Section 6.3, which is the
/// same code path (overflowed costs compare >= +infinity... they *are*
/// +infinity).
///
/// `governor` (nullable) is the resource governor's cooperative-cancellation
/// hook: when non-null, the outer subset loop calls GovernorState::Tick()
/// once per visited subset — a counter decrement that performs the real
/// deadline/cancellation check only every kCheckStride subsets, keeping the
/// O(3^n) inner loop at paper speed — and returns kRejectedCost as soon as
/// the governor aborts. The caller distinguishes a governed abort from a
/// genuine all-plans-rejected outcome via governor->aborted(); an aborted
/// table is partially filled but safe to reuse for a fresh in-place pass,
/// which rewrites every row in the same integer order.
///
/// `split_kernel` (nullable) is the resolved SIMD build/filter pair for
/// the model-independent best-split gate, from simd/dispatch.h — resolved
/// once per optimizer pass (cpuid probe, BLITZ_SIMD override) by the
/// dispatch layer in core/optimizer.cc. Null runs the classic scalar
/// loop; any kernel produces a bit-identical table and identical
/// instrumentation counts (see BlitzProcessSubset). Meaningful only with
/// kNestedIfs. The driver owns the kernel's dense-compaction scratch
/// (2^n ranks at 8 bytes, allocated only when a kernel is active).
///
/// For the multicore rank-synchronous variant of this driver see
/// parallel/blitzsplit_ranked.h; both produce bit-identical tables.
///
/// Requirements: table->num_relations() == n in [1, kMaxRelations];
/// `cards` sized as above; graph non-null iff kFanout; the table must have
/// been created with matching columns (pi_fan iff kFanout, aux iff
/// CostModel::kNeedsAux); preloaded estimates positive and finite.
template <typename CostModel, CardSource kCards, bool kNestedIfs = true,
          typename Instr = NoInstrumentation>
BLITZ_NOINLINE float RunBlitzSplit(const CostModel& model,
                    const std::vector<double>& cards,
                    const JoinGraph* graph, float cost_threshold,
                    DpTable* table, Instr* instr,
                    GovernorState* governor = nullptr,
                    const SplitKernel* split_kernel = nullptr) {
  internal::BlitzCheckPass<CostModel, kCards>(cards, graph, *table);
  const int n = table->num_relations();

  SplitScratch scratch;
  if constexpr (kNestedIfs) {
    if (split_kernel != nullptr && n >= kSimdMinPopcount) {
      scratch.EnsureCapacity(n);
    } else {
      split_kernel = nullptr;  // No subset can reach the popcount gate.
    }
  } else {
    split_kernel = nullptr;  // The flat ablation has no gate to batch.
  }

  float* const cost = table->cost_data();
  double* const card = table->card_data();
  std::uint32_t* const best = table->best_lhs_data();
  double* const pi_fan =
      kCards == CardSource::kFanout ? table->pi_fan_data() : nullptr;
  double* const aux = CostModel::kNeedsAux ? table->aux_data() : nullptr;

  internal::BlitzInitSingletons<CostModel, kCards>(cards, n, cost, card,
                                                   best, pi_fan, aux);

  const std::uint64_t full = (std::uint64_t{1} << n) - 1;
  if (n == 1) {
    instr->ProfPassEnd();
    return cost[full];
  }

  // Second loop, realized as in Section 4.2: process the sets in the order
  // of their integer representations, skipping powers of two (singletons).
  // Integer order guarantees all subsets of S are filled in before S.
  for (std::uint64_t s = 3; s <= full; ++s) {
    if ((s & (s - 1)) == 0) continue;  // singleton — already initialized
    if (governor != nullptr && governor->Tick()) {
      instr->ProfPassEnd();
      return kRejectedCost;
    }
    internal::BlitzProcessSubset<CostModel, kCards, kNestedIfs>(
        model, graph, cost_threshold, s, cost, card, best, pi_fan, aux,
        instr, split_kernel, &scratch);
  }
  instr->ProfPassEnd();
  return cost[full];
}

}  // namespace blitz

#endif  // BLITZ_CORE_BLITZSPLIT_H_
