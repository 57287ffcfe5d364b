#ifndef BLITZ_CARD_FANOUT_H_
#define BLITZ_CARD_FANOUT_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "core/relset.h"
#include "query/join_graph.h"

namespace blitz {

/// The paper's Section 5.1 cardinality derivation, factored out of
/// JoinGraph so that every consumer — the baseline enumerators, the plan
/// evaluator, PaperFanoutEstimator, and the fused recurrence cross-checks —
/// shares a single definition. Header-only on purpose: blitz_query cannot link
/// blitz_card (blitz_card sits above it), but both can include this file.

/// Exact join cardinality of the relations in S: the product of base
/// cardinalities in S and of the selectivities of all predicates whose
/// endpoints both lie in S (the induced subgraph). `base_cards[i]` is |R_i|.
inline double FanoutJoinCardinality(const JoinGraph& graph, RelSet s,
                                    const std::vector<double>& base_cards) {
  double card = graph.PiInduced(s);
  s.ForEach([&](int i) { card *= base_cards[i]; });
  return card;
}

/// Computes card(S) for every nonempty subset S of {R0..R{n-1}} using the
/// paper's recurrences (Equations 10 and 11), filling `cards` (indexed by
/// set word; size 2^n). Runs in O(2^n). This is the reference for the fused
/// computation inside BlitzSplit and must stay bit-identical to it.
inline void FanoutComputeAllCardinalities(const JoinGraph& graph,
                                          const std::vector<double>& base_cards,
                                          std::vector<double>* cards) {
  const int n = graph.num_relations();
  BLITZ_CHECK(static_cast<int>(base_cards.size()) == n);
  const std::uint64_t table_size = std::uint64_t{1} << n;
  cards->assign(table_size, 0.0);
  // pi_fan is only needed transiently; keep it alongside.
  std::vector<double> pi_fan(table_size, 1.0);
  for (int i = 0; i < n; ++i) {
    (*cards)[std::uint64_t{1} << i] = base_cards[i];
  }
  for (std::uint64_t s = 3; s < table_size; ++s) {
    if ((s & (s - 1)) == 0) continue;  // singleton
    const std::uint64_t u = s & (~s + 1);
    const std::uint64_t v = s ^ u;
    double fan;
    if ((v & (v - 1)) == 0) {
      // Doubleton {i, j}: the fan is the predicate connecting them (or 1).
      fan = graph.Selectivity(std::countr_zero(u), std::countr_zero(v));
    } else {
      // Equation (10): split V into its lowest member W and the rest Z.
      const std::uint64_t w = v & (~v + 1);
      const std::uint64_t z = v ^ w;
      fan = pi_fan[u | w] * pi_fan[u | z];
    }
    pi_fan[s] = fan;
    // Equation (11): card(S) = card(U) * card(V) * Pi_fan(S).
    (*cards)[s] = (*cards)[u] * (*cards)[v] * fan;
  }
}

}  // namespace blitz

#endif  // BLITZ_CARD_FANOUT_H_
