#ifndef BLITZ_QUERY_JOIN_GRAPH_H_
#define BLITZ_QUERY_JOIN_GRAPH_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/relset.h"

namespace blitz {

/// One join predicate: an undirected edge between two relations, carrying a
/// selectivity in (0, 1]. In the paper's notation the predicate connecting
/// R_i and R_j is the edge \widehat{R_i R_j}.
struct Predicate {
  int lhs = 0;             ///< Smaller relation index.
  int rhs = 0;             ///< Larger relation index.
  double selectivity = 1;  ///< Fraction of the cross product retained.
};

/// The join graph G = (R, P) of Section 5.1: nodes are the relations of a
/// catalog, edges are predicates with selectivities. Predicates are assumed
/// simple (binary) and uncorrelated, as in the paper. At most one predicate
/// per relation pair; parallel predicates should be pre-merged by
/// multiplying their selectivities.
class JoinGraph {
 public:
  /// An edgeless graph over n relations (a pure Cartesian product query).
  explicit JoinGraph(int num_relations);

  JoinGraph() : JoinGraph(1) {}

  /// Adds the predicate connecting relations i and j (i != j) with the given
  /// selectivity in (0, 1]. Fails on duplicates or out-of-range arguments.
  Status AddPredicate(int i, int j, double selectivity);

  int num_relations() const { return n_; }

  int num_predicates() const { return static_cast<int>(predicates_.size()); }

  const std::vector<Predicate>& predicates() const { return predicates_; }

  /// Selectivity of the predicate between i and j, or 1.0 if none exists.
  double Selectivity(int i, int j) const { return selectivity_[Slot(i, j)]; }

  bool HasEdge(int i, int j) const {
    return neighbors_[i].Contains(j);
  }

  /// The set of relations adjacent to relation i.
  RelSet Neighbors(int i) const { return neighbors_[i]; }

  /// Number of predicates incident on relation i (the k_i of the Appendix's
  /// selectivity formula).
  int Degree(int i) const { return neighbors_[i].size(); }

  /// Product of the selectivities of all predicates spanning disjoint sets
  /// U and V — the paper's Pi_span(U, V) (Equation 8). Computed directly
  /// (not via the fan recurrence); used as the reference implementation.
  double PiSpan(RelSet u, RelSet v) const;

  /// Product of the selectivities of all predicates wholly contained in S
  /// (the induced subgraph of Section 5.1).
  double PiInduced(RelSet s) const;

  /// Pi_fan(S) per Equation (9): Pi_span({min S}, S - {min S}).
  double PiFan(RelSet s) const;

  /// True if the subgraph induced by S is connected (singletons are
  /// connected; the empty set is not). Used by the no-Cartesian-product
  /// baseline enumerators.
  bool IsConnected(RelSet s) const;

  /// True if at least one predicate spans U and V.
  bool AnyEdgeSpans(RelSet u, RelSet v) const;

  /// Renders the edge list, e.g. "R0-R1(0.01) R1-R2(0.001)".
  std::string ToString() const;

 private:
  int Slot(int i, int j) const { return i * n_ + j; }

  int n_;
  std::vector<Predicate> predicates_;
  std::vector<double> selectivity_;  ///< n*n matrix; 1.0 where no edge.
  std::vector<RelSet> neighbors_;    ///< adjacency bit-masks.
};

}  // namespace blitz

#endif  // BLITZ_QUERY_JOIN_GRAPH_H_
