#include "query/join_graph.h"

#include <cmath>

#include "common/check.h"
#include "common/strings.h"

namespace blitz {

JoinGraph::JoinGraph(int num_relations) : n_(num_relations) {
  BLITZ_CHECK(num_relations >= 1 && num_relations <= kMaxRelations);
  selectivity_.assign(static_cast<size_t>(n_) * n_, 1.0);
  neighbors_.assign(n_, RelSet());
}

Status JoinGraph::AddPredicate(int i, int j, double selectivity) {
  if (i < 0 || i >= n_ || j < 0 || j >= n_) {
    return Status::OutOfRange(
        StrFormat("predicate endpoints (%d,%d) out of range [0,%d)", i, j,
                  n_));
  }
  if (i == j) {
    return Status::InvalidArgument(
        StrFormat("self-edge on relation %d not allowed", i));
  }
  if (!(selectivity > 0.0) || selectivity > 1.0 ||
      !std::isfinite(selectivity)) {
    return Status::InvalidArgument(
        StrFormat("selectivity %g outside (0,1]", selectivity));
  }
  if (HasEdge(i, j)) {
    return Status::InvalidArgument(
        StrFormat("duplicate predicate between %d and %d", i, j));
  }
  const int lo = i < j ? i : j;
  const int hi = i < j ? j : i;
  predicates_.push_back(Predicate{lo, hi, selectivity});
  selectivity_[Slot(i, j)] = selectivity;
  selectivity_[Slot(j, i)] = selectivity;
  neighbors_[i] = neighbors_[i].With(j);
  neighbors_[j] = neighbors_[j].With(i);
  return Status::OK();
}

double JoinGraph::PiSpan(RelSet u, RelSet v) const {
  BLITZ_DCHECK(!u.Intersects(v));
  double product = 1.0;
  u.ForEach([&](int i) {
    const RelSet across = neighbors_[i] & v;
    across.ForEach([&](int j) { product *= Selectivity(i, j); });
  });
  return product;
}

double JoinGraph::PiInduced(RelSet s) const {
  double product = 1.0;
  for (const Predicate& p : predicates_) {
    if (s.Contains(p.lhs) && s.Contains(p.rhs)) product *= p.selectivity;
  }
  return product;
}

double JoinGraph::PiFan(RelSet s) const {
  BLITZ_DCHECK(!s.empty());
  const RelSet u = s.LowestSingleton();
  return PiSpan(u, s - u);
}

bool JoinGraph::IsConnected(RelSet s) const {
  if (s.empty()) return false;
  RelSet reached = s.LowestSingleton();
  RelSet frontier = reached;
  while (!frontier.empty()) {
    RelSet next;
    frontier.ForEach([&](int i) { next = next | (neighbors_[i] & s); });
    next = next - reached;
    reached = reached | next;
    frontier = next;
  }
  return reached == s;
}

bool JoinGraph::AnyEdgeSpans(RelSet u, RelSet v) const {
  bool found = false;
  u.ForEach([&](int i) {
    if (neighbors_[i].Intersects(v)) found = true;
  });
  return found;
}

std::string JoinGraph::ToString() const {
  std::string out;
  for (const Predicate& p : predicates_) {
    if (!out.empty()) out += " ";
    out += StrFormat("R%d-R%d(%g)", p.lhs, p.rhs, p.selectivity);
  }
  if (out.empty()) out = "(no predicates)";
  return out;
}

}  // namespace blitz
