#include "serve/plancache.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <tuple>
#include <utility>

#include "common/strings.h"
#include "cost/cost_model.h"
#include "governor/faultpoints.h"

namespace blitz {

namespace {

/// Default individualization-refinement node budget. Typical (stat-diverse)
/// queries resolve in one node; highly symmetric graphs (uniform cliques)
/// blow past any polynomial budget and take the documented fallback.
constexpr int kDefaultSearchBudget = 512;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t FnvHash(std::string_view s) {
  std::uint64_t h = kFnvOffset;
  for (const unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

/// Order-sensitive 64-bit mix (splitmix-style) for color refinement.
std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

std::uint64_t DoubleBits(double d) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// One round of Weisfeiler-Leman refinement: each relation's new color
/// hashes its old color with the sorted multiset of (edge selectivity,
/// neighbor color) pairs. Returns the number of distinct colors.
int RefineOnce(const JoinGraph& graph, std::vector<std::uint64_t>* colors) {
  const int n = graph.num_relations();
  std::vector<std::uint64_t> next(n);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sig;
  for (int i = 0; i < n; ++i) {
    sig.clear();
    for (int j = 0; j < n; ++j) {
      if (j == i || !graph.HasEdge(i, j)) continue;
      sig.emplace_back(DoubleBits(graph.Selectivity(i, j)), (*colors)[j]);
    }
    std::sort(sig.begin(), sig.end());
    std::uint64_t h = Mix((*colors)[i], 0x5157u);  // Domain-separate rounds.
    for (const auto& [sel, color] : sig) h = Mix(Mix(h, sel), color);
    next[i] = h;
  }
  *colors = std::move(next);
  std::vector<std::uint64_t> sorted = *colors;
  std::sort(sorted.begin(), sorted.end());
  return static_cast<int>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
}

/// Refines to a fixed point (the partition stops splitting).
void RefineToStable(const JoinGraph& graph,
                    std::vector<std::uint64_t>* colors) {
  const int n = graph.num_relations();
  int classes = 0;
  for (int round = 0; round < n; ++round) {
    const int next_classes = RefineOnce(graph, colors);
    if (next_classes == classes || next_classes == n) return;
    classes = next_classes;
  }
}

/// Encodes the graph under `perm` (perm[original] = canonical label):
/// per-relation statistics in canonical order, then the relabeled,
/// normalized, sorted edge list. This string is what canonicalization
/// minimizes — and, with the options suffix, the exact-match cache key.
std::string EncodeGraph(const Catalog& catalog, const JoinGraph& graph,
                        const std::vector<int>& perm) {
  const int n = graph.num_relations();
  std::vector<int> inv(n);
  for (int i = 0; i < n; ++i) inv[perm[i]] = i;
  std::string out = StrFormat("n %d\n", n);
  for (int c = 0; c < n; ++c) {
    const RelationStats& rel = catalog.relation(inv[c]);
    out += StrFormat("r %d %a %d\n", c, rel.cardinality, rel.tuple_bytes);
  }
  struct Edge {
    int a;
    int b;
    double sel;
  };
  std::vector<Edge> edges;
  edges.reserve(graph.predicates().size());
  for (const Predicate& p : graph.predicates()) {
    int a = perm[p.lhs];
    int b = perm[p.rhs];
    if (a > b) std::swap(a, b);
    edges.push_back({a, b, p.selectivity});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    return std::tie(x.a, x.b, x.sel) < std::tie(y.a, y.b, y.sel);
  });
  for (const Edge& e : edges) {
    out += StrFormat("e %d %d %a\n", e.a, e.b, e.sel);
  }
  return out;
}

/// Derives perm[original] = canonical position from a discrete coloring
/// (ties broken by original index — only reached with distinct colors when
/// the coloring is discrete, so the tie-break never fires there).
std::vector<int> PermFromColors(const std::vector<std::uint64_t>& colors) {
  const int n = static_cast<int>(colors.size());
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return std::tie(colors[a], a) < std::tie(colors[b], b);
  });
  std::vector<int> perm(n);
  for (int c = 0; c < n; ++c) perm[order[c]] = c;
  return perm;
}

/// Budgeted individualization-refinement over the non-singleton color
/// classes, keeping the lexicographically minimal encoding.
struct CanonSearch {
  const Catalog& catalog;
  const JoinGraph& graph;
  int budget;
  bool aborted = false;
  std::string best;
  std::vector<int> best_perm;

  void Run(std::vector<std::uint64_t> colors) {
    RefineToStable(graph, &colors);
    if (--budget < 0) {
      aborted = true;
      return;
    }
    // Target class: the smallest color value with more than one member.
    const int n = static_cast<int>(colors.size());
    std::uint64_t target = 0;
    int target_count = 0;
    for (int i = 0; i < n; ++i) {
      int count = 0;
      for (int j = 0; j < n; ++j) count += colors[j] == colors[i];
      if (count > 1 && (target_count == 0 || colors[i] < target)) {
        target = colors[i];
        target_count = count;
      }
    }
    if (target_count == 0) {  // Discrete: one candidate labeling.
      const std::vector<int> perm = PermFromColors(colors);
      std::string enc = EncodeGraph(catalog, graph, perm);
      if (best.empty() || enc < best) {
        best = std::move(enc);
        best_perm = perm;
      }
      return;
    }
    for (int i = 0; i < n && !aborted; ++i) {
      if (colors[i] != target) continue;
      std::vector<std::uint64_t> child = colors;
      child[i] = Mix(child[i], 0x1d1du);  // Individualize relation i.
      Run(std::move(child));
    }
  }
};

/// The plan-affecting options suffix of the canonical encoding. Knobs that
/// provably do not change the chosen plan (parallelism, SIMD level,
/// report collection) and the per-request budget (degraded results are
/// never inserted) are deliberately excluded.
std::string EncodeOptions(const QueryOptimizerOptions& options) {
  const EstimatorKind estimator = options.estimator == nullptr
                                      ? EstimatorKind::kPaperFanout
                                      : options.estimator->kind();
  std::string out = StrFormat(
      "o cm=%s est=%s xl=%d attach=%d\n",
      CostModelKindToString(options.cost_model), EstimatorKindName(estimator),
      options.exhaustive_limit, options.attach_algorithms ? 1 : 0);
  if (options.initial_cost_threshold.has_value()) {
    out += StrFormat("o thr=%a\n",
                     static_cast<double>(*options.initial_cost_threshold));
  } else {
    out += "o thr=-\n";
  }
  const HybridOptions& h = options.hybrid;
  out += StrFormat("o hyb=%d,%d,%llu,%d,%d,%d\n", h.block_size, h.restarts,
                   static_cast<unsigned long long>(h.seed), h.polish ? 1 : 0,
                   h.polish_moves, h.seed_with_greedy ? 1 : 0);
  return out;
}

Plan RelabelPlanNode(const PlanNode& node, const std::vector<int>& relabel) {
  if (node.is_leaf()) {
    const int r = node.relation();
    Plan leaf = Plan::Leaf(relabel.empty() ? r : relabel[r]);
    leaf.mutable_root().algorithm = node.algorithm;
    leaf.mutable_root().sort_class = node.sort_class;
    return leaf;
  }
  Plan joined = Plan::Join(RelabelPlanNode(*node.left, relabel),
                           RelabelPlanNode(*node.right, relabel));
  joined.mutable_root().algorithm = node.algorithm;
  joined.mutable_root().sort_class = node.sort_class;
  return joined;
}

std::size_t PlanNodeBytes(const PlanNode& node) {
  std::size_t bytes = sizeof(PlanNode);
  if (node.left != nullptr) bytes += PlanNodeBytes(*node.left);
  if (node.right != nullptr) bytes += PlanNodeBytes(*node.right);
  return bytes;
}

std::size_t EntryBytesEstimate(const std::string& key,
                               const OptimizedQuery& result) {
  std::size_t bytes = key.size() + sizeof(OptimizedQuery) + 64;
  if (!result.plan.empty()) bytes += PlanNodeBytes(result.plan.root());
  if (result.report.has_value()) {
    bytes += sizeof(OptimizeReport);
    bytes += result.report->thresholds_tried.size() * sizeof(float);
    for (const std::string& d : result.report->degradations) bytes += d.size();
  }
  return bytes;
}

/// Insert policy: only successful, degradation-free results are cached —
/// a hit must never hand out a plan that a budget squeezed down.
bool Cacheable(const OptimizedQuery& result) {
  return !result.plan.empty() &&
         (!result.report.has_value() || result.report->degradations.empty());
}

}  // namespace

PlanFingerprint ComputePlanFingerprint(const Catalog& catalog,
                                       const JoinGraph& graph,
                                       const QueryOptimizerOptions& options,
                                       int search_budget) {
  const int n = graph.num_relations();
  std::vector<std::uint64_t> colors(n);
  for (int i = 0; i < n; ++i) {
    const RelationStats& rel = catalog.relation(i);
    colors[i] = Mix(Mix(0x626c7a63ull, DoubleBits(rel.cardinality)),
                    static_cast<std::uint64_t>(rel.tuple_bytes));
  }
  CanonSearch search{catalog, graph,
                     search_budget > 0 ? search_budget : kDefaultSearchBudget,
                     /*aborted=*/false, /*best=*/{}, /*best_perm=*/{}};
  search.Run(colors);

  PlanFingerprint fp;
  if (!search.aborted && !search.best.empty()) {
    fp.canonical = std::move(search.best);
    fp.to_canonical = std::move(search.best_perm);
    fp.exact_canonical = true;
  } else {
    // Budget exhausted: deterministic but not relabeling-invariant order
    // from the stable refinement (safe miss for isomorphs, still a hit for
    // byte-identical requests).
    RefineToStable(graph, &colors);
    fp.to_canonical = PermFromColors(colors);
    fp.canonical = EncodeGraph(catalog, graph, fp.to_canonical);
    fp.exact_canonical = false;
  }
  fp.canonical += EncodeOptions(options);
  fp.hash = FnvHash(fp.canonical);
  return fp;
}

OptimizedQuery RelabelOptimizedQuery(const OptimizedQuery& result,
                                     const std::vector<int>& relabel) {
  OptimizedQuery out;
  if (!result.plan.empty()) {
    out.plan = RelabelPlanNode(result.plan.root(), relabel);
  }
  out.cost = result.cost;
  out.tier = result.tier;
  out.passes = result.passes;
  out.report = result.report;
  out.from_cache = result.from_cache;
  return out;
}

PlanCache::PlanCache(const Options& options)
    : options_(options), shards_(std::max(1, options.shards)) {}

std::optional<OptimizedQuery> PlanCache::LookupLocked(
    Shard& shard, const PlanFingerprint& fp, bool count_miss) {
  const auto it = shard.entries.find(fp.canonical);
  if (it == shard.entries.end()) {
    if (count_miss) ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru);
  // Stored plans live in canonical label space; hand back the requester's.
  const int n = static_cast<int>(fp.to_canonical.size());
  std::vector<int> from_canonical(n);
  for (int i = 0; i < n; ++i) from_canonical[fp.to_canonical[i]] = i;
  OptimizedQuery result =
      RelabelOptimizedQuery(it->second.result, from_canonical);
  result.from_cache = true;
  return result;
}

std::optional<OptimizedQuery> PlanCache::Lookup(const PlanFingerprint& fp) {
  Shard& shard = ShardFor(fp);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (disabled()) {
    ++shard.misses;
    return std::nullopt;
  }
  return LookupLocked(shard, fp);
}

void PlanCache::InsertLocked(Shard& shard, const PlanFingerprint& fp,
                             const OptimizedQuery& result) {
  if (disabled() || !Cacheable(result)) {
    ++shard.bypasses;
    return;
  }
  if (const std::optional<FaultSpec> fault = FaultHit(kFaultServeCacheInsert);
      fault.has_value()) {
    ++shard.bypasses;  // Any armed kind models cache-memory pressure.
    return;
  }
  if (shard.entries.count(fp.canonical) > 0) return;  // Racing leader won.
  Entry entry;
  entry.result = RelabelOptimizedQuery(result, fp.to_canonical);
  entry.result.from_cache = false;  // Stored fresh; stamped true on hits.
  entry.bytes = EntryBytesEstimate(fp.canonical, entry.result);
  shard.lru.push_front(fp.canonical);
  entry.lru = shard.lru.begin();
  shard.bytes += entry.bytes;
  shard.entries.emplace(fp.canonical, std::move(entry));
  ++shard.inserts;
  const std::size_t per_shard_entries =
      std::max<std::size_t>(1, options_.max_entries / shards_.size());
  const std::size_t per_shard_bytes =
      options_.max_bytes == 0 ? 0 : options_.max_bytes / shards_.size();
  while (shard.entries.size() > per_shard_entries ||
         (per_shard_bytes > 0 && shard.bytes > per_shard_bytes &&
          shard.entries.size() > 1)) {
    const std::string victim = shard.lru.back();
    shard.lru.pop_back();
    const auto it = shard.entries.find(victim);
    shard.bytes -= it->second.bytes;
    shard.entries.erase(it);
    ++shard.evictions;
  }
}

void PlanCache::Insert(const PlanFingerprint& fp,
                       const OptimizedQuery& result) {
  Shard& shard = ShardFor(fp);
  std::lock_guard<std::mutex> lock(shard.mu);
  InsertLocked(shard, fp, result);
}

Result<OptimizedQuery> PlanCache::GetOrCompute(
    const PlanFingerprint& fp,
    const std::function<Result<OptimizedQuery>()>& compute,
    const std::function<bool()>& cancelled, bool probed) {
  if (disabled()) return compute();
  Shard& shard = ShardFor(fp);
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    bool first_attempt = true;
    for (;;) {
      // Re-check lookups while waiting on a leader count neither as hits
      // nor misses until they settle — stats stay per-request, not
      // per-poll-cycle.
      if (std::optional<OptimizedQuery> hit = LookupLocked(
              shard, fp, /*count_miss=*/first_attempt && !probed);
          hit.has_value()) {
        return std::move(*hit);
      }
      if (shard.inflight.count(fp.canonical) == 0) {
        shard.inflight.insert(fp.canonical);  // We are the leader.
        break;
      }
      if (first_attempt) ++shard.coalesced;
      first_attempt = false;
      // Wait for the leader to settle; wake periodically so a cancelled
      // waiter can give up without waiting out the leader's DP.
      shard.cv.wait_for(lock, std::chrono::milliseconds(10));
      if (cancelled != nullptr && cancelled()) {
        return Status::Cancelled("request cancelled while coalesced");
      }
      // Loop: either the entry appeared (hit above), the leader failed or
      // bypassed (inflight empty — become the leader ourselves), or the
      // leader is still computing.
    }
  }
  Result<OptimizedQuery> result = compute();  // Outside every cache lock.
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.inflight.erase(fp.canonical);
    if (result.ok()) {
      InsertLocked(shard, fp, *result);
    } else {
      ++shard.bypasses;
    }
    shard.cv.notify_all();
  }
  return result;
}

PlanCache::Stats PlanCache::GetStats() const {
  Stats stats;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.inserts += shard.inserts;
    stats.evictions += shard.evictions;
    stats.bypasses += shard.bypasses;
    stats.coalesced += shard.coalesced;
    stats.entries += shard.entries.size();
    stats.bytes += shard.bytes;
  }
  return stats;
}

}  // namespace blitz
