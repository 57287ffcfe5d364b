#ifndef BLITZ_SERVE_PLANCACHE_H_
#define BLITZ_SERVE_PLANCACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "api/optimize_query.h"
#include "catalog/catalog.h"
#include "common/status.h"
#include "query/join_graph.h"

namespace blitz {

/// The serving tier's plan cache (ROADMAP item 1): a bounded, sharded LRU
/// map from a *canonicalized query fingerprint* to the OptimizedQuery the
/// optimizer produced for it. Repeat traffic — the common case DPconv
/// identifies as the serving bottleneck — skips the O(3^n) DP entirely.
///
/// ## Fingerprint semantics
///
/// Two requests share a fingerprint iff they are the *same optimization
/// problem*: identical multisets of base-relation statistics (cardinality,
/// tuple width), identical join graphs up to a relabeling of the relations,
/// and identical plan-affecting options (cost model, estimator kind,
/// threshold ladder start, exhaustive limit, hybrid knobs, algorithm
/// attachment). Relation *names* and the textual order of edges are
/// deliberately excluded — `a JOIN b` and `b JOIN a` with swapped indices
/// are one problem. The per-request deadline is also excluded: a cached
/// answer is at least as good as what a shorter deadline would produce, and
/// results that *were* degraded by a budget are never inserted, so a hit
/// never hands anyone a downgraded plan.
///
/// Canonicalization runs Weisfeiler-Leman color refinement seeded by the
/// per-relation statistics, then a budgeted individualization-refinement
/// search over the remaining symmetric classes, keeping the
/// lexicographically minimal graph encoding. The full canonical encoding
/// string *is* the key (exact equality — hash collisions cannot produce a
/// wrong hit). If the symmetry search exhausts its node budget the
/// fingerprint falls back to a deterministic but not relabeling-invariant
/// ordering and is marked `exact_canonical = false`: a safe miss for
/// isomorphs, never a wrong hit, and still a hit for byte-identical
/// requests.
///
/// ## Label spaces
///
/// Entries are stored in *canonical* label space. Insert relabels the
/// result's plan through the inserting request's `to_canonical`
/// permutation; a hit relabels back through the inverse of the *requester's*
/// permutation. For a same-labeled repeat (the identity permutation, and
/// the only case the differential wall asserts bit-identity on) this round
/// trip is exact: identical plan structure, costs, counters, and tie-breaks.
///
/// ## Concurrency
///
/// The cache is sharded by fingerprint hash; each shard has one mutex.
/// GetOrCompute is single-flight per key: the first miss computes (outside
/// any lock), concurrent identical requests wait on the shard's condition
/// variable and are answered from the leader's insert — or compute
/// themselves if the leader's result turned out uncacheable.

/// A canonicalized query fingerprint (see the file comment).
struct PlanFingerprint {
  /// The full canonical encoding: relations, edges, and plan-affecting
  /// options. Key equality is exact string equality on this.
  std::string canonical;

  /// 64-bit FNV-1a of `canonical` (shard selector, never trusted alone).
  std::uint64_t hash = 0;

  /// to_canonical[i] = canonical label of original relation i.
  std::vector<int> to_canonical;

  /// False when the symmetry search exhausted its budget and fell back to
  /// a deterministic non-invariant ordering (safe miss for isomorphs).
  bool exact_canonical = true;
};

/// Computes the fingerprint of (catalog, graph, options). Deterministic;
/// invariant under relation relabeling and edge reordering whenever
/// `exact_canonical` comes back true. `search_budget` bounds the
/// individualization-refinement node count (0 = library default).
PlanFingerprint ComputePlanFingerprint(const Catalog& catalog,
                                       const JoinGraph& graph,
                                       const QueryOptimizerOptions& options,
                                       int search_budget = 0);

/// Deep-copies an OptimizedQuery with `plan` relabeled: every leaf's
/// relation index i becomes `relabel[i]` (identity when `relabel` is
/// empty). Algorithm and sort-class decorations are carried verbatim.
OptimizedQuery RelabelOptimizedQuery(const OptimizedQuery& result,
                                     const std::vector<int>& relabel);

class PlanCache {
 public:
  struct Options {
    /// Entry-count bound across all shards (0 disables caching: every
    /// lookup misses, every insert bypasses).
    std::size_t max_entries = 4096;

    /// Approximate byte bound across all shards (key + plan tree + report;
    /// 0 = unbounded by bytes).
    std::size_t max_bytes = 64ull << 20;

    /// Shard count (clamped to >= 1; a power of two keeps the modulo
    /// cheap but is not required).
    int shards = 8;
  };

  /// Monotonic counters plus current occupancy, aggregated over shards.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    /// Results not inserted: not OK, degraded, fault-injected
    /// (serve.cache.insert), or the cache is disabled.
    std::uint64_t bypasses = 0;
    /// Requests that waited on another in-flight identical computation
    /// instead of duplicating the DP work.
    std::uint64_t coalesced = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
  };

  explicit PlanCache(const Options& options);

  /// On hit: a copy of the stored result relabeled into the requester's
  /// label space, with `from_cache = true` (original tier preserved).
  std::optional<OptimizedQuery> Lookup(const PlanFingerprint& fp);

  /// Inserts `result` (relabeled into canonical space) unless the insert
  /// policy bypasses it: only OK, degradation-free results are cached, and
  /// an armed serve.cache.insert fault suppresses the insert. Evicts LRU
  /// entries while over either bound.
  void Insert(const PlanFingerprint& fp, const OptimizedQuery& result);

  /// Single-flight lookup-or-compute. `compute` runs outside every cache
  /// lock; concurrent callers with the same fingerprint coalesce onto one
  /// computation. `cancelled` (optional) lets a waiter give up — it then
  /// returns kCancelled without computing. `probed` says the caller already
  /// missed this key through Lookup, so that miss is not counted again.
  Result<OptimizedQuery> GetOrCompute(
      const PlanFingerprint& fp,
      const std::function<Result<OptimizedQuery>()>& compute,
      const std::function<bool()>& cancelled = nullptr, bool probed = false);

  Stats GetStats() const;

  /// True when max_entries is 0 — the cache is a no-op.
  bool disabled() const { return options_.max_entries == 0; }

 private:
  struct Entry {
    OptimizedQuery result;  ///< Canonical label space.
    std::size_t bytes = 0;
    std::list<std::string>::iterator lru;  ///< Position in Shard::lru.
  };

  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;  ///< Signaled when an inflight key settles.
    std::unordered_map<std::string, Entry> entries;
    std::list<std::string> lru;  ///< Front = most recent.
    std::unordered_set<std::string> inflight;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bypasses = 0;
    std::uint64_t coalesced = 0;
  };

  Shard& ShardFor(const PlanFingerprint& fp) {
    return shards_[fp.hash % shards_.size()];
  }

  /// Lookup under `shard.mu` (caller holds it). Touches LRU on hit;
  /// `count_miss` false makes a miss invisible in the stats (used by
  /// GetOrCompute's waiter re-checks and by its first check after a
  /// caller's Lookup — neither is a new miss).
  std::optional<OptimizedQuery> LookupLocked(Shard& shard,
                                             const PlanFingerprint& fp,
                                             bool count_miss = true);

  /// Insert-or-bypass under `shard.mu` (caller holds it).
  void InsertLocked(Shard& shard, const PlanFingerprint& fp,
                    const OptimizedQuery& result);

  const Options options_;
  std::vector<Shard> shards_;
};

}  // namespace blitz

#endif  // BLITZ_SERVE_PLANCACHE_H_
