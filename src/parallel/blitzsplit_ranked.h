#ifndef BLITZ_PARALLEL_BLITZSPLIT_RANKED_H_
#define BLITZ_PARALLEL_BLITZSPLIT_RANKED_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/blitzsplit.h"
#include "core/dp_table.h"
#include "core/instrumentation.h"
#include "governor/budget.h"
#include "governor/governor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_options.h"
#include "parallel/rank_enum.h"
#include "parallel/thread_pool.h"
#include "query/join_graph.h"

namespace blitz {

namespace internal {

/// First-error-wins abort channel between the workers of one pass. A worker
/// whose per-thread governor trips records its status here; every other
/// worker observes the flag at its next amortized check and unwinds. The
/// flag is a relaxed atomic (it carries only "stop"); the status travels
/// under the mutex and is read after the rank barrier, which synchronizes.
class SharedAbort {
 public:
  bool signaled() const { return flag_.load(std::memory_order_relaxed); }

  void Signal(Status status) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!recorded_) {
      recorded_ = true;
      status_ = std::move(status);
      flag_.store(true, std::memory_order_relaxed);
    }
  }

  /// The first recorded status; call only after a barrier that ordered the
  /// Signal (the pool's Run return).
  Status status() const {
    std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }

 private:
  std::atomic<bool> flag_{false};
  mutable std::mutex mu_;
  bool recorded_ = false;  ///< Guarded by mu_.
  Status status_;          ///< Guarded by mu_.
};

/// Per-chunk instrumentation slot, padded to a cache line so neighbouring
/// chunks' counter increments never share one (counting mode only; the
/// NoInstrumentation slot is empty either way).
template <typename Instr>
struct alignas(64) PaddedInstr {
  Instr instr;
};

}  // namespace internal

/// The rank-synchronous parallel realization of procedure blitzsplit.
///
/// The paper's DP is embarrassingly parallel *within a cardinality rank*:
/// every subset of cardinality k depends only on subsets of cardinality
/// < k (both split sides and the Pi_fan operands are proper subsets), so
/// the driver walks ranks k = 2..n in order and, for each rank wide enough
/// (C(n,k) >= options.min_parallel_rank), shards its subsets across a
/// fixed-size thread pool with one barrier per rank. Narrow ranks run
/// inline on the calling thread — their dispatch barrier would cost more
/// than the work.
///
/// Sharding and memory layout: a rank's subsets in increasing integer
/// order are exactly its combinations in colexicographic order, so chunk c
/// takes the contiguous combination index range [count*c/C, count*(c+1)/C),
/// jumps to its first subset via the combinatorial number system
/// (NthKSubset) and walks it with the Gosper successor (NextKSubset).
/// Because the order is colex, each chunk's writes land in a disjoint,
/// increasing row-index interval of every DP column — threads can only
/// share a cache line at the single row where two intervals abut, so no
/// extra padding of the 2^n-row columns is needed.
///
/// Determinism: each subset's row is a pure function of lower-rank rows
/// and is written by exactly one thread, so the filled table — costs,
/// cardinalities, and chosen splits — is bit-identical to the sequential
/// driver's for every thread count.
///
/// Governor: when `governor` is non-null, `budget` MUST be the caller's
/// budget already pinned via ResourceBudget::Resolved() — each worker
/// constructs a private GovernorState from it (sharing the absolute
/// deadline and cancellation token) and performs the same amortized
/// kCheckStride check cadence as the sequential driver, per thread. The
/// first worker to trip signals a shared first-error-wins abort that the
/// others observe at their next check; after the rank barrier the caller's
/// governor adopts the verdict (GovernorState::AdoptAbort) and the pass
/// returns kRejectedCost, leaving the table partially filled but safe to
/// reuse, exactly like a sequential governed abort.
///
/// Instrumentation: workers count into per-chunk cache-line-padded slots
/// that are folded into `*instr` at each rank barrier, so a completed pass
/// reports exactly the sequential totals (uint64 sums commute).
///
/// SIMD: `split_kernel` is the pass-wide resolved build/filter pair (see
/// RunBlitzSplit); every worker runs the same kernel on its chunks, so the
/// sequential driver and all thread counts share one kernel choice and the
/// bit-identity contract above is unchanged. The kernel's dense-compaction
/// build stage writes its scratch, so each chunk slot gets a private
/// SplitScratch (threads x 2^n x 8 bytes, 16 under a whole-cost filter,
/// allocated once per pass and only when a kernel is active). Its dense
/// columns are rebuilt per subset from the shared DP table, so workers
/// share no filter state.
///
/// Requirements and the `cards` contract are those of RunBlitzSplit (every
/// CardSource), plus options.EffectiveThreads() >= 1. This is the one
/// place a pass decides "parallel or not": problems where no rank reaches
/// min_parallel_rank, or a single effective thread, fall back to the
/// sequential driver wholesale.
template <typename CostModel, CardSource kCards, bool kNestedIfs = true,
          typename Instr = NoInstrumentation>
BLITZ_NOINLINE float RunBlitzSplitRanked(const CostModel& model,
                          const std::vector<double>& cards,
                          const JoinGraph* graph, float cost_threshold,
                          DpTable* table, Instr* instr,
                          const ParallelOptimizerOptions& options,
                          const ResourceBudget& budget,
                          GovernorState* governor = nullptr,
                          const SplitKernel* split_kernel = nullptr) {
  const int n = table->num_relations();
  if (!options.ShouldParallelize(n)) {
    return RunBlitzSplit<CostModel, kCards, kNestedIfs>(
        model, cards, graph, cost_threshold, table, instr, governor,
        split_kernel);
  }
  internal::BlitzCheckPass<CostModel, kCards>(cards, graph, *table);

  float* const cost = table->cost_data();
  double* const card = table->card_data();
  std::uint32_t* const best = table->best_lhs_data();
  double* const pi_fan =
      kCards == CardSource::kFanout ? table->pi_fan_data() : nullptr;
  double* const aux = CostModel::kNeedsAux ? table->aux_data() : nullptr;

  internal::BlitzInitSingletons<CostModel, kCards>(cards, n, cost, card,
                                                   best, pi_fan, aux);
  const std::uint64_t full = (std::uint64_t{1} << n) - 1;

  const int threads = options.EffectiveThreads();
  ThreadPool pool(threads - 1);
  internal::SharedAbort abort;
  std::vector<internal::PaddedInstr<Instr>> slots(
      static_cast<std::size_t>(threads));

  // One dense-compaction scratch per chunk slot: the build stage writes
  // it, so workers cannot share. Slot 0 doubles as the inline-rank scratch
  // (inline ranks run between barriers, never concurrently with workers).
  std::vector<SplitScratch> scratches(static_cast<std::size_t>(threads));
  split_kernel = internal::PrepareSplitScratch<CostModel, kNestedIfs, Instr>(
      split_kernel, n, &scratches);

  const auto process = [&](std::uint64_t s, Instr* i, SplitScratch* sc) {
    internal::BlitzProcessSubset<CostModel, kCards, kNestedIfs>(
        model, graph, cost_threshold, s, cost, card, best, pi_fan, aux, i,
        split_kernel, sc);
  };

  std::uint64_t ranks_fanned = 0;
  std::uint64_t ranks_inline = 0;
  std::uint64_t chunks_run = 0;
  for (int k = 2; k <= n; ++k) {
    const std::uint64_t count = Binomial(n, k);
    TraceSpan rank_span("dp_rank", "parallel");
    rank_span.AddArg("k", k);
    rank_span.AddArg("subsets", static_cast<double>(count));
    // Per-rank wall clock for the profile's ranks[k].wall_ticks — the
    // denominator that turns folded per-worker phase ticks (CPU time)
    // into a parallel-efficiency read. Free unless the policy profiles.
    [[maybe_unused]] std::uint64_t rank_start_ticks = 0;
    if constexpr (Instr::kProfiling) rank_start_ticks = ProfTicks();
    if (count < options.min_parallel_rank) {
      // Narrow rank: walk it inline with the sequential governor cadence.
      ++ranks_inline;
      rank_span.AddArg("chunks", 0);
      std::uint64_t v = FirstKSubset(k);
      SplitScratch* const sc = scratches.empty() ? nullptr : &scratches[0];
      for (std::uint64_t i = 0; i < count; ++i) {
        if (governor != nullptr && governor->Tick()) {
          instr->ProfPassEnd();
          return kRejectedCost;
        }
        process(v, instr, sc);
        if (i + 1 < count) v = NextKSubset(v);
      }
      if constexpr (Instr::kProfiling) {
        instr->profile.ranks[k].wall_ticks += ProfTicks() - rank_start_ticks;
      }
      continue;
    }

    const int chunks = static_cast<int>(
        count < static_cast<std::uint64_t>(threads) ? count : threads);
    ++ranks_fanned;
    chunks_run += static_cast<std::uint64_t>(chunks);
    rank_span.AddArg("chunks", chunks);
    pool.Run(chunks, [&](int c) {
      Instr* const slot = &slots[static_cast<std::size_t>(c)].instr;
      const std::uint64_t begin =
          count * static_cast<std::uint64_t>(c) /
          static_cast<std::uint64_t>(chunks);
      const std::uint64_t end =
          count * (static_cast<std::uint64_t>(c) + 1) /
          static_cast<std::uint64_t>(chunks);
      if (begin == end) return;
      SplitScratch* const sc =
          scratches.empty() ? nullptr
                            : &scratches[static_cast<std::size_t>(c)];
      std::uint64_t v = NthKSubset(n, k, begin);
      if (governor == nullptr) {
        for (std::uint64_t i = begin; i < end; ++i) {
          process(v, slot, sc);
          if (i + 1 < end) v = NextKSubset(v);
        }
        return;
      }
      // Governed chunk: a private per-thread governor over the shared
      // resolved budget, same amortized cadence as the sequential loop,
      // plus the cross-thread first-error-wins flag.
      GovernorState local(budget);
      std::uint32_t until_check = GovernorState::kCheckStride;
      for (std::uint64_t i = begin; i < end; ++i) {
        if (--until_check == 0) {
          until_check = GovernorState::kCheckStride;
          if (abort.signaled()) return;
          if (local.CheckNow()) {
            abort.Signal(local.status());
            return;
          }
        }
        process(v, slot, sc);
        if (i + 1 < end) v = NextKSubset(v);
      }
    });

    // Rank barrier: fold per-chunk counters so --report stays exact, then
    // surface any worker abort through the caller's governor. For a
    // profiling policy the folded phase ticks are summed CPU time across
    // workers; wall_ticks (recorded below, once per rank) is the wall
    // denominator.
    if constexpr (Instr::kEnabled) {
      for (auto& slot : slots) {
        *instr += slot.instr;
        slot.instr = Instr{};
      }
    }
    if constexpr (Instr::kProfiling) {
      instr->profile.ranks[k].wall_ticks += ProfTicks() - rank_start_ticks;
    }
    // The fanned span's CPU time lives in the folded worker slots; re-arm
    // the pass instance so the same wall span isn't also charged to its
    // driver phase at the next mark.
    instr->ProfResync();
    if (abort.signaled()) {
      if (governor != nullptr) governor->AdoptAbort(abort.status());
      instr->ProfPassEnd();
      return kRejectedCost;
    }
  }

  if (MetricsRegistry* metrics = GlobalMetrics()) {
    metrics->AddCounter("parallel.passes");
    metrics->AddCounter("parallel.ranks_fanned", ranks_fanned);
    metrics->AddCounter("parallel.ranks_inline", ranks_inline);
    metrics->AddCounter("parallel.chunks", chunks_run);
    metrics->MaxGauge("parallel.threads", static_cast<double>(threads));
  }
  instr->ProfPassEnd();
  return cost[full];
}

}  // namespace blitz

#endif  // BLITZ_PARALLEL_BLITZSPLIT_RANKED_H_
