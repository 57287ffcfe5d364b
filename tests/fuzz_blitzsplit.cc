// fuzz_blitzsplit: deterministic workload fuzzer + cross-oracle
// differential harness (src/testing/).
//
// Usage:
//   fuzz_blitzsplit [--seed=N] [--iters=K] [--min-n=2] [--max-n=12]
//                   [--brute-max-n=12] [--time-budget-s=S]
//                   [--corpus-dir=DIR] [--no-minimize] [--no-thresholds]
//                   [--estimators=paper,hist,noest] [--no-plan-cache]
//                   [--replay=FILE.bjq] [--verbose]
//
// Samples K cases from the paper's Appendix grid (topology in {chain, star,
// clique, random(p)}, geometric cardinality/selectivity ladders) — case i
// is a pure function of (seed, i), so any run is replayable from its seed —
// and drives each through the configuration cross-product
// {cost models} x {threshold on/off} x {1, 4 threads} x {scalar, block,
// auto SIMD}, asserting bit-identical DP tables plus three independent
// oracles (naive brute force over every subset, plan re-coster, DPccp).
//
// --estimators= sweeps the cardinality-estimator seam per case: the exact
// `paper` estimator must leave the DP table and counters bit-identical to
// the estimator-less reference; non-exact kinds (`hist`, `noest`) are held
// to valid-plan invariants (full relation coverage, finite positive cost
// under the true statistics), or, when their run finds no plan, to a greedy
// witness whose estimated cost overflows float.
//
// On a mismatch the case is shrunk (drop relations / drop predicates /
// snap selectivities while it still reproduces) and written as a replayable
// .bjq under --corpus-dir; the corpus-replay test keeps it green forever.
//
// Limits: without --iters or --time-budget-s a run stops after 100 cases.
// --time-budget-s=S given alone runs cases until S seconds have passed;
// given with --iters, whichever limit comes first ends the run. A bounded
// --iters run registers under CTest (label `fuzz`); CI runs a
// --time-budget-s session per sanitizer.
//
// Numeric flags take non-negative decimal values; anything else (a sign,
// trailing text, overflow) is a usage error.
//
// Exit codes: 0 all cases pass, 1 mismatch found, 2 usage/invalid
// configuration, 3 replay file unreadable.

#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "card/estimator.h"
#include "common/strings.h"
#include "testing/corpus.h"
#include "testing/differential.h"
#include "testing/fuzzer.h"
#include "testing/minimize.h"

namespace {

using blitz::fuzz::CaseVerdict;
using blitz::fuzz::DifferentialOptions;
using blitz::fuzz::FuzzCase;
using blitz::fuzz::FuzzerOptions;

constexpr int kExitOk = 0;
constexpr int kExitMismatch = 1;
constexpr int kExitUsage = 2;
constexpr int kExitReplay = 3;

constexpr std::uint64_t kDefaultIters = 100;

int Usage() {
  std::fprintf(stderr,
               "usage: fuzz_blitzsplit [--seed=N] [--iters=K] [--min-n=2] "
               "[--max-n=12] [--brute-max-n=12] [--time-budget-s=S] "
               "[--corpus-dir=DIR] [--no-minimize] [--no-thresholds] "
               "[--estimators=paper,hist,noest] [--no-plan-cache] "
               "[--replay=FILE.bjq] [--verbose]\n"
               "  without --iters or --time-budget-s a run stops after %llu "
               "cases; --time-budget-s alone lifts that cap, and with both "
               "the first limit reached ends the run\n",
               static_cast<unsigned long long>(kDefaultIters));
  return kExitUsage;
}

struct Flags {
  std::uint64_t seed = 1;
  std::optional<std::uint64_t> iters;  // Unset: see Usage().
  int min_n = 2;
  int max_n = 12;
  int brute_max_n = 12;
  double time_budget_s = 0;  // 0 = unlimited.
  std::string corpus_dir;
  std::string replay;
  std::string estimators = "paper";
  bool minimize = true;
  bool thresholds = true;
  bool plan_cache = true;
  bool verbose = false;
};

bool ParseFlag(const char* arg, const char* name, const char** value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '\0') {
    *value = nullptr;
    return true;
  }
  if (arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

/// Parses a non-negative decimal integer spanning all of `text`.
bool ParseCount(const char* text, std::uint64_t* out) {
  if (*text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = value;
  return true;
}

bool ParseInt(const char* text, int* out) {
  std::uint64_t value = 0;
  if (!ParseCount(text, &value) || value > INT_MAX) return false;
  *out = static_cast<int>(value);
  return true;
}

/// Parses a finite, non-negative decimal number spanning all of `text`.
bool ParseSeconds(const char* text, double* out) {
  if ((*text < '0' || *text > '9') && *text != '.') return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

/// Reports one failing case: the verdict, the (possibly minimized) repro,
/// and — when a corpus directory is configured — the written .bjq path.
void ReportFailure(const FuzzCase& original, const CaseVerdict& verdict,
                   const FuzzCase& reduced, const Flags& flags) {
  std::fprintf(stderr, "MISMATCH in case %s\n  %s\n",
               original.label.c_str(), verdict.ToString().c_str());
  std::fprintf(stderr,
               "  reproduce: fuzz_blitzsplit --seed=%llu --iters=%llu "
               "--min-n=%d --max-n=%d\n",
               static_cast<unsigned long long>(original.spec.seed),
               static_cast<unsigned long long>(original.spec.case_index + 1),
               flags.min_n, flags.max_n);
  std::fprintf(stderr, "  minimized: n=%d, %d predicates\n",
               reduced.catalog.num_relations(),
               reduced.graph.num_predicates());
  if (!flags.corpus_dir.empty()) {
    blitz::Result<std::string> path = blitz::fuzz::WriteCorpusCase(
        flags.corpus_dir, reduced, blitz::CostModelKind::kNaive,
        "fuzz mismatch: " + verdict.ToString());
    if (path.ok()) {
      std::fprintf(stderr, "  corpus file: %s\n", path->c_str());
    } else {
      std::fprintf(stderr, "  corpus write failed: %s\n",
                   path.status().ToString().c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    bool valid = true;
    if (ParseFlag(argv[i], "--seed", &value) && value != nullptr) {
      valid = ParseCount(value, &flags.seed);
    } else if (ParseFlag(argv[i], "--iters", &value) && value != nullptr) {
      valid = ParseCount(value, &flags.iters.emplace());
    } else if (ParseFlag(argv[i], "--min-n", &value) && value != nullptr) {
      valid = ParseInt(value, &flags.min_n);
    } else if (ParseFlag(argv[i], "--max-n", &value) && value != nullptr) {
      valid = ParseInt(value, &flags.max_n);
    } else if (ParseFlag(argv[i], "--brute-max-n", &value) &&
               value != nullptr) {
      valid = ParseInt(value, &flags.brute_max_n);
    } else if (ParseFlag(argv[i], "--time-budget-s", &value) &&
               value != nullptr) {
      valid = ParseSeconds(value, &flags.time_budget_s);
    } else if (ParseFlag(argv[i], "--corpus-dir", &value) &&
               value != nullptr) {
      flags.corpus_dir = value;
    } else if (ParseFlag(argv[i], "--estimators", &value) &&
               value != nullptr) {
      flags.estimators = value;
    } else if (ParseFlag(argv[i], "--replay", &value) && value != nullptr) {
      flags.replay = value;
    } else if (std::strcmp(argv[i], "--no-minimize") == 0) {
      flags.minimize = false;
    } else if (std::strcmp(argv[i], "--no-thresholds") == 0) {
      flags.thresholds = false;
    } else if (std::strcmp(argv[i], "--no-plan-cache") == 0) {
      flags.plan_cache = false;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      flags.verbose = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return Usage();
    }
    if (!valid) {
      std::fprintf(stderr, "invalid value: %s\n", argv[i]);
      return Usage();
    }
  }
  const std::uint64_t iters = flags.iters.value_or(
      flags.time_budget_s > 0 ? UINT64_MAX : kDefaultIters);

  DifferentialOptions diff;
  diff.brute_force_max_n = flags.brute_max_n;
  diff.with_thresholds = flags.thresholds;
  diff.with_plan_cache = flags.plan_cache;
  diff.estimators.clear();
  for (const std::string& name :
       blitz::StrSplit(flags.estimators, ',')) {
    const std::optional<blitz::EstimatorKind> kind =
        blitz::EstimatorKindFromName(name);
    if (!kind.has_value()) {
      std::fprintf(stderr, "unknown estimator %s (valid: %s)\n", name.c_str(),
                   blitz::EstimatorKindNames());
      return kExitUsage;
    }
    diff.estimators.push_back(*kind);
  }

  // Replay mode: one corpus file through the full grid.
  if (!flags.replay.empty()) {
    blitz::Result<FuzzCase> c = blitz::fuzz::LoadCorpusCase(flags.replay);
    if (!c.ok()) {
      std::fprintf(stderr, "cannot replay %s: %s\n", flags.replay.c_str(),
                   c.status().ToString().c_str());
      return kExitReplay;
    }
    const CaseVerdict verdict = RunDifferentialCase(*c, diff);
    std::printf("%s: %s\n", c->label.c_str(), verdict.ToString().c_str());
    return verdict.passed ? kExitOk : kExitMismatch;
  }

  // The harness's one n-bounds gate: a bad range is a status here, never an
  // abort downstream.
  const FuzzerOptions options{flags.seed, flags.min_n, flags.max_n};
  const blitz::Status valid = options.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 valid.ToString().c_str());
    return kExitUsage;
  }

  const auto start = std::chrono::steady_clock::now();
  const auto out_of_time = [&] {
    if (flags.time_budget_s <= 0) return false;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() >= flags.time_budget_s;
  };

  std::printf("fuzz_blitzsplit: seed=%llu iters=%s time-budget-s=%g "
              "n=[%d, %d] (deterministic: case i is a pure function of seed "
              "and i)\n",
              static_cast<unsigned long long>(flags.seed),
              iters == UINT64_MAX ? "unbounded" : std::to_string(iters).c_str(),
              flags.time_budget_s, flags.min_n, flags.max_n);

  std::uint64_t cases_run = 0;
  for (std::uint64_t i = 0; i < iters && !out_of_time(); ++i) {
    blitz::Result<FuzzCase> c = blitz::fuzz::GenerateCase(options, i);
    if (!c.ok()) {
      std::fprintf(stderr, "case %llu generation failed: %s\n",
                   static_cast<unsigned long long>(i),
                   c.status().ToString().c_str());
      return kExitUsage;
    }
    if (flags.verbose) {
      std::printf("  %s (%d predicates)\n", c->label.c_str(),
                  c->graph.num_predicates());
    }
    const CaseVerdict verdict = RunDifferentialCase(*c, diff);
    ++cases_run;
    if (verdict.passed) continue;

    FuzzCase reduced = *c;
    if (flags.minimize) {
      reduced = blitz::fuzz::MinimizeCase(*c, [&](const FuzzCase& candidate) {
        return !RunDifferentialCase(candidate, diff).passed;
      });
    }
    ReportFailure(*c, verdict, reduced, flags);
    return kExitMismatch;
  }

  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  std::printf(
      "OK: %llu cases x %zu models x config grid in %.1fs, no mismatches\n",
      static_cast<unsigned long long>(cases_run), diff.cost_models.size(),
      elapsed.count());
  return kExitOk;
}
