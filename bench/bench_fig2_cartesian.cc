// Regenerates Figure 2 of the paper: Cartesian-product optimization time as
// a function of the number of relations n, together with a least-squares fit
// of formula (3),
//     3^n T_loop + (ln2/2) n 2^n T_cond + 2^n T_subset,
// reporting the fitted machine constants (the paper inferred T_loop of about
// 180 ns on a SPARCstation 2 and 50 ns on an HP 9000/755).
//
// Modes:
//   bench_fig2_cartesian                # the classic text table + fit
//   bench_fig2_cartesian --json <path>  # machine-readable SIMD comparison
//
// The JSON mode is the recorded perf baseline for the SIMD split-filter
// kernel (BENCH_fig2.json at the repo root), in the unified
// "blitz-bench-v1" schema tools/bench_diff consumes: for each cost model
// in {naive, sm, dnl} and each n it reports min-of-k per-optimization
// times under --simd=scalar and under the auto-resolved SIMD kernel, plus
// the speedup ratio and whether kAuto would engage the kernel at that
// (model, n). Minimum-of-k (not mean) is the standard perf-baseline
// estimator: it discards scheduler noise, which is strictly additive.
//
// Environment knobs: BLITZ_BENCH_MIN_SECONDS (timing floor per point,
// default 0.05), BLITZ_FIG2_MAX_N (default 17 text / 15 json),
// BLITZ_FIG2_SAMPLES (min-of-k sample count in json mode, default 5).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "benchlib/bench_json.h"
#include "benchlib/table_out.h"
#include "benchlib/timing.h"
#include "catalog/catalog.h"
#include "common/check.h"
#include "common/math_util.h"
#include "common/strings.h"
#include "core/optimizer.h"
#include "simd/dispatch.h"

namespace blitz {
namespace {

int RunText() {
  const double min_seconds = BenchMinSeconds(0.05);
  const int min_n = 5;
  const int max_n = BenchEnvInt("BLITZ_FIG2_MAX_N", 17);

  std::printf(
      "Figure 2: Cartesian product optimization times (naive cost model,\n"
      "equal base cardinalities of 100)\n\n");

  std::vector<int> ns;
  std::vector<double> times;
  std::vector<int> reps;
  TextTable out;
  out.SetHeader({"n", "time/opt (ms)", "reps", "formula(3) fit (ms)"});

  for (int n = min_n; n <= max_n; ++n) {
    Result<Catalog> catalog =
        Catalog::FromCardinalities(std::vector<double>(n, 100.0));
    BLITZ_CHECK(catalog.ok());
    const TimingResult timing = TimeIt(
        [&] {
          Result<OptimizeOutcome> outcome =
              OptimizeCartesian(*catalog, OptimizerOptions{});
          BLITZ_CHECK(outcome.ok());
        },
        min_seconds);
    ns.push_back(n);
    times.push_back(timing.seconds_per_run);
    reps.push_back(timing.repetitions);
  }

  // Fit over n <= 15 only: "Formula (3) ... tracks them closely until
  // n ~ 15 (at which point cache effectiveness declines)".
  int fit_count = 0;
  while (fit_count < static_cast<int>(ns.size()) && ns[fit_count] <= 15) {
    ++fit_count;
  }
  double t_loop = 0;
  double t_cond = 0;
  double t_subset = 0;
  const bool fitted = FitFormula3(ns.data(), times.data(), fit_count,
                                  &t_loop, &t_cond, &t_subset);

  for (size_t i = 0; i < ns.size(); ++i) {
    const double fit =
        fitted ? Formula3(ns[i], t_loop, t_cond, t_subset) : 0.0;
    out.AddRow({StrFormat("%d", ns[i]), StrFormat("%.3f", times[i] * 1e3),
                StrFormat("%d", reps[i]), StrFormat("%.3f", fit * 1e3)});
  }
  std::printf("%s\n", out.ToString().c_str());

  if (fitted) {
    std::printf("Fitted constants of formula (3):\n");
    std::printf("  T_loop   = %8.2f ns  (paper: ~180 ns Sun, ~50 ns HP)\n",
                t_loop * 1e9);
    std::printf("  T_cond   = %8.2f ns\n", t_cond * 1e9);
    std::printf("  T_subset = %8.2f ns\n", t_subset * 1e9);
  } else {
    std::printf("Not enough points to fit formula (3).\n");
  }
  return 0;
}

/// Min-of-k per-optimization seconds for one (catalog, model, simd) point.
double MinOfK(const Catalog& catalog, CostModelKind model, SimdLevel simd,
              int samples, double min_seconds) {
  OptimizerOptions options;
  options.cost_model = model;
  options.simd = simd;
  double best = 0;
  for (int sample = 0; sample < samples; ++sample) {
    const TimingResult timing = TimeIt(
        [&] {
          Result<OptimizeOutcome> outcome =
              OptimizeCartesian(catalog, options);
          BLITZ_CHECK(outcome.ok());
        },
        min_seconds);
    if (sample == 0 || timing.seconds_per_run < best) {
      best = timing.seconds_per_run;
    }
  }
  return best;
}

int RunJson(const char* path) {
  const double min_seconds = BenchMinSeconds(0.05);
  const int min_n = 5;
  const int max_n = BenchEnvInt("BLITZ_FIG2_MAX_N", 15);
  const int samples = BenchEnvInt("BLITZ_FIG2_SAMPLES", 5);
  const SimdLevel resolved = ResolveSimdLevel(SimdLevel::kAuto);

  const struct {
    CostModelKind kind;
    const char* name;
  } kModels[] = {{CostModelKind::kNaive, "naive"},
                 {CostModelKind::kSortMerge, "sm"},
                 {CostModelKind::kDiskNestedLoops, "dnl"}};

  BenchReport report;
  report.bench = "fig2_cartesian";
  report.AddMeta("setup",
                 "equal base cardinalities of 100, pure Cartesian product");
  report.AddMeta("estimator",
                 StrFormat("min of %d adaptive timings", samples));
  report.AddMeta("min_seconds_per_timing", StrFormat("%g", min_seconds));
  report.AddMeta("simd_resolved", SimdLevelName(resolved));

  for (const auto& model : kModels) {
    // The SIMD column *forces* the resolved kernel so every model's kernel
    // cost is on record; auto_engages says whether kAuto would actually
    // run it at this (model, n) on these uncounted passes — each model
    // from its measured minimum size (see CostModel::kSplitGateTight and
    // kSplitBound, simd/dispatch.h, and DESIGN.md section 9).
    OptimizerOptions auto_options;
    auto_options.cost_model = model.kind;
    for (int n = min_n; n <= max_n; ++n) {
      Result<Catalog> catalog =
          Catalog::FromCardinalities(std::vector<double>(n, 100.0));
      BLITZ_CHECK(catalog.ok());
      const bool auto_engages =
          EffectivePassSimdLevel(auto_options, n) != SimdLevel::kScalar;
      const double scalar_s = MinOfK(*catalog, model.kind,
                                     SimdLevel::kScalar, samples,
                                     min_seconds);
      const double simd_s =
          MinOfK(*catalog, model.kind, resolved, samples, min_seconds);
      const double speedup = simd_s > 0 ? scalar_s / simd_s : 0.0;
      const std::string prefix = StrFormat("%s/n%02d", model.name, n);
      report.AddPoint(prefix + "/scalar", scalar_s * 1e3, "ms");
      report.AddPoint(prefix + "/simd", simd_s * 1e3, "ms");
      report.AddPoint(prefix + "/speedup", speedup, "ratio");
      report.AddPoint(prefix + "/auto_engages", auto_engages ? 1 : 0,
                      "bool");
      // Progress to stderr so long runs are observable.
      std::fprintf(stderr,
                   "%s n=%-2d scalar %8.3f ms  %s %8.3f ms  %.2fx%s\n",
                   model.name, n, scalar_s * 1e3, SimdLevelName(resolved),
                   simd_s * 1e3, speedup, auto_engages ? "  [auto]" : "");
    }
  }
  const Status status = WriteBenchJsonFile(report, path);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (simd level %s)\n", path, SimdLevelName(resolved));
  return 0;
}

}  // namespace
}  // namespace blitz

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      return blitz::RunJson(argv[i + 1]);
    }
  }
  return blitz::RunText();
}
