// Tests for the fault-injection harness itself (registry semantics) and for
// each named fault point wired into the library.

#include "governor/faultpoints.h"

#include <gtest/gtest.h>

#include "baseline/hybrid.h"
#include "core/optimizer.h"
#include "test_util.h"

namespace blitz {
namespace {

TEST(FaultRegistryTest, FiresOnceByDefault) {
  FaultRegistry registry;
  registry.Arm("p", FaultSpec{});
  EXPECT_TRUE(registry.Hit("p").has_value());
  EXPECT_FALSE(registry.Hit("p").has_value());  // self-disarmed
  EXPECT_EQ(registry.hits("p"), 2u);            // both hits counted
}

TEST(FaultRegistryTest, AfterSkipsInitialHits) {
  FaultRegistry registry;
  FaultSpec spec;
  spec.after = 2;
  registry.Arm("p", spec);
  EXPECT_FALSE(registry.Hit("p").has_value());
  EXPECT_FALSE(registry.Hit("p").has_value());
  EXPECT_TRUE(registry.Hit("p").has_value());
  EXPECT_FALSE(registry.Hit("p").has_value());
}

TEST(FaultRegistryTest, TimesBoundsFirings) {
  FaultRegistry registry;
  FaultSpec spec;
  spec.times = 3;
  registry.Arm("p", spec);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(registry.Hit("p").has_value());
  EXPECT_FALSE(registry.Hit("p").has_value());
}

TEST(FaultRegistryTest, NegativeTimesFiresForever) {
  FaultRegistry registry;
  FaultSpec spec;
  spec.times = -1;
  registry.Arm("p", spec);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(registry.Hit("p").has_value());
}

TEST(FaultRegistryTest, DisarmKeepsHitCounts) {
  FaultRegistry registry;
  registry.Arm("p", FaultSpec{});
  EXPECT_TRUE(registry.Hit("p").has_value());
  registry.Disarm("p");
  EXPECT_FALSE(registry.Hit("p").has_value());
  EXPECT_EQ(registry.hits("p"), 2u);
  registry.Clear();
  EXPECT_EQ(registry.hits("p"), 0u);
}

TEST(FaultRegistryTest, UnarmedPointCountsHits) {
  FaultRegistry registry;
  EXPECT_FALSE(registry.Hit("untouched.point").has_value());
  EXPECT_EQ(registry.hits("untouched.point"), 1u);
}

TEST(FaultHitTest, NoGlobalRegistryMeansNoFault) {
  ASSERT_EQ(GlobalFaultRegistry(), nullptr);
  EXPECT_FALSE(FaultHit(kFaultDpTableAlloc).has_value());
}

class FaultPointWiringTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kFaultInjectionCompiled) {
      GTEST_SKIP() << "built with BLITZ_FAULT_INJECTION=OFF";
    }
  }

  FaultRegistry registry_;
};

TEST_F(FaultPointWiringTest, DpTableAllocBadAlloc) {
  ScopedFaultRegistry scoped(&registry_);
  FaultSpec spec;
  spec.kind = FaultKind::kBadAlloc;
  registry_.Arm(kFaultDpTableAlloc, spec);
  Result<OptimizeOutcome> outcome = OptimizeJoin(
      testing::Table1Catalog(), testing::Figure3Graph(), OptimizerOptions{});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(registry_.hits(kFaultDpTableAlloc), 1u);

  // Disarmed after one firing: the same call now succeeds.
  Result<OptimizeOutcome> retry = OptimizeJoin(
      testing::Table1Catalog(), testing::Figure3Graph(), OptimizerOptions{});
  EXPECT_TRUE(retry.ok());
}

TEST_F(FaultPointWiringTest, DpTableAllocFailStatus) {
  ScopedFaultRegistry scoped(&registry_);
  FaultSpec spec;
  spec.kind = FaultKind::kFailStatus;
  spec.status = Status::Internal("disk on fire");
  registry_.Arm(kFaultDpTableAlloc, spec);
  Result<OptimizeOutcome> outcome = OptimizeJoin(
      testing::Table1Catalog(), testing::Figure3Graph(), OptimizerOptions{});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInternal);
  EXPECT_EQ(outcome.status().message(), "disk on fire");
}

TEST_F(FaultPointWiringTest, GovernorCheckClockSkewForcesDeadline) {
  ScopedFaultRegistry scoped(&registry_);
  FaultSpec spec;
  spec.kind = FaultKind::kClockSkew;
  spec.skew_seconds = 7200;
  registry_.Arm(kFaultGovernorCheck, spec);
  OptimizerOptions options;
  options.budget.deadline_seconds = 3600;  // generous, but the clock "jumps"
  Result<OptimizeOutcome> outcome = OptimizeJoin(
      testing::Table1Catalog(), testing::Figure3Graph(), options);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FaultPointWiringTest, GovernorCheckSpuriousCancel) {
  ScopedFaultRegistry scoped(&registry_);
  FaultSpec spec;
  spec.kind = FaultKind::kCancel;
  registry_.Arm(kFaultGovernorCheck, spec);
  OptimizerOptions options;
  options.budget.deadline_seconds = 3600;  // arm the governor
  Result<OptimizeOutcome> outcome = OptimizeJoin(
      testing::Table1Catalog(), testing::Figure3Graph(), options);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled);
}

TEST_F(FaultPointWiringTest, OptimizePassFailStatus) {
  ScopedFaultRegistry scoped(&registry_);
  FaultSpec spec;
  spec.kind = FaultKind::kFailStatus;
  spec.status = Status::ResourceExhausted("simulated pressure");
  registry_.Arm(kFaultOptimizePass, spec);
  Result<OptimizeOutcome> outcome = OptimizeJoin(
      testing::Table1Catalog(), testing::Figure3Graph(), OptimizerOptions{});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(outcome.status().message(), "simulated pressure");
}

TEST_F(FaultPointWiringTest, HybridRunFailStatus) {
  ScopedFaultRegistry scoped(&registry_);
  FaultSpec spec;
  spec.kind = FaultKind::kFailStatus;
  spec.status = Status::DeadlineExceeded("simulated stall");
  registry_.Arm(kFaultHybridRun, spec);
  const testing::RandomInstance instance =
      testing::MakeRandomInstance(12, /*seed=*/5);
  Result<HybridResult> outcome = OptimizeHybrid(
      instance.catalog, instance.graph, OptimizerOptions{}, HybridOptions{});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FaultPointWiringTest, MidPassAbortViaSecondCheck) {
  // after=1 lets the entry-gate check pass and fires at the first amortized
  // stride check inside the subset loop — a genuine mid-pass abort. n=12
  // gives 4096 subsets, several strides past kCheckStride.
  ScopedFaultRegistry scoped(&registry_);
  FaultSpec spec;
  spec.kind = FaultKind::kCancel;
  spec.after = 1;
  registry_.Arm(kFaultGovernorCheck, spec);
  OptimizerOptions options;
  options.budget.deadline_seconds = 3600;
  const testing::RandomInstance instance =
      testing::MakeRandomInstance(12, /*seed=*/11);
  Result<OptimizeOutcome> outcome =
      OptimizeJoin(instance.catalog, instance.graph, options);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled);
  EXPECT_GE(registry_.hits(kFaultGovernorCheck), 2u);
}

}  // namespace
}  // namespace blitz
