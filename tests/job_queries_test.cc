// End-to-end coverage of the JOB-style workload front end: every checked-in
// examples/queries/job/*.bjq must parse, describe a connected-enough
// problem, and optimize under all three cardinality estimators; the
// JOB-flavored .bjq directives (table, join, estimator) must parse and
// round-trip; and the serving tier must honor (or reject) the estimator
// directive and surface the resolved name on the wire.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/optimize_query.h"
#include "card/estimator.h"
#include "card/histogram.h"
#include "card/no_estimate.h"
#include "exec/datagen.h"
#include "exec/stats.h"
#include "serve/client.h"
#include "serve/mux.h"
#include "serve/server.h"
#include "serve/stream.h"
#include "serve/wire.h"
#include "testing/corpus.h"
#include "textio/bjq.h"

#ifndef BLITZ_JOB_QUERY_DIR
#define BLITZ_JOB_QUERY_DIR "examples/queries/job"
#endif

namespace blitz {
namespace {

std::vector<std::string> JobQueryFiles() {
  return fuzz::ListCorpusFiles(BLITZ_JOB_QUERY_DIR);
}

TEST(JobQueriesTest, CheckedInSetIsPresent) {
  // The mini JOB set is part of the repo contract (tools/make_job_queries
  // regenerates it); an empty directory means the checkout is broken.
  EXPECT_GE(JobQueryFiles().size(), 10u);
}

TEST(JobQueriesTest, EveryQueryLoadsAndOptimizesUnderEveryEstimator) {
  const std::vector<std::string> files = JobQueryFiles();
  ASSERT_FALSE(files.empty());
  for (const std::string& path : files) {
    Result<QuerySpec> spec = LoadBjqFile(path);
    ASSERT_TRUE(spec.ok()) << path << ": " << spec.status().ToString();
    const int n = spec->catalog.num_relations();
    ASSERT_GE(n, 2) << path;
    ASSERT_GE(spec->graph.num_predicates(), 1) << path;

    // Exact baseline.
    QueryOptimizerOptions options;
    options.cost_model = spec->cost_model;
    Result<OptimizedQuery> exact =
        OptimizeQuery(spec->catalog, spec->graph, options);
    ASSERT_TRUE(exact.ok()) << path << ": " << exact.status().ToString();
    ASSERT_GT(exact->cost, 0.0) << path;
    EXPECT_EQ(exact->plan.relations(), spec->catalog.AllRelations()) << path;

    // noest: estimate-free optimization still covers every relation, and
    // its true-statistics cost can only match or exceed the exact plan's.
    NoEstimateEstimator no_estimate(spec->graph);
    options.estimator = &no_estimate;
    Result<OptimizedQuery> noest =
        OptimizeQuery(spec->catalog, spec->graph, options);
    ASSERT_TRUE(noest.ok()) << path << ": " << noest.status().ToString();
    EXPECT_EQ(noest->plan.relations(), spec->catalog.AllRelations()) << path;
    EXPECT_TRUE(std::isfinite(noest->cost)) << path;
    EXPECT_GE(noest->cost, exact->cost * 0.999) << path;

    // hist: histograms over synthetic tables realizing the catalog.
    DataGenOptions datagen;
    datagen.max_rows_per_table = 1 << 14;  // JOB cardinalities are huge.
    Result<std::vector<ExecTable>> tables =
        GenerateTables(spec->catalog, spec->graph, datagen);
    ASSERT_TRUE(tables.ok()) << path << ": " << tables.status().ToString();
    Result<std::unique_ptr<SampleHistogramEstimator>> histogram =
        BuildHistogramEstimator(spec->graph, *tables);
    ASSERT_TRUE(histogram.ok()) << path << ": "
                                << histogram.status().ToString();
    options.estimator = histogram->get();
    Result<OptimizedQuery> hist =
        OptimizeQuery(spec->catalog, spec->graph, options);
    ASSERT_TRUE(hist.ok()) << path << ": " << hist.status().ToString();
    EXPECT_EQ(hist->plan.relations(), spec->catalog.AllRelations()) << path;
    EXPECT_TRUE(std::isfinite(hist->cost)) << path;
    EXPECT_GE(hist->cost, exact->cost * 0.999) << path;
  }
}

TEST(JobQueriesTest, GeneratedFilesRoundTripThroughWriteBjq) {
  for (const std::string& path : JobQueryFiles()) {
    Result<QuerySpec> spec = LoadBjqFile(path);
    ASSERT_TRUE(spec.ok()) << path;
    Result<QuerySpec> again = ParseBjq(WriteBjq(*spec));
    ASSERT_TRUE(again.ok()) << path << ": " << again.status().ToString();
    EXPECT_EQ(again->catalog.num_relations(),
              spec->catalog.num_relations())
        << path;
    EXPECT_EQ(again->graph.num_predicates(), spec->graph.num_predicates())
        << path;
    EXPECT_EQ(again->cost_model, spec->cost_model) << path;
  }
}

// ---------------------------------------------------------------------------
// The JOB-flavored directives.

TEST(BjqJobDirectivesTest, TableIsASynonymForRelation) {
  Result<QuerySpec> spec = ParseBjq(
      "table movies 1000\n"
      "relation actors 500\n"
      "predicate movies actors 0.01\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->catalog.num_relations(), 2);
  EXPECT_EQ(spec->catalog.cardinality(0), 1000.0);
}

TEST(BjqJobDirectivesTest, JoinDirectiveAppliesTheSystemRRule) {
  // Explicit distinct counts: sel = 1 / max(200, 50) = 0.005.
  Result<QuerySpec> spec = ParseBjq(
      "table a 1000\n"
      "table b 400\n"
      "join a.id = b.a_id 200 50\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->graph.num_predicates(), 1);
  EXPECT_DOUBLE_EQ(spec->graph.Selectivity(0, 1), 1.0 / 200.0);

  // Distincts default to the declared (pre-filter) row counts, even when a
  // filter later scales the catalog cardinality down.
  Result<QuerySpec> defaulted = ParseBjq(
      "table a 1000\n"
      "table b 400\n"
      "filter a 0.1\n"
      "join a.id = b.a_id\n");
  ASSERT_TRUE(defaulted.ok()) << defaulted.status().ToString();
  ASSERT_EQ(defaulted->graph.num_predicates(), 1);
  EXPECT_DOUBLE_EQ(defaulted->graph.Selectivity(0, 1), 1.0 / 1000.0);
  EXPECT_DOUBLE_EQ(defaulted->catalog.cardinality(0), 100.0);
}

TEST(BjqJobDirectivesTest, JoinDirectiveRejectsMalformedInput) {
  const char* broken[] = {
      "table a 10\ntable b 10\njoin a.id b.a_id\n",       // missing '='.
      "table a 10\ntable b 10\njoin aid = b.a_id\n",      // no dot.
      "table a 10\ntable b 10\njoin a.id = c.a_id\n",     // unknown table.
      "table a 10\ntable b 10\njoin a.id = b.a_id -1 5\n",  // bad distinct.
      "table a 10\ntable b 10\njoin a.id = b.a_id 5\n",   // one distinct.
  };
  for (const char* text : broken) {
    EXPECT_FALSE(ParseBjq(text).ok()) << text;
  }
}

TEST(BjqJobDirectivesTest, EstimatorDirectiveParsesAndRoundTrips) {
  Result<QuerySpec> spec = ParseBjq(
      "relation A 100\n"
      "relation B 200\n"
      "predicate A B 0.1\n"
      "estimator noest\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_TRUE(spec->estimator.has_value());
  EXPECT_EQ(*spec->estimator, EstimatorKind::kNoEstimate);

  const std::string text = WriteBjq(*spec);
  EXPECT_NE(text.find("estimator noest"), std::string::npos);
  Result<QuerySpec> again = ParseBjq(text);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(again->estimator.has_value());
  EXPECT_EQ(*again->estimator, EstimatorKind::kNoEstimate);

  // Absent directive -> no estimator requested.
  Result<QuerySpec> plain = ParseBjq("relation A 100\n");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->estimator.has_value());

  // Unknown name is a parse error listing the valid names.
  Result<QuerySpec> bad = ParseBjq("relation A 100\nestimator oracle\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("paper"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Serving: the estimator directive over the wire.

class TestConnection {
 public:
  explicit TestConnection(BlitzServer* server) {
    auto [client_end, server_end] = CreateDuplexPipe();
    client_end_ = std::move(client_end);
    server_end_ = std::move(server_end);
    thread_ = std::thread([server, stream = server_end_.get()] {
      (void)ServeStream(server, stream);
    });
  }

  ~TestConnection() {
    if (thread_.joinable()) {
      client_end_->CloseWrite();
      thread_.join();
    }
  }

  ByteStream* stream() { return client_end_.get(); }

 private:
  std::unique_ptr<ByteStream> client_end_;
  std::unique_ptr<ByteStream> server_end_;
  std::thread thread_;
};

constexpr char kServeBody[] =
    "relation A 100\nrelation B 200\npredicate A B 0.1\n";

TEST(JobServeTest, ReplyCarriesTheResolvedEstimator) {
  Result<std::unique_ptr<BlitzServer>> server =
      BlitzServer::Create(ServerOptions{});
  ASSERT_TRUE(server.ok());
  TestConnection conn(server->get());
  BlitzClient client(conn.stream(), BlitzClient::Options{});

  Result<ServeReply> plain = client.Optimize(kServeBody);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->estimator, "paper");

  Result<ServeReply> noest =
      client.Optimize(std::string(kServeBody) + "estimator noest\n");
  ASSERT_TRUE(noest.ok()) << noest.status().ToString();
  EXPECT_EQ(noest->estimator, "noest");
}

TEST(JobServeTest, HistIsRejectedPerRequest) {
  Result<std::unique_ptr<BlitzServer>> server =
      BlitzServer::Create(ServerOptions{});
  ASSERT_TRUE(server.ok());
  TestConnection conn(server->get());
  BlitzClient client(conn.stream(), BlitzClient::Options{});

  Result<ServeReply> hist =
      client.Optimize(std::string(kServeBody) + "estimator hist\n");
  ASSERT_FALSE(hist.ok());
  EXPECT_NE(hist.status().message().find("hist"), std::string::npos);
}

TEST(JobServeTest, HistIsRejectedAsAServerDefault) {
  ServerOptions options;
  options.default_estimator = EstimatorKind::kSampleHistogram;
  EXPECT_FALSE(BlitzServer::Create(options).ok());
}

TEST(JobServeTest, NoestServerDefaultAppliesWhenUnspecified) {
  ServerOptions options;
  options.default_estimator = EstimatorKind::kNoEstimate;
  Result<std::unique_ptr<BlitzServer>> server = BlitzServer::Create(options);
  ASSERT_TRUE(server.ok());
  TestConnection conn(server->get());
  BlitzClient client(conn.stream(), BlitzClient::Options{});

  Result<ServeReply> reply = client.Optimize(kServeBody);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->estimator, "noest");
}

}  // namespace
}  // namespace blitz
