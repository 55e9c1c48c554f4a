#include "obs/stage_profiler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>

#include "core/crowd_rtse.h"
#include "graph/generators.h"
#include "server/budget_ledger.h"
#include "server/query_engine.h"
#include "server/worker_registry.h"
#include "traffic/traffic_simulator.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace crowdrtse::obs {
namespace {

using util::metrics::MetricsRegistry;

TEST(StageProfilerTest, StageNamesAreStable) {
  EXPECT_STREQ(StageName(Stage::kCoveredRoads), "registry.covered_roads");
  EXPECT_STREQ(StageName(Stage::kOcsSelect), "ocs.select");
  EXPECT_STREQ(StageName(Stage::kCrowdLockWait), "crowd.lock_wait");
  EXPECT_STREQ(StageName(Stage::kCrowdDispatch), "crowd.dispatch");
  EXPECT_STREQ(StageName(Stage::kGammaCompute), "gamma.compute");
  EXPECT_STREQ(StageName(Stage::kGspSweep), "gsp.sweep");
  EXPECT_STREQ(StageName(Stage::kMerge), "merge");
}

TEST(StageProfilerTest, TimerIsNoopWithoutActiveScope) {
  ASSERT_EQ(ActiveProfiler(), nullptr);
  {
    StageTimer timer(Stage::kGspSweep);
  }  // must not crash and must record nothing anywhere
  EXPECT_EQ(ActiveProfileTraceId(), 0);
}

TEST(StageProfilerTest, ScopedProfileInstallsAndRestores) {
  MetricsRegistry registry;
  StageProfiler profiler(&registry);
  EXPECT_EQ(ActiveProfiler(), nullptr);
  {
    ScopedProfile outer(&profiler, 7);
    EXPECT_EQ(ActiveProfiler(), &profiler);
    EXPECT_EQ(ActiveProfileTraceId(), 7);
    {
      ScopedProfile inner(&profiler, 9);
      EXPECT_EQ(ActiveProfileTraceId(), 9);
    }
    EXPECT_EQ(ActiveProfileTraceId(), 7);
  }
  EXPECT_EQ(ActiveProfiler(), nullptr);
  EXPECT_EQ(ActiveProfileTraceId(), 0);
}

TEST(StageProfilerTest, TimerRecordsLabeledHistogramsWithExemplar) {
  MetricsRegistry registry;
  StageProfiler profiler(&registry);
  {
    ScopedProfile scope(&profiler, 42);
    StageTimer timer(Stage::kOcsSelect);
    timer.Stop();
    StageTimer gsp(Stage::kGspSweep);
  }
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("crowdrtse_stage_wall_ms_count{stage=\"ocs.select\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("crowdrtse_stage_cpu_ms_count{stage=\"ocs.select\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("crowdrtse_stage_wall_ms_count{stage=\"gsp.sweep\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("crowdrtse_stage_wall_ms_bucket{stage=\"ocs.select\",le="),
            std::string::npos);
  // The trace id rides along as the wall bucket's exemplar.
  EXPECT_NE(text.find("trace_id=\"42\""), std::string::npos) << text;
}

TEST(StageProfilerTest, StopIsIdempotent) {
  MetricsRegistry registry;
  StageProfiler profiler(&registry);
  ScopedProfile scope(&profiler, 5);
  StageTimer timer(Stage::kMerge);
  timer.Stop();
  timer.Stop();  // second stop must not double-record
  const std::string text = registry.RenderPrometheus();
  const std::string count_line = "crowdrtse_stage_wall_ms_count{stage=\"merge\"}";
  const size_t at = text.find(count_line);
  ASSERT_NE(at, std::string::npos) << text;
  const size_t eol = text.find('\n', at);
  const std::string value =
      text.substr(at + count_line.size() + 1, eol - at - count_line.size() - 1);
  EXPECT_EQ(value, "1") << text;
}

// A small served world: 100 roads, 8 days of history, 600 workers.
class EngineStagesTest : public ::testing::Test {
 protected:
  EngineStagesTest() {
    util::Rng rng(3);
    graph::RoadNetworkOptions net;
    net.num_roads = 100;
    graph_ = *graph::RoadNetwork(net, rng);
    traffic::TrafficModelOptions traffic_options;
    traffic_options.num_days = 8;
    traffic::TrafficSimulator sim(graph_, traffic_options, 5);
    history_ = sim.GenerateHistory();
    truth_ = sim.GenerateEvaluationDay();
    system_ = std::make_unique<core::CrowdRtse>(
        *core::CrowdRtse::BuildOffline(graph_, history_, {}));
    server::WorkerRegistryOptions registry_options;
    registry_options.num_workers = 600;
    registry_ = std::make_unique<server::WorkerRegistry>(
        graph_, registry_options, 7);
    costs_ = crowd::CostModel::Constant(100, 2);
    crowd_sim_ = std::make_unique<crowd::CrowdSimulator>(
        crowd::CrowdSimOptions{}, util::Rng(9));
  }

  void ServeQueries(server::QueryEngine& engine, int count) {
    for (int i = 0; i < count; ++i) {
      server::QueryRequest request;
      request.slot = 100 + i % 4;
      request.queried = {3, 17, 42 + i % 10, 77};
      ASSERT_TRUE(engine.Serve(request, truth_).ok());
    }
  }

  graph::Graph graph_;
  traffic::HistoryStore history_;
  traffic::DayMatrix truth_;
  std::unique_ptr<core::CrowdRtse> system_;
  std::unique_ptr<server::WorkerRegistry> registry_;
  crowd::CostModel costs_;
  std::unique_ptr<crowd::CrowdSimulator> crowd_sim_;
};

TEST_F(EngineStagesTest, ExemplarOnlyForTracedQueries) {
  server::BudgetLedger ledger(-1, 10);
  server::QueryEngine::Options options;
  options.trace_sample_rate = 0.5;
  server::QueryEngine engine(*system_, *registry_, ledger, costs_,
                             *crowd_sim_, options);
  constexpr int kQueries = 40;
  ServeQueries(engine, kQueries);

  std::set<int64_t> traced;
  for (const auto& trace : engine.traces().Recent()) {
    traced.insert(trace->query_id());
  }
  // The rate must leave both traced and untraced queries to tell apart.
  ASSERT_GT(traced.size(), 0u);
  ASSERT_LT(traced.size(), static_cast<size_t>(kQueries));

  const std::string text = engine.metrics().RenderPrometheus();
  const std::string key = "trace_id=\"";
  int exemplars = 0;
  for (size_t at = text.find(key); at != std::string::npos;
       at = text.find(key, at + 1)) {
    const size_t begin = at + key.size();
    const int64_t id = std::stoll(text.substr(begin, text.find('"', begin)));
    EXPECT_EQ(traced.count(id), 1u)
        << "exemplar " << id << " names no collected trace";
    ++exemplars;
  }
  EXPECT_GT(exemplars, 0) << text;
}

TEST_F(EngineStagesTest, StagesCoverEveryServedQuery) {
  server::BudgetLedger ledger(-1, 10);
  server::QueryEngine engine(*system_, *registry_, ledger, costs_,
                             *crowd_sim_);
  ServeQueries(engine, 12);

  const server::EngineStats stats = engine.stats();
  ASSERT_EQ(stats.queries_served, 12);
  double stage_total_ms = 0.0;
  for (const Stage stage : {Stage::kCoveredRoads, Stage::kOcsSelect,
                            Stage::kCrowdLockWait, Stage::kCrowdDispatch,
                            Stage::kGspSweep}) {
    const util::metrics::LatencySnapshot& latency =
        stats.stage_latency[static_cast<size_t>(stage)];
    EXPECT_EQ(latency.count, stats.queries_served) << StageName(stage);
    stage_total_ms += latency.sum_ms;
  }
  // The stages run one after another inside Serve, so they cannot add up
  // to more than the serve latency. Each histogram rounds every sample to
  // the nearest microsecond: allow half a microsecond per sample.
  const double rounding_ms = 6 * 0.0005 * stats.queries_served;
  EXPECT_LE(stage_total_ms, stats.serve_latency.sum_ms + rounding_ms);
}

}  // namespace
}  // namespace crowdrtse::obs
