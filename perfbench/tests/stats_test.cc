// Fixed-input tests of the benchmark's own arithmetic.

#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

#include "harness.h"
#include "spans.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, NearestRankWithSampleCounts) {
  const Percentile p50 = PercentileOf(OneTo(100), 0.50);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.samples, 100);
  EXPECT_EQ(p50.beyond, 50);
  EXPECT_TRUE(p50.supported);

  const Percentile p99 = PercentileOf(OneTo(1000), 0.99);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000);
  EXPECT_EQ(p99.beyond, 10);
  EXPECT_TRUE(p99.supported);
}

TEST(PercentileTest, TenBeyondRule) {
  // 999 samples leave only 9 beyond the p99 rank: reported, not supported.
  const Percentile short_run = PercentileOf(OneTo(999), 0.99);
  EXPECT_EQ(short_run.beyond, 9);
  EXPECT_FALSE(short_run.supported);
  EXPECT_FALSE(PercentileOf(OneTo(19), 0.50).supported);
  EXPECT_TRUE(PercentileOf(OneTo(20), 0.50).supported);
}

TEST(PercentileTest, EmptyAndSingle) {
  const Percentile empty = PercentileOf({}, 0.99);
  EXPECT_EQ(empty.samples, 0);
  EXPECT_FALSE(empty.supported);
  const Percentile one = PercentileOf({7.5}, 0.99);
  EXPECT_EQ(one.value, 7.5);
  EXPECT_EQ(one.beyond, 0);
}

TEST(SelfTimeTest, NestedChildren) {
  // root [0,100) > a [10,40) > a1 [15,25); root > b [50,70).
  const std::vector<SpanRecord> spans = {
      {"root", 0, 100, -1, 1},
      {"a", 10, 40, 0, 1},
      {"a1", 15, 25, 1, 1},
      {"b", 50, 70, 0, 1},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 30 - 20);  // only direct children count
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 20);
}

TEST(SelfTimeTest, OverlappingChildrenCountedOnce) {
  // Fan-out: two children overlap on [30,40); a third sticks out past the
  // parent's end and is clipped to it.
  const std::vector<SpanRecord> spans = {
      {"router", 0, 100, -1, 7},
      {"shard", 20, 40, 0, 7},
      {"shard", 30, 60, 0, 7},
      {"late", 90, 130, 0, 7},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);  // covered: [20,60) and [90,100)
  EXPECT_EQ(CoveredNanos({{0, 5}, {5, 10}, {2, 3}}, 0, 100), 10);
}

TEST(SelfTimeTest, RollUpAddsPerName) {
  const std::vector<SpanRecord> spans = {
      {"walk", 0, 1'000'000, -1, 1},
      {"ocs.select", 0, 400'000, 0, 1},
      {"walk", 0, 3'000'000, -1, 2},
      {"ocs.select", 0, 600'000, 2, 2},
  };
  const auto rollup = RollUp(spans);
  EXPECT_EQ(rollup.at("walk").count, 2);
  EXPECT_DOUBLE_EQ(rollup.at("walk").mean_total_ms(), 2.0);
  EXPECT_DOUBLE_EQ(rollup.at("walk").mean_self_ms(), 1.5);
  EXPECT_DOUBLE_EQ(rollup.at("ocs.select").mean_self_ms(), 0.5);
}

TEST(SpanRecorderTest, ScopesNestAndNullRecorderIsSilent) {
  SpanRecorder recorder;
  {
    SpanRecorder::Scope outer(&recorder, "outer", 3);
    SpanRecorder::Scope inner(&recorder, "inner", 3);
    SpanRecorder::Scope silent(nullptr, "ignored", 3);
  }
  const std::vector<SpanRecord> spans = recorder.Collect();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

TEST(OpenLoopTimingTest, LatencyRunsFromTheDueTime) {
  // Due at 100 ms, sent 30 ms late, answered at 150 ms: the request waited
  // 50 ms, of which the server saw only 20.
  const OpenLoopTiming late{100.0, 130.0, 150.0};
  EXPECT_DOUBLE_EQ(late.latency(), 50.0);
  EXPECT_DOUBLE_EQ(late.send_lag(), 30.0);
  const OpenLoopTiming on_time{100.0, 100.0, 120.0};
  EXPECT_DOUBLE_EQ(on_time.latency(), 20.0);
  EXPECT_DOUBLE_EQ(on_time.send_lag(), 0.0);
}

TEST(ShareTest, EndToEndSharesTakeAttemptedAsBase) {
  // 10 attempted: 6 full-service answers (one slower than the SLO limit),
  // 1 budget-capped, 1 rejected, 1 failed, 1 that never came back.
  cr::server::QueryRequest request;
  request.queried = {0, 1};
  std::vector<Outcome> outcomes(10);
  for (int i = 0; i < 10; ++i) {
    Outcome& o = outcomes[static_cast<size_t>(i)];
    o.index = i;
    o.kind = Outcome::Kind::kServed;
    o.latency_ms = 1.0;
    o.ape_sum = 2.0;  // 1% on each of the 2 queried roads
  }
  outcomes[5].latency_ms = 100.0;
  outcomes[6].shed = "budget_cap";
  outcomes[7].kind = Outcome::Kind::kRejected;
  outcomes[8].kind = Outcome::Kind::kFailed;
  outcomes[9].kind = Outcome::Kind::kMissing;
  Window window;
  window.outcomes = &outcomes;
  window.request_of = [&request](const Outcome&)
      -> const cr::server::QueryRequest& { return request; };
  window.wall_s = 2.0;
  window.ledger_spend = 14;
  window.slo_ms = 10.0;
  window.setup_s = 0.5;

  Report report;
  AddEndToEnd(report, window);
  EXPECT_EQ(report.attempted, 10);
  EXPECT_EQ(report.failed, 2);  // failed + missing
  EXPECT_DOUBLE_EQ(report.metric("answered_qps"), 7 / 2.0);
  EXPECT_DOUBLE_EQ(report.metric("completed_share"), 1.0 - 2 / 10.0);
  // Shed: budget-capped + rejected (failed and missing are not shed).
  EXPECT_DOUBLE_EQ(report.metric("full_service_share"), 1.0 - 2 / 10.0);
  // SLO misses: the 4 not fully served plus the slow one.
  EXPECT_DOUBLE_EQ(report.metric("slo_met_share"), 1.0 - 5 / 10.0);
  // Per served query, and over the roads of full-service answers only.
  EXPECT_DOUBLE_EQ(report.metric("paid_per_query"), 14 / 7.0);
  EXPECT_DOUBLE_EQ(report.metric("mape_pct"), 1.0);
}

TEST(ShareTest, LayerSharesAndTheReconciledResidual) {
  // One single-client Serve of 10 ms; its walk spends 4 + 3 ms in layers.
  const std::vector<SpanRecord> spans = {
      {"engine.serve", 0, 10'000'000, -1, 1},
      {"walk", 10'000'000, 19'000'000, -1, 1},
      {"ocs.select", 10'000'000, 14'000'000, 1, 1},
      {"gsp.propagate", 14'000'000, 17'000'000, 1, 1},
  };
  std::vector<WalkAnswer> walks(2);
  walks[0].selected = 4;
  walks[0].underfilled = 1;
  walks[1].selected = 4;
  LayerInputs in;
  in.serve_4clients_ms = 25.0;
  Report report;
  AddPerLayer(report, spans, walks, "engine.serve", in);
  EXPECT_DOUBLE_EQ(report.metric("engine.layer_sum_ms"), 7.0);
  EXPECT_DOUBLE_EQ(report.metric("engine.overhead_ms"), 3.0);
  EXPECT_DOUBLE_EQ(report.metric("engine.wait_ms"), 15.0);
  // underfilled_share: base is selected roads.
  EXPECT_DOUBLE_EQ(report.metric("crowd.underfilled_share"), 1 / 8.0);

  // gamma_hit_ratio: base is lookups (hits + misses + coalesced waits)
  // during the bracketed pass.
  cr::rtf::CorrelationCache::StatsSnapshot before;
  before.hits = 10;
  before.misses = 2;
  cr::rtf::CorrelationCache::StatsSnapshot after;
  after.hits = 100;
  after.misses = 4;
  after.coalesced = 1;
  FillGammaStats(before, after, &in);
  EXPECT_DOUBLE_EQ(in.gamma_hit_ratio, 90 / 93.0);
}

TEST(ShareTest, EmptyBaseIsZero) {
  EXPECT_DOUBLE_EQ((Share{3, 1000}).value(), 0.003);
  // An empty base is "nothing happened", not a division by zero.
  EXPECT_DOUBLE_EQ((Share{0, 0}).value(), 0.0);
}

TEST(StatsTest, MeanAndMedian) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 6.0}), 3.0);
  EXPECT_DOUBLE_EQ(Median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

}  // namespace
}  // namespace perfbench
