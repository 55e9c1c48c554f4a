// city607_open: the paper's 607-road semi-synthetic world (§VII) served by
// server::Frontend over binary frames, under open-loop Poisson arrivals at
// one fixed rate. With ~1.8k workers the worker scans are trivial and the
// dense Gamma_R makes OCS and unlimited-hop GSP dominate (the paper's
// Fig. 4). It is the only workload that runs the net, admission and
// coalescing layers: a share of the queries repeats from a small pool of
// district sets, so concurrent duplicates give the coalescer work.

#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "graph/generators.h"
#include "harness.h"
#include "net/socket.h"
#include "server/frontend.h"
#include "traffic/traffic_simulator.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using cr::graph::RoadId;
using cr::server::QueryRequest;
using Clock = std::chrono::steady_clock;

constexpr int kRoads = 607;
constexpr int kHistoryDays = 30;  // 607 x 288 x 30 = 5.2M records, as in §VII
constexpr int kWorkersPerRoad = 3;
constexpr int kPerQueryCap = 20;
constexpr int kQueryRoads = 20;
constexpr std::array<int, 4> kQuerySlots = {99, 150, 216, 250};
constexpr int kSetupRepeats = 5;

// The offered load, fixed once: Poisson arrivals at about a quarter of the
// front-end's capacity on an idle 4-core machine, so a shared host that
// runs it at half speed still keeps it well below saturation.
constexpr double kOfferedQps = 300.0;
// Share of queries drawn from a pool of recurring district queries. The
// pool is the same for every seed, so the per-seed spread of mape_pct comes
// from the fresh queries alone.
constexpr double kRepeatShare = 0.3;
constexpr size_t kDistricts = 8;
constexpr uint64_t kDistrictSeed = 9000;
// Latency limit of slo_met_share, from the due time.
constexpr double kSloMs = 25.0;
constexpr int kWalkSample = 32;
// Responses still missing this long after the last due time are failures.
constexpr double kDrainSeconds = 15.0;

struct CityStack {
  std::unique_ptr<EngineStack> engine;
  std::unique_ptr<cr::server::Frontend> frontend;  // destroyed first
};

std::unique_ptr<CityStack> SetupCity() {
  auto city = std::make_unique<CityStack>();
  city->engine = std::make_unique<EngineStack>();
  EngineStack& stack = *city->engine;
  cr::util::Rng net_rng(42);
  cr::graph::RoadNetworkOptions net;
  net.num_roads = kRoads;
  auto graph = cr::graph::RoadNetwork(net, net_rng);
  if (!graph.ok()) {
    std::fprintf(stderr, "RoadNetwork failed\n");
    std::exit(2);
  }
  stack.graph = std::move(*graph);
  cr::traffic::TrafficModelOptions traffic;
  traffic.num_days = kHistoryDays;
  const cr::traffic::TrafficSimulator simulator(stack.graph, traffic, 43);
  stack.history = simulator.GenerateHistory();
  stack.truth = simulator.GenerateEvaluationDay();
  stack.costs = cr::crowd::CostModel::Constant(kRoads, 2);
  cr::server::WorkerRegistryOptions workers;
  workers.num_workers = kRoads * kWorkersPerRoad;
  workers.min_bias = 1.0;
  workers.max_bias = 1.0;
  workers.min_noise_kmh = 0.0;
  workers.max_noise_kmh = 0.0;
  stack.registry = std::make_unique<cr::server::WorkerRegistry>(
      stack.graph, workers, 5);
  FinishStack(stack, cr::core::CrowdRtseConfig{}, kPerQueryCap,
              std::vector<int>(kQuerySlots.begin(), kQuerySlots.end()));
  cr::server::FrontendOptions options;
  options.num_workers = ClientThreads();
  city->frontend = std::make_unique<cr::server::Frontend>(
      *stack.engine, stack.truth, options);
  if (!city->frontend->Start().ok()) {
    std::fprintf(stderr, "front-end failed to start\n");
    std::exit(2);
  }
  return city;
}

struct CityInputs {
  std::vector<QueryRequest> requests;
  std::vector<double> due_ms;  // Poisson arrival schedule
};

QueryRequest RandomQuery(cr::util::Rng& rng, int slot) {
  QueryRequest request;
  request.slot = slot;
  for (int road : rng.SampleWithoutReplacement(kRoads, kQueryRoads)) {
    request.queried.push_back(road);
  }
  return request;
}

/// Stream 0 is the measured schedule, stream 1 the warm-up schedule.
CityInputs MakeInputs(uint64_t seed, uint64_t stream, double seconds) {
  cr::util::Rng district_rng(kDistrictSeed);
  std::vector<QueryRequest> districts;
  for (size_t d = 0; d < kDistricts; ++d) {
    districts.push_back(
        RandomQuery(district_rng, kQuerySlots[d % kQuerySlots.size()]));
  }
  cr::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 607 + stream);
  CityInputs inputs;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.UniformDouble()) / kOfferedQps * 1e3;
    if (t >= seconds * 1e3) break;
    inputs.due_ms.push_back(t);
    if (rng.Bernoulli(kRepeatShare)) {
      inputs.requests.push_back(
          districts[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int>(kDistricts) - 1))]);
    } else {
      inputs.requests.push_back(RandomQuery(
          rng, kQuerySlots[static_cast<size_t>(rng.UniformInt(
                   0, static_cast<int>(kQuerySlots.size()) - 1))]));
    }
  }
  return inputs;
}

/// Sends the first `count` scheduled requests as binary frames over the
/// client connections, each at its due time whatever the responses do
/// (one sender thread), and matches responses by id (one reader per
/// connection). Latency runs from the due time to the response. Answers
/// are scored against `truth` on arrival; only every `retain_every`-th
/// request keeps its speeds and probed roads, for the sampled-answer check
/// (so client-side memory stays small and does not blur peak_rss_mb).
LoadPass OpenLoop(Report& report, uint16_t port, const CityInputs& inputs,
                  size_t count, const cr::traffic::DayMatrix& truth,
                  size_t retain_every, SpanRecorder* recorder) {
  const int connections = std::max(1, ClientThreads() / 2);
  std::vector<cr::net::Fd> fds;
  for (int c = 0; c < connections; ++c) {
    auto fd = cr::net::ConnectLocal(port);
    report.Check(fd.ok(), "open loop: connect");
    if (!fd.ok()) return {};
    fds.push_back(std::move(*fd));
  }
  std::vector<std::string> frames;
  for (size_t i = 0; i < count; ++i) {
    frames.push_back(QueryFrame(static_cast<int64_t>(i), inputs.requests[i]));
  }
  LoadPass pass;
  pass.outcomes.resize(count);
  std::vector<double> sent_ms(count, 0.0);
  std::vector<double> answered_ms(count, 0.0);
  std::mutex mutex;
  std::condition_variable all_answered;
  size_t answered = 0;

  const Clock::time_point start = Clock::now();
  const int64_t start_ns = NowNanos();
  const auto ms_since_start = [start] {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };
  std::thread sender([&] {
    for (size_t i = 0; i < count; ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          inputs.due_ms[i])));
      sent_ms[i] = ms_since_start();
      if (!cr::net::WriteAll(fds[i % fds.size()].get(), frames[i]).ok()) {
        return;  // the missing responses count as failures
      }
    }
  });
  std::vector<std::thread> readers;
  for (size_t c = 0; c < fds.size(); ++c) {
    readers.emplace_back([&, c] {
      std::string payload;
      while (ReadFramePayload(fds[c].get(), &payload)) {
        const double now = ms_since_start();
        Outcome o;
        const int64_t id = ParseFrontendResponse(payload, &o);
        if (id < 0 || static_cast<size_t>(id) >= count) continue;
        const size_t i = static_cast<size_t>(id);
        answered_ms[i] = now;
        if (recorder != nullptr) {
          recorder->Add("request",
                        start_ns + static_cast<int64_t>(inputs.due_ms[i] * 1e6),
                        start_ns + static_cast<int64_t>(now * 1e6), id);
        }
        o.index = id;
        o.ape_sum = AbsPctErrorSum(inputs.requests[i], o.speeds, truth);
        if (i % retain_every != 0) {
          o.speeds = {};
          o.probed = {};
        }
        pass.outcomes[i] = std::move(o);
        std::lock_guard<std::mutex> lock(mutex);
        if (++answered == count) all_answered.notify_all();
      }
    });
  }
  sender.join();
  {
    std::unique_lock<std::mutex> lock(mutex);
    all_answered.wait_for(
        lock, std::chrono::duration<double>(kDrainSeconds),
        [&] { return answered == count; });
  }
  for (cr::net::Fd& fd : fds) ::shutdown(fd.get(), SHUT_RDWR);
  for (std::thread& t : readers) t.join();

  double last = 0.0;
  for (size_t i = 0; i < count; ++i) {
    Outcome& o = pass.outcomes[i];
    o.index = static_cast<int64_t>(i);
    if (o.kind == Outcome::Kind::kMissing) continue;
    const OpenLoopTiming timing{inputs.due_ms[i], sent_ms[i], answered_ms[i]};
    o.latency_ms = timing.latency();
    o.send_lag_ms = timing.send_lag();
    last = std::max(last, answered_ms[i]);
  }
  pass.wall_s = last / 1e3;
  return pass;
}

/// Retained served answers that ran the full pipeline: unshed or
/// budget-capped, coalesced ones included.
bool Walkable(const Outcome& o) {
  return o.kind == Outcome::Kind::kServed && !o.speeds.empty() &&
         (o.shed == "none" || o.shed == "budget_cap");
}

/// A warm-up schedule, then the measured one, through the same front-end.
struct CityRun {
  LoadPass warmup;
  LoadPass pass;
  cr::server::FrontendStats stats;
  int64_t window_spend = 0;  // ledger spend of the measured schedule
};

/// Serves both schedules and checks the front-end's books: every frame
/// received, and each one a coalescing lead, a join, a periodic fallback
/// or a rejection. Every engine call is a lead or a fallback; joiners share
/// their lead's query id and pay nothing extra, which the engine-side
/// accounting in `stack` then checks against the ledger.
CityRun ServeCity(Report& report, CityStack& city, const CityInputs& warmup,
                  const CityInputs& inputs, size_t count,
                  SpanRecorder* recorder) {
  CityRun run;
  const uint16_t port = city.frontend->port();
  EngineStack& stack = *city.engine;
  run.warmup = OpenLoop(report, port, warmup, warmup.requests.size(),
                        stack.truth, warmup.requests.size() + 1, nullptr);
  const int64_t spend_before = stack.ledger->total_spent();
  run.pass = OpenLoop(report, port, inputs, count, stack.truth,
                      std::max<size_t>(1, count / (4 * kWalkSample)),
                      recorder);
  run.window_spend = stack.ledger->total_spent() - spend_before;
  run.stats = city.frontend->stats();
  report.Check(CountFailed(run.warmup.outcomes) == 0,
               "city607: warm-up queries failed");
  report.Check(run.stats.queries_received ==
                   static_cast<int64_t>(run.warmup.outcomes.size() +
                                        run.pass.outcomes.size()),
               "city607: front-end received != attempted");
  report.Check(run.stats.coalesce_leads + run.stats.coalesce_joins +
                       run.stats.admission.admitted_fallback +
                       run.stats.admission.rejected ==
                   run.stats.queries_received,
               "city607: leads + joins + fallbacks + rejected != received");
  stack.serves_attempted +=
      run.stats.coalesce_leads + run.stats.admission.admitted_fallback;
  std::set<int64_t> paid_ids;
  for (const auto* outcomes : {&run.warmup.outcomes, &run.pass.outcomes}) {
    for (const Outcome& o : *outcomes) {
      if (o.kind == Outcome::Kind::kServed &&
          paid_ids.insert(o.query_id).second) {
        stack.paid_returned += o.paid;
      }
    }
  }
  return run;
}

}  // namespace

int RunCity607Open(const Args& args) {
  Report report;
  report.Info("loop", "\"open\"");
  report.Info("offered_qps", kOfferedQps);
  report.Info("connections", std::max(1, ClientThreads() / 2));
  const CityInputs inputs = MakeInputs(args.seed, 0, args.seconds);
  const CityInputs warmup = MakeInputs(args.seed, 1, kWarmupSeconds);
  const auto request_of = [&inputs](const Outcome& o) -> const QueryRequest& {
    return inputs.requests[static_cast<size_t>(o.index)];
  };
  // Budget-capped answers are re-served through the walk at the cap the
  // admission ladder applied.
  const auto walk_request = [&](const Outcome& o) {
    QueryRequest request = request_of(o);
    if (o.shed == "budget_cap") {
      request.budget_cap = cr::server::AdmissionOptions{}.level1_budget_cap;
    }
    return request;
  };
  if (!args.trace) {
    // Forked children repeat the set-up (a child leaks its stack and exits
    // without teardown); the parent builds the stack it serves with.
    std::vector<double> setups = TimeSetupsInChildren(
        kSetupRepeats - 1, [] { (void)SetupCity().release(); });
    report.Check(setups.size() == kSetupRepeats - 1,
                 "city607: set-up failed in a child process");
    const auto start = Clock::now();
    std::unique_ptr<CityStack> city = SetupCity();
    setups.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    EngineStack& stack = *city->engine;
    const CityRun run = ServeCity(report, *city, warmup, inputs,
                                  inputs.requests.size(), nullptr);
    const LoadPass& pass = run.pass;
    const cr::server::FrontendStats& stats = run.stats;
    const std::vector<WalkAnswer> walks =
        WalkSample(report, stack,
                   FixedSample(pass.outcomes, kWalkSample, Walkable),
                   walk_request, nullptr, "city607");
    city->frontend->Shutdown();
    CheckAccounting(report, stack.engine->stats(), stack.serves_attempted,
                    *stack.ledger, stack.paid_returned, "city607");
    Window window;
    window.outcomes = &pass.outcomes;
    window.request_of = request_of;
    window.wall_s = pass.wall_s;
    window.ledger_spend = run.window_spend;
    window.slo_ms = kSloMs;
    window.setup_s = Median(setups);
    AddEndToEnd(report, window);
    std::vector<double> lags;
    for (const Outcome& o : pass.outcomes) lags.push_back(o.send_lag_ms);
    report.Info("send_lag_p99_ms", PercentileOf(lags, 0.99).value);
    report.Info("coalesce_joins", static_cast<double>(stats.coalesce_joins));
    report.Info("admission_peak_depth",
                static_cast<double>(stats.admission.peak_depth));
    report.Info("input_repeat_share", RepeatShare(pass.outcomes, request_of));
    report.Info("input_mean_worker_roads", MeanWorkerRoads(walks));
    report.Info("input_warm_slots", static_cast<double>(kQuerySlots.size()));
    report.Info("input_cold_slots", 0.0);
    return report.Print(args);
  }

  LayerInputs in;
  size_t count = 0;
  while (count < inputs.due_ms.size() &&
         inputs.due_ms[count] < 0.35 * args.seconds * 1e3) {
    ++count;
  }
  double untraced_wall = 0.0;
  {
    auto city = SetupCity();
    untraced_wall =
        ServeCity(report, *city, warmup, inputs, count, nullptr).pass.wall_s;
  }
  auto city = SetupCity();
  EngineStack& stack = *city->engine;
  SpanRecorder recorder;
  const auto cache_before = stack.system->CorrelationCacheStats();
  const CityRun run =
      ServeCity(report, *city, warmup, inputs, count, &recorder);
  const auto cache_after = stack.system->CorrelationCacheStats();
  const LoadPass& pass = run.pass;
  const cr::server::FrontendStats& stats = run.stats;
  in.trace_overhead_pct = (pass.wall_s - untraced_wall) / untraced_wall * 100;
  std::vector<double> lags;
  for (const Outcome& o : pass.outcomes) lags.push_back(o.send_lag_ms);
  in.driver_send_lag_p99_ms = PercentileOf(lags, 0.99).value;
  in.frontend_coalesce_join_share =
      Share{stats.coalesce_joins, stats.coalesce_leads + stats.coalesce_joins}
          .value();
  in.frontend_admission_peak_depth =
      static_cast<double>(stats.admission.peak_depth);
  FillGammaStats(cache_before, cache_after, &in);
  in.input_repeat_share = RepeatShare(pass.outcomes, request_of);
  in.input_warm_slots = static_cast<double>(kQuerySlots.size());

  // Serve latency at 4 in-process clients, for engine.wait_ms.
  {
    std::vector<QueryRequest> first(
        inputs.requests.begin(),
        inputs.requests.begin() +
            static_cast<std::ptrdiff_t>(std::min<size_t>(count, 1000)));
    LoadPass direct = ClosedLoop(*stack.engine, stack.truth, first,
                                 ClientThreads(), 0.0,
                                 static_cast<int64_t>(first.size()), 0,
                                 nullptr);
    std::vector<double> latencies;
    for (const Outcome& o : direct.outcomes) {
      latencies.push_back(o.latency_ms);
      stack.paid_returned += o.paid;
    }
    stack.serves_attempted += static_cast<int64_t>(direct.outcomes.size());
    in.serve_4clients_ms = Mean(latencies);
  }
  const std::vector<WalkAnswer> walks =
      WalkSample(report, stack,
                 FixedSample(pass.outcomes, kWalkSample, Walkable),
                 walk_request, &recorder, "city607");
  {
    std::vector<QueryRequest> probe(
        inputs.requests.begin(),
        inputs.requests.begin() +
            static_cast<std::ptrdiff_t>(std::min<size_t>(count, 100)));
    in.frontend_overhead_ms = MeasureFrontendOverhead(
        report, city->frontend->port(), *stack.engine, stack.truth, probe,
        &recorder, &stack.serves_attempted, &stack.paid_returned);
  }
  in.registry_sync_ms = TimeRegistryResync(*stack.registry);
  city->frontend->Shutdown();
  CheckAccounting(report, stack.engine->stats(), stack.serves_attempted,
                  *stack.ledger, stack.paid_returned, "city607");
  const std::vector<SpanRecord> spans = recorder.Collect();
  WriteSpans(spans, args.spans_out);
  AddPerLayer(report, spans, walks, "engine.serve", in);
  report.attempted = static_cast<int64_t>(pass.outcomes.size());
  report.failed = CountFailed(pass.outcomes);
  report.Info("spans", static_cast<double>(spans.size()));
  return report.Print(args);
}

}  // namespace perfbench
