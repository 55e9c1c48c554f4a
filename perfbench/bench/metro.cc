// The two 60k-road metro workloads. Both use the bench_scale world: a
// deterministic graph::MetroNetwork, a synthetic west-east speed field over
// an 8-slot day, two noiseless workers on every road, sparse 2-hop Gamma_R,
// a 2-hop GSP limit and zero-gain candidate pruning.
//
//   metro_k1           one QueryEngine, all 8 slots warm; the full-scan
//                      layers (crowd, CoveredRoads, OCS pruning) dominate
//                      and the 4 clients share one crowd mutex.
//   metro_k4_rollover  a K=4 ShardedEngine; the day advances in phases,
//                      each on a slot not computed yet, with a share of the
//                      workers moving (SyncWorkers) at every boundary.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>

#include "graph/generators.h"
#include "harness.h"
#include "partition/partition.h"
#include "partition/partitioner.h"
#include "server/sharded_engine.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using cr::graph::RoadId;
using cr::server::QueryRequest;

constexpr int kSlots = 8;
constexpr int kDays = 3;
constexpr int kQueryRoads = 4;
constexpr int kPerQueryCap = 6;
constexpr int kWorkersPerRoad = 2;
constexpr int kRequestsPerList = 4000;
constexpr int kSetupRepeats = 5;
constexpr int kWalkSample = 24;
constexpr int kFrontendProbe = 16;  // sequential front-end round trips

// metro_k4_rollover
constexpr int kShards = 4;
constexpr int kHaloRadius = 5;
constexpr double kCrossShardShare = 0.2;
constexpr double kMovingWorkerShare = 0.1;
constexpr int kPhases = kSlots;  // one new slot per phase
constexpr int kPhaseSample = 4;  // checked requests per phase

// Latency limits of the slo_met_share metric, fixed once per workload.
constexpr double kSloMsK1 = 1000.0;
constexpr double kSloMsK4 = 500.0;

/// The bench_scale speed field: a west-east gradient with per-slot waves
/// and day-to-day jitter, so moment estimation sees real variance.
double SpeedAt(int day, int slot, RoadId road, double x) {
  const double base = 30.0 + 40.0 * x;
  const double wave = 6.0 * std::sin(0.7 * slot + 0.01 * road);
  const double jitter = 1.5 * (((day * 7 + slot * 3 + road) % 5) - 2);
  return base + wave + jitter;
}

cr::core::CrowdRtseConfig MetroConfig() {
  cr::core::CrowdRtseConfig config;
  config.correlation_hop_radius = 2;
  config.gsp.hop_limit = 2;
  config.prune_zero_gain_candidates = true;
  return config;
}

/// Fills graph, history, truth and costs; returns road positions.
std::vector<std::pair<double, double>> BuildMetroWorld(EngineStack& stack) {
  cr::graph::MetroNetworkOptions metro;
  metro.num_roads = 60000;
  std::vector<std::pair<double, double>> positions;
  auto graph = cr::graph::MetroNetwork(metro, &positions);
  if (!graph.ok()) {
    std::fprintf(stderr, "MetroNetwork failed\n");
    std::exit(2);
  }
  stack.graph = std::move(*graph);
  const int n = stack.graph.num_roads();
  stack.history = cr::traffic::HistoryStore(n, kDays, kSlots);
  stack.truth = cr::traffic::DayMatrix(kSlots, n);
  for (int slot = 0; slot < kSlots; ++slot) {
    for (RoadId r = 0; r < n; ++r) {
      const double x = positions[static_cast<size_t>(r)].first;
      for (int day = 0; day < kDays; ++day) {
        stack.history.At(day, slot, r) = SpeedAt(day, slot, r, x);
      }
      stack.truth.At(slot, r) = SpeedAt(kDays, slot, r, x);
    }
  }
  stack.costs = cr::crowd::CostModel::Constant(n, 2);
  return positions;
}

std::vector<cr::crowd::Worker> MetroWorkers(int num_roads) {
  std::vector<cr::crowd::Worker> workers;
  workers.reserve(static_cast<size_t>(num_roads) * kWorkersPerRoad);
  for (RoadId r = 0; r < num_roads; ++r) {
    for (int k = 0; k < kWorkersPerRoad; ++k) {
      cr::crowd::Worker w;
      w.id = static_cast<cr::crowd::WorkerId>(workers.size());
      w.road = r;
      workers.push_back(w);
    }
  }
  return workers;
}

QueryRequest LocalizedQuery(RoadId base, int slot) {
  QueryRequest request;
  request.slot = slot;
  for (int k = 0; k < kQueryRoads; ++k) request.queried.push_back(base + k);
  return request;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ---------------------------------------------------------------- metro_k1

std::unique_ptr<EngineStack> SetupK1() {
  auto stack = std::make_unique<EngineStack>();
  BuildMetroWorld(*stack);
  stack->registry = std::make_unique<cr::server::WorkerRegistry>(
      stack->graph, MetroWorkers(stack->graph.num_roads()),
      cr::server::WorkerRegistryOptions{}, 5);
  std::vector<int> all_slots(kSlots);
  std::iota(all_slots.begin(), all_slots.end(), 0);
  FinishStack(*stack, MetroConfig(), kPerQueryCap, all_slots);
  return stack;
}

/// 4-road localized queries spread uniformly over the city and the slots.
/// Stream 0 is the measured list, stream 1 the warm-up list.
std::vector<QueryRequest> K1Requests(uint64_t seed, uint64_t stream,
                                     int num_roads) {
  cr::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1 + stream);
  std::vector<QueryRequest> requests;
  for (int i = 0; i < kRequestsPerList; ++i) {
    const RoadId base = rng.UniformInt(0, num_roads - kQueryRoads);
    requests.push_back(LocalizedQuery(base, rng.UniformInt(0, kSlots - 1)));
  }
  return requests;
}

}  // namespace

int RunMetroK1(const Args& args) {
  Report report;
  const int clients = ClientThreads();
  std::vector<QueryRequest> requests;
  const auto request_of = [&requests](const Outcome& o) -> const QueryRequest& {
    return requests[static_cast<size_t>(o.index) % requests.size()];
  };
  report.Info("clients", clients);
  report.Info("loop", "\"closed\"");

  if (!args.trace) {
    // Forked children repeat the set-up (a child leaks its stack and exits
    // without teardown); the parent builds the stack it serves with.
    std::vector<double> setups = TimeSetupsInChildren(
        kSetupRepeats - 1, [] { (void)SetupK1().release(); });
    report.Check(setups.size() == kSetupRepeats - 1,
                 "metro_k1: set-up failed in a child process");
    const auto start = std::chrono::steady_clock::now();
    std::unique_ptr<EngineStack> stack = SetupK1();
    setups.push_back(Seconds(start));
    const int n = stack->graph.num_roads();
    requests = K1Requests(args.seed, 0, n);
    WarmUpClosedLoop(*stack->engine, stack->truth,
                     K1Requests(args.seed, 1, n), &stack->serves_attempted,
                     &stack->paid_returned);
    const int64_t spend_before = stack->ledger->total_spent();
    LoadPass pass = ClosedLoop(*stack->engine, stack->truth, requests, clients,
                               args.seconds, 0, 0, nullptr);
    const int64_t spend = stack->ledger->total_spent() - spend_before;
    for (const Outcome& o : pass.outcomes) stack->paid_returned += o.paid;
    stack->serves_attempted += static_cast<int64_t>(pass.outcomes.size());
    const std::vector<WalkAnswer> walks =
        WalkSample(report, *stack, FixedSample(pass.outcomes, kWalkSample),
                   request_of, nullptr, "metro_k1");
    CheckAccounting(report, stack->engine->stats(), stack->serves_attempted,
                    *stack->ledger, stack->paid_returned, "metro_k1");
    Window window;
    window.outcomes = &pass.outcomes;
    window.request_of = request_of;
    window.wall_s = pass.wall_s;
    window.ledger_spend = spend;
    window.slo_ms = kSloMsK1;
    window.setup_s = Median(setups);
    AddEndToEnd(report, window);
    report.Info("input_repeat_share", RepeatShare(pass.outcomes, request_of));
    report.Info("input_mean_worker_roads", MeanWorkerRoads(walks));
    report.Info("input_warm_slots", kSlots);
    report.Info("input_cold_slots", 0.0);
    return report.Print(args);
  }

  // Traced run: an untraced and a traced pass over the same requests, each
  // on a fresh stack, then the single-client serve + walk section.
  LayerInputs in;
  const double pass_seconds = 0.35 * args.seconds;
  double untraced_wall = 0.0;
  int64_t count = 0;
  {
    auto stack = SetupK1();
    requests = K1Requests(args.seed, 0, stack->graph.num_roads());
    WarmUpClosedLoop(*stack->engine, stack->truth,
                     K1Requests(args.seed, 1, stack->graph.num_roads()),
                     &stack->serves_attempted, &stack->paid_returned);
    LoadPass pass = ClosedLoop(*stack->engine, stack->truth, requests, clients,
                               pass_seconds, 0, 0, nullptr);
    untraced_wall = pass.wall_s;
    count = static_cast<int64_t>(pass.outcomes.size());
  }
  auto stack = SetupK1();
  WarmUpClosedLoop(*stack->engine, stack->truth,
                   K1Requests(args.seed, 1, stack->graph.num_roads()),
                   &stack->serves_attempted, &stack->paid_returned);
  SpanRecorder recorder;
  const auto cache_before = stack->system->CorrelationCacheStats();
  LoadPass pass = ClosedLoop(*stack->engine, stack->truth, requests, clients,
                             0.0, count, 0, &recorder);
  const auto cache_after = stack->system->CorrelationCacheStats();
  for (const Outcome& o : pass.outcomes) stack->paid_returned += o.paid;
  stack->serves_attempted += static_cast<int64_t>(pass.outcomes.size());
  in.trace_overhead_pct = (pass.wall_s - untraced_wall) / untraced_wall * 100;
  std::vector<double> lags;
  std::vector<double> latencies;
  for (const Outcome& o : pass.outcomes) {
    lags.push_back(o.send_lag_ms);
    latencies.push_back(o.latency_ms);
  }
  in.driver_send_lag_p99_ms = PercentileOf(lags, 0.99).value;
  in.serve_4clients_ms = Mean(latencies);
  FillGammaStats(cache_before, cache_after, &in);
  in.input_repeat_share = RepeatShare(pass.outcomes, request_of);
  in.input_warm_slots = kSlots;

  // Single client: Serve, then the walk of the same request.
  const std::vector<WalkAnswer> walks =
      WalkSample(report, *stack, FixedSample(pass.outcomes, kWalkSample),
                 request_of, &recorder, "metro_k1");
  ProbeFrontend(report, *stack->engine, stack->truth,
                {requests.begin(), requests.begin() + kFrontendProbe},
                &recorder, &stack->serves_attempted, &stack->paid_returned,
                &in);
  in.registry_sync_ms = TimeRegistryResync(*stack->registry);
  CheckAccounting(report, stack->engine->stats(), stack->serves_attempted,
                  *stack->ledger, stack->paid_returned, "metro_k1");
  const std::vector<SpanRecord> spans = recorder.Collect();
  WriteSpans(spans, args.spans_out);
  AddPerLayer(report, spans, walks, "engine.serve", in);
  report.attempted = static_cast<int64_t>(pass.outcomes.size());
  report.failed = CountFailed(pass.outcomes);
  report.Info("spans", static_cast<double>(spans.size()));
  return report.Print(args);
}

// ------------------------------------------------------- metro_k4_rollover

namespace {

/// The K=4 world: the sharded engine plus, per shard, a copy of the
/// components its QueryEngine serves with, for the layer walk.
struct ShardedStack {
  EngineStack world;  // graph, history, truth, costs only
  std::vector<std::pair<double, double>> positions;
  cr::partition::Partition partition;
  std::unique_ptr<cr::server::BudgetLedger> ledger;
  std::unique_ptr<cr::server::ShardedEngine> engine;
  struct WalkShard {
    cr::traffic::DayMatrix world;
    cr::crowd::CostModel costs;
    std::unique_ptr<cr::server::WorkerRegistry> registry;
    std::unique_ptr<cr::server::BudgetLedger> ledger;
    std::unique_ptr<cr::crowd::CrowdSimulator> crowd_sim;
    std::unique_ptr<cr::gsp::SpeedPropagator> propagator;
    int64_t next_walk_id = -1;
  };
  std::vector<std::unique_ptr<WalkShard>> walk_shards;
  int64_t serves_attempted = 0;
  int64_t paid_returned = 0;
};

std::unique_ptr<ShardedStack> SetupK4() {
  auto stack = std::make_unique<ShardedStack>();
  stack->positions = BuildMetroWorld(stack->world);
  const cr::graph::Graph& graph = stack->world.graph;
  cr::partition::PartitionerOptions options;
  options.num_shards = kShards;
  options.halo_radius = kHaloRadius;
  options.seed = 17;
  auto partition =
      cr::partition::PartitionByGeography(graph, stack->positions, options);
  if (!partition.ok()) {
    std::fprintf(stderr, "partition failed\n");
    std::exit(2);
  }
  stack->partition = std::move(*partition);
  stack->ledger =
      std::make_unique<cr::server::BudgetLedger>(-1, kPerQueryCap);
  cr::server::ShardedEngineOptions engine_options;
  engine_options.engine.propagator_pool_size = ClientThreads();
  engine_options.crowd = NoiselessCrowd();
  auto engine = cr::server::ShardedEngine::Create(
      graph, stack->partition, stack->world.history, MetroConfig(),
      stack->world.costs, MetroWorkers(graph.num_roads()), *stack->ledger,
      stack->world.truth, engine_options);
  if (!engine.ok()) {
    std::fprintf(stderr, "ShardedEngine::Create: %s\n",
                 engine.status().ToString().c_str());
    std::exit(2);
  }
  stack->engine = std::move(*engine);
  for (int s = 0; s < kShards; ++s) {
    if (!stack->engine->shard_system(s).CorrelationsFor(0).ok()) {
      std::fprintf(stderr, "Gamma_R warm-up failed\n");
      std::exit(2);
    }
  }
  return stack;
}

std::vector<cr::crowd::Worker> ProjectWorkers(
    const cr::partition::ShardLayout& layout,
    const std::vector<cr::crowd::Worker>& workers) {
  std::vector<cr::crowd::Worker> local;
  for (const cr::crowd::Worker& w : workers) {
    const RoadId road = layout.LocalId(w.road);
    if (road == cr::graph::kInvalidRoad) continue;
    cr::crowd::Worker projected = w;
    projected.road = road;
    local.push_back(projected);
  }
  return local;
}

/// Per-shard walk components: the same projections ShardedEngine makes
/// (world, costs and workers restricted to the shard's members, in global
/// order), over the shard's own CrowdRtse.
void BuildWalkShards(ShardedStack& stack,
                     const std::vector<cr::crowd::Worker>& workers) {
  stack.walk_shards.clear();
  for (int s = 0; s < kShards; ++s) {
    const cr::partition::ShardLayout& layout = stack.partition.shards[s];
    auto shard = std::make_unique<ShardedStack::WalkShard>();
    const int members = layout.num_members();
    shard->world = cr::traffic::DayMatrix(kSlots, members);
    for (int slot = 0; slot < kSlots; ++slot) {
      for (int local = 0; local < members; ++local) {
        shard->world.At(slot, local) = stack.world.truth.At(
            slot, layout.members[static_cast<size_t>(local)]);
      }
    }
    shard->costs = cr::crowd::CostModel::Constant(members, 2);
    cr::core::CrowdRtse& system = stack.engine->shard_system(s);
    shard->registry = std::make_unique<cr::server::WorkerRegistry>(
        system.graph(), ProjectWorkers(layout, workers),
        cr::server::WorkerRegistryOptions{}, 5);
    shard->ledger =
        std::make_unique<cr::server::BudgetLedger>(-1, kPerQueryCap);
    shard->crowd_sim = std::make_unique<cr::crowd::CrowdSimulator>(
        NoiselessCrowd(), cr::util::Rng(9));
    shard->propagator = std::make_unique<cr::gsp::SpeedPropagator>(
        system.model(), system.config().gsp);
    stack.walk_shards.push_back(std::move(shard));
  }
}

WalkParts ShardParts(ShardedStack& stack, int s) {
  ShardedStack::WalkShard& shard = *stack.walk_shards[static_cast<size_t>(s)];
  WalkParts parts;
  parts.system = &stack.engine->shard_system(s);
  parts.registry = shard.registry.get();
  parts.ledger = shard.ledger.get();
  parts.costs = &shard.costs;
  parts.crowd_sim = shard.crowd_sim.get();
  parts.world = &shard.world;
  parts.propagator = shard.propagator.get();
  return parts;
}

/// The owning shard when every queried road has the same owner, else -1.
int SingleOwner(const cr::partition::Partition& partition,
                const QueryRequest& request) {
  const int owner = partition.OwnerOf(request.queried.front());
  for (RoadId r : request.queried) {
    if (partition.OwnerOf(r) != owner) return -1;
  }
  return owner;
}

QueryRequest ToLocal(const cr::partition::Partition& partition, int shard,
                     const QueryRequest& request) {
  QueryRequest local = request;
  for (RoadId& r : local.queried) {
    r = partition.shards[static_cast<size_t>(shard)].LocalId(r);
  }
  local.budget_cap = kPerQueryCap;  // the router's whole-grant sub-cap
  return local;
}

/// Generated before timing: the phase slots, each phase's requests and the
/// worker snapshot each phase serves with.
struct RolloverInputs {
  std::vector<int> slots;
  std::vector<std::vector<QueryRequest>> requests;
  std::vector<std::vector<cr::crowd::Worker>> workers;
};

RolloverInputs K4Inputs(uint64_t seed, const EngineStack& world,
                        const cr::partition::Partition& partition) {
  cr::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 4);
  const int n = world.graph.num_roads();
  // Every base road, split by whether its 4-road window crosses owners.
  std::vector<RoadId> single_bases;
  std::vector<RoadId> cross_bases;
  for (RoadId base = 0; base + kQueryRoads <= n; ++base) {
    const int owner = SingleOwner(partition, LocalizedQuery(base, 0));
    (owner < 0 ? cross_bases : single_bases).push_back(base);
  }
  RolloverInputs inputs;
  // Slot 0 is warm from set-up; the other slots follow in seeded order,
  // each computed for the first time by its phase's first queries.
  inputs.slots.resize(kPhases - 1);
  std::iota(inputs.slots.begin(), inputs.slots.end(), 1);
  rng.Shuffle(inputs.slots);
  inputs.slots.insert(inputs.slots.begin(), 0);
  std::vector<cr::crowd::Worker> workers = MetroWorkers(n);
  for (int p = 0; p < kPhases; ++p) {
    std::vector<QueryRequest> phase;
    for (int i = 0; i < kRequestsPerList; ++i) {
      const bool cross = rng.Bernoulli(kCrossShardShare);
      const std::vector<RoadId>& bases = cross ? cross_bases : single_bases;
      const RoadId base = bases[static_cast<size_t>(
          rng.UniformUint64(static_cast<uint64_t>(bases.size())))];
      phase.push_back(LocalizedQuery(base, inputs.slots[p]));
    }
    inputs.requests.push_back(std::move(phase));
    if (p > 0) {
      // A seeded share of the workers moves to an adjacent road.
      for (cr::crowd::Worker& w : workers) {
        if (!rng.Bernoulli(kMovingWorkerShare)) continue;
        const auto neighbors = world.graph.Neighbors(w.road);
        if (neighbors.empty()) continue;
        w.road = neighbors[rng.UniformUint64(neighbors.size())].neighbor;
      }
    }
    inputs.workers.push_back(workers);
  }
  return inputs;
}

/// One pass over the phases. `counts` empty: each phase serves for
/// seconds / phases and the per-phase counts are filled in; otherwise each
/// phase serves exactly counts[p] requests. Phase-boundary checks re-serve
/// a fixed sample of the phase (outside the measured window).
struct RolloverPass {
  std::vector<Outcome> outcomes;
  double window_s = 0.0;
  std::vector<double> sync_ms;
  std::vector<int64_t> counts;
  std::vector<WalkAnswer> boundary_walks;  // the single-owner checks
};

RolloverPass RunPhases(Report& report, ShardedStack& stack,
                       const RolloverInputs& inputs, double seconds,
                       const std::vector<int64_t>& counts,
                       SpanRecorder* recorder) {
  RolloverPass result;
  const int clients = ClientThreads();
  // Unmeasured warm-up on phase 0's (already warm) slot.
  WarmUpClosedLoop(*stack.engine, stack.world.truth, inputs.requests[0],
                   &stack.serves_attempted, &stack.paid_returned);
  for (int p = 0; p < kPhases; ++p) {
    if (p > 0) {
      const auto start = std::chrono::steady_clock::now();
      stack.engine->SyncWorkers(inputs.workers[static_cast<size_t>(p)]);
      const double sync_s = Seconds(start);
      result.sync_ms.push_back(sync_s * 1e3);
      result.window_s += sync_s;
    }
    BuildWalkShards(stack, inputs.workers[static_cast<size_t>(p)]);
    const auto& requests = inputs.requests[static_cast<size_t>(p)];
    LoadPass pass = ClosedLoop(
        *stack.engine, stack.world.truth, requests, clients,
        seconds / kPhases, counts.empty() ? 0 : counts[static_cast<size_t>(p)],
        p, recorder);
    result.window_s += pass.wall_s;
    result.counts.push_back(static_cast<int64_t>(pass.outcomes.size()));
    stack.serves_attempted += static_cast<int64_t>(pass.outcomes.size());
    for (const Outcome& o : pass.outcomes) stack.paid_returned += o.paid;

    // Quiesced boundary: single-owner samples through the owner shard's
    // walk, cross-shard samples re-served through the router.
    int single_checked = 0;
    int cross_checked = 0;
    for (const Outcome& o : pass.outcomes) {
      if (o.kind != Outcome::Kind::kServed) continue;
      const QueryRequest& request =
          requests[static_cast<size_t>(o.index) % requests.size()];
      const int owner = SingleOwner(stack.partition, request);
      if (owner >= 0 && single_checked < kPhaseSample) {
        ++single_checked;
        ShardedStack::WalkShard& shard =
            *stack.walk_shards[static_cast<size_t>(owner)];
        WalkAnswer walk =
            Walk(ShardParts(stack, owner),
                 ToLocal(stack.partition, owner, request),
                 shard.next_walk_id--, nullptr);
        for (RoadId& r : walk.probed) {
          r = stack.partition.shards[static_cast<size_t>(owner)]
                  .members[static_cast<size_t>(r)];
        }
        report.Check(walk.ok && SameAnswer(o, walk.speeds, walk.probed,
                                           walk.paid),
                     "metro_k4: answer under load differs from the walk");
        result.boundary_walks.push_back(std::move(walk));
      } else if (owner < 0 && cross_checked < kPhaseSample / 2) {
        ++cross_checked;
        auto again = stack.engine->Serve(request, stack.world.truth);
        ++stack.serves_attempted;
        report.Check(again.ok(), "metro_k4: cross-shard re-serve");
        if (!again.ok()) continue;
        stack.paid_returned += again->paid;
        report.Check(SameAnswer(o, again->queried_speeds, again->probed_roads,
                                again->paid),
                     "metro_k4: cross-shard answer differs on re-serve");
      }
    }
    for (Outcome& o : pass.outcomes) result.outcomes.push_back(std::move(o));
  }
  return result;
}

}  // namespace

int RunMetroK4Rollover(const Args& args) {
  Report report;
  report.Info("clients", ClientThreads());
  report.Info("loop", "\"closed\"");
  report.Info("phases", kPhases);
  RolloverInputs inputs;
  const auto request_of = [&inputs](const Outcome& o) -> const QueryRequest& {
    const auto& list = inputs.requests[static_cast<size_t>(o.phase)];
    return list[static_cast<size_t>(o.index) % list.size()];
  };

  // Phase 0 serves slot 0, warmed during set-up; the inputs need the
  // partition, so they are generated after set-up and before any timing.
  std::vector<double> setups;
  if (!args.trace) {
    setups = TimeSetupsInChildren(kSetupRepeats - 1,
                                  [] { (void)SetupK4().release(); });
    report.Check(setups.size() == kSetupRepeats - 1,
                 "metro_k4: set-up failed in a child process");
  }
  const auto start = std::chrono::steady_clock::now();
  std::unique_ptr<ShardedStack> stack = SetupK4();
  setups.push_back(Seconds(start));
  inputs = K4Inputs(args.seed, stack->world, stack->partition);
  std::string slot_list = "[";
  std::string cold_list = "[";
  for (int p = 0; p < kPhases; ++p) {
    slot_list += (p ? ", " : "") + std::to_string(inputs.slots[p]);
    cold_list += (p ? ", " : "") + std::to_string(p == 0 ? 0 : 1);
  }
  report.Info("phase_slots", slot_list + "]");
  report.Info("cold_slots_per_phase", cold_list + "]");

  const auto cross_share = [&](const std::vector<Outcome>& outcomes) {
    int64_t cross = 0;
    int64_t served = 0;
    for (const Outcome& o : outcomes) {
      if (o.kind != Outcome::Kind::kServed) continue;
      ++served;
      if (SingleOwner(stack->partition, request_of(o)) < 0) ++cross;
    }
    return Share{cross, served}.value();
  };

  if (!args.trace) {
    RolloverPass pass = RunPhases(report, *stack, inputs, args.seconds, {},
                                  nullptr);
    CheckAccounting(report, stack->engine->stats(), stack->serves_attempted,
                    *stack->ledger, stack->paid_returned, "metro_k4");
    // The boundary re-serves paid too; the window's spend excludes them.
    int64_t window_spend = 0;
    for (const Outcome& o : pass.outcomes) window_spend += o.paid;
    Window window;
    window.outcomes = &pass.outcomes;
    window.request_of = request_of;
    window.wall_s = pass.window_s;
    window.ledger_spend = window_spend;
    window.slo_ms = kSloMsK4;
    window.setup_s = Median(setups);
    AddEndToEnd(report, window);
    report.Info("input_cross_shard_share", cross_share(pass.outcomes));
    report.Info("input_repeat_share", RepeatShare(pass.outcomes, request_of));
    report.Info("input_mean_worker_roads",
                MeanWorkerRoads(pass.boundary_walks));
    report.Info("input_cold_slots", kPhases - 1);
    report.Info("input_warm_slots", 1.0);
    report.Info("sync_ms_mean", Mean(pass.sync_ms));
    return report.Print(args);
  }

  LayerInputs in;
  const RolloverPass untraced =
      RunPhases(report, *stack, inputs, 0.35 * args.seconds, {}, nullptr);
  CheckAccounting(report, stack->engine->stats(), stack->serves_attempted,
                  *stack->ledger, stack->paid_returned, "metro_k4");
  stack.reset();
  stack = SetupK4();
  SpanRecorder recorder;
  RolloverPass pass =
      RunPhases(report, *stack, inputs, 0.0, untraced.counts, &recorder);
  in.trace_overhead_pct =
      (pass.window_s - untraced.window_s) / untraced.window_s * 100.0;
  in.registry_sync_ms = Mean(pass.sync_ms);

  std::vector<double> lags;
  std::vector<double> latencies;
  std::vector<double> single_latencies;
  std::vector<double> cross_latencies;
  std::vector<int64_t> sub_serves(kShards, 0);
  for (const Outcome& o : pass.outcomes) {
    lags.push_back(o.send_lag_ms);
    latencies.push_back(o.latency_ms);
    const QueryRequest& request = request_of(o);
    const int owner = SingleOwner(stack->partition, request);
    (owner >= 0 ? single_latencies : cross_latencies).push_back(o.latency_ms);
    std::vector<int> owners;
    for (RoadId r : request.queried) {
      owners.push_back(stack->partition.OwnerOf(r));
    }
    std::sort(owners.begin(), owners.end());
    owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
    for (int s : owners) ++sub_serves[static_cast<size_t>(s)];
  }
  in.driver_send_lag_p99_ms = PercentileOf(lags, 0.99).value;
  in.serve_4clients_ms = Mean(latencies);
  in.serve_1client_span = "router.serve";
  in.partition_cross_shard_share = cross_share(pass.outcomes);
  in.partition_single_owner_p50_ms = PercentileOf(single_latencies, 0.5).value;
  in.partition_cross_shard_p50_ms = PercentileOf(cross_latencies, 0.5).value;
  const double mean_sub =
      static_cast<double>(std::accumulate(sub_serves.begin(),
                                          sub_serves.end(), int64_t{0})) /
      kShards;
  in.partition_imbalance =
      mean_sub > 0 ? static_cast<double>(*std::max_element(
                         sub_serves.begin(), sub_serves.end())) /
                         mean_sub
                   : 0.0;
  int64_t hits = 0;
  int64_t lookups = 0;
  double compute_sum = 0.0;
  int64_t computes = 0;
  int64_t resident = 0;
  for (int s = 0; s < kShards; ++s) {
    const auto cache = stack->engine->shard_system(s).CorrelationCacheStats();
    hits += cache.hits;
    lookups += cache.hits + cache.misses + cache.coalesced;
    compute_sum += cache.compute_latency.sum_ms;
    computes += cache.compute_latency.count;
    resident += cache.resident_bytes;
  }
  in.gamma_hit_ratio = Share{hits, lookups}.value();
  in.gamma_compute_ms = computes > 0 ? compute_sum / computes : 0.0;
  in.gamma_resident_mb = static_cast<double>(resident) / 1e6;
  in.input_repeat_share = RepeatShare(pass.outcomes, request_of);
  in.input_cold_slots = kPhases - 1;
  in.input_warm_slots = 1;

  // Single client on the last phase's state: router Serve, the owner
  // shard's QueryEngine on the shard-local request, then the walk.
  std::vector<WalkAnswer> walks;
  std::vector<double> route;
  const auto& last = inputs.requests.back();
  int taken = 0;
  for (size_t i = 0; i < last.size() && taken < kWalkSample; ++i) {
    const QueryRequest& request = last[i];
    const int owner = SingleOwner(stack->partition, request);
    if (owner < 0) continue;
    ++taken;
    const QueryRequest local = ToLocal(stack->partition, owner, request);
    int64_t t0 = NowNanos();
    cr::util::Result<cr::server::QueryResponse> routed = [&] {
      SpanRecorder::Scope span(&recorder, "router.serve", taken);
      return stack->engine->Serve(request, stack->world.truth);
    }();
    const double routed_ms = static_cast<double>(NowNanos() - t0) / 1e6;
    ++stack->serves_attempted;
    report.Check(routed.ok(), "metro_k4: router serve");
    if (routed.ok()) stack->paid_returned += routed->paid;
    t0 = NowNanos();
    cr::util::Result<cr::server::QueryResponse> direct = [&] {
      SpanRecorder::Scope span(&recorder, "engine.serve", taken);
      return stack->engine->shard_engine(owner).Serve(
          local, stack->walk_shards[static_cast<size_t>(owner)]->world);
    }();
    route.push_back(routed_ms - static_cast<double>(NowNanos() - t0) / 1e6);
    report.Check(direct.ok(), "metro_k4: shard serve");
    ShardedStack::WalkShard& shard =
        *stack->walk_shards[static_cast<size_t>(owner)];
    WalkAnswer walk = Walk(ShardParts(*stack, owner), local,
                           shard.next_walk_id--, &recorder);
    report.Check(walk.ok && direct.ok() &&
                     walk.speeds == direct->queried_speeds &&
                     walk.paid == direct->paid,
                 "metro_k4: shard serve differs from the walk");
    walks.push_back(std::move(walk));
  }
  in.partition_route_ms = Mean(route);
  ProbeFrontend(report, *stack->engine, stack->world.truth,
                {last.begin(), last.begin() + kFrontendProbe}, &recorder,
                &stack->serves_attempted, &stack->paid_returned, &in);
  CheckAccounting(report, stack->engine->stats(), stack->serves_attempted,
                  *stack->ledger, stack->paid_returned, "metro_k4");
  const std::vector<SpanRecord> spans = recorder.Collect();
  WriteSpans(spans, args.spans_out);
  AddPerLayer(report, spans, walks, "engine.serve", in);
  report.attempted = static_cast<int64_t>(pass.outcomes.size());
  report.failed = CountFailed(pass.outcomes);
  report.Info("spans", static_cast<double>(spans.size()));
  return report.Print(args);
}

}  // namespace perfbench
