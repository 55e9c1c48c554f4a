#include "scenario/runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "core/crowd_rtse.h"
#include "crowd/cost_model.h"
#include "crowd/crowd_simulator.h"
#include "crowd/fault_plan.h"
#include "eval/metrics.h"
#include "obs/flight_recorder.h"
#include "util/logging.h"
#include "partition/partitioner.h"
#include "scenario/world.h"
#include "server/budget_ledger.h"
#include "server/query_engine.h"
#include "server/sharded_engine.h"
#include "server/worker_registry.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace crowdrtse::scenario {

namespace {

// Purpose-separated seed streams: each subsystem forks off the replay seed
// with its own salt, so adding draws to one stream never shifts another.
constexpr uint64_t kWorkerSalt = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kCrowdSalt = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t kTimelineSalt = 0x165667b19e3779f9ULL;
constexpr uint64_t kFaultSalt = 0x27d4eb2f165667c5ULL;
constexpr uint64_t kDispatchSalt = 0x85ebca6b27d4eb4fULL;

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

void HashBytes(uint64_t& digest, const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    digest ^= bytes[i];
    digest *= kFnvPrime;
  }
}

void HashUint64(uint64_t& digest, uint64_t value) {
  HashBytes(digest, &value, sizeof(value));
}

void HashDouble(uint64_t& digest, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  HashUint64(digest, bits);
}

void HashRoads(uint64_t& digest, const std::vector<graph::RoadId>& roads) {
  HashUint64(digest, roads.size());
  for (graph::RoadId r : roads) {
    HashUint64(digest, static_cast<uint64_t>(r));
  }
}

std::string HexDigest(uint64_t digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[digest & 0xF];
    digest >>= 4;
  }
  return out;
}

/// Knuth's Poisson sampler — fine at scenario rates (tens of queries).
int SamplePoisson(util::Rng& rng, double rate) {
  const double limit = std::exp(-rate);
  int count = 0;
  double product = 1.0;
  do {
    ++count;
    product *= rng.UniformDouble();
  } while (product > limit);
  return count - 1;
}

/// All per-phase stat counters come from engine-stat deltas, so the phase
/// attribution is exact whatever the engine counted internally.
struct StatsBase {
  int64_t served = 0;
  int64_t rejected = 0;
  int64_t failed = 0;
  int64_t shed = 0;
  int64_t paid = 0;
  int64_t outliers = 0;
};

StatsBase SnapshotStats(const server::Engine& engine) {
  const server::EngineStats stats = engine.stats();
  StatsBase base;
  base.served = stats.queries_served;
  base.rejected = stats.queries_rejected;
  base.failed = stats.queries_failed;
  base.shed = stats.queries_shed;
  base.paid = stats.total_paid;
  base.outliers = stats.reports_outlier;
  return base;
}

void JsonAppendMetrics(std::ostringstream& out, const PhaseMetrics& m) {
  out << "\"attempts\":" << m.attempts << ",\"served\":" << m.served
      << ",\"rejected\":" << m.rejected << ",\"failed\":" << m.failed
      << ",\"shed\":" << m.shed << ",\"paid\":" << m.paid
      << ",\"outlier_reports\":" << m.outlier_reports
      << ",\"roads_queried\":" << m.roads_queried
      << ",\"roads_probed\":" << m.roads_probed
      << ",\"roads_underfilled\":" << m.roads_underfilled
      << ",\"roads_degraded\":" << m.roads_degraded
      << ",\"mape\":" << util::FormatDouble(m.Mape(), 6)
      << ",\"degraded_fraction\":"
      << util::FormatDouble(m.DegradedFraction(), 6)
      << ",\"max_span_ms\":" << util::FormatDouble(m.max_span_ms, 3)
      << ",\"reserved_outstanding\":" << m.reserved_outstanding;
}

void JsonAppendPhase(std::ostringstream& out, const PhaseReport& phase) {
  out << "{\"name\":\"" << util::JsonEscape(phase.name) << "\",";
  JsonAppendMetrics(out, phase.metrics);
  out << ",\"checked\":" << (phase.checked ? "true" : "false")
      << ",\"passed\":" << (phase.Passed() ? "true" : "false")
      << ",\"failures\":[";
  for (size_t i = 0; i < phase.failures.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << util::JsonEscape(phase.failures[i]) << "\"";
  }
  out << "]}";
}

/// Everything the timeline loop mutates, bundled so event handlers stay
/// small. All references point into RunScenario's stack frame.
struct RunState {
  // Borrowed stack state, bound at construction (in this order).
  const Pack& pack;
  const MapFixture& fixture;
  ScenarioWorld& world;
  server::BudgetLedger& ledger;
  std::vector<crowd::Worker>& workers;
  util::Rng& timeline_rng;
  RunReport& report;

  // Wired up after construction.
  server::Engine* engine = nullptr;
  server::QueryEngine* single = nullptr;    // exactly one of these two
  server::ShardedEngine* sharded = nullptr;
  server::WorkerRegistry* registry = nullptr;  // single-engine only
  double max_round_span_ms = 0.0;
  bool keep_responses = false;

  crowd::FaultPlan fault_plan = {};
  crowd::WorkerId next_worker_id = 0;

  uint64_t digest = kFnvOffset;

  // The open phase: name, stat baseline, and response-side accumulators.
  std::string phase_name = {};
  StatsBase phase_base = {};
  PhaseMetrics phase_accum = {};  // attempts/roads/ape/span only
  PhaseMetrics total_accum = {};  // same, over the whole run
};

/// Pushes the canonical worker vector into whichever engine serves. The
/// runner owns the population; engines only ever see projected copies.
void PushWorkers(RunState& state) {
  if (state.registry != nullptr) {
    state.registry->ReplaceWorkers(state.workers);
  }
  if (state.sharded != nullptr) {
    state.sharded->SyncWorkers(state.workers);
  }
}

void PushFaultPlan(RunState& state) {
  if (state.single != nullptr) state.single->SetFaultPlan(state.fault_plan);
  if (state.sharded != nullptr) state.sharded->SetFaultPlan(state.fault_plan);
}

void ClosePhase(RunState& state) {
  PhaseReport phase;
  phase.name = state.phase_name;
  phase.metrics = state.phase_accum;
  const StatsBase now = SnapshotStats(*state.engine);
  phase.metrics.served = now.served - state.phase_base.served;
  phase.metrics.rejected = now.rejected - state.phase_base.rejected;
  phase.metrics.failed = now.failed - state.phase_base.failed;
  phase.metrics.shed = now.shed - state.phase_base.shed;
  phase.metrics.paid = now.paid - state.phase_base.paid;
  phase.metrics.outlier_reports = now.outliers - state.phase_base.outliers;
  phase.metrics.reserved_outstanding = state.ledger.reserved_outstanding();
  phase.metrics.max_round_span_ms = state.max_round_span_ms;
  if (const EnvelopeSpec* spec = state.pack.EnvelopeFor(phase.name)) {
    phase.checked = true;
    phase.failures = EvaluateEnvelope(*spec, phase.metrics);
  }
  // The implicit preamble only appears in the report when it did work.
  if (phase.name != "preamble" || phase.metrics.attempts > 0) {
    state.report.phases.push_back(std::move(phase));
  }
}

void OpenPhase(RunState& state, const std::string& name) {
  state.phase_name = name;
  state.phase_base = SnapshotStats(*state.engine);
  state.phase_accum = PhaseMetrics{};
}

void ServeOne(RunState& state, const server::QueryRequest& request) {
  ++state.phase_accum.attempts;
  ++state.total_accum.attempts;
  bool shed = false;
  util::Result<server::QueryResponse> result = util::Status::Ok();
  if (state.pack.shed_when_dry && state.ledger.NextQueryBudget() <= 0) {
    shed = true;
    result = state.engine->ServePeriodicFallback(request, state.world.truth);
  } else {
    result = state.engine->Serve(request, state.world.truth);
  }

  const uint64_t tag =
      (result.ok() ? 1ULL : 0ULL) | (shed ? 2ULL : 0ULL);
  HashUint64(state.digest, tag);
  if (result.ok()) {
    const server::QueryResponse& response = *result;
    for (double speed : response.queried_speeds) {
      HashDouble(state.digest, speed);
    }
    HashRoads(state.digest, response.probed_roads);
    HashRoads(state.digest, response.underfilled_roads);
    HashRoads(state.digest, response.degraded_roads);
    HashUint64(state.digest, static_cast<uint64_t>(response.granted_budget));
    HashUint64(state.digest, static_cast<uint64_t>(response.paid));
    HashDouble(state.digest, response.dispatch_span_ms);

    for (PhaseMetrics* accum :
         {&state.phase_accum, &state.total_accum}) {
      accum->roads_queried +=
          static_cast<int64_t>(request.queried.size());
      accum->roads_probed +=
          static_cast<int64_t>(response.probed_roads.size());
      accum->roads_underfilled +=
          static_cast<int64_t>(response.underfilled_roads.size());
      accum->roads_degraded +=
          static_cast<int64_t>(response.degraded_roads.size());
      accum->max_span_ms =
          std::max(accum->max_span_ms, response.dispatch_span_ms);
    }
    for (size_t i = 0; i < request.queried.size(); ++i) {
      const double truth_kmh =
          state.world.truth.At(request.slot, request.queried[i]);
      if (truth_kmh <= 0.0) continue;
      const double ape = eval::AbsolutePercentageError(
          response.queried_speeds[i], truth_kmh);
      state.phase_accum.ape_sum += ape;
      ++state.phase_accum.ape_cases;
      state.total_accum.ape_sum += ape;
      ++state.total_accum.ape_cases;
    }
  }
  if (state.keep_responses) {
    QueryRecord record;
    record.request = request;
    record.ok = result.ok();
    record.shed = shed;
    if (result.ok()) record.response = *result;
    state.report.records.push_back(std::move(record));
  }
}

util::Status RunStorm(RunState& state, const Event& event) {
  auto roads = ResolveRoads(event.roads, state.fixture);
  if (!roads.ok()) return roads.status();
  const int count = event.queries > 0
                        ? event.queries
                        : SamplePoisson(state.timeline_rng, event.rate);
  for (int q = 0; q < count; ++q) {
    server::QueryRequest request;
    request.slot = event.at;
    request.budget_cap = event.budget;
    const std::vector<int> picks = state.timeline_rng.SampleWithoutReplacement(
        static_cast<int>(roads->size()), event.size);
    request.queried.reserve(picks.size());
    for (int pick : picks) {
      request.queried.push_back((*roads)[static_cast<size_t>(pick)]);
    }
    // Ascending order keeps the request canonical: the response's speed
    // alignment, cross-shard grouping, and the digest all see one form.
    std::sort(request.queried.begin(), request.queried.end());
    ServeOne(state, request);
  }
  return util::Status::Ok();
}

util::Status RunIncident(RunState& state, const Event& event) {
  const graph::RoadId road = state.fixture.RoadByName(event.road);
  if (road == graph::kInvalidRoad) {
    return util::Status::NotFound("incident road '" + event.road +
                                  "' is not on the map");
  }
  if (auto s = ApplyIncident(state.fixture.graph, road, event.at,
                             event.duration, event.drop, event.spillover,
                             state.pack.world.min_speed, state.world.truth);
      !s.ok()) {
    return s;
  }
  if (state.sharded != nullptr) state.sharded->SyncWorld();
  return util::Status::Ok();
}

void RunDrift(RunState& state, const Event& event) {
  for (crowd::Worker& worker : state.workers) {
    if (!state.timeline_rng.Bernoulli(event.probability)) continue;
    const auto neighbors = state.fixture.graph.Neighbors(worker.road);
    if (neighbors.empty()) continue;
    const int pick = state.timeline_rng.UniformInt(
        0, static_cast<int>(neighbors.size()) - 1);
    worker.road = neighbors[static_cast<size_t>(pick)].neighbor;
  }
}

util::Status RunWorkerChurn(RunState& state, const Event& event) {
  auto roads = ResolveRoads(event.roads, state.fixture);
  if (!roads.ok()) return roads.status();
  std::vector<uint8_t> in_scope(
      static_cast<size_t>(state.fixture.graph.num_roads()), 0);
  for (graph::RoadId r : *roads) in_scope[static_cast<size_t>(r)] = 1;

  if (event.leave > 0.0) {
    // One Bernoulli draw per worker, departed or not, keeps the RNG
    // consumption independent of the population's current layout.
    std::vector<crowd::Worker> kept;
    kept.reserve(state.workers.size());
    for (const crowd::Worker& worker : state.workers) {
      const bool leaves = state.timeline_rng.Bernoulli(event.leave);
      if (leaves && in_scope[static_cast<size_t>(worker.road)]) continue;
      kept.push_back(worker);
    }
    state.workers = std::move(kept);
  }
  for (int i = 0; i < event.add; ++i) {
    crowd::Worker worker;
    worker.id = state.next_worker_id++;
    worker.road = (*roads)[state.timeline_rng.UniformUint64(roads->size())];
    if (state.pack.noiseless) {
      worker.bias = 1.0;
      worker.noise_kmh = 0.0;
    } else {
      worker.bias = state.timeline_rng.UniformDouble(state.pack.min_bias,
                                                     state.pack.max_bias);
      worker.noise_kmh = state.timeline_rng.UniformDouble(
          state.pack.min_noise_kmh, state.pack.max_noise_kmh);
    }
    state.workers.push_back(worker);
  }
  return util::Status::Ok();
}

util::Status RunFaultSwap(RunState& state, const Event& event) {
  if (event.clear) {
    state.fault_plan = crowd::FaultPlan();
    state.fault_plan.set_seed(state.pack.seed ^ kFaultSalt);
  } else if (event.roads.kind == RoadsSpec::Kind::kAll) {
    state.fault_plan.SetDefault(event.fault);
  } else {
    auto roads = ResolveRoads(event.roads, state.fixture);
    if (!roads.ok()) return roads.status();
    for (graph::RoadId road : *roads) {
      state.fault_plan.SetRoadSpec(road, event.fault);
    }
  }
  PushFaultPlan(state);
  return util::Status::Ok();
}

util::Status RunLiarCohort(RunState& state, const Event& event) {
  const graph::RoadId road = state.fixture.RoadByName(event.road);
  if (road == graph::kInvalidRoad) {
    return util::Status::NotFound("liar road '" + event.road +
                                  "' is not on the map");
  }
  // A coordinated liar is rate-1 fixed-value corruption: every answer the
  // cohort submits is exactly `value`, whatever the hash draw — which is
  // also why liar packs stay deterministic across engine kinds.
  crowd::FaultSpec lie;
  lie.corrupt_rate = 1.0;
  lie.corrupt_min_kmh = event.value;
  lie.corrupt_max_kmh = event.value;
  int recruited = 0;
  for (const crowd::Worker& worker : state.workers) {
    if (worker.road != road) continue;
    state.fault_plan.SetWorkerSpec(worker.id, lie);
    if (++recruited >= event.cohort) break;
  }
  if (recruited < event.cohort) {
    return util::Status::FailedPrecondition(
        "liar cohort wants " + std::to_string(event.cohort) +
        " workers on road '" + event.road + "' but only " +
        std::to_string(recruited) + " are there");
  }
  PushFaultPlan(state);
  return util::Status::Ok();
}

}  // namespace

const char* EngineKindName(RunnerOptions::EngineKind kind) {
  switch (kind) {
    case RunnerOptions::EngineKind::kSingle:
      return "single";
    case RunnerOptions::EngineKind::kSharded:
      return "sharded";
  }
  return "unknown";
}

bool RunReport::AllPassed() const {
  for (const PhaseReport& phase : phases) {
    if (!phase.Passed()) return false;
  }
  return total.Passed();
}

std::string RunReport::ToJson() const {
  std::ostringstream out;
  out << "{\"pack\":\"" << util::JsonEscape(pack_name) << "\",\"engine\":\""
      << util::JsonEscape(engine) << "\",\"seed\":" << seed
      << ",\"digest\":\"" << HexDigest(answers_digest) << "\",\"phases\":[";
  for (size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) out << ",";
    JsonAppendPhase(out, phases[i]);
  }
  out << "],\"total\":";
  JsonAppendPhase(out, total);
  out << ",\"passed\":" << (AllPassed() ? "true" : "false") << "}";
  return out.str();
}

std::string RunReport::Summary() const {
  std::ostringstream out;
  out << "pack " << pack_name << " [" << engine << ", seed " << seed
      << "] digest " << HexDigest(answers_digest) << "\n";
  auto line = [&out](const PhaseReport& phase, const std::string& label) {
    const PhaseMetrics& m = phase.metrics;
    out << "  " << label << ": " << m.attempts << " offered, " << m.served
        << " served (" << m.shed << " shed), " << m.rejected << " rejected, "
        << m.failed << " failed, paid " << m.paid << ", mape "
        << util::FormatDouble(m.Mape(), 4) << ", degraded "
        << util::FormatDouble(m.DegradedFraction(), 4);
    if (phase.checked) {
      out << (phase.Passed() ? "  [envelope OK]" : "  [envelope FAILED]");
      for (const std::string& failure : phase.failures) {
        out << "\n      " << failure;
      }
    }
    out << "\n";
  };
  for (const PhaseReport& phase : phases) line(phase, phase.name);
  line(total, "TOTAL");
  out << (AllPassed() ? "PASS" : "FAIL") << "\n";
  return out.str();
}

int PackHaloRadius(const Pack& pack) {
  if (pack.halo > 0) return pack.halo;
  const int c = pack.hop_radius;
  const int h = pack.gsp_hop_limit;
  return std::max({2, 2 * c, c + h + 1});
}

util::Result<partition::Partition> BuildPackPartition(
    const Pack& pack, const MapFixture& fixture, int num_shards,
    uint64_t seed) {
  partition::PartitionerOptions options;
  options.num_shards = num_shards;
  options.halo_radius = PackHaloRadius(pack);
  options.seed = seed;
  return partition::PartitionByGeography(fixture.graph, fixture.positions,
                                         options);
}

std::vector<crowd::Worker> BuildWorkerPopulation(const Pack& pack,
                                                 const MapFixture& fixture,
                                                 uint64_t seed) {
  util::Rng rng(seed ^ kWorkerSalt);
  std::vector<crowd::Worker> workers;
  workers.reserve(static_cast<size_t>(fixture.graph.num_roads()) *
                  static_cast<size_t>(pack.workers_per_road));
  crowd::WorkerId next_id = 0;
  for (int road = 0; road < fixture.graph.num_roads(); ++road) {
    for (int k = 0; k < pack.workers_per_road; ++k) {
      crowd::Worker worker;
      worker.id = next_id++;
      worker.road = road;
      if (pack.noiseless) {
        worker.bias = 1.0;
        worker.noise_kmh = 0.0;
      } else {
        worker.bias = rng.UniformDouble(pack.min_bias, pack.max_bias);
        worker.noise_kmh =
            rng.UniformDouble(pack.min_noise_kmh, pack.max_noise_kmh);
      }
      workers.push_back(worker);
    }
  }
  return workers;
}

util::Result<RunReport> RunScenario(const Pack& pack,
                                    const RunnerOptions& options) {
  // A fresh recorder window per replay: the envelope-failure dump below
  // must cover exactly this run's events, nothing from a prior replay in
  // the same process. Clear() requires quiescence — see RunnerOptions.
  if (!options.flight_dump_path.empty()) {
    obs::FlightRecorder::Global().Clear();
  }
  const uint64_t seed = options.seed != 0 ? options.seed : pack.seed;
  const bool sharded = options.engine == RunnerOptions::EngineKind::kSharded;

  if (!pack.fault_tolerant) {
    for (const Event& event : pack.timeline) {
      if (event.kind == Event::Kind::kFaults ||
          event.kind == Event::Kind::kLiars) {
        return util::Status::FailedPrecondition(
            "faults/liars events need [engine] fault_tolerant=true (the "
            "legacy dispatch path never consults the fault plan)");
      }
    }
  }

  auto fixture = BuildFixture(pack);
  if (!fixture.ok()) return fixture.status();
  auto world = BuildScenarioWorld(*fixture, pack.world, seed);
  if (!world.ok()) return world.status();

  core::CrowdRtseConfig config;
  config.correlation_hop_radius = pack.hop_radius;
  config.prune_zero_gain_candidates = pack.prune_zero_gain;
  config.theta = pack.theta;
  config.gsp.hop_limit = pack.gsp_hop_limit;

  const crowd::CostModel costs =
      crowd::CostModel::Constant(fixture->graph.num_roads(),
                                 pack.cost_per_road);
  std::vector<crowd::Worker> workers =
      BuildWorkerPopulation(pack, *fixture, seed);

  util::SimClock clock;
  server::QueryEngine::Options engine_options;
  engine_options.fault_tolerant_dispatch = pack.fault_tolerant;
  engine_options.dispatch.deadline_ms = pack.deadline_ms;
  engine_options.dispatch.max_attempts = pack.max_attempts;
  engine_options.dispatch.mad_sigmas = pack.mad_sigmas;
  engine_options.dispatch.seed = seed ^ kDispatchSalt;
  engine_options.clock = &clock;

  crowd::CrowdSimOptions crowd_options;
  crowd_options.outlier_rate = 0.0;
  if (pack.noiseless) {
    crowd_options.min_bias = crowd_options.max_bias = 1.0;
    crowd_options.min_noise_kmh = crowd_options.max_noise_kmh = 0.0;
  } else {
    crowd_options.min_bias = pack.min_bias;
    crowd_options.max_bias = pack.max_bias;
    crowd_options.min_noise_kmh = pack.min_noise_kmh;
    crowd_options.max_noise_kmh = pack.max_noise_kmh;
  }

  server::BudgetLedger ledger(pack.campaign_budget, pack.per_query_cap);

  // Both engine stacks are declared up front so whichever is built lives
  // until the end of this frame (everything borrows by reference).
  std::optional<core::CrowdRtse> system;
  std::optional<server::WorkerRegistry> registry;
  std::optional<crowd::CrowdSimulator> crowd_sim;
  std::unique_ptr<server::QueryEngine> single;
  std::unique_ptr<server::ShardedEngine> sharded_engine;
  server::Engine* engine = nullptr;

  if (!sharded) {
    auto built =
        core::CrowdRtse::BuildOffline(fixture->graph, world->history, config);
    if (!built.ok()) return built.status();
    system.emplace(std::move(*built));
    server::WorkerRegistryOptions registry_options;
    registry.emplace(fixture->graph, workers, registry_options, seed);
    crowd_sim.emplace(crowd_options, util::Rng(seed ^ kCrowdSalt));
    single = std::make_unique<server::QueryEngine>(
        *system, *registry, ledger, costs, *crowd_sim, engine_options);
    engine = single.get();
  } else {
    const int num_shards = options.shards > 0 ? options.shards : pack.shards;
    auto partition = BuildPackPartition(pack, *fixture, num_shards, seed);
    if (!partition.ok()) return partition.status();
    server::ShardedEngineOptions sharded_options;
    sharded_options.engine = engine_options;
    sharded_options.crowd = crowd_options;
    sharded_options.crowd_seed = seed ^ kCrowdSalt;
    sharded_options.fanout_threads = 1;  // replay determinism
    auto built = server::ShardedEngine::Create(
        fixture->graph, *partition, world->history, config, costs, workers,
        ledger, world->truth, sharded_options);
    if (!built.ok()) return built.status();
    sharded_engine = std::move(*built);
    engine = sharded_engine.get();
  }

  util::Rng timeline_rng(seed ^ kTimelineSalt);
  RunReport report;
  report.pack_name = pack.name;
  report.engine = EngineKindName(options.engine);
  report.seed = seed;

  RunState state{pack,    *fixture, *world, ledger,
                 workers, timeline_rng,     report};
  state.engine = engine;
  state.single = single.get();
  state.sharded = sharded_engine.get();
  state.registry = registry.has_value() ? &*registry : nullptr;
  state.max_round_span_ms =
      pack.fault_tolerant ? engine_options.dispatch.MaxRoundSpanMs() : 0.0;
  state.keep_responses = options.keep_responses;
  state.next_worker_id = static_cast<crowd::WorkerId>(workers.size());
  state.fault_plan.set_seed(pack.seed ^ kFaultSalt);
  PushFaultPlan(state);

  OpenPhase(state, "preamble");
  for (const Event& event : pack.timeline) {
    util::Status status = util::Status::Ok();
    switch (event.kind) {
      case Event::Kind::kPhase:
        ClosePhase(state);
        OpenPhase(state, event.name);
        break;
      case Event::Kind::kStorm:
        status = RunStorm(state, event);
        break;
      case Event::Kind::kIncident:
        status = RunIncident(state, event);
        break;
      case Event::Kind::kDrift:
        RunDrift(state, event);
        PushWorkers(state);
        break;
      case Event::Kind::kWorkers:
        status = RunWorkerChurn(state, event);
        if (status.ok()) PushWorkers(state);
        break;
      case Event::Kind::kFaults:
        status = RunFaultSwap(state, event);
        break;
      case Event::Kind::kLiars:
        status = RunLiarCohort(state, event);
        break;
    }
    if (!status.ok()) return status;
  }
  ClosePhase(state);

  report.total.name = "";
  report.total.metrics = state.total_accum;
  const StatsBase final_stats = SnapshotStats(*engine);
  report.total.metrics.served = final_stats.served;
  report.total.metrics.rejected = final_stats.rejected;
  report.total.metrics.failed = final_stats.failed;
  report.total.metrics.shed = final_stats.shed;
  report.total.metrics.paid = final_stats.paid;
  report.total.metrics.outlier_reports = final_stats.outliers;
  report.total.metrics.reserved_outstanding = ledger.reserved_outstanding();
  report.total.metrics.max_round_span_ms = state.max_round_span_ms;
  if (const EnvelopeSpec* spec = pack.EnvelopeFor("")) {
    report.total.checked = true;
    report.total.failures = EvaluateEnvelope(*spec, report.total.metrics);
  }
  report.answers_digest = state.digest;

  engine->Drain();
  if (!options.flight_dump_path.empty() && !report.AllPassed()) {
    // The engine is drained: every event of the failing replay is in the
    // rings and no writer races the snapshot. The dump is a debugging
    // artifact beside the report, never part of it (sequence numbers are
    // not replay-stable).
    const std::string dump = obs::FlightRecorder::Global().DumpJson();
    std::FILE* file = std::fopen(options.flight_dump_path.c_str(), "wb");
    if (file == nullptr) {
      CROWDRTSE_LOG(Warning, "cannot open flight dump path: " +
                                 options.flight_dump_path);
    } else {
      const size_t written =
          std::fwrite(dump.data(), 1, dump.size(), file);
      if (std::fclose(file) != 0 || written != dump.size()) {
        CROWDRTSE_LOG(Warning, "short write to flight dump: " +
                                   options.flight_dump_path);
      } else {
        CROWDRTSE_LOG(Info, "envelope failure: flight recorder dumped to " +
                                options.flight_dump_path);
      }
    }
  }
  return report;
}

}  // namespace crowdrtse::scenario
