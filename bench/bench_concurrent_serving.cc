// Concurrent-serving load driver: N client threads replay a day of
// realtime-speed queries against one shared QueryEngine and report QPS and
// tail latency per thread count. The replay walks the day in slot waves —
// within a wave every client fires its queries concurrently (atomic query
// ids, reservation ledger, one shared propagator); between waves the worker
// population advances one slot, exactly the quiescence contract the engine
// documents for WorkerRegistry::AdvanceSlot.
//
// Expected shape: ledger spend never exceeds the campaign budget no matter
// the thread count, every query lands in exactly one outcome counter, and
// the per-phase p50/p95/p99 report shows OCS dominating the tail (the
// paper's Fig. 4 shape). Throughput scaling with threads is bounded by the
// machine's core count — on a single-core container the win is that
// concurrency is *safe*, not faster.
//
// Observability: the driver also dumps machine-readable artifacts next to
// the binary — EngineStats::ReportJson() for the 8-client serving pass and
// the fault storm (so BENCH_*.json trajectories can track serve-path
// counters), plus a fully sampled fault-storm pass that exports the Chrome
// trace and the Prometheus exposition for CI upload.
//
// The final section goes through the wire: an open-loop Poisson load
// driver fires pipelined binary frames at the network front-end (DESIGN.md
// §6) against the paper's 607-road world, checks that offered load beyond
// the admission queue's hard capacity sheds through the degradation ladder
// with zero failed queries and zero silent drops while sustaining >= 1k
// answered queries/sec, verifies coalesced responses bit-identical to a
// single-client replay, and persists BENCH_serving.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "semi_synthetic.h"
#include "crowd/fault_plan.h"
#include "eval/table_printer.h"
#include "net/frame.h"
#include "net/http.h"
#include "net/json.h"
#include "net/socket.h"
#include "obs/flight_recorder.h"
#include "server/budget_ledger.h"
#include "server/frontend.h"
#include "server/query_engine.h"
#include "server/worker_registry.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace crowdrtse::bench {
namespace {

constexpr int kSlotStride = 8;       // every 40 minutes of the day
constexpr int kQueriesPerClientPerWave = 2;
constexpr int kQuerySize = 20;

/// Writes a bench artifact next to the binary; a failure is loud but not
/// fatal (a read-only working directory should not kill the bench).
void DumpArtifact(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    std::printf("WARNING: could not write %s\n", path.c_str());
    return;
  }
  std::fwrite(content.data(), 1, content.size(), file);
  std::fclose(file);
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
}

struct LoadResult {
  int attempts = 0;
  double wall_seconds = 0.0;
  util::metrics::LatencySnapshot client_latency;
  server::EngineStats stats;
  std::string ledger_report;
  /// EngineStats::ReportJson() — the serve-path counters as one JSON
  /// object, dumped for BENCH_*.json trajectories.
  std::string stats_json;
  int64_t total_spent = 0;
};

LoadResult ReplayDay(core::CrowdRtse& system, const SemiSyntheticWorld& world,
                     int num_clients) {
  server::WorkerRegistryOptions registry_options;
  registry_options.num_workers = world.network.num_roads() * 3;
  server::WorkerRegistry registry(world.network, registry_options, 5);
  const crowd::CostModel costs =
      crowd::CostModel::Constant(world.network.num_roads(), 2);
  // Finite campaign sized so the day fits; the invariant that spend stays
  // under it is checked below regardless.
  const int64_t campaign_budget = 1'000'000;
  server::BudgetLedger ledger(campaign_budget, /*per_query_cap=*/30);
  crowd::CrowdSimulator crowd_sim({}, util::Rng(9));
  server::QueryEngine engine(system, registry, ledger, costs, crowd_sim);

  // Each client monitors its own district all day (distinct query sets).
  std::vector<std::vector<graph::RoadId>> districts;
  for (int c = 0; c < num_clients; ++c) {
    districts.push_back(
        MakeQuery(world, kQuerySize, 100 + static_cast<uint64_t>(c)));
  }

  util::metrics::LatencyHistogram client_latency;
  LoadResult result;
  util::Timer wall;
  for (int slot = 0; slot < traffic::kSlotsPerDay; slot += kSlotStride) {
    std::vector<std::thread> clients;
    for (int c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        for (int q = 0; q < kQueriesPerClientPerWave; ++q) {
          server::QueryRequest request;
          request.slot = slot;
          request.queried = districts[static_cast<size_t>(c)];
          util::Timer timer;
          const auto response = engine.Serve(request, world.truth);
          client_latency.Record(timer.ElapsedMillis());
          CROWDRTSE_CHECK(response.ok());
        }
      });
    }
    for (std::thread& c : clients) c.join();
    // Quiesced between waves: safe to move the worker population.
    registry.AdvanceSlot();
  }
  result.wall_seconds = wall.ElapsedSeconds();
  result.attempts = (traffic::kSlotsPerDay / kSlotStride) * num_clients *
                    kQueriesPerClientPerWave;
  result.client_latency = client_latency.Snapshot();
  result.stats = engine.stats();
  result.ledger_report = ledger.Report();
  result.stats_json = result.stats.ReportJson();
  result.total_spent = ledger.total_spent();

  // The tentpole invariants, enforced on every run of the driver.
  CROWDRTSE_CHECK(result.total_spent <= campaign_budget);
  CROWDRTSE_CHECK(ledger.reserved_outstanding() == 0);
  CROWDRTSE_CHECK(result.stats.queries_served +
                      result.stats.queries_rejected +
                      result.stats.queries_failed ==
                  result.attempts);
  return result;
}

struct FaultedResult {
  int attempts = 0;
  double max_span_ms = 0.0;
  server::EngineStats stats;
  int64_t total_spent = 0;
  /// Single-client runs record every answer and degraded set in serve
  /// order, for the bitwise replay check.
  std::vector<double> speeds_trace;
  std::vector<graph::RoadId> degraded_trace;
  /// Rendered observability artifacts (stats JSON always; the trace and
  /// Prometheus dumps only when the pass ran with sampling on).
  std::string stats_json;
  std::string prometheus;
  std::string chrome_trace;
  std::string slow_query_report;
  int64_t traces_collected = 0;
};

/// Fault-storm replay: the same day under an injected 30% drop + 20% delay
/// FaultPlan, served by the fault-tolerant dispatch path on a SimClock (so
/// deadline waits and retries cost zero wall time). The invariants the
/// degradation ladder promises are CHECKed on every query: nothing fails,
/// and every round resolves inside DispatchOptions::MaxRoundSpanMs().
/// `trace_sample_rate` > 0 turns on per-query tracing with a ring sized to
/// hold the whole day, so the export covers every sampled query.
FaultedResult ReplayFaultedDay(core::CrowdRtse& system,
                               const SemiSyntheticWorld& world,
                               int num_clients,
                               double trace_sample_rate = 0.0) {
  server::WorkerRegistryOptions registry_options;
  registry_options.num_workers = world.network.num_roads() * 3;
  server::WorkerRegistry registry(world.network, registry_options, 5);
  const crowd::CostModel costs =
      crowd::CostModel::Constant(world.network.num_roads(), 2);
  server::BudgetLedger ledger(1'000'000, /*per_query_cap=*/30);
  crowd::CrowdSimulator crowd_sim({}, util::Rng(9));
  util::SimClock clock;
  server::QueryEngine::Options engine_options;
  engine_options.fault_tolerant_dispatch = true;
  engine_options.clock = &clock;
  crowd::FaultSpec storm;
  storm.drop_rate = 0.3;
  storm.delay_rate = 0.2;
  engine_options.fault_plan = crowd::FaultPlan(storm, /*seed=*/2026);
  engine_options.trace_sample_rate = trace_sample_rate;
  engine_options.trace_ring_size = (traffic::kSlotsPerDay / kSlotStride) *
                                   num_clients * kQueriesPerClientPerWave;
  server::QueryEngine engine(system, registry, ledger, costs, crowd_sim,
                             engine_options);

  std::vector<std::vector<graph::RoadId>> districts;
  for (int c = 0; c < num_clients; ++c) {
    districts.push_back(
        MakeQuery(world, kQuerySize, 100 + static_cast<uint64_t>(c)));
  }
  const double span_budget_ms = engine_options.dispatch.MaxRoundSpanMs();

  FaultedResult result;
  std::mutex merge_mutex;
  for (int slot = 0; slot < traffic::kSlotsPerDay; slot += kSlotStride) {
    std::vector<std::thread> clients;
    for (int c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        for (int q = 0; q < kQueriesPerClientPerWave; ++q) {
          server::QueryRequest request;
          request.slot = slot;
          request.queried = districts[static_cast<size_t>(c)];
          const auto response = engine.Serve(request, world.truth);
          // Zero failed queries under the storm: faults degrade roads,
          // never the query.
          CROWDRTSE_CHECK(response.ok());
          CROWDRTSE_CHECK(response->dispatch_span_ms <= span_budget_ms);
          std::lock_guard<std::mutex> lock(merge_mutex);
          result.max_span_ms =
              std::max(result.max_span_ms, response->dispatch_span_ms);
          if (num_clients == 1) {
            result.speeds_trace.insert(result.speeds_trace.end(),
                                       response->queried_speeds.begin(),
                                       response->queried_speeds.end());
            result.degraded_trace.insert(result.degraded_trace.end(),
                                         response->degraded_roads.begin(),
                                         response->degraded_roads.end());
          }
        }
      });
    }
    for (std::thread& c : clients) c.join();
    registry.AdvanceSlot();
  }
  result.attempts = (traffic::kSlotsPerDay / kSlotStride) * num_clients *
                    kQueriesPerClientPerWave;
  result.stats = engine.stats();
  result.total_spent = ledger.total_spent();
  result.stats_json = result.stats.ReportJson();
  result.traces_collected = engine.traces().collected();
  if (trace_sample_rate > 0.0) {
    result.prometheus = engine.metrics().RenderPrometheus();
    result.chrome_trace = engine.traces().ChromeTraceJson();
    result.slow_query_report = engine.traces().SlowQueryReport();
  }
  CROWDRTSE_CHECK(result.stats.queries_failed == 0);
  CROWDRTSE_CHECK(result.stats.queries_served == result.attempts);
  return result;
}

// ---------------------------------------------------------------------------
// Socket-level serving: the network front-end under an open-loop load.

/// A serving stack with calibrated (bias 1) zero-noise workers, so a given
/// request always produces the same speeds — what the coalescing
/// bit-identity check relies on. The load numbers are unaffected: the
/// pipeline does exactly the same work either way.
struct NoiselessStack {
  std::unique_ptr<server::WorkerRegistry> registry;
  std::unique_ptr<server::BudgetLedger> ledger;
  std::unique_ptr<crowd::CrowdSimulator> crowd_sim;
  crowd::CostModel costs;
  std::unique_ptr<server::QueryEngine> engine;
};

NoiselessStack MakeNoiselessStack(core::CrowdRtse& system,
                                  const SemiSyntheticWorld& world) {
  NoiselessStack stack;
  server::WorkerRegistryOptions registry_options;
  registry_options.num_workers = world.network.num_roads() * 3;
  registry_options.min_bias = 1.0;
  registry_options.max_bias = 1.0;
  registry_options.min_noise_kmh = 0.0;
  registry_options.max_noise_kmh = 0.0;
  stack.registry = std::make_unique<server::WorkerRegistry>(
      world.network, registry_options, 5);
  stack.costs = crowd::CostModel::Constant(world.network.num_roads(), 2);
  stack.ledger = std::make_unique<server::BudgetLedger>(
      /*total=*/-1, /*per_query_cap=*/20);
  crowd::CrowdSimOptions crowd_options;
  crowd_options.min_bias = 1.0;
  crowd_options.max_bias = 1.0;
  crowd_options.min_noise_kmh = 0.0;
  crowd_options.max_noise_kmh = 0.0;
  stack.crowd_sim =
      std::make_unique<crowd::CrowdSimulator>(crowd_options, util::Rng(9));
  stack.engine = std::make_unique<server::QueryEngine>(
      system, *stack.registry, *stack.ledger, stack.costs, *stack.crowd_sim);
  return stack;
}

std::string RoadsJson(const std::vector<graph::RoadId>& roads) {
  std::string out = "[";
  for (size_t i = 0; i < roads.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(roads[i]);
  }
  return out + "]";
}

std::string QueryJson(int64_t id, int slot,
                      const std::vector<graph::RoadId>& roads) {
  return "{\"id\":" + std::to_string(id) +
         ",\"slot\":" + std::to_string(slot) +
         ",\"roads\":" + RoadsJson(roads) + "}";
}

struct OpenLoopResult {
  int attempts = 0;
  int ok = 0;
  int rejected = 0;
  int failed = 0;  // "error" statuses — the criterion says zero
  int shed_none = 0;
  int shed_budget_cap = 0;
  int shed_fallback = 0;
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double wall_seconds = 0.0;
  util::metrics::LatencySnapshot latency;
  server::FrontendStats frontend_stats;
};

/// Open-loop driver: arrivals follow a seeded Poisson process at
/// `offered_qps`, fired as pipelined binary frames over `num_connections`
/// sockets no matter how fast responses come back — the server cannot slow
/// the arrival process down, which is exactly what makes the admission
/// ladder engage. Each connection pairs a sender thread (sleeps to its
/// arrival times) with a reader thread (matches responses back by id, since
/// workers complete out of order).
OpenLoopResult DriveOpenLoop(server::Frontend& frontend,
                             const SemiSyntheticWorld& world,
                             double offered_qps, int total_queries,
                             int num_connections, int slot) {
  using SteadyClock = std::chrono::steady_clock;
  // Pre-generated schedule: exponential inter-arrivals, fixed seed.
  util::Rng rng(777);
  std::vector<double> arrival_s(static_cast<size_t>(total_queries));
  double t = 0.0;
  for (double& a : arrival_s) {
    t += -std::log(1.0 - rng.UniformDouble()) / offered_qps;
    a = t;
  }
  // A small pool of recurring road sets: realistic clients monitor fixed
  // districts, and the repeats give the coalescer something to merge.
  std::vector<std::vector<graph::RoadId>> road_pool;
  for (int i = 0; i < 16; ++i) {
    road_pool.push_back(
        MakeQuery(world, kQuerySize, 9000 + static_cast<uint64_t>(i)));
  }

  struct Conn {
    net::Fd fd;
    std::vector<int> query_ids;  // global indices this connection carries
    std::mutex mutex;
    std::map<int64_t, SteadyClock::time_point> sent;
  };
  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < num_connections; ++c) {
    auto conn = std::make_unique<Conn>();
    auto fd = net::ConnectLocal(frontend.port());
    CROWDRTSE_CHECK(fd.ok());
    conn->fd = std::move(*fd);
    conns.push_back(std::move(conn));
  }
  for (int i = 0; i < total_queries; ++i) {
    conns[static_cast<size_t>(i % num_connections)]->query_ids.push_back(i);
  }

  util::metrics::LatencyHistogram latency;
  std::atomic<int> ok{0}, rejected{0}, failed{0};
  std::atomic<int> shed_none{0}, shed_budget_cap{0}, shed_fallback{0};
  const SteadyClock::time_point start = SteadyClock::now();

  std::vector<std::thread> threads;
  for (auto& conn_ptr : conns) {
    Conn* conn = conn_ptr.get();
    threads.emplace_back([&, conn] {  // sender
      for (int i : conn->query_ids) {
        const auto deadline =
            start + std::chrono::duration_cast<SteadyClock::duration>(
                        std::chrono::duration<double>(
                            arrival_s[static_cast<size_t>(i)]));
        std::this_thread::sleep_until(deadline);
        const std::string frame = net::EncodeFrame(QueryJson(
            i, slot, road_pool[static_cast<size_t>(i) % road_pool.size()]));
        {
          std::lock_guard<std::mutex> lock(conn->mutex);
          conn->sent[i] = SteadyClock::now();
        }
        CROWDRTSE_CHECK(net::WriteAll(conn->fd.get(), frame).ok());
      }
    });
    threads.emplace_back([&, conn] {  // reader
      for (size_t answered = 0; answered < conn->query_ids.size();) {
        std::string header, payload;
        CROWDRTSE_CHECK(
            net::ReadExact(conn->fd.get(), net::kFrameHeaderBytes, &header)
                .ok());
        uint32_t magic = 0, length = 0;
        std::memcpy(&magic, header.data(), 4);
        std::memcpy(&length, header.data() + 4, 4);
        CROWDRTSE_CHECK(magic == net::kFrameMagic);
        CROWDRTSE_CHECK(net::ReadExact(conn->fd.get(), length, &payload).ok());
        const SteadyClock::time_point now = SteadyClock::now();
        const auto doc = net::json::Parse(payload);
        CROWDRTSE_CHECK(doc.ok());
        const int64_t id = *doc->Find("id")->AsInt();
        {
          std::lock_guard<std::mutex> lock(conn->mutex);
          const auto it = conn->sent.find(id);
          CROWDRTSE_CHECK(it != conn->sent.end());
          latency.Record(std::chrono::duration<double, std::milli>(
                             now - it->second)
                             .count());
          conn->sent.erase(it);
        }
        const std::string status = doc->Find("status")->AsString();
        if (status == "ok") {
          ++ok;
          const std::string shed = doc->Find("shed")->AsString();
          if (shed == "none") ++shed_none;
          if (shed == "budget_cap") ++shed_budget_cap;
          if (shed == "periodic_fallback") ++shed_fallback;
        } else if (status == "rejected") {
          ++rejected;
        } else {
          ++failed;
        }
        ++answered;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  OpenLoopResult result;
  result.wall_seconds =
      std::chrono::duration<double>(SteadyClock::now() - start).count();
  result.attempts = total_queries;
  result.ok = ok.load();
  result.rejected = rejected.load();
  result.failed = failed.load();
  result.shed_none = shed_none.load();
  result.shed_budget_cap = shed_budget_cap.load();
  result.shed_fallback = shed_fallback.load();
  result.offered_qps = offered_qps;
  result.achieved_qps = total_queries / result.wall_seconds;
  result.latency = latency.Snapshot();
  result.frontend_stats = frontend.stats();
  return result;
}

std::string ServingJson(const OpenLoopResult& r) {
  std::string json = "{";
  json += "\"offered_qps\": " + util::FormatDouble(r.offered_qps, 1);
  json += ", \"achieved_qps\": " + util::FormatDouble(r.achieved_qps, 1);
  json += ", \"queries\": " + std::to_string(r.attempts);
  json += ", \"ok\": " + std::to_string(r.ok);
  json += ", \"rejected\": " + std::to_string(r.rejected);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"p50_ms\": " + util::FormatDouble(r.latency.p50_ms, 3);
  json += ", \"p95_ms\": " + util::FormatDouble(r.latency.p95_ms, 3);
  json += ", \"p99_ms\": " + util::FormatDouble(r.latency.p99_ms, 3);
  json += ", \"shed_none\": " + std::to_string(r.shed_none);
  json += ", \"shed_budget_cap\": " + std::to_string(r.shed_budget_cap);
  json += ", \"shed_periodic_fallback\": " + std::to_string(r.shed_fallback);
  json += ", \"coalesce_leads\": " +
          std::to_string(r.frontend_stats.coalesce_leads);
  json += ", \"coalesce_joins\": " +
          std::to_string(r.frontend_stats.coalesce_joins);
  json += ", \"admission_rejected\": " +
          std::to_string(r.frontend_stats.admission.rejected);
  json += ", \"peak_queue_depth\": " +
          std::to_string(r.frontend_stats.admission.peak_depth);
  json += "}";
  return json;
}

/// Lockstep HTTP POST /query — the coalescing check goes over HTTP so both
/// wire protocols see load in this bench.
std::string PostQuery(uint16_t port, const std::string& body) {
  auto fd = net::ConnectLocal(port);
  CROWDRTSE_CHECK(fd.ok());
  const std::string wire =
      "POST /query HTTP/1.1\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  CROWDRTSE_CHECK(net::WriteAll(fd->get(), wire).ok());
  int status = 0;
  std::string response;
  CROWDRTSE_CHECK(net::ReadHttpResponse(fd->get(), &status, &response).ok());
  CROWDRTSE_CHECK(status == 200);
  return response;
}

/// The answer payload a client actually cares about, in canonical JSON, so
/// two responses can be compared for bitwise equality regardless of the
/// metadata (query_id, coalesced flag) that legitimately differs.
std::string AnswerFingerprint(const std::string& response_body) {
  const auto doc = net::json::Parse(response_body);
  CROWDRTSE_CHECK(doc.ok());
  CROWDRTSE_CHECK(doc->Find("status")->AsString() == "ok");
  CROWDRTSE_CHECK(doc->Find("shed")->AsString() == "none");
  return doc->Find("speeds")->Dump() + "|" + doc->Find("probed")->Dump() +
         "|" + doc->Find("granted_budget")->Dump() + "|" +
         doc->Find("paid")->Dump();
}

void RunSocketServing() {
  std::printf("\n=== Socket serving — open-loop Poisson load, 607-road"
              " world ===\n");
  WorldOptions options;  // the paper's §VII network size
  options.num_roads = 607;
  options.num_days = 10;
  const SemiSyntheticWorld world = BuildWorld(options);
  auto system =
      core::CrowdRtse::BuildOffline(world.network, world.history, {});
  CROWDRTSE_CHECK(system.ok());
  constexpr int kSlot = 100;
  CROWDRTSE_CHECK(system->CorrelationsFor(kSlot).ok());  // warm, like prod

  // --- Coalescing bit-identity: concurrent identical queries through the
  // coalescing front-end, then an uncoalesced single-client replay.
  {
    NoiselessStack stack = MakeNoiselessStack(*system, world);
    server::FrontendOptions frontend_options;
    frontend_options.num_workers = 4;
    server::Frontend frontend(*stack.engine, world.truth, frontend_options);
    CROWDRTSE_CHECK(frontend.Start().ok());
    const std::vector<graph::RoadId> roads = MakeQuery(world, kQuerySize, 42);
    constexpr int kClients = 8;
    std::vector<std::string> fingerprints(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        fingerprints[static_cast<size_t>(c)] = AnswerFingerprint(
            PostQuery(frontend.port(), QueryJson(c, kSlot, roads)));
      });
    }
    for (std::thread& c : clients) c.join();
    // Sequential replay of the same request cannot coalesce with anything.
    const std::string replay = AnswerFingerprint(
        PostQuery(frontend.port(), QueryJson(99, kSlot, roads)));
    for (const std::string& fingerprint : fingerprints) {
      CROWDRTSE_CHECK(fingerprint == replay);  // bitwise, via canonical JSON
    }
    const server::FrontendStats stats = frontend.stats();
    std::printf("coalescing: %d concurrent + 1 replay bit-identical "
                "(%lld leads, %lld joins)\n",
                kClients, static_cast<long long>(stats.coalesce_leads),
                static_cast<long long>(stats.coalesce_joins));
    frontend.Shutdown();
  }

  // --- The open-loop load run: offered rate well beyond what full-service
  // serving sustains, admission sized so the ladder's every rung is in
  // play. hard_capacity = 2 * capacity (the default derivation), so this
  // drives the queue to twice its capacity by construction.
  NoiselessStack stack = MakeNoiselessStack(*system, world);
  server::FrontendOptions frontend_options;
  frontend_options.num_workers = 4;
  frontend_options.admission.capacity = 32;
  server::Frontend frontend(*stack.engine, world.truth, frontend_options);
  CROWDRTSE_CHECK(frontend.Start().ok());

  constexpr double kOfferedQps = 1250.0;
  constexpr int kTotalQueries = 5000;
  const OpenLoopResult result = DriveOpenLoop(
      frontend, world, kOfferedQps, kTotalQueries, /*num_connections=*/8,
      kSlot);
  frontend.Shutdown();

  eval::TablePrinter table({"offered QPS", "achieved QPS", "queries", "ok",
                            "rejected", "p50 ms", "p95 ms", "p99 ms"});
  table.AddRow({util::FormatDouble(result.offered_qps, 0),
                util::FormatDouble(result.achieved_qps, 1),
                std::to_string(result.attempts), std::to_string(result.ok),
                std::to_string(result.rejected),
                util::FormatDouble(result.latency.p50_ms, 2),
                util::FormatDouble(result.latency.p95_ms, 2),
                util::FormatDouble(result.latency.p99_ms, 2)});
  table.Print();
  std::printf("shed ladder: %d full, %d budget-capped, %d fallback, "
              "%d rejected (peak depth %lld)\n",
              result.shed_none, result.shed_budget_cap, result.shed_fallback,
              result.rejected,
              static_cast<long long>(
                  result.frontend_stats.admission.peak_depth));
  DumpArtifact("BENCH_serving.json", ServingJson(result) + "\n");

  // The acceptance criteria, enforced on every run of the driver.
  CROWDRTSE_CHECK(result.failed == 0);  // zero failed queries
  CROWDRTSE_CHECK(result.ok + result.rejected == result.attempts);  // no
  // silent drops: every frame got exactly one explicit response
  CROWDRTSE_CHECK(result.shed_none + result.shed_budget_cap +
                      result.shed_fallback ==
                  result.ok);
  CROWDRTSE_CHECK(result.shed_budget_cap + result.shed_fallback > 0);
  CROWDRTSE_CHECK(result.achieved_qps >= 1000.0);
  CROWDRTSE_CHECK(stack.engine->stats().queries_failed == 0);
  CROWDRTSE_CHECK(stack.ledger->reserved_outstanding() == 0);
  std::printf("open loop OK: %.0f answered QPS, every query accounted\n",
              result.achieved_qps);
}

void Run() {
  std::printf("=== Concurrent serving bench — a day of queries, N clients"
              " ===\n");
  WorldOptions options;
  options.num_roads = 300;
  options.num_days = 10;
  const SemiSyntheticWorld world = BuildWorld(options);
  auto system = core::CrowdRtse::BuildOffline(world.network, world.history,
                                              core::CrowdRtseConfig{});
  CROWDRTSE_CHECK(system.ok());
  // Warm the per-slot correlation cache once, as a deployed service would
  // during rollout, so every thread count measures serving rather than the
  // one-time offline closure computation.
  std::printf("warming correlation closures for %d slots...\n",
              traffic::kSlotsPerDay / kSlotStride);
  for (int slot = 0; slot < traffic::kSlotsPerDay; slot += kSlotStride) {
    CROWDRTSE_CHECK(system->CorrelationsFor(slot).ok());
  }

  eval::TablePrinter table({"clients", "queries", "QPS", "client p50 ms",
                            "client p95 ms", "client p99 ms", "spend"});
  for (int clients : {1, 2, 4, 8}) {
    const LoadResult result = ReplayDay(*system, world, clients);
    table.AddRow({std::to_string(clients), std::to_string(result.attempts),
                  util::FormatDouble(static_cast<double>(result.attempts) /
                                         result.wall_seconds,
                                     1),
                  util::FormatDouble(result.client_latency.p50_ms, 2),
                  util::FormatDouble(result.client_latency.p95_ms, 2),
                  util::FormatDouble(result.client_latency.p99_ms, 2),
                  std::to_string(result.total_spent)});
    if (clients == 8) {
      std::printf("\nper-phase latency at 8 clients:\n%s\n%s\n",
                  result.stats.Report().c_str(),
                  result.ledger_report.c_str());
      DumpArtifact("bench_concurrent_serving_stats.json",
                   result.stats_json + "\n");
    }
  }
  table.Print();

  std::printf("\n=== Fault storm — 30%% drop + 20%% delay, SimClock ===\n");
  eval::TablePrinter fault_table({"clients", "queries", "max span ms",
                                  "roads degraded", "retries", "spend"});
  for (int clients : {1, 4}) {
    const FaultedResult faulted = ReplayFaultedDay(*system, world, clients);
    fault_table.AddRow(
        {std::to_string(clients), std::to_string(faulted.attempts),
         util::FormatDouble(faulted.max_span_ms, 2),
         std::to_string(faulted.stats.roads_degraded),
         std::to_string(faulted.stats.crowd_retries),
         std::to_string(faulted.total_spent)});
    if (clients == 4) {
      DumpArtifact("bench_fault_storm_stats.json", faulted.stats_json + "\n");
    }
  }
  fault_table.Print();

  // A fully sampled pass (every query traced) exports the Chrome trace and
  // the Prometheus exposition — the CI smoke artifacts. The ring is sized
  // to the day, so the export must cover every query.
  std::printf("\ntracing the 1-client fault storm at sample rate 1.0...\n");
  const FaultedResult traced = ReplayFaultedDay(*system, world, 1, 1.0);
  CROWDRTSE_CHECK(traced.traces_collected == traced.attempts);
  DumpArtifact("bench_fault_storm_trace.json", traced.chrome_trace);
  DumpArtifact("bench_fault_storm_metrics.prom", traced.prometheus);
  std::printf("slowest traced queries:\n%s",
              traced.slow_query_report.c_str());

  // Same seed, fresh engine: the faulted day must replay bit-identically.
  std::printf("replaying the 1-client fault storm for determinism...\n");
  const FaultedResult a = ReplayFaultedDay(*system, world, 1);
  const FaultedResult b = ReplayFaultedDay(*system, world, 1);
  CROWDRTSE_CHECK(a.speeds_trace.size() == b.speeds_trace.size());
  for (size_t i = 0; i < a.speeds_trace.size(); ++i) {
    CROWDRTSE_CHECK(a.speeds_trace[i] == b.speeds_trace[i]);  // bitwise
  }
  CROWDRTSE_CHECK(a.degraded_trace == b.degraded_trace);
  CROWDRTSE_CHECK(a.total_spent == b.total_spent);
  // Tracing must be an observer, not a participant: the fully sampled pass
  // above served the same day and must have produced the same answers.
  CROWDRTSE_CHECK(traced.speeds_trace == a.speeds_trace);
  CROWDRTSE_CHECK(traced.degraded_trace == a.degraded_trace);
  std::printf("replay OK: %zu answers bit-identical, %zu degraded roads, "
              "max span %.2f ms\n",
              a.speeds_trace.size(), a.degraded_trace.size(),
              a.max_span_ms);

  // The flight recorder's overhead contract (DESIGN.md §10): recording
  // must be an observer — answers bit-identical with the recorder on and
  // off — and must stay within 2% of the recorder-off wall time.
  // Interleaved on/off reps, min-of-3 each, so machine noise (frequency
  // drift, a background task) hits both sides alike.
  std::printf("\n=== Flight recorder — on vs off, interleaved min-of-3"
              " ===\n");
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const bool recorder_was_enabled = recorder.enabled();
  double best_on_seconds = 0.0;
  double best_off_seconds = 0.0;
  FaultedResult recorder_on;
  FaultedResult recorder_off;
  for (int rep = 0; rep < 3; ++rep) {
    recorder.SetEnabled(true);
    auto start = std::chrono::steady_clock::now();
    FaultedResult on = ReplayFaultedDay(*system, world, 1);
    const double on_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    recorder.SetEnabled(false);
    start = std::chrono::steady_clock::now();
    FaultedResult off = ReplayFaultedDay(*system, world, 1);
    const double off_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (rep == 0 || on_seconds < best_on_seconds) {
      best_on_seconds = on_seconds;
    }
    if (rep == 0 || off_seconds < best_off_seconds) {
      best_off_seconds = off_seconds;
    }
    recorder_on = std::move(on);
    recorder_off = std::move(off);
  }
  recorder.SetEnabled(recorder_was_enabled);
  CROWDRTSE_CHECK(recorder_on.speeds_trace == recorder_off.speeds_trace);
  CROWDRTSE_CHECK(recorder_on.speeds_trace == a.speeds_trace);  // bitwise
  CROWDRTSE_CHECK(recorder_on.degraded_trace == recorder_off.degraded_trace);
  CROWDRTSE_CHECK(recorder_on.total_spent == recorder_off.total_spent);
  const double overhead =
      best_off_seconds > 0.0
          ? (best_on_seconds - best_off_seconds) / best_off_seconds
          : 0.0;
  std::printf("recorder on %.3fs  off %.3fs  overhead %+.2f%%  "
              "(%lld events recorded)\n",
              best_on_seconds, best_off_seconds, overhead * 100.0,
              static_cast<long long>(recorder.recorded()));
  // 2% relative plus 10 ms absolute slack so sub-second runs on noisy CI
  // machines cannot fail on scheduler jitter alone.
  CROWDRTSE_CHECK(best_on_seconds <= best_off_seconds * 1.02 + 0.010);

  RunSocketServing();
}

}  // namespace
}  // namespace crowdrtse::bench

int main() {
  crowdrtse::bench::Run();
  return 0;
}
