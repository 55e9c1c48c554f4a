// Metropolitan-scale sharding sweep: one synthetic metro network (60k-600k
// roads), partitioned K ways, served by ShardedEngine under closed-loop
// client load. For each shard count the driver replays the same localized
// query mix and reports answered QPS, so the sweep isolates what sharding
// buys: per-shard worker registries (the O(workers) coverage scan shrinks
// K-fold), per-shard Gamma_R caches, and K independent crowd-phase locks.
//
// Invariants checked every configuration, strict mode additionally gates
// on near-linear scaling:
//   - zero failed queries; served + rejected == attempts (no silent drops);
//   - with the unlimited campaign here, rejected == 0 as well;
//   - the global ledger settles every reservation (outstanding == 0) and
//     its spend equals the sum of per-response payments;
//   - partition balance <= 1.2, every configuration;
//   - strict (default): answered QPS at the largest K >= 3x the K=1 QPS.
//
// Artifacts: BENCH_scale.json (the sweep as one JSON object) next to the
// binary, or wherever --out points.
//
// Flags: --roads=N --shards=1,4 --clients=8 --queries=N --halo=5
//        --out=PATH --no-strict
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "partition/partition.h"
#include "partition/partitioner.h"
#include "server/budget_ledger.h"
#include "server/sharded_engine.h"
#include "traffic/history_store.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace crowdrtse::bench {
namespace {

struct Flags {
  int roads = 60000;
  std::vector<int> shards = {1, 4};
  int clients = 8;
  int queries = 1600;
  int halo = 5;
  std::string out = "BENCH_scale.json";
  bool strict = true;
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto int_flag = [&arg](const char* name, int* value) {
      const std::string prefix = std::string(name) + "=";
      if (arg.rfind(prefix, 0) == 0) {
        *value = std::atoi(arg.c_str() + prefix.size());
        return true;
      }
      return false;
    };
    if (int_flag("--roads", &flags.roads)) continue;
    if (int_flag("--clients", &flags.clients)) continue;
    if (int_flag("--queries", &flags.queries)) continue;
    if (int_flag("--halo", &flags.halo)) continue;
    if (arg.rfind("--shards=", 0) == 0) {
      flags.shards.clear();
      for (const std::string& part : util::Split(arg.substr(9), ',')) {
        flags.shards.push_back(std::atoi(part.c_str()));
      }
      continue;
    }
    if (arg.rfind("--out=", 0) == 0) {
      flags.out = arg.substr(6);
      continue;
    }
    if (arg == "--no-strict") {
      flags.strict = false;
      continue;
    }
    std::printf("unknown flag: %s\n", arg.c_str());
    std::exit(2);
  }
  CROWDRTSE_CHECK(!flags.shards.empty());
  return flags;
}

constexpr int kSlots = 8;  // a short synthetic day keeps history cheap
constexpr int kDays = 3;
constexpr int kQuerySize = 4;
constexpr int kPerQueryCap = 12;

/// Deterministic synthetic speed field: a west-east congestion gradient
/// with per-slot waves and day-to-day jitter (so moment estimation sees
/// real variance). All values stay comfortably positive.
double SpeedAt(int day, int slot, graph::RoadId road, double x) {
  const double base = 30.0 + 40.0 * x;
  const double wave = 6.0 * std::sin(0.7 * slot + 0.01 * road);
  const double jitter =
      1.5 * (((day * 7 + slot * 3 + road) % 5) - 2);
  return base + wave + jitter;
}

struct SweepPoint {
  int shards = 0;
  double partition_seconds = 0.0;
  double build_seconds = 0.0;
  double wall_seconds = 0.0;
  double answered_qps = 0.0;
  int64_t served = 0;
  int64_t rejected = 0;
  int64_t failed = 0;
  int64_t cross_shard = 0;
  int64_t paid = 0;
  int64_t edge_cut = 0;
  double balance_ratio = 0.0;
};

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

void Run(const Flags& flags) {
  std::printf("=== bench_scale: %d roads, shards {", flags.roads);
  for (size_t i = 0; i < flags.shards.size(); ++i) {
    std::printf("%s%d", i ? "," : "", flags.shards[i]);
  }
  std::printf("}, %d clients, %d queries ===\n", flags.clients,
              flags.queries);

  graph::MetroNetworkOptions metro;
  metro.num_roads = flags.roads;
  std::vector<std::pair<double, double>> positions;
  util::Timer gen_timer;
  const auto graph = graph::MetroNetwork(metro, &positions);
  CROWDRTSE_CHECK(graph.ok());
  const int n = graph->num_roads();
  std::printf("metro network: %d roads, %d edges (%.2fs)\n", n,
              graph->num_edges(), gen_timer.ElapsedSeconds());

  traffic::HistoryStore history(n, kDays, kSlots);
  traffic::DayMatrix truth(kSlots, n);
  for (int slot = 0; slot < kSlots; ++slot) {
    for (graph::RoadId r = 0; r < n; ++r) {
      const double x = positions[static_cast<size_t>(r)].first;
      for (int day = 0; day < kDays; ++day) {
        history.At(day, slot, r) = SpeedAt(day, slot, r, x);
      }
      truth.At(slot, r) = SpeedAt(kDays, slot, r, x);  // "today"
    }
  }

  core::CrowdRtseConfig config;
  config.correlation_hop_radius = 2;
  config.gsp.hop_limit = 2;
  config.prune_zero_gain_candidates = true;

  const crowd::CostModel costs = crowd::CostModel::Constant(n, 2);
  std::vector<crowd::Worker> workers;
  workers.reserve(static_cast<size_t>(n) * 2);
  crowd::WorkerId next_id = 0;
  for (graph::RoadId r = 0; r < n; ++r) {
    for (int k = 0; k < 2; ++k) {
      crowd::Worker w;
      w.id = next_id++;
      w.road = r;
      w.bias = 1.0;
      w.noise_kmh = 0.0;
      workers.push_back(w);
    }
  }
  crowd::CrowdSimOptions crowd_options;
  crowd_options.min_bias = 1.0;
  crowd_options.max_bias = 1.0;
  crowd_options.min_noise_kmh = 0.0;
  crowd_options.max_noise_kmh = 0.0;
  crowd_options.outlier_rate = 0.0;

  std::vector<SweepPoint> sweep;
  for (const int num_shards : flags.shards) {
    SweepPoint point;
    point.shards = num_shards;

    partition::PartitionerOptions partition_options;
    partition_options.num_shards = num_shards;
    partition_options.halo_radius = flags.halo;
    partition_options.seed = 17;
    util::Timer partition_timer;
    const auto partition =
        partition::PartitionByGeography(*graph, positions,
                                        partition_options);
    CROWDRTSE_CHECK(partition.ok());
    point.partition_seconds = partition_timer.ElapsedSeconds();
    point.edge_cut = partition::EdgeCut(*graph, *partition);
    point.balance_ratio = partition->BalanceRatio();
    CROWDRTSE_CHECK(point.balance_ratio <= 1.2);

    server::BudgetLedger ledger(/*campaign_budget=*/-1, kPerQueryCap);
    server::ShardedEngineOptions engine_options;
    engine_options.crowd = crowd_options;
    util::Timer build_timer;
    auto engine = server::ShardedEngine::Create(
        *graph, *partition, history, config, costs, workers, ledger, truth,
        engine_options);
    CROWDRTSE_CHECK(engine.ok());
    point.build_seconds = build_timer.ElapsedSeconds();
    std::printf(
        "K=%d: partition %.2fs (cut %lld, balance %.3f), build %.2fs\n",
        num_shards, point.partition_seconds,
        static_cast<long long>(point.edge_cut), point.balance_ratio,
        point.build_seconds);

    // Closed-loop clients replay the same deterministic localized query
    // mix: 4 geographically adjacent roads per query, spread across the
    // whole city, slots rotating through the day.
    std::atomic<int64_t> attempts{0};
    std::atomic<int64_t> total_response_paid{0};
    util::Timer wall;
    std::vector<std::thread> clients;
    const int per_client =
        (flags.queries + flags.clients - 1) / flags.clients;
    for (int c = 0; c < flags.clients; ++c) {
      clients.emplace_back([&, c] {
        const int begin = c * per_client;
        const int end = std::min(flags.queries, begin + per_client);
        for (int q = begin; q < end; ++q) {
          server::QueryRequest request;
          request.slot = q % kSlots;
          const graph::RoadId base = static_cast<graph::RoadId>(
              (static_cast<int64_t>(q) * 9973) %
              static_cast<int64_t>(n - kQuerySize));
          for (int k = 0; k < kQuerySize; ++k) {
            request.queried.push_back(base + k);
          }
          attempts.fetch_add(1, std::memory_order_relaxed);
          const auto response = (*engine)->Serve(request, truth);
          CROWDRTSE_CHECK(response.ok());
          total_response_paid.fetch_add(response->paid,
                                        std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    point.wall_seconds = wall.ElapsedSeconds();

    const server::EngineStats stats = (*engine)->stats();
    point.served = stats.queries_served;
    point.rejected = stats.queries_rejected;
    point.failed = stats.queries_failed;
    point.paid = stats.total_paid;
    point.answered_qps =
        static_cast<double>(point.served) / point.wall_seconds;
    int64_t sub_served = 0;
    for (const server::ShardStats& shard : stats.shards) {
      std::printf("  shard[%d]: served %lld, gamma bytes %lld\n",
                  shard.shard, static_cast<long long>(shard.queries_served),
                  static_cast<long long>(shard.gamma_cache_bytes));
      sub_served += shard.queries_served;
    }
    // Each multi-owner query runs one sub-serve per owner shard, so the
    // sub-serve surplus over router serves counts the extra fan-out groups.
    point.cross_shard = std::max<int64_t>(0, sub_served - point.served);

    // The accounting invariants the sweep certifies at every K.
    CROWDRTSE_CHECK(point.failed == 0);
    CROWDRTSE_CHECK(point.rejected == 0);
    CROWDRTSE_CHECK(point.served + point.rejected == attempts.load());
    CROWDRTSE_CHECK(ledger.reserved_outstanding() == 0);
    CROWDRTSE_CHECK(ledger.total_spent() == total_response_paid.load());
    CROWDRTSE_CHECK(ledger.total_spent() == point.paid);

    std::printf("K=%d: %lld served in %.2fs -> %.1f answered QPS\n",
                num_shards, static_cast<long long>(point.served),
                point.wall_seconds, point.answered_qps);
    (*engine)->Drain();
    sweep.push_back(point);
  }

  double ratio = 0.0;
  const auto base_point =
      std::find_if(sweep.begin(), sweep.end(),
                   [](const SweepPoint& p) { return p.shards == 1; });
  const auto peak_point = std::max_element(
      sweep.begin(), sweep.end(), [](const SweepPoint& a,
                                     const SweepPoint& b) {
        return a.shards < b.shards;
      });
  if (base_point != sweep.end() && peak_point != sweep.end() &&
      peak_point->shards > 1) {
    ratio = peak_point->answered_qps / base_point->answered_qps;
    std::printf("scaling 1 -> %d shards: %.2fx answered QPS\n",
                peak_point->shards, ratio);
  }

  std::string json = "{\n";
  json += "  \"bench\": \"scale\",\n";
  json += "  \"roads\": " + std::to_string(flags.roads) + ",\n";
  json += "  \"clients\": " + std::to_string(flags.clients) + ",\n";
  json += "  \"queries\": " + std::to_string(flags.queries) + ",\n";
  json += "  \"halo_radius\": " + std::to_string(flags.halo) + ",\n";
  json += "  \"sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    json += "    {\"shards\": " + std::to_string(p.shards) +
            ", \"partition_seconds\": " +
            util::FormatDouble(p.partition_seconds, 3) +
            ", \"build_seconds\": " +
            util::FormatDouble(p.build_seconds, 3) +
            ", \"edge_cut\": " + std::to_string(p.edge_cut) +
            ", \"balance_ratio\": " +
            util::FormatDouble(p.balance_ratio, 4) +
            ", \"wall_seconds\": " +
            util::FormatDouble(p.wall_seconds, 3) +
            ", \"answered_qps\": " +
            util::FormatDouble(p.answered_qps, 1) +
            ", \"served\": " + std::to_string(p.served) +
            ", \"rejected\": " + std::to_string(p.rejected) +
            ", \"failed\": " + std::to_string(p.failed) +
            ", \"paid\": " + std::to_string(p.paid) + "}";
    json += (i + 1 < sweep.size()) ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"qps_ratio_1_to_max\": " + util::FormatDouble(ratio, 3) +
          "\n";
  json += "}\n";
  DumpArtifact(flags.out, json);

  if (flags.strict && ratio > 0.0) {
    CROWDRTSE_CHECK(ratio >= 3.0);
    std::printf("strict scaling gate passed (%.2fx >= 3x)\n", ratio);
  }
}

}  // namespace
}  // namespace crowdrtse::bench

int main(int argc, char** argv) {
  crowdrtse::bench::Run(crowdrtse::bench::ParseFlags(argc, argv));
  return 0;
}
