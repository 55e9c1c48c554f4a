// Serving smoke checker (CI): boots the network front-end over a real
// QueryEngine, drives queries over both wire protocols, and validates the
// whole serve path end to end —
//   * HTTP/1.1 queries answer with well-formed JSON (status, shed level,
//     speeds aligned with the asked roads);
//   * pipelined binary frames on the same port answer frame-for-frame;
//   * /healthz, /metrics, /metrics.json and /stats agree with the number
//     of queries actually served (the Prometheus counter, the JSON
//     rendering, and the front-end report are cross-checked), and /metrics
//     carries stage-timer samples with tracing off;
//   * the admin channel round-trips a knob (get / set / get) and "drain"
//     flips the front-end into explicit 503 "draining" rejections while
//     the observability GETs keep serving;
//   * a burst against a deliberately tiny admission queue degrades before
//     it drops: every request receives exactly one explicit response, and
//     the shed ladder (none / budget_cap / periodic_fallback / reject)
//     accounts for all of them.
// Exits nonzero after printing every violation, so CI gets a complete
// diagnosis in one run. The /metrics scrape and /metrics.json body are
// left next to the binary for upload.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "semi_synthetic.h"
#include "net/frame.h"
#include "net/http.h"
#include "net/json.h"
#include "net/socket.h"
#include "server/budget_ledger.h"
#include "server/frontend.h"
#include "server/query_engine.h"
#include "server/worker_registry.h"
#include "util/logging.h"
#include "util/rng.h"

namespace crowdrtse::tools {
namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (ok) return;
  std::printf("FAIL: %s\n", what.c_str());
  ++g_failures;
}

void WriteArtifact(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  Check(file != nullptr, "cannot write artifact " + path);
  if (file == nullptr) return;
  std::fwrite(content.data(), 1, content.size(), file);
  std::fclose(file);
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
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

util::Status Post(int fd, const std::string& target, const std::string& body,
                  int* status, std::string* response_body) {
  const std::string wire = "POST " + target + " HTTP/1.1\r\nContent-Length: " +
                           std::to_string(body.size()) + "\r\n\r\n" + body;
  CROWDRTSE_RETURN_IF_ERROR(net::WriteAll(fd, wire));
  return net::ReadHttpResponse(fd, status, response_body);
}

util::Status Get(int fd, const std::string& target, int* status,
                 std::string* response_body) {
  CROWDRTSE_RETURN_IF_ERROR(
      net::WriteAll(fd, "GET " + target + " HTTP/1.1\r\n\r\n"));
  return net::ReadHttpResponse(fd, status, response_body);
}

/// Reads one length-prefixed frame off a blocking fd and returns its
/// payload; an empty result already registered the failure.
std::string ReadFrame(int fd) {
  std::string header;
  if (!net::ReadExact(fd, net::kFrameHeaderBytes, &header).ok()) {
    Check(false, "short read on frame header");
    return std::string();
  }
  uint32_t magic = 0, length = 0;
  std::memcpy(&magic, header.data(), 4);
  std::memcpy(&length, header.data() + 4, 4);
  Check(magic == net::kFrameMagic, "frame response has bad magic");
  std::string payload;
  if (!net::ReadExact(fd, length, &payload).ok()) {
    Check(false, "short read on frame payload");
    return std::string();
  }
  return payload;
}

/// Validates one successful /query response body; returns the parsed shed
/// level name ("" on malformed).
std::string ValidateQueryResponse(const std::string& body, int64_t want_id,
                                  size_t want_roads) {
  const auto doc = net::json::Parse(body);
  Check(doc.ok(), "query response is not valid JSON: " + body);
  if (!doc.ok()) return std::string();
  Check(doc->Find("status") != nullptr &&
            doc->Find("status")->AsString() == "ok",
        "query response status is not ok: " + body);
  Check(doc->Find("id") != nullptr && *doc->Find("id")->AsInt() == want_id,
        "query response id mismatch: " + body);
  const auto* speeds = doc->Find("speeds");
  Check(speeds != nullptr && speeds->AsArray().size() == want_roads,
        "query response speeds misaligned with the asked roads: " + body);
  if (speeds != nullptr) {
    for (const auto& s : speeds->AsArray()) {
      Check(s.AsDouble() > 0.0 && s.AsDouble() < 200.0,
            "query speed out of range: " + body);
    }
  }
  const auto* shed = doc->Find("shed");
  Check(shed != nullptr, "query response lacks a shed level: " + body);
  return shed != nullptr ? shed->AsString() : std::string();
}

int Run(const std::string& prom_path, const std::string& json_path) {
  // A small world keeps the smoke fast; the serving surface is the same.
  bench::WorldOptions world_options;
  world_options.num_roads = 120;
  world_options.num_days = 6;
  const bench::SemiSyntheticWorld world = bench::BuildWorld(world_options);
  auto system =
      core::CrowdRtse::BuildOffline(world.network, world.history, {});
  CROWDRTSE_CHECK(system.ok());

  server::WorkerRegistryOptions registry_options;
  registry_options.num_workers = world.network.num_roads() * 3;
  server::WorkerRegistry registry(world.network, registry_options, 5);
  const crowd::CostModel costs =
      crowd::CostModel::Constant(world.network.num_roads(), 2);
  server::BudgetLedger ledger(-1, /*per_query_cap=*/20);
  crowd::CrowdSimulator crowd_sim({}, util::Rng(9));
  server::QueryEngine engine(*system, registry, ledger, costs, crowd_sim);

  server::FrontendOptions options;
  options.num_workers = 2;
  server::Frontend frontend(engine, world.truth, options);
  CROWDRTSE_CHECK(frontend.Start().ok());
  std::printf("front-end listening on 127.0.0.1:%u\n", frontend.port());

  // --- HTTP protocol: liveness, then a handful of full-service queries.
  auto http = net::ConnectLocal(frontend.port());
  CROWDRTSE_CHECK(http.ok());
  int status = 0;
  std::string body;
  Check(Get(http->get(), "/healthz", &status, &body).ok() && status == 200 &&
            body == "ok\n",
        "/healthz did not answer ok");

  constexpr int kHttpQueries = 6;
  for (int q = 0; q < kHttpQueries; ++q) {
    const auto roads =
        bench::MakeQuery(world, 12, 300 + static_cast<uint64_t>(q));
    const int slot = 40 * (q + 1);
    Check(
        Post(http->get(), "/query", QueryJson(q, slot, roads), &status, &body)
            .ok(),
        "HTTP query transport failed");
    Check(status == 200, "HTTP query status " + std::to_string(status));
    const std::string shed = ValidateQueryResponse(body, q, roads.size());
    Check(shed == "none",
          "unloaded query was shed at level '" + shed + "'");
  }
  std::printf("http: %d queries served\n", kHttpQueries);

  // --- Frame protocol: pipeline every request, then match responses back
  // by id (workers complete out of order).
  auto framed = net::ConnectLocal(frontend.port());
  CROWDRTSE_CHECK(framed.ok());
  constexpr int kFrameQueries = 4;
  std::map<int64_t, size_t> frame_sizes;
  std::string wire;
  for (int q = 0; q < kFrameQueries; ++q) {
    const int64_t id = 100 + q;
    const auto roads =
        bench::MakeQuery(world, 10, 400 + static_cast<uint64_t>(q));
    frame_sizes[id] = roads.size();
    wire += net::EncodeFrame(QueryJson(id, 60, roads));
  }
  Check(net::WriteAll(framed->get(), wire).ok(), "frame pipeline write failed");
  for (int q = 0; q < kFrameQueries; ++q) {
    const std::string payload = ReadFrame(framed->get());
    if (payload.empty()) continue;
    const auto doc = net::json::Parse(payload);
    Check(doc.ok(), "frame payload is not valid JSON: " + payload);
    if (!doc.ok()) continue;
    const auto* id = doc->Find("id");
    Check(id != nullptr && frame_sizes.count(*id->AsInt()) == 1,
          "frame response id unknown: " + payload);
    if (id == nullptr || frame_sizes.count(*id->AsInt()) != 1) continue;
    ValidateQueryResponse(payload, *id->AsInt(),
                          frame_sizes[*id->AsInt()]);
    frame_sizes.erase(*id->AsInt());
  }
  Check(frame_sizes.empty(), "not every pipelined frame was answered");
  std::printf("frames: %d pipelined queries answered\n", kFrameQueries);

  // --- Observability: the scrape, the JSON rendering, and the report must
  // all agree with what was just served.
  const int64_t served = engine.stats().queries_served;
  Check(served == kHttpQueries + kFrameQueries,
        "engine served " + std::to_string(served) + " queries, drove " +
            std::to_string(kHttpQueries + kFrameQueries));

  std::string prometheus;
  Check(Get(http->get(), "/metrics", &status, &prometheus).ok() &&
            status == 200,
        "/metrics scrape failed");
  const std::string want_counter =
      "crowdrtse_queries_served_total " + std::to_string(served);
  Check(prometheus.find(want_counter) != std::string::npos,
        "/metrics lacks '" + want_counter + "'");
  Check(prometheus.find("# TYPE crowdrtse_serve_latency_ms histogram") !=
            std::string::npos,
        "/metrics lacks the serve latency histogram");
  // The stage timer is always on: with tracing off, the served queries
  // still recorded their OCS selection.
  const std::string ocs_count =
      "crowdrtse_stage_wall_ms_count{stage=\"ocs.select\"} ";
  const size_t ocs_at = prometheus.find(ocs_count);
  Check(ocs_at != std::string::npos &&
            std::atoll(prometheus.c_str() + ocs_at + ocs_count.size()) > 0,
        "/metrics has no ocs.select stage samples");

  std::string metrics_json;
  Check(Get(http->get(), "/metrics.json", &status, &metrics_json).ok() &&
            status == 200,
        "/metrics.json failed");
  const auto metrics = net::json::Parse(metrics_json);
  Check(metrics.ok(), "/metrics.json is not valid JSON");
  if (metrics.ok()) {
    const auto* counter = metrics->Find("crowdrtse_queries_served_total");
    Check(counter != nullptr && *counter->AsInt() == served,
          "/metrics.json served counter disagrees with the engine");
  }

  Check(Get(http->get(), "/stats", &status, &body).ok() && status == 200 &&
            body.find("Frontend:") != std::string::npos,
        "/stats lacks the front-end report");
  const server::FrontendStats fstats = frontend.stats();
  Check(fstats.queries_received == kHttpQueries + kFrameQueries,
        "front-end counted " + std::to_string(fstats.queries_received) +
            " queries");
  Check(fstats.frame_requests >= kFrameQueries,
        "front-end frame counter too low");
  WriteArtifact(prom_path, prometheus);
  WriteArtifact(json_path, metrics_json);

  // --- Admin channel: knob round-trip.
  Check(Post(http->get(), "/admin", "get capacity", &status, &body).ok() &&
            status == 200 && body == "capacity = 64\n",
        "admin 'get capacity' answered '" + body + "'");
  Check(Post(http->get(), "/admin", "set shed_low 3", &status, &body).ok() &&
            status == 200 && body == "ok: shed_low = 3\n",
        "admin 'set shed_low 3' answered '" + body + "'");
  Check(Post(http->get(), "/admin", "get shed_low", &status, &body).ok() &&
            body == "shed_low = 3\n",
        "admin knob did not stick: '" + body + "'");
  Check(Post(http->get(), "/admin", "bogus", &status, &body).ok() &&
            body.rfind("error:", 0) == 0,
        "admin accepted an unknown command: '" + body + "'");

  // --- Overload: a second front-end with a tiny queue and one slow worker.
  // Every concurrent request must come back with exactly one explicit
  // response; the ladder accounts for all of them (degrade before drop).
  server::FrontendOptions tight;
  tight.num_workers = 1;
  tight.admission.capacity = 2;
  tight.admission.shed_low_watermark = 1;
  tight.admission.hard_capacity = 4;
  server::Frontend overloaded(engine, world.truth, tight);
  CROWDRTSE_CHECK(overloaded.Start().ok());
  constexpr int kBurst = 12;
  std::atomic<int> transport_errors{0}, ok_count{0}, rejected{0};
  std::atomic<int> shed_counts[3] = {{0}, {0}, {0}};  // none/cap/fallback
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kBurst; ++c) {
      clients.emplace_back([&, c] {
        auto conn = net::ConnectLocal(overloaded.port());
        if (!conn.ok()) {
          ++transport_errors;
          return;
        }
        const auto roads =
            bench::MakeQuery(world, 8, 500 + static_cast<uint64_t>(c));
        int st = 0;
        std::string resp;
        if (!Post(conn->get(), "/query", QueryJson(c, 80, roads), &st, &resp)
                 .ok()) {
          ++transport_errors;
          return;
        }
        const auto doc = net::json::Parse(resp);
        if (!doc.ok() || doc->Find("status") == nullptr) {
          ++transport_errors;
          return;
        }
        const std::string word = doc->Find("status")->AsString();
        if (word == "ok") {
          ++ok_count;
          const std::string shed = doc->Find("shed")->AsString();
          if (shed == "none") ++shed_counts[0];
          if (shed == "budget_cap") ++shed_counts[1];
          if (shed == "periodic_fallback") ++shed_counts[2];
        } else if (word == "rejected") {
          ++rejected;
        }
      });
    }
    for (std::thread& c : clients) c.join();
  }
  Check(transport_errors.load() == 0, "overload burst lost responses");
  Check(ok_count.load() + rejected.load() == kBurst,
        "overload responses do not account for every request");
  Check(shed_counts[0].load() + shed_counts[1].load() +
                shed_counts[2].load() ==
            ok_count.load(),
        "shed levels do not account for every served query");
  std::printf(
      "overload: %d requests -> %d full, %d budget-capped, %d fallback, "
      "%d rejected, 0 silent\n",
      kBurst, shed_counts[0].load(), shed_counts[1].load(),
      shed_counts[2].load(), rejected.load());
  overloaded.Shutdown();

  // --- Drain: admitted no more, observability still up.
  Check(Post(http->get(), "/admin", "drain", &status, &body).ok() &&
            body.find("draining") != std::string::npos,
        "admin 'drain' answered '" + body + "'");
  Check(Post(http->get(), "/query",
             QueryJson(999, 80, bench::MakeQuery(world, 8, 600)), &status,
             &body)
                .ok() &&
            status == 503,
        "draining front-end did not answer 503");
  const auto drained = net::json::Parse(body);
  Check(drained.ok() && drained->Find("status")->AsString() == "rejected",
        "draining rejection is not explicit: " + body);
  Check(Get(http->get(), "/healthz", &status, &body).ok() && status == 200,
        "/healthz went down during drain");
  frontend.Shutdown();

  if (g_failures > 0) {
    std::printf("serve smoke FAILED: %d violations\n", g_failures);
    return 1;
  }
  std::printf("serve smoke OK: both protocols, observability, admin, "
              "overload ladder, drain\n");
  return 0;
}

}  // namespace
}  // namespace crowdrtse::tools

int main(int argc, char** argv) {
  const std::string prom_path =
      argc > 1 ? argv[1] : "serve_smoke_metrics.prom";
  const std::string json_path =
      argc > 2 ? argv[2] : "serve_smoke_metrics.json";
  return crowdrtse::tools::Run(prom_path, json_path);
}
