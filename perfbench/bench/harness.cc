#include "harness.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <thread>

#include "crowd/task_assignment.h"
#include "net/frame.h"
#include "net/json.h"
#include "net/socket.h"
#include "server/frontend.h"

namespace perfbench {

using cr::graph::RoadId;
using cr::server::QueryRequest;
using Clock = std::chrono::steady_clock;

int ClientThreads() {
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(cores, 1u, 4u));
}

std::vector<double> TimeSetupsInChildren(int children,
                                         const std::function<void()>& setup) {
  std::vector<double> seconds;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t parent = getpid();
  for (int i = 0; i < children; ++i) {
    int fds[2];
    if (pipe(fds) != 0) break;
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      break;
    }
    if (pid == 0) {
      // A child never outlives the run, even when the parent is killed.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(1);
      close(fds[0]);
      const Clock::time_point start = Clock::now();
      setup();
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start).count();
      const ssize_t written = write(fds[1], &elapsed, sizeof(elapsed));
      _exit(written == sizeof(elapsed) ? 0 : 1);
    }
    close(fds[1]);
    double elapsed = 0.0;
    const ssize_t got = read(fds[0], &elapsed, sizeof(elapsed));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (got == sizeof(elapsed) && WIFEXITED(status) &&
        WEXITSTATUS(status) == 0) {
      seconds.push_back(elapsed);
    }
  }
  return seconds;
}

namespace {

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

LoadPass ClosedLoop(cr::server::Engine& engine,
                    const cr::traffic::DayMatrix& world,
                    const std::vector<QueryRequest>& requests, int clients,
                    double seconds, int64_t count, int phase,
                    SpanRecorder* recorder) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::atomic<int64_t> next{0};
  std::vector<std::vector<Outcome>> per_client(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Outcome>& mine = per_client[static_cast<size_t>(c)];
      double previous_done = -1.0;
      for (;;) {
        if (count <= 0 && Clock::now() >= deadline) break;
        const int64_t k = next.fetch_add(1, std::memory_order_relaxed);
        if (count > 0 && k >= count) break;
        const QueryRequest& request =
            requests[static_cast<size_t>(k) % requests.size()];
        Outcome o;
        o.index = k;
        o.phase = phase;
        const double sent = MillisSince(start);
        o.send_lag_ms = previous_done < 0.0 ? 0.0 : sent - previous_done;
        cr::util::Result<cr::server::QueryResponse> response = [&] {
          SpanRecorder::Scope span(recorder, "serve", k);
          return engine.Serve(request, world);
        }();
        previous_done = MillisSince(start);
        o.latency_ms = previous_done - sent;
        if (response.ok()) {
          o.kind = Outcome::Kind::kServed;
          o.query_id = response->query_id;
          o.speeds = std::move(response->queried_speeds);
          o.probed = std::move(response->probed_roads);
          o.paid = response->paid;
          o.ape_sum = AbsPctErrorSum(request, o.speeds, world);
        } else {
          const auto code = response.status().code();
          o.kind = code == cr::util::StatusCode::kFailedPrecondition ||
                           code == cr::util::StatusCode::kInvalidArgument
                       ? Outcome::Kind::kRejected
                       : Outcome::Kind::kFailed;
        }
        mine.push_back(std::move(o));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadPass pass;
  pass.wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (auto& outcomes : per_client) {
    for (Outcome& o : outcomes) pass.outcomes.push_back(std::move(o));
  }
  std::sort(pass.outcomes.begin(), pass.outcomes.end(),
            [](const Outcome& a, const Outcome& b) {
              return a.index < b.index;
            });
  return pass;
}

void WarmUpClosedLoop(cr::server::Engine& engine,
                      const cr::traffic::DayMatrix& world,
                      const std::vector<QueryRequest>& requests,
                      int64_t* serves, int64_t* paid) {
  const LoadPass warm = ClosedLoop(engine, world, requests, ClientThreads(),
                                   kWarmupSeconds, 0, 0, nullptr);
  *serves += static_cast<int64_t>(warm.outcomes.size());
  for (const Outcome& o : warm.outcomes) *paid += o.paid;
}

const std::vector<std::string>& WalkLayerSpans() {
  static const std::vector<std::string> names = {
      "ledger.reserve", "registry.covered_roads", "rtf.gamma_lookup",
      "ocs.select",     "crowd.assign",           "crowd.probe",
      "gsp.propagate",  "ledger.settle"};
  return names;
}

WalkAnswer Walk(const WalkParts& parts, const QueryRequest& request,
                int64_t walk_id, SpanRecorder* recorder) {
  WalkAnswer answer;
  SpanRecorder::Scope root(recorder, "walk", walk_id);
  std::vector<RoadId> queried = request.queried;
  std::sort(queried.begin(), queried.end());
  queried.erase(std::unique(queried.begin(), queried.end()), queried.end());

  int budget = 0;
  {
    SpanRecorder::Scope span(recorder, "ledger.reserve", walk_id);
    budget = parts.ledger->Reserve(walk_id);
  }
  if (budget <= 0) {
    answer.error = "ledger granted no budget";
    return answer;
  }
  const int spend_budget = request.budget_cap > 0
                               ? std::min(budget, request.budget_cap)
                               : budget;
  std::vector<RoadId> worker_roads;
  {
    SpanRecorder::Scope span(recorder, "registry.covered_roads", walk_id);
    worker_roads = parts.registry->CoveredRoads();
  }
  answer.worker_roads = static_cast<int>(worker_roads.size());
  bool gamma_ok = false;
  {
    SpanRecorder::Scope span(recorder, "rtf.gamma_lookup", walk_id);
    gamma_ok = parts.system->CorrelationsFor(request.slot).ok();
  }
  cr::util::Result<cr::ocs::OcsSolution> selection = [&] {
    SpanRecorder::Scope span(recorder, "ocs.select", walk_id);
    return parts.system->SelectRoads(request.slot, queried, worker_roads,
                                     *parts.costs, spend_budget,
                                     request.selector);
  }();
  cr::util::Result<cr::crowd::AssignmentPlan> plan =
      cr::util::Status::InvalidArgument("not run");
  if (selection.ok()) {
    answer.selected = static_cast<int>(selection->roads.size());
    SpanRecorder::Scope span(recorder, "crowd.assign", walk_id);
    plan = cr::crowd::AssignTasks(selection->roads, *parts.costs,
                                  parts.registry->workers());
  }
  cr::util::Result<cr::crowd::CrowdRound> round =
      cr::util::Status::InvalidArgument("not run");
  if (plan.ok()) {
    answer.assignments = static_cast<int>(plan->assignments.size());
    answer.underfilled = static_cast<int>(plan->underfilled_roads.size());
    SpanRecorder::Scope span(recorder, "crowd.probe", walk_id);
    round = parts.crowd_sim->ProbeWithAssignments(
        *plan, parts.registry->workers(), *parts.world, request.slot);
  }
  std::vector<double> probed_speeds;
  cr::util::Result<cr::gsp::GspResult> estimate =
      cr::util::Status::InvalidArgument("not run");
  if (round.ok()) {
    answer.paid = round->total_paid;
    for (const cr::crowd::ProbeResult& p : round->probes) {
      answer.probed.push_back(p.road);
      probed_speeds.push_back(p.probed_kmh);
    }
    SpanRecorder::Scope span(recorder, "gsp.propagate", walk_id);
    estimate = parts.propagator->Propagate(request.slot, answer.probed,
                                           probed_speeds);
  }
  {
    SpanRecorder::Scope span(recorder, "ledger.settle", walk_id);
    const cr::util::Status settled =
        parts.ledger->Settle(walk_id, budget, answer.paid);
    if (!settled.ok()) answer.error = "settle: " + settled.message();
  }
  if (!gamma_ok || !estimate.ok()) {
    answer.error = "a layer call failed";
    return answer;
  }
  answer.sweeps = estimate->sweeps;
  for (RoadId r : request.queried) {
    answer.speeds.push_back(estimate->speeds[static_cast<size_t>(r)]);
  }
  answer.ok = answer.error.empty();
  return answer;
}

bool SameAnswer(const Outcome& served, const std::vector<double>& speeds,
                const std::vector<RoadId>& probed, int paid) {
  if (served.speeds.size() != speeds.size()) return false;
  for (size_t i = 0; i < speeds.size(); ++i) {
    // Bitwise: the same bits, not merely close values.
    if (std::memcmp(&served.speeds[i], &speeds[i], sizeof(double)) != 0) {
      return false;
    }
  }
  return served.probed == probed && served.paid == paid;
}

double AbsPctErrorSum(const QueryRequest& request,
                      const std::vector<double>& speeds,
                      const cr::traffic::DayMatrix& truth) {
  double sum = 0.0;
  for (size_t i = 0; i < request.queried.size() && i < speeds.size(); ++i) {
    const double real = truth.At(request.slot, request.queried[i]);
    sum += std::abs(speeds[i] - real) / real * 100.0;
  }
  return sum;
}

WalkParts EngineStack::Parts() {
  WalkParts parts;
  parts.system = system.get();
  parts.registry = registry.get();
  parts.ledger = ledger.get();
  parts.costs = &costs;
  parts.crowd_sim = crowd_sim.get();
  parts.world = &truth;
  if (!walk_propagator) {
    walk_propagator = std::make_unique<cr::gsp::SpeedPropagator>(
        system->model(), system->config().gsp);
  }
  parts.propagator = walk_propagator.get();
  return parts;
}

cr::crowd::CrowdSimOptions NoiselessCrowd() {
  cr::crowd::CrowdSimOptions options;
  options.min_bias = 1.0;
  options.max_bias = 1.0;
  options.min_noise_kmh = 0.0;
  options.max_noise_kmh = 0.0;
  options.outlier_rate = 0.0;
  return options;
}

void FinishStack(EngineStack& stack, const cr::core::CrowdRtseConfig& config,
                 int per_query_cap, const std::vector<int>& warm_slots) {
  auto system =
      cr::core::CrowdRtse::BuildOffline(stack.graph, stack.history, config);
  if (!system.ok()) {
    std::fprintf(stderr, "BuildOffline: %s\n",
                 system.status().ToString().c_str());
    std::exit(2);
  }
  stack.system = std::make_unique<cr::core::CrowdRtse>(std::move(*system));
  stack.ledger = std::make_unique<cr::server::BudgetLedger>(
      /*campaign_budget=*/-1, per_query_cap);
  stack.crowd_sim = std::make_unique<cr::crowd::CrowdSimulator>(
      NoiselessCrowd(), cr::util::Rng(9));
  cr::server::QueryEngine::Options options;
  options.propagator_pool_size = ClientThreads();
  stack.engine = std::make_unique<cr::server::QueryEngine>(
      *stack.system, *stack.registry, *stack.ledger, stack.costs,
      *stack.crowd_sim, options);
  for (int slot : warm_slots) {
    if (!stack.system->CorrelationsFor(slot).ok()) {
      std::fprintf(stderr, "Gamma_R warm-up failed for slot %d\n", slot);
      std::exit(2);
    }
  }
}

void CheckAccounting(Report& report, const cr::server::EngineStats& stats,
                     int64_t attempted, const cr::server::BudgetLedger& ledger,
                     int64_t paid_returned, const std::string& label) {
  report.Check(stats.queries_served + stats.queries_rejected +
                       stats.queries_failed ==
                   attempted,
               label + ": served + rejected + failed != attempted");
  report.Check(stats.queries_failed == 0, label + ": engine failed queries");
  report.Check(ledger.reserved_outstanding() == 0,
               label + ": ledger reservations outstanding");
  report.Check(ledger.total_spent() == paid_returned,
               label + ": ledger spend != sum of paid");
}

std::vector<const Outcome*> FixedSample(
    const std::vector<Outcome>& outcomes, size_t limit,
    const std::function<bool(const Outcome&)>& keep) {
  std::vector<const Outcome*> kept;
  for (const Outcome& o : outcomes) {
    if (keep(o)) kept.push_back(&o);
  }
  if (kept.size() <= limit) return kept;
  std::vector<const Outcome*> sample;
  for (size_t i = 0; i < limit; ++i) {
    sample.push_back(kept[i * kept.size() / limit]);
  }
  return sample;
}

std::vector<WalkAnswer> WalkSample(
    Report& report, EngineStack& stack,
    const std::vector<const Outcome*>& sample,
    const std::function<QueryRequest(const Outcome&)>& request_of,
    SpanRecorder* recorder, const std::string& label) {
  std::vector<WalkAnswer> answers;
  const WalkParts parts = stack.Parts();
  for (const Outcome* o : sample) {
    const QueryRequest request = request_of(*o);
    if (recorder != nullptr) {
      cr::util::Result<cr::server::QueryResponse> served = [&] {
        SpanRecorder::Scope span(recorder, "engine.serve", o->index);
        return stack.engine->Serve(request, stack.truth);
      }();
      ++stack.serves_attempted;
      report.Check(served.ok(), label + ": single-client serve");
      if (served.ok()) stack.paid_returned += served->paid;
    }
    WalkAnswer walk = Walk(parts, request, stack.next_walk_id--, recorder);
    stack.paid_returned += walk.paid;
    report.Check(walk.ok, label + ": walk failed: " + walk.error);
    report.Check(SameAnswer(*o, walk.speeds, walk.probed, walk.paid),
                 label + ": answer under load differs from the walk");
    answers.push_back(std::move(walk));
  }
  return answers;
}

int64_t CountFailed(const std::vector<Outcome>& outcomes) {
  int64_t failed = 0;
  for (const Outcome& o : outcomes) {
    if (o.kind == Outcome::Kind::kFailed || o.kind == Outcome::Kind::kMissing) {
      ++failed;
    }
  }
  return failed;
}

void AddEndToEnd(Report& report, const Window& window) {
  int64_t served = 0;
  int64_t failed = 0;
  int64_t shed = 0;
  int64_t slo_miss = 0;
  double ape_sum = 0.0;
  int64_t ape_roads = 0;
  std::vector<double> latencies;
  for (const Outcome& o : *window.outcomes) {
    const bool ok = o.kind == Outcome::Kind::kServed;
    const bool full = ok && o.shed == "none";
    if (ok) {
      ++served;
      latencies.push_back(o.latency_ms);
    }
    if (o.kind == Outcome::Kind::kFailed || o.kind == Outcome::Kind::kMissing) {
      ++failed;
    }
    if (!full && o.kind != Outcome::Kind::kFailed &&
        o.kind != Outcome::Kind::kMissing) {
      ++shed;  // budget-capped, periodic fallback or rejected
    }
    if (!full || o.latency_ms > window.slo_ms) ++slo_miss;
    if (full) {
      ape_sum += o.ape_sum;
      ape_roads +=
          static_cast<int64_t>(window.request_of(o).queried.size());
    }
  }
  const int64_t attempted = static_cast<int64_t>(window.outcomes->size());
  const Percentile p50 = PercentileOf(latencies, 0.50);
  const Percentile p99 = PercentileOf(latencies, 0.99);
  const Share failed_share{failed, attempted};
  const Share shed_share{shed, attempted};
  const Share slo_miss_share{slo_miss, attempted};

  report.attempted = attempted;
  report.failed = failed;
  report.Metric("answered_qps", static_cast<double>(served) / window.wall_s,
                "queries/s");
  report.Metric("latency_p50_ms", p50.value, "ms");
  report.Metric("mape_pct",
                ape_roads > 0 ? ape_sum / static_cast<double>(ape_roads) : 0.0,
                "%");
  report.Metric("paid_per_query",
                served > 0 ? static_cast<double>(window.ledger_spend) /
                                 static_cast<double>(served)
                           : 0.0,
                "units/query");
  report.Metric("completed_share", 1.0 - failed_share.value(), "share");
  report.Metric("full_service_share", 1.0 - shed_share.value(), "share");
  report.Metric("slo_met_share", 1.0 - slo_miss_share.value(), "share");
  report.Metric("setup_s", window.setup_s, "s");
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");

  // The tail is reported but not gated: on a shared host it follows the
  // host's stalls more than the program (see README.md).
  report.Info("latency_p99_ms", p99.value);
  report.Info("latency_samples", static_cast<double>(p99.samples));
  report.Info("latency_p99_beyond", static_cast<double>(p99.beyond));
  report.Info("latency_p99_supported", p99.supported ? "true" : "false");
  report.Info("failed_share", failed_share.value());
  report.Info("shed_share", shed_share.value());
  report.Info("slo_miss_share", slo_miss_share.value());
  report.Info("slo_limit_ms", window.slo_ms);
  report.Info("window_s", window.wall_s);
}

double RepeatShare(
    const std::vector<Outcome>& outcomes,
    const std::function<const QueryRequest&(const Outcome&)>& request_of) {
  std::set<std::pair<int, std::vector<RoadId>>> seen;
  int64_t repeats = 0;
  for (const Outcome& o : outcomes) {
    const QueryRequest& request = request_of(o);
    std::vector<RoadId> roads = request.queried;
    std::sort(roads.begin(), roads.end());
    if (!seen.emplace(request.slot, std::move(roads)).second) ++repeats;
  }
  return Share{repeats, static_cast<int64_t>(outcomes.size())}.value();
}

double MeanWorkerRoads(const std::vector<WalkAnswer>& walks) {
  std::vector<double> roads;
  for (const WalkAnswer& w : walks) roads.push_back(w.worker_roads);
  return Mean(roads);
}

void AddPerLayer(Report& report, const std::vector<SpanRecord>& spans,
                 const std::vector<WalkAnswer>& walks,
                 const std::string& serve_span, const LayerInputs& in) {
  const std::map<std::string, SpanRollup> rollup = RollUp(spans);
  const auto self_ms = [&rollup](const std::string& name) {
    const auto it = rollup.find(name);
    return it == rollup.end() ? 0.0 : it->second.mean_self_ms();
  };
  double layer_sum = 0.0;
  for (const std::string& name : WalkLayerSpans()) layer_sum += self_ms(name);
  const auto total_ms = [&rollup](const std::string& name) {
    const auto it = rollup.find(name);
    return it == rollup.end() ? 0.0 : it->second.mean_total_ms();
  };
  const double serve_1c = total_ms(serve_span);

  double selected = 0.0;
  double assignments = 0.0;
  double sweeps = 0.0;
  int64_t underfilled = 0;
  int64_t selected_total = 0;
  for (const WalkAnswer& w : walks) {
    selected += w.selected;
    assignments += w.assignments;
    sweeps += w.sweeps;
    underfilled += w.underfilled;
    selected_total += w.selected;
  }
  const double n = walks.empty() ? 1.0 : static_cast<double>(walks.size());

  report.Metric("registry.covered_roads_ms",
                self_ms("registry.covered_roads"), "ms");
  report.Metric("registry.sync_ms", in.registry_sync_ms, "ms");
  report.Metric("ocs.select_ms", self_ms("ocs.select"), "ms");
  report.Metric("ocs.worker_roads", MeanWorkerRoads(walks), "roads");
  report.Metric("ocs.selected_roads", selected / n, "roads");
  report.Metric("rtf.gamma_lookup_ms", self_ms("rtf.gamma_lookup"), "ms");
  report.Metric("rtf.gamma_compute_ms", in.gamma_compute_ms, "ms");
  report.Metric("rtf.gamma_hit_ratio", in.gamma_hit_ratio, "share");
  report.Metric("rtf.gamma_resident_mb", in.gamma_resident_mb, "MB");
  report.Metric("crowd.assign_ms", self_ms("crowd.assign"), "ms");
  report.Metric("crowd.probe_ms", self_ms("crowd.probe"), "ms");
  report.Metric("crowd.assignments", assignments / n, "count");
  report.Metric("crowd.underfilled_share",
                Share{underfilled, selected_total}.value(), "share");
  report.Metric("gsp.propagate_ms", self_ms("gsp.propagate"), "ms");
  report.Metric("gsp.sweeps", sweeps / n, "count");
  report.Metric("ledger.reserve_settle_us",
                (self_ms("ledger.reserve") + self_ms("ledger.settle")) * 1e3,
                "us");
  report.Metric("engine.serve_1client_ms", serve_1c, "ms");
  report.Metric("engine.layer_sum_ms", layer_sum, "ms");
  report.Metric("engine.overhead_ms", serve_1c - layer_sum, "ms");
  report.Metric("engine.wait_ms",
                in.serve_4clients_ms - total_ms(in.serve_1client_span), "ms");
  report.Metric("partition.cross_shard_share", in.partition_cross_shard_share,
                "share");
  report.Metric("partition.route_ms", in.partition_route_ms, "ms");
  report.Metric("partition.single_owner_p50_ms",
                in.partition_single_owner_p50_ms, "ms");
  report.Metric("partition.cross_shard_p50_ms",
                in.partition_cross_shard_p50_ms, "ms");
  report.Metric("partition.imbalance", in.partition_imbalance, "ratio");
  report.Metric("frontend.overhead_ms", in.frontend_overhead_ms, "ms");
  report.Metric("frontend.coalesce_join_share",
                in.frontend_coalesce_join_share, "share");
  report.Metric("frontend.admission_peak_depth",
                in.frontend_admission_peak_depth, "count");
  report.Metric("driver.send_lag_p99_ms", in.driver_send_lag_p99_ms, "ms");
  report.Metric("trace.overhead_pct", in.trace_overhead_pct, "%");
  report.Metric("input.repeat_share", in.input_repeat_share, "share");
  report.Metric("input.cold_slots", in.input_cold_slots, "count");
  report.Metric("input.warm_slots", in.input_warm_slots, "count");
}

std::string QueryFrame(int64_t id, const QueryRequest& request) {
  std::string json = "{\"id\":" + std::to_string(id) +
                     ",\"slot\":" + std::to_string(request.slot) +
                     ",\"roads\":[";
  for (size_t i = 0; i < request.queried.size(); ++i) {
    if (i > 0) json += ",";
    json += std::to_string(request.queried[i]);
  }
  json += "]}";
  return cr::net::EncodeFrame(json);
}

bool ReadFramePayload(int fd, std::string* payload) {
  std::string header;
  if (!cr::net::ReadExact(fd, cr::net::kFrameHeaderBytes, &header).ok()) {
    return false;
  }
  uint32_t magic = 0;
  uint32_t length = 0;
  std::memcpy(&magic, header.data(), 4);
  std::memcpy(&length, header.data() + 4, 4);
  if (magic != cr::net::kFrameMagic) return false;
  payload->clear();
  return cr::net::ReadExact(fd, length, payload).ok();
}

int64_t ParseFrontendResponse(const std::string& payload, Outcome* o) {
  const auto doc = cr::net::json::Parse(payload);
  if (!doc.ok() || doc->Find("id") == nullptr ||
      doc->Find("status") == nullptr) {
    return -1;
  }
  const auto id = doc->Find("id")->AsInt();
  if (!id.ok()) return -1;
  const std::string& status = doc->Find("status")->AsString();
  if (status == "ok") {
    o->kind = Outcome::Kind::kServed;
    o->shed = doc->Find("shed")->AsString();
    o->query_id = *doc->Find("query_id")->AsInt();
    for (const auto& v : doc->Find("speeds")->AsArray()) {
      o->speeds.push_back(v.AsDouble());
    }
    for (const auto& v : doc->Find("probed")->AsArray()) {
      o->probed.push_back(static_cast<RoadId>(*v.AsInt()));
    }
    o->paid = static_cast<int>(*doc->Find("paid")->AsInt());
  } else if (status == "rejected") {
    o->kind = Outcome::Kind::kRejected;
  } else {
    o->kind = Outcome::Kind::kFailed;
  }
  return *id;
}

double MeasureFrontendOverhead(Report& report, uint16_t port,
                               cr::server::Engine& engine,
                               const cr::traffic::DayMatrix& world,
                               const std::vector<QueryRequest>& requests,
                               SpanRecorder* recorder, int64_t* serves,
                               int64_t* paid) {
  auto fd = cr::net::ConnectLocal(port);
  report.Check(fd.ok(), "front-end connect");
  if (!fd.ok()) return 0.0;
  std::vector<double> roundtrip;
  std::vector<double> direct;
  for (size_t i = 0; i < requests.size(); ++i) {
    const int64_t id = static_cast<int64_t>(i);
    Outcome wire;
    std::string payload;
    int64_t t0 = NowNanos();
    bool read = false;
    {
      SpanRecorder::Scope span(recorder, "frontend.roundtrip", id);
      read = cr::net::WriteAll(fd->get(), QueryFrame(id, requests[i])).ok() &&
             ReadFramePayload(fd->get(), &payload);
    }
    roundtrip.push_back(static_cast<double>(NowNanos() - t0) / 1e6);
    report.Check(read && ParseFrontendResponse(payload, &wire) == id &&
                     wire.kind == Outcome::Kind::kServed,
                 "front-end round trip");
    t0 = NowNanos();
    cr::util::Result<cr::server::QueryResponse> response = [&] {
      SpanRecorder::Scope span(recorder, "engine.serve.direct", id);
      return engine.Serve(requests[i], world);
    }();
    direct.push_back(static_cast<double>(NowNanos() - t0) / 1e6);
    *serves += 2;
    *paid += wire.paid;
    report.Check(response.ok(), "direct serve");
    if (!response.ok()) continue;
    *paid += response->paid;
    report.Check(SameAnswer(wire, response->queried_speeds,
                            response->probed_roads, response->paid),
                 "front-end answer differs from direct Serve");
  }
  return Mean(roundtrip) - Mean(direct);
}

void ProbeFrontend(Report& report, cr::server::Engine& engine,
                   const cr::traffic::DayMatrix& world,
                   const std::vector<QueryRequest>& requests,
                   SpanRecorder* recorder, int64_t* serves, int64_t* paid,
                   LayerInputs* in) {
  cr::server::Frontend frontend(engine, world, cr::server::FrontendOptions{});
  report.Check(frontend.Start().ok(), "front-end start");
  in->frontend_overhead_ms = MeasureFrontendOverhead(
      report, frontend.port(), engine, world, requests, recorder, serves,
      paid);
  const cr::server::FrontendStats stats = frontend.stats();
  in->frontend_coalesce_join_share =
      Share{stats.coalesce_joins, stats.coalesce_leads + stats.coalesce_joins}
          .value();
  in->frontend_admission_peak_depth =
      static_cast<double>(stats.admission.peak_depth);
  frontend.Shutdown();
}

void FillGammaStats(const cr::rtf::CorrelationCache::StatsSnapshot& before,
                    const cr::rtf::CorrelationCache::StatsSnapshot& after,
                    LayerInputs* in) {
  const int64_t hits = after.hits - before.hits;
  const int64_t lookups = hits + (after.misses - before.misses) +
                          (after.coalesced - before.coalesced);
  in->gamma_hit_ratio = Share{hits, lookups}.value();
  in->gamma_compute_ms = after.compute_latency.mean_ms;
  in->gamma_resident_mb = static_cast<double>(after.resident_bytes) / 1e6;
}

double TimeRegistryResync(cr::server::WorkerRegistry& registry) {
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    std::vector<cr::crowd::Worker> snapshot = registry.workers();
    const int64_t start = NowNanos();
    registry.ReplaceWorkers(std::move(snapshot));
    ms.push_back(static_cast<double>(NowNanos() - start) / 1e6);
  }
  return Mean(ms);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

double Report::metric(const std::string& name) const {
  for (const auto& [key, value_unit] : metrics_) {
    if (key == name) return value_unit.first;
  }
  return std::nan("");
}

void Report::Info(const std::string& key, const std::string& json_value) {
  info_.emplace_back(key, json_value);
}

void Report::Info(const std::string& key, double value) {
  info_.emplace_back(key, JsonNumber(value));
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

int Report::Print(const Args& args) const {
  std::string info = "{\"workload\": \"" + args.workload +
                     "\", \"seed\": " + std::to_string(args.seed) +
                     ", \"trace\": " + (args.trace ? "1" : "0");
  for (const auto& [key, value] : info_) {
    info += ", \"" + key + "\": " + value;
  }
  info += ", \"failed_checks\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    info += (i ? ", \"" : "\"") + failures_[i] + "\"";
  }
  info += "]}";
  std::printf("info %s\n", info.c_str());
  for (const std::string& f : failures_) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }

  std::string line = std::string("{\"correct\": ") +
                     (correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value_unit] = metrics_[i];
    line += (i ? ", \"" : "\"") + name + "\": {\"value\": " +
            JsonNumber(value_unit.first) + ", \"unit\": \"" +
            value_unit.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

void WriteSpans(const std::vector<SpanRecord>& spans,
                const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) return;
  for (const SpanRecord& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"query\":" << s.query << "}\n";
  }
}

}  // namespace perfbench
