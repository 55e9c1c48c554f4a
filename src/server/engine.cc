#include "server/engine.h"

#include <string>

namespace crowdrtse::server {

std::string EngineStats::Report() const {
  std::string out =
      "EngineStats: served " + std::to_string(queries_served) +
      ", rejected " + std::to_string(queries_rejected) + ", failed " +
      std::to_string(queries_failed) + ", paid " +
      std::to_string(total_paid) + " units\n";
  out += "  serve:  " + serve_latency.ToString() + "\n";
  for (int i = 0; i < obs::kNumStages; ++i) {
    out += std::string("  ") + obs::StageName(static_cast<obs::Stage>(i)) +
           ": " + stage_latency[static_cast<size_t>(i)].ToString() + "\n";
  }
  out += "  dispatch: retries " + std::to_string(crowd_retries) +
         ", reassigned " + std::to_string(crowd_reassignments) +
         ", deadline misses " + std::to_string(crowd_deadline_misses) +
         ", late " + std::to_string(reports_late) + ", duplicate " +
         std::to_string(reports_duplicate) + ", outlier " +
         std::to_string(reports_outlier) + "\n";
  out += "  degraded: " + std::to_string(roads_degraded) +
         " roads (deadline " + std::to_string(degraded_deadline) +
         ", outlier " + std::to_string(degraded_outlier) + ", unstaffed " +
         std::to_string(degraded_unstaffed) + ", load shed " +
         std::to_string(degraded_load_shed) + "; " +
         std::to_string(queries_shed) + " whole queries shed)\n";
  out += "  gamma:  " + gamma_cache.ToString();
  for (const ShardStats& shard : shards) {
    out += "\n  shard[" + std::to_string(shard.shard) + "]: served " +
           std::to_string(shard.queries_served) + ", rejected " +
           std::to_string(shard.queries_rejected) + ", failed " +
           std::to_string(shard.queries_failed) + ", degraded roads " +
           std::to_string(shard.roads_degraded) + ", gamma bytes " +
           std::to_string(shard.gamma_cache_bytes);
  }
  return out;
}

std::string EngineStats::ReportJson() const {
  std::string out = "{";
  out += "\"crowdrtse_queries_served_total\":" +
         std::to_string(queries_served);
  out += ",\"crowdrtse_queries_rejected_total\":" +
         std::to_string(queries_rejected);
  out += ",\"crowdrtse_queries_failed_total\":" +
         std::to_string(queries_failed);
  out += ",\"crowdrtse_paid_units_total\":" + std::to_string(total_paid);
  out += ",\"crowdrtse_roads_degraded_total\":" +
         std::to_string(roads_degraded);
  out += ",\"crowdrtse_degraded_deadline_total\":" +
         std::to_string(degraded_deadline);
  out += ",\"crowdrtse_degraded_outlier_total\":" +
         std::to_string(degraded_outlier);
  out += ",\"crowdrtse_degraded_unstaffed_total\":" +
         std::to_string(degraded_unstaffed);
  out += ",\"crowdrtse_degraded_load_shed_total\":" +
         std::to_string(degraded_load_shed);
  out += ",\"crowdrtse_queries_shed_total\":" + std::to_string(queries_shed);
  out += ",\"crowdrtse_dispatch_retries_total\":" +
         std::to_string(crowd_retries);
  out += ",\"crowdrtse_dispatch_reassignments_total\":" +
         std::to_string(crowd_reassignments);
  out += ",\"crowdrtse_dispatch_deadline_misses_total\":" +
         std::to_string(crowd_deadline_misses);
  out += ",\"crowdrtse_reports_late_total\":" + std::to_string(reports_late);
  out += ",\"crowdrtse_reports_duplicate_total\":" +
         std::to_string(reports_duplicate);
  out += ",\"crowdrtse_reports_outlier_total\":" +
         std::to_string(reports_outlier);
  out += ",\"crowdrtse_serve_latency_ms\":" + serve_latency.ToJson();
  out += ",\"crowdrtse_stage_wall_ms\":{";
  for (int i = 0; i < obs::kNumStages; ++i) {
    if (i > 0) out += ",";
    out += std::string("\"") + obs::StageName(static_cast<obs::Stage>(i)) +
           "\":" + stage_latency[static_cast<size_t>(i)].ToJson();
  }
  out += "}";
  out += ",\"crowdrtse_gamma_cache_hits\":" +
         std::to_string(gamma_cache.hits);
  out += ",\"crowdrtse_gamma_cache_misses\":" +
         std::to_string(gamma_cache.misses);
  out += ",\"crowdrtse_gamma_cache_coalesced\":" +
         std::to_string(gamma_cache.coalesced);
  out += ",\"crowdrtse_gamma_cache_evictions\":" +
         std::to_string(gamma_cache.evictions);
  out += ",\"crowdrtse_gamma_cache_resident_tables\":" +
         std::to_string(gamma_cache.resident_tables);
  out += ",\"crowdrtse_gamma_cache_resident_bytes\":" +
         std::to_string(gamma_cache.resident_bytes);
  out += ",\"crowdrtse_gamma_compute_latency_ms\":" +
         gamma_cache.compute_latency.ToJson();
  if (!shards.empty()) {
    out += ",\"crowdrtse_shards\":[";
    for (size_t i = 0; i < shards.size(); ++i) {
      const ShardStats& shard = shards[i];
      if (i > 0) out += ",";
      out += "{\"shard\":" + std::to_string(shard.shard);
      out += ",\"queries_served\":" + std::to_string(shard.queries_served);
      out += ",\"queries_rejected\":" +
             std::to_string(shard.queries_rejected);
      out += ",\"queries_failed\":" + std::to_string(shard.queries_failed);
      out += ",\"roads_degraded\":" + std::to_string(shard.roads_degraded);
      out += ",\"gamma_cache_bytes\":" +
             std::to_string(shard.gamma_cache_bytes);
      out += "}";
    }
    out += "]";
  }
  out += "}";
  return out;
}

}  // namespace crowdrtse::server
