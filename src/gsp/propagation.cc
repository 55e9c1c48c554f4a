#include "gsp/propagation.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "graph/bfs.h"
#include "obs/flight_recorder.h"

namespace crowdrtse::gsp {

namespace {

/// Everything a sweep kernel touches, as raw pointers.
///
/// The SoA kernels read the *packed* arrays: per-query copies of the slot
/// parameters laid out contiguously in relax order (see PackRows), so a
/// sweep streams every input sequentially except the unavoidable
/// speeds[neighbour] gather. The CSR pointers (row_offsets/neighbor_ids
/// plus the SlotSoa arrays) are the pack source. `model` and `slot` exist
/// only for the kReference kernel, which re-derives the weights through
/// the accessor API each visit.
struct SweepContext {
  // Pack sources (SoA slot parameters + CSR topology).
  const double* mu_inv_var = nullptr;
  const double* pair_inv_var = nullptr;
  const double* pair_mean = nullptr;
  const double* inv_var_sum = nullptr;  // precomputed Eq. (18) denominator
  const double* num_base = nullptr;     // speed-independent numerator part
  const size_t* row_offsets = nullptr;
  const graph::RoadId* neighbor_ids = nullptr;
  // Relax order: the roads one sweep updates, level-contiguous.
  const graph::RoadId* order = nullptr;
  size_t order_size = 0;
  // Packed relax-order views (valid for positions [0, order_size]).
  const size_t* packed_offsets = nullptr;  // position -> packed row start
  const graph::RoadId* packed_ids = nullptr;
  const double* packed_w = nullptr;     // pair_inv_var in relax order
  const double* packed_m = nullptr;     // pair_mean in relax order
  const double* packed_mu = nullptr;    // mu_inv_var per position
  const double* packed_base = nullptr;  // num_base per position
  const double* packed_den = nullptr;   // inv_var_sum per position
  double* speeds = nullptr;
  const rtf::RtfModel* model = nullptr;
  int slot = 0;
};

/// One sweep: relaxes order[0..order_size) sequentially in place and
/// returns the largest |delta|.
using SweepFn = double (*)(const SweepContext&);

/// Original Eq. (18) formulation through the accessor API, with the
/// inverse-variance clamp (the unguarded 1/sigma^2 was the NaN-poisoning
/// bug). Accumulates in adjacency order, multiplying by the reciprocal —
/// exactly the arithmetic the SoA scalar kernel performs, so the two are
/// bit-identical.
inline double UpdateRoadReference(const rtf::RtfModel& model, int slot,
                                  graph::RoadId road, const double* speeds,
                                  uint64_t* clamps) {
  const double sigma_i = model.Sigma(slot, road);
  const double inv_var_i =
      rtf::ClampedInvVariance(sigma_i * sigma_i, clamps);
  double numerator = model.Mu(slot, road) * inv_var_i;
  double denominator = inv_var_i;
  for (const graph::Adjacency& adj : model.graph().Neighbors(road)) {
    const double inv_pair =
        rtf::ClampedInvVariance(model.PairVariance(slot, adj.edge), clamps);
    const double mu_ij = model.PairMean(slot, road, adj.neighbor);
    numerator +=
        (speeds[static_cast<size_t>(adj.neighbor)] + mu_ij) * inv_pair;
    denominator += inv_pair;
  }
  return numerator / denominator;
}

double SweepReference(const SweepContext& c) {
  double local = 0.0;
  uint64_t clamps = 0;
  for (size_t i = 0; i < c.order_size; ++i) {
    const graph::RoadId road = c.order[i];
    const size_t ri = static_cast<size_t>(road);
    const double updated =
        UpdateRoadReference(*c.model, c.slot, road, c.speeds, &clamps);
    local = std::max(local, std::fabs(updated - c.speeds[ri]));
    c.speeds[ri] = updated;
  }
  rtf::AddInvVarianceClamps(clamps);
  return local;
}

/// Software prefetch for the SoA kernels. After packing, every stream but
/// speeds[neighbour] is sequential (hardware-prefetched); the kernels are
/// latency-bound on those scattered speed reads at metro scale, so pull
/// the speeds of a row a couple of positions ahead — its packed ids are
/// already resident. Prefetching performs no arithmetic, so kernel
/// results are unchanged.
inline void PrefetchSpeeds(const SweepContext& c, size_t pos) {
  const size_t ahead = pos + 2;
  if (ahead >= c.order_size) return;
  const size_t begin = c.packed_offsets[ahead];
  const size_t end = c.packed_offsets[ahead + 1];
  for (size_t k = begin; k < end; ++k) {
    __builtin_prefetch(
        c.speeds + static_cast<size_t>(c.packed_ids[k]), 0, 1);
  }
}

/// SoA scalar kernel: the same numerator operations in the same order as
/// the reference, reading precomputed (clamped, packed) inverses instead
/// of re-deriving them. The denominator is read from the precomputed
/// inv_var_sum fold, which holds the bit-exact value the reference's
/// accumulation produces (same fold order over the same operands), so the
/// final divide — and the kernel — stays bit-identical to
/// UpdateRoadReference.
double SweepScalar(const SweepContext& c) {
  double local = 0.0;
  for (size_t pos = 0; pos < c.order_size; ++pos) {
    PrefetchSpeeds(c, pos);
    const size_t begin = c.packed_offsets[pos];
    const size_t end = c.packed_offsets[pos + 1];
    double num = c.packed_mu[pos];
    for (size_t k = begin; k < end; ++k) {
      num += (c.speeds[static_cast<size_t>(c.packed_ids[k])] +
              c.packed_m[k]) *
             c.packed_w[k];
    }
    const double updated = num / c.packed_den[pos];
    const size_t ri = static_cast<size_t>(c.order[pos]);
    local = std::max(local, std::fabs(updated - c.speeds[ri]));
    c.speeds[ri] = updated;
  }
  return local;
}

/// Vectorisable sweep: the speed-independent part of the numerator
/// (mu_i/sigma_i^2 + sum_j mu_ij/sigma_ij^2) is read pre-folded from
/// packed_base, and only sum_j v_j/sigma_ij^2 accumulates per sweep — in
/// four independent lanes combined pairwise ((l0+l1)+(l2+l3)). Relative
/// to the scalar kernel this reassociates the numerator by <= ~1e-12
/// (documented tolerance); rows of degree < 4 take the scalar path
/// unchanged and stay bit-identical.
double SweepUnrolled(const SweepContext& c) {
  double local = 0.0;
  for (size_t pos = 0; pos < c.order_size; ++pos) {
    PrefetchSpeeds(c, pos);
    const size_t begin = c.packed_offsets[pos];
    const size_t end = c.packed_offsets[pos + 1];
    double num;
    if (end - begin < 4) {
      // Scalar path, bit-identical to SweepScalar.
      num = c.packed_mu[pos];
      for (size_t k = begin; k < end; ++k) {
        num += (c.speeds[static_cast<size_t>(c.packed_ids[k])] +
                c.packed_m[k]) *
               c.packed_w[k];
      }
    } else {
      double n0 = 0.0, n1 = 0.0, n2 = 0.0, n3 = 0.0;
      size_t k = begin;
      for (; k + 4 <= end; k += 4) {
        n0 += c.speeds[static_cast<size_t>(c.packed_ids[k])] *
              c.packed_w[k];
        n1 += c.speeds[static_cast<size_t>(c.packed_ids[k + 1])] *
              c.packed_w[k + 1];
        n2 += c.speeds[static_cast<size_t>(c.packed_ids[k + 2])] *
              c.packed_w[k + 2];
        n3 += c.speeds[static_cast<size_t>(c.packed_ids[k + 3])] *
              c.packed_w[k + 3];
      }
      num = c.packed_base[pos] + ((n0 + n1) + (n2 + n3));
      for (; k < end; ++k) {
        num += c.speeds[static_cast<size_t>(c.packed_ids[k])] *
               c.packed_w[k];
      }
    }
    const double updated = num / c.packed_den[pos];
    const size_t ri = static_cast<size_t>(c.order[pos]);
    local = std::max(local, std::fabs(updated - c.speeds[ri]));
    c.speeds[ri] = updated;
  }
  return local;
}

SweepFn SelectSweepFn(GspKernel kernel) {
  switch (kernel) {
    case GspKernel::kReference:
      return &SweepReference;
    case GspKernel::kScalar:
      return &SweepScalar;
    case GspKernel::kUnrolled:
      break;
  }
  return &SweepUnrolled;
}

/// Per-thread arena for the per-query scratch: BFS levelling (whose visit
/// sequence doubles as the relax order) and the packed relax-order
/// parameter copies. Reused across queries, so steady-state propagation
/// allocates nothing but the result.
struct Workspace {
  graph::FlatHopLevels bfs;
  // Packed relax-order copies of the slot parameters (see PackRows).
  std::vector<size_t> packed_offsets;
  std::vector<graph::RoadId> packed_ids;
  std::vector<double> packed_w;
  std::vector<double> packed_m;
  std::vector<double> packed_mu;
  std::vector<double> packed_base;
  std::vector<double> packed_den;
};

Workspace& ThreadWorkspace() {
  thread_local Workspace workspace;
  return workspace;
}

/// Copies the rows the query relaxes into arrays contiguous in relax
/// order, one pass over the CSR source. Sweeps run several times over the
/// same order (up to max_sweeps), so paying one sequential copy turns
/// every per-sweep parameter read from a road-indexed scatter into a
/// stream — only the speeds gather stays irregular. Values are copied
/// bit-for-bit; the kernels' arithmetic is unchanged.
void PackRows(SweepContext& c, Workspace& ws) {
  const size_t m = c.order_size;
  ws.packed_offsets.resize(m + 1);
  ws.packed_mu.resize(m);
  ws.packed_base.resize(m);
  ws.packed_den.resize(m);
  size_t total = 0;
  for (size_t i = 0; i < m; ++i) {
    const size_t r = static_cast<size_t>(c.order[i]);
    total += c.row_offsets[r + 1] - c.row_offsets[r];
  }
  ws.packed_ids.resize(total);
  ws.packed_w.resize(total);
  ws.packed_m.resize(total);
  size_t cursor = 0;
  for (size_t i = 0; i < m; ++i) {
    const size_t r = static_cast<size_t>(c.order[i]);
    ws.packed_offsets[i] = cursor;
    ws.packed_mu[i] = c.mu_inv_var[r];
    ws.packed_base[i] = c.num_base[r];
    ws.packed_den[i] = c.inv_var_sum[r];
    const size_t begin = c.row_offsets[r];
    const size_t row = c.row_offsets[r + 1] - begin;
    std::copy_n(c.neighbor_ids + begin, row, ws.packed_ids.data() + cursor);
    std::copy_n(c.pair_inv_var + begin, row, ws.packed_w.data() + cursor);
    std::copy_n(c.pair_mean + begin, row, ws.packed_m.data() + cursor);
    cursor += row;
  }
  ws.packed_offsets[m] = cursor;
  c.packed_offsets = ws.packed_offsets.data();
  c.packed_ids = ws.packed_ids.data();
  c.packed_w = ws.packed_w.data();
  c.packed_m = ws.packed_m.data();
  c.packed_mu = ws.packed_mu.data();
  c.packed_base = ws.packed_base.data();
  c.packed_den = ws.packed_den.data();
}

int RunSweeps(const SweepContext& ctx, SweepFn fn, double epsilon,
              int max_sweeps, bool& converged) {
  converged = false;
  int sweeps = 0;
  while (sweeps < max_sweeps) {
    ++sweeps;
    const double max_delta = fn(ctx);
    if (max_delta < epsilon) {
      converged = true;
      break;
    }
  }
  return sweeps;
}

}  // namespace

SpeedPropagator::SpeedPropagator(const rtf::RtfModel& model,
                                 GspOptions options)
    : model_(model), options_(options) {}

double SpeedPropagator::UpdateValue(int slot, graph::RoadId road,
                                    const std::vector<double>& speeds) const {
  uint64_t clamps = 0;
  const double updated =
      UpdateRoadReference(model_, slot, road, speeds.data(), &clamps);
  rtf::AddInvVarianceClamps(clamps);
  return updated;
}

util::Result<GspResult> SpeedPropagator::Propagate(
    int slot, const std::vector<graph::RoadId>& sampled_roads,
    const std::vector<double>& sampled_speeds) const {
  return PropagateFrom(slot, sampled_roads, sampled_speeds, {});
}

util::Result<GspResult> SpeedPropagator::PropagateFrom(
    int slot, const std::vector<graph::RoadId>& sampled_roads,
    const std::vector<double>& sampled_speeds,
    const std::vector<double>& initial_speeds) const {
  if (slot < 0 || slot >= model_.num_slots()) {
    return util::Status::OutOfRange("slot out of range: " +
                                    std::to_string(slot));
  }
  if (sampled_roads.size() != sampled_speeds.size()) {
    return util::Status::InvalidArgument(
        "sampled roads/speeds length mismatch");
  }
  const int n = model_.num_roads();
  for (graph::RoadId r : sampled_roads) {
    if (r < 0 || r >= n) {
      return util::Status::InvalidArgument("sampled road out of range: " +
                                           std::to_string(r));
    }
  }
  if (options_.epsilon <= 0.0) {
    return util::Status::InvalidArgument("epsilon must be positive");
  }
  if (options_.hop_limit < 0) {
    return util::Status::InvalidArgument("hop_limit must be >= 0");
  }

  if (!initial_speeds.empty() &&
      initial_speeds.size() != static_cast<size_t>(n)) {
    return util::Status::InvalidArgument(
        "initial speeds must cover all roads");
  }

  GspResult result;
  // Initialise: sampled roads take the probed data, everything else its
  // periodic mean (paper "Initialization") or the caller's warm start.
  if (initial_speeds.empty()) {
    result.speeds.assign(static_cast<size_t>(n), 0.0);
    for (graph::RoadId r = 0; r < n; ++r) {
      result.speeds[static_cast<size_t>(r)] = model_.Mu(slot, r);
    }
  } else {
    result.speeds = initial_speeds;
  }
  for (size_t i = 0; i < sampled_roads.size(); ++i) {
    result.speeds[static_cast<size_t>(sampled_roads[i])] =
        sampled_speeds[i];
  }

  // Schedule: BFS hop levels from the sampled roads; level 0 (the samples
  // themselves) stays fixed, deeper levels update in ascending hop order.
  // Every sample is a BFS source, so the levels from 1 to the hop limit
  // are one contiguous run of the visit sequence holding no sampled road.
  Workspace& ws = ThreadWorkspace();
  graph::MultiSourceBfsInto(model_.graph(), sampled_roads, ws.bfs);
  result.hops = ws.bfs.hops;
  const int max_level =
      options_.hop_limit > 0
          ? std::min(ws.bfs.num_levels(), options_.hop_limit + 1)
          : ws.bfs.num_levels();
  SweepContext ctx;
  ctx.speeds = result.speeds.data();
  if (max_level > 1) {
    const int32_t begin = ws.bfs.level_offsets[1];
    const int32_t end = ws.bfs.level_offsets[static_cast<size_t>(max_level)];
    ctx.order = ws.bfs.order.data() + begin;
    ctx.order_size = static_cast<size_t>(end - begin);
  }

  if (ctx.order_size == 0) {
    // Nothing to relax: either no samples (pure periodic estimate) or the
    // samples cover everything.
    result.converged = true;
    result.sweeps = 0;
    obs::RecordEvent(obs::EventKind::kGspSweep, slot, 0, 1);
    return result;
  }

  if (options_.kernel == GspKernel::kReference) {
    ctx.model = &model_;
    ctx.slot = slot;
  } else {
    const rtf::RtfModel::SlotSoa& soa = model_.Soa(slot);
    ctx.mu_inv_var = soa.mu_inv_var.data();
    ctx.pair_inv_var = soa.pair_inv_var.data();
    ctx.pair_mean = soa.pair_mean.data();
    ctx.inv_var_sum = soa.inv_var_sum.data();
    ctx.num_base = soa.num_base.data();
    ctx.row_offsets = model_.graph().RowOffsets().data();
    ctx.neighbor_ids = model_.graph().NeighborIds().data();
  }
  if (ctx.row_offsets != nullptr) PackRows(ctx, ws);
  result.sweeps =
      RunSweeps(ctx, SelectSweepFn(options_.kernel), options_.epsilon,
                options_.max_sweeps, result.converged);
  // ONE flight record per propagation (sweep count in the payload), never
  // per sweep: Propagate runs per query per shard while a sweep runs tens
  // of times inside it — per-iteration records would monopolize the ring.
  obs::RecordEvent(obs::EventKind::kGspSweep, slot, result.sweeps,
                   result.converged ? 1 : 0);
  return result;
}

}  // namespace crowdrtse::gsp
