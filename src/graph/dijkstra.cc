#include "graph/dijkstra.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace crowdrtse::graph {

void DijkstraInto(const Graph& graph, RoadId source,
                  std::span<const double> edge_weight,
                  DijkstraWorkspace& ws) {
  const size_t n = static_cast<size_t>(graph.num_roads());
  ws.distance.assign(n, kUnreachable);
  ws.parent.assign(n, kInvalidRoad);
  ws.heap.clear();
  if (!graph.IsValidRoad(source)) return;

  // A binary min-heap over the reused buffer (what std::priority_queue
  // does internally), keyed on (distance, road) so tie-breaks are
  // deterministic.
  using Entry = std::pair<double, RoadId>;
  const auto greater = std::greater<Entry>{};
  ws.distance[static_cast<size_t>(source)] = 0.0;
  ws.heap.emplace_back(0.0, source);
  while (!ws.heap.empty()) {
    const auto [dist, road] = ws.heap.front();
    std::pop_heap(ws.heap.begin(), ws.heap.end(), greater);
    ws.heap.pop_back();
    if (dist > ws.distance[static_cast<size_t>(road)]) continue;  // stale
    for (const Adjacency& adj : graph.Neighbors(road)) {
      const double w = edge_weight[static_cast<size_t>(adj.edge)];
      if (w < 0.0 || w == kUnreachable) continue;  // treat as impassable
      const double candidate = dist + w;
      if (candidate < ws.distance[static_cast<size_t>(adj.neighbor)]) {
        ws.distance[static_cast<size_t>(adj.neighbor)] = candidate;
        ws.parent[static_cast<size_t>(adj.neighbor)] = road;
        ws.heap.emplace_back(candidate, adj.neighbor);
        std::push_heap(ws.heap.begin(), ws.heap.end(), greater);
      }
    }
  }
}

std::vector<RoadId> ReconstructPath(const DijkstraWorkspace& ws,
                                    RoadId source, RoadId target) {
  std::vector<RoadId> path;
  if (target < 0 ||
      static_cast<size_t>(target) >= ws.distance.size() ||
      ws.distance[static_cast<size_t>(target)] == kUnreachable) {
    return path;
  }
  for (RoadId r = target; r != kInvalidRoad;
       r = ws.parent[static_cast<size_t>(r)]) {
    path.push_back(r);
    if (r == source) break;
  }
  if (path.empty() || path.back() != source) return {};
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace crowdrtse::graph
