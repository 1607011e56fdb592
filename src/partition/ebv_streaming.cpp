#include "partition/ebv_streaming.h"

#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "partition/eva_scorer.h"

namespace ebv {

EdgePartition StreamingEbvPartitioner::partition(
    const Graph& graph, const PartitionConfig& config) const {
  return partition_view(GraphView(graph), config);
}

EdgePartition StreamingEbvPartitioner::partition_view(
    const GraphView& graph, const PartitionConfig& config) const {
  check_partition_config(graph, config);
  EBV_REQUIRE(window_ >= 1, "window must be at least 1");

  detail::EvaState state(graph, config);

  // Partial degrees: a streaming algorithm only knows what it has seen.
  std::vector<std::uint32_t> partial_degree(graph.num_vertices(), 0);

  EdgePartition result;
  result.num_parts = config.num_parts;
  result.part_of_edge.assign(graph.num_edges(), kInvalidPartition);

  // The bounded buffer is a lazy min-heap keyed by the partial-degree sum
  // at insertion time. Partial degrees only grow, so a popped entry whose
  // recomputed key exceeds the next heap key is simply re-pushed — each
  // flush is O(log W) amortised.
  using BufferEntry = std::pair<std::uint64_t, EdgeId>;  // (key, edge)
  std::priority_queue<BufferEntry, std::vector<BufferEntry>, std::greater<>>
      buffer;

  auto current_key = [&](EdgeId e) {
    const auto [u, v] = graph.edge(e);
    return static_cast<std::uint64_t>(partial_degree[u]) + partial_degree[v];
  };

  // Pop the buffered edge with the smallest (ingestion-time) partial-degree
  // sum.
  auto pop_smallest = [&] {
    for (;;) {
      const auto [key, e] = buffer.top();
      buffer.pop();
      const std::uint64_t now = current_key(e);
      // Stale key that is no longer the minimum: re-queue and retry.
      if (now > key && !buffer.empty() && now > buffer.top().first) {
        buffer.push({now, e});
        continue;
      }
      return e;
    }
  };

  // The seed's exact interleaving: ingest one edge; flush one when the
  // buffer reaches the window; drain at end-of-stream.
  EdgeId stream_pos = 0;
  for (;;) {
    while (stream_pos < graph.num_edges() && buffer.size() < window_) {
      const EdgeId e = stream_pos++;
      const auto [u, v] = graph.edge(e);
      ++partial_degree[u];
      ++partial_degree[v];
      buffer.push({current_key(e), e});
    }
    if (buffer.empty()) break;
    const EdgeId e = pop_smallest();
    const auto [u, v] = graph.edge(e);
    const PartitionId best = state.best_part(u, v);
    result.part_of_edge[e] = best;
    state.commit(best, u, v);
  }
  return result;
}

}  // namespace ebv
