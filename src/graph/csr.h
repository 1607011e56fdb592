// Compressed-sparse-row adjacency. Used by the local-based partitioners
// (NE, METIS-like), by the Blogel Voronoi partitioner, and by the local
// compute kernels inside BSP workers.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "graph/graph_view.h"

namespace ebv {

/// One-directional CSR: neighbors(v) lists the targets of edges leaving v
/// (or entering v when built with Direction::kIn). `edge_ids(v)` gives the
/// index of each adjacency entry in the originating edge list so callers
/// can recover weights or partition assignments.
class CsrGraph {
 public:
  enum class Direction { kOut, kIn, kBoth };

  CsrGraph() = default;

  /// Build from a graph's edge list (resident Graph or mapped snapshot
  /// view). Direction::kBoth symmetrises the graph (each directed edge
  /// appears in both endpoint lists), which is what CC and the Voronoi
  /// partitioner need.
  static CsrGraph build(const GraphView& graph, Direction direction);

  /// Build directly from an edge span (used for per-worker local CSRs).
  static CsrGraph build(VertexId num_vertices, std::span<const Edge> edges,
                        Direction direction);

  [[nodiscard]] VertexId num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }
  [[nodiscard]] EdgeId num_entries() const { return neighbors_.size(); }

  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const {
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }
  /// Edge-list index that produced each adjacency entry of v.
  [[nodiscard]] std::span<const EdgeId> edge_ids(VertexId v) const {
    return {edge_ids_.data() + offsets_[v], edge_ids_.data() + offsets_[v + 1]};
  }
  [[nodiscard]] std::uint32_t degree(VertexId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }
  /// Heap bytes held by the three arrays.
  [[nodiscard]] std::size_t memory_bytes() const {
    return offsets_.size() * sizeof(EdgeId) +
           neighbors_.size() * sizeof(VertexId) +
           edge_ids_.size() * sizeof(EdgeId);
  }

 private:
  std::vector<EdgeId> offsets_;     // size num_vertices + 1
  std::vector<VertexId> neighbors_; // size num_entries
  std::vector<EdgeId> edge_ids_;    // parallel to neighbors_
};

}  // namespace ebv
