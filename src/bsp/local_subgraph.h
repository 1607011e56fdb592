// LocalSubgraph: one worker's share of a vertex-cut partitioned graph —
// local edges over dense local vertex ids, the ascending local→global id
// table, and the per-vertex replica/master metadata the BSP runtime
// routes by. Produced either resident (DistributedGraph keeps all p at
// once) or materialised on demand from a worker-spill snapshot
// (bsp/spill_store.h), which is what bounds aggregate subgraph residency
// for graphs whose partitions exceed RAM.
//
// Local adjacency is built on first use, per direction: csr(d) builds
// that one CSR from `edges` the first time any thread asks for it, so a
// program pays only for the direction it reads (SSSP: out, BFS: both,
// PageRank/CC: none) and a subgraph that is never computed over — a
// routing-only resident graph, a merge-phase load — builds none.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/csr.h"

namespace ebv::bsp {

/// Worker-local subgraph. Edge endpoints are local ids; `global_ids`
/// translates back. `edges` must not change once csr() has been called.
struct LocalSubgraph {
  PartitionId part = 0;

  std::vector<VertexId> global_ids;  // local -> global, ascending

  std::vector<Edge> edges;          // endpoints are local ids
  std::vector<float> edge_weights;  // empty when the graph is unweighted

  std::vector<std::uint8_t> is_replicated;  // per local vertex
  std::vector<std::uint8_t> is_master;      // per local vertex
  std::vector<PartitionId> master_part;     // per local vertex
  std::vector<std::uint32_t> global_out_degree;  // per local vertex

  [[nodiscard]] VertexId num_vertices() const {
    return static_cast<VertexId>(global_ids.size());
  }
  [[nodiscard]] EdgeId num_edges() const { return edges.size(); }
  [[nodiscard]] float weight(EdgeId e) const {
    return edge_weights.empty() ? 1.0f : edge_weights[e];
  }
  /// Local id of a global vertex, or kInvalidVertex if absent here.
  /// Binary search over the ascending `global_ids` (local ids are assigned
  /// in ascending global order), so no global→local hash map is stored.
  [[nodiscard]] VertexId local_of(VertexId global) const {
    const auto it =
        std::lower_bound(global_ids.begin(), global_ids.end(), global);
    if (it == global_ids.end() || *it != global) return kInvalidVertex;
    return static_cast<VertexId>(it - global_ids.begin());
  }

  /// Local adjacency in direction `d` (kBoth symmetrises), built from
  /// `edges` on the first call and returned as-is afterwards. Safe when
  /// several threads first touch the same const subgraph: exactly one
  /// builds, the rest wait. Deterministic for a given edge sequence, so
  /// a spilled worker's adjacency equals its resident twin's bit for bit.
  [[nodiscard]] const CsrGraph& csr(CsrGraph::Direction d) const {
    Adjacency& slot = (*adjacency_)[static_cast<std::size_t>(d)];
    std::call_once(slot.once, [&] {
      slot.csr = CsrGraph::build(num_vertices(), edges, d);
      slot.built.store(true, std::memory_order_release);
    });
    return slot.csr;
  }

  /// Bytes held by the adjacency built so far (0 until csr() is called).
  [[nodiscard]] std::size_t adjacency_bytes() const {
    std::size_t bytes = 0;
    for (const Adjacency& slot : *adjacency_) {
      if (slot.built.load(std::memory_order_acquire)) {
        bytes += slot.csr.memory_bytes();
      }
    }
    return bytes;
  }

 private:
  struct Adjacency {
    std::once_flag once;
    std::atomic<bool> built{false};
    CsrGraph csr;
  };
  using Directions = std::array<Adjacency, 3>;  // indexed by Direction

  /// Behind a pointer so the subgraph stays movable (once_flag is not).
  /// A copy starts with nothing built and rebuilds what it reads.
  struct LazyAdjacency {
    std::unique_ptr<Directions> slots = std::make_unique<Directions>();
    LazyAdjacency() = default;
    LazyAdjacency(const LazyAdjacency& /*other*/) {}
    LazyAdjacency& operator=(const LazyAdjacency& /*other*/) {
      slots = std::make_unique<Directions>();
      return *this;
    }
    LazyAdjacency(LazyAdjacency&&) noexcept = default;
    LazyAdjacency& operator=(LazyAdjacency&&) noexcept = default;
    Directions& operator*() const { return *slots; }
  };
  LazyAdjacency adjacency_;
};

}  // namespace ebv::bsp
