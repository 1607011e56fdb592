// DistributedGraph: the per-worker view of a vertex-cut partitioned graph.
//
// Construction takes a GraphView plus an EdgePartition and produces, for
// every worker, a local subgraph over dense *local* vertex ids, together
// with the replica routing tables the BSP runtime needs:
//   - a vertex covered by edges in several parts is *replicated*;
//   - one replica is designated the master (the part holding the most
//     incident edges, ties to the lowest part id) — masters combine values
//     from mirrors and broadcast the result back (PowerGraph-style sync,
//     which is how DRONE-like subgraph-centric frameworks communicate).
//
// Taking a GraphView (a resident Graph converts implicitly) makes this the
// out-of-core half of `ebvpart run --mmap`: the edge section of an
// mmap-backed EBVS snapshot is streamed and the transient construction
// state is O(|V|·⌈p/64⌉ + Σ|Vi|) resident (replica bitmasks + flat
// CSR-style incident counts), never O(|E|) heap.
//
// Two residency modes:
//   - resident (default): all p LocalSubgraphs are held in memory, so the
//     aggregate is O(|E|);
//   - spilled (DistributeOptions::spill_path): each worker's subgraph is
//     built ONE AT A TIME and streamed into an EBVW worker-spill snapshot
//     (bsp/spill_store.h); only the O(|V|)-ish routing tables stay
//     resident, and the runtime materialises workers on demand under its
//     RunOptions::resident_workers budget. Results are bit-identical in
//     both modes.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bsp/local_subgraph.h"
#include "bsp/spill_store.h"
#include "common/assert.h"
#include "graph/graph_view.h"
#include "partition/partitioner.h"

namespace ebv::bsp {

/// Construction-time options.
struct DistributeOptions {
  /// When non-empty, write every worker's subgraph to an EBVW snapshot at
  /// this path during construction instead of keeping it resident. The
  /// file must outlive the DistributedGraph; it is NOT removed on
  /// destruction (callers own the lifecycle — see
  /// analysis::run_with_partition for the self-cleaning driver).
  std::string spill_path;
};

class DistributedGraph {
 public:
  /// Builds all worker-local structures resident. O(|E| + Σ|Vi|) time;
  /// the edge span is read in three sequential streaming passes and is
  /// never copied, so an mmap-backed view needs no resident edge storage.
  /// No local adjacency is built: each worker's CSRs are built on first
  /// use, per direction (LocalSubgraph::csr).
  DistributedGraph(const GraphView& graph, const EdgePartition& partition);

  /// As above; `options.spill_path` selects spilled construction, which
  /// adds p filtering passes over the edge span (one per worker, each
  /// sequential) in exchange for never holding more than one worker's
  /// subgraph in memory.
  DistributedGraph(const GraphView& graph, const EdgePartition& partition,
                   const DistributeOptions& options);

  [[nodiscard]] PartitionId num_workers() const { return num_workers_; }
  [[nodiscard]] VertexId num_global_vertices() const {
    return num_global_vertices_;
  }
  [[nodiscard]] EdgeId num_global_edges() const { return num_global_edges_; }

  /// Whether subgraphs live in the spill store instead of memory.
  [[nodiscard]] bool spilled() const { return store_.has_value(); }
  /// Path of the spill snapshot. Throws std::invalid_argument in
  /// resident mode.
  [[nodiscard]] const std::string& spill_path() const {
    EBV_REQUIRE(spilled(), "spill_path(): subgraphs are resident");
    return store_->path();
  }

  /// Resident mode only — spilled graphs have no long-lived subgraph to
  /// reference; use load_worker(). Throws std::invalid_argument when
  /// spilled.
  [[nodiscard]] const LocalSubgraph& local(PartitionId i) const {
    EBV_REQUIRE(!spilled(),
                "local(): subgraphs are spilled to disk; use load_worker()");
    return locals_[i];
  }

  /// Spilled mode only: materialise worker i from the spill store (its
  /// adjacency is built on first use, see LocalSubgraph::csr). Throws
  /// std::invalid_argument in resident mode.
  [[nodiscard]] LocalSubgraph load_worker(PartitionId i) const {
    EBV_REQUIRE(spilled(), "load_worker(): subgraphs are resident; use local()");
    return store_->load_worker(i);
  }

  /// Parts holding vertex v (ascending). Size 1 for non-replicated
  /// vertices; empty for vertices covered by no edge. Throws
  /// std::invalid_argument for an out-of-range global id.
  [[nodiscard]] std::span<const PartitionId> parts_of(VertexId global) const {
    EBV_REQUIRE(global < num_global_vertices_,
                "parts_of: global vertex id out of range");
    return {replica_parts_.data() + replica_offsets_[global],
            static_cast<std::size_t>(replica_offsets_[global + 1] -
                                     replica_offsets_[global])};
  }
  /// Master part of v, or kInvalidPartition for uncovered vertices.
  /// Throws std::invalid_argument for an out-of-range global id.
  [[nodiscard]] PartitionId master_of(VertexId global) const {
    EBV_REQUIRE(global < num_global_vertices_,
                "master_of: global vertex id out of range");
    return master_of_vertex_[global];
  }

  /// Σ|Vi| — total replicas, matching the metrics module.
  [[nodiscard]] std::uint64_t total_replicas() const {
    return total_replicas_;
  }

 private:
  void build(const GraphView& graph, const EdgePartition& partition,
             const DistributeOptions& options);

  PartitionId num_workers_ = 0;
  VertexId num_global_vertices_ = 0;
  EdgeId num_global_edges_ = 0;
  std::uint64_t total_replicas_ = 0;
  std::vector<LocalSubgraph> locals_;  // empty in spilled mode
  std::optional<SpillStore> store_;    // engaged in spilled mode
  // parts_of(v) = replica_parts_[replica_offsets_[v] .. replica_offsets_[v+1])
  // — a flat CSR layout instead of |V| small vectors.
  std::vector<std::uint64_t> replica_offsets_;
  std::vector<PartitionId> replica_parts_;
  std::vector<PartitionId> master_of_vertex_;
};

}  // namespace ebv::bsp
