// Vertex-cut (edge partitioning) interface. A partitioner maps every edge
// of a Graph to exactly one of `num_parts` subgraphs (paper §III-C): the
// edge sets are disjoint, and V_i is the set of vertices covered by E_i,
// so vertices incident to edges in several parts are replicated.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/graph_view.h"

namespace ebv {

/// Edge processing order for sequential/streaming partitioners (EBV, HDRF,
/// Ginger). kSortedAscending is the paper's preprocessing: ascending by
/// deg(u) + deg(v). The other orders exist for the Fig. 5 / ablation
/// comparisons.
enum class EdgeOrder {
  kSortedAscending,
  kSortedDescending,
  kNatural,
  kRandom,
};

struct PartitionConfig {
  PartitionId num_parts = 2;

  /// EBV hyper-parameters (paper eq. 2); default 1.0 as in §IV-C.
  double alpha = 1.0;
  double beta = 1.0;

  /// Streaming order; EBV's default is the sorted preprocessing.
  EdgeOrder edge_order = EdgeOrder::kSortedAscending;

  /// Seed for any randomised decision (hash salts, random order, NE start
  /// vertices, METIS tie-breaking).
  std::uint64_t seed = 42;

  /// Worker threads for partitioners that support intra-partition
  /// parallelism; 1 = sequential. THE RULE: num_threads is an upper bound
  /// on EVERY parallel stage of a partitioner run. For the EBV family that
  /// is make_edge_order's key fill and chunk-sort, which fan out over
  /// exactly min(num_threads, work) ranks, never the whole shared pool.
  /// (The pool merely carries the ranks; its size does not govern the
  /// fan-out.) Eva scoring itself is serial (eva_scorer.h). Results are
  /// bit-identical for every value.
  std::uint32_t num_threads = 1;
};

/// Result of a vertex-cut partitioning: part_of_edge[e] is the subgraph of
/// edge e. Invariant: every entry < num_parts.
struct EdgePartition {
  PartitionId num_parts = 0;
  std::vector<PartitionId> part_of_edge;
};

class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// Short identifier used in tables ("ebv", "ginger", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Partition `graph` into config.num_parts subgraphs.
  /// Throws std::invalid_argument for num_parts == 0 or > |E| scale issues.
  [[nodiscard]] virtual EdgePartition partition(
      const Graph& graph, const PartitionConfig& config) const = 0;

  /// Out-of-core entry point: partition a graph presented as a non-owning
  /// view — typically an mmap-backed EBVS snapshot (graph/mapped_graph.h).
  /// The streaming partitioners (EBV, streaming EBV, HDRF) override this
  /// to run directly over the view with O(|V|) resident state; the default
  /// materialises a resident Graph copy first, so every algorithm accepts
  /// a snapshot. Results are identical to partition() on a resident Graph
  /// holding the same edge sequence.
  [[nodiscard]] virtual EdgePartition partition_view(
      const GraphView& view, const PartitionConfig& config) const;
};

/// Materialise the edge-visit order requested by `order`. Sorting is stable
/// with (degree-sum, src, dst) tie-breaking so results are deterministic.
/// With num_threads > 1 the sort runs as chunk-sort + merge on the global
/// pool; the comparator is a strict total order, so the output is identical
/// to the sequential sort for every thread count.
std::vector<EdgeId> make_edge_order(const GraphView& graph, EdgeOrder order,
                                    std::uint64_t seed,
                                    std::uint32_t num_threads = 1);

/// Validate common preconditions shared by all partitioners.
void check_partition_config(const GraphView& graph,
                            const PartitionConfig& config);

}  // namespace ebv
