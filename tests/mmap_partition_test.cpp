// Acceptance pin for the out-of-core path: partitioning an mmap-backed
// EBVS snapshot must be BIT-IDENTICAL to partitioning the same snapshot
// loaded resident — per-edge assignments and all quality metrics — for
// the streaming partitioners at p ∈ {4, 64}, and metric-identical through
// the materialising fallback for the non-streaming ones.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/mapped_graph.h"
#include "partition/metrics.h"
#include "partition/registry.h"

namespace ebv {
namespace {

/// One shared snapshot: a 24k-edge power-law graph, canonicalised by the
/// snapshot writer.
const std::string& snapshot_path() {
  static const std::string path = [] {
    Graph g = gen::chung_lu(3000, 24000, 2.3, false, 7);
    g.set_name("mmap-partition-pin");
    const std::string p = testing::TempDir() + "/mmap_partition.ebvs";
    io::write_snapshot_file(p, g);
    return p;
  }();
  return path;
}

const Graph& resident_graph() {
  static const Graph g = io::read_snapshot_file(snapshot_path());
  return g;
}

class MmapBitIdentical
    : public testing::TestWithParam<std::tuple<std::string, PartitionId>> {};

TEST_P(MmapBitIdentical, MatchesResidentPath) {
  const auto& [algo, parts] = GetParam();
  PartitionConfig config;
  config.num_parts = parts;
  config.seed = 7;

  const EdgePartition resident =
      make_partitioner(algo)->partition(resident_graph(), config);

  const MappedGraph mapped(snapshot_path());
  mapped.validate();
  const EdgePartition via_mmap =
      make_partitioner(algo)->partition_view(mapped.view(), config);

  // Per-edge assignments: exact.
  ASSERT_EQ(via_mmap.num_parts, resident.num_parts);
  EXPECT_EQ(via_mmap.part_of_edge, resident.part_of_edge)
      << algo << " diverged between mmap and resident at p=" << parts;

  // Quality metrics: exact doubles, computed once over the mapped view
  // and once over the resident graph.
  const PartitionMetrics a = compute_metrics(resident_graph(), resident);
  const PartitionMetrics b = compute_metrics(mapped.view(), via_mmap);
  EXPECT_EQ(a.replication_factor, b.replication_factor);
  EXPECT_EQ(a.edge_imbalance, b.edge_imbalance);
  EXPECT_EQ(a.vertex_imbalance, b.vertex_imbalance);
  EXPECT_EQ(a.edges_per_part, b.edges_per_part);
  EXPECT_EQ(a.vertices_per_part, b.vertices_per_part);
}

INSTANTIATE_TEST_SUITE_P(
    StreamingAlgos, MmapBitIdentical,
    testing::Combine(testing::Values("ebv", "ebv-stream", "hdrf"),
                     testing::Values(PartitionId{4}, PartitionId{64})),
    [](const testing::TestParamInfo<std::tuple<std::string, PartitionId>>&
           param) {
      std::string id = std::get<0>(param.param) + "_p" +
                       std::to_string(std::get<1>(param.param));
      for (char& c : id) {
        if (c == '-') c = '_';
      }
      return id;
    });

TEST(MmapBitIdentical, ThreadedEbvOverMmapMatchesSerial) {
  // The parallel edge sort must stay bit-identical when the edge source is
  // a mapped section.
  const MappedGraph mapped(snapshot_path());
  PartitionConfig config;
  config.num_parts = 8;
  config.seed = 7;
  const EdgePartition serial =
      make_partitioner("ebv")->partition_view(mapped.view(), config);
  config.num_threads = 4;
  const EdgePartition threaded =
      make_partitioner("ebv")->partition_view(mapped.view(), config);
  EXPECT_EQ(threaded.part_of_edge, serial.part_of_edge);
}

TEST(MmapBitIdentical, FallbackMaterialisesForNonStreamingAlgos) {
  // Algorithms without a zero-copy override route through the base-class
  // fallback; results must still match the resident path exactly.
  const MappedGraph mapped(snapshot_path());
  for (const std::string algo : {"dbh", "ginger", "ne"}) {
    PartitionConfig config;
    config.num_parts = 4;
    config.seed = 7;
    const EdgePartition resident =
        make_partitioner(algo)->partition(resident_graph(), config);
    const EdgePartition via_view =
        make_partitioner(algo)->partition_view(mapped.view(), config);
    EXPECT_EQ(via_view.part_of_edge, resident.part_of_edge)
        << algo << " fallback diverged from the resident path";
  }
}

}  // namespace
}  // namespace ebv
