// Golden-quality regression pins for every registered partitioner.
//
// A fixed-seed Chung-Lu graph is partitioned into 8 parts and the paper's
// three quality metrics (§III-C) are compared against recorded values. A
// refactor that silently changes assignment behaviour (tie-breaking, visit
// order, score arithmetic) moves these metrics by far more than the 1e-6
// tolerance, which in turn only absorbs last-ulp arithmetic differences
// between compilers. Regenerate the table with
// tools-level code if an intentional algorithm change lands:
//   partition chung_lu(3000, 24000, 2.3, false, 7) with num_parts=8,
//   seed=7, defaults otherwise, and print compute_metrics at %.17g.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "partition/metrics.h"
#include "partition/partitioner.h"
#include "partition/registry.h"

namespace ebv {
namespace {

struct GoldenMetrics {
  double replication_factor;
  double edge_imbalance;
  double vertex_imbalance;
};

const std::map<std::string, GoldenMetrics>& golden_table() {
  static const std::map<std::string, GoldenMetrics> table = {
      {"ebv", {2.5176666666666665, 1.0376666666666667, 1.0115186018800477}},
      {"ebv-stream",
       {2.6703333333333332, 1.0169999999999999, 1.0126076644613655}},
      {"ebv-dist", {3.7273333333333332, 1.359, 1.073868717581828}},
      {"ginger", {2.819, 1.0760000000000001, 1.0320444602104766}},
      {"dbh", {2.9463333333333335, 1.081, 1.0498925217784818}},
      {"cvc", {3.8676666666666666, 1.1966666666666668, 1.0411100577436869}},
      {"ne", {2.6463333333333332, 1.0, 1.6455472981483814}},
      {"metis", {3.7013333333333334, 1.744, 1.5021613832853027}},
      {"hdrf", {2.4936666666666665, 1.0, 1.0212538430691085}},
      {"fennel", {3.0896666666666666, 4.2523333333333335, 2.3277591973244145}},
      {"random", {5.4139999999999997, 1.026, 1.021549070311538}},
      {"hash", {5.4240000000000004, 1.0269999999999999, 1.0206489675516224}},
  };
  return table;
}

const Graph& golden_graph() {
  static const Graph g = gen::chung_lu(3000, 24000, 2.3, false, 7);
  return g;
}

PartitionConfig golden_config() {
  PartitionConfig config;
  config.num_parts = 8;
  config.seed = 7;
  return config;
}

TEST(GoldenDeterminism, EveryRegisteredPartitionerIsPinned) {
  // A new partitioner must come with a golden row (and vice versa).
  EXPECT_EQ(all_partitioners().size(), golden_table().size());
  for (const std::string& name : all_partitioners()) {
    EXPECT_TRUE(golden_table().count(name) != 0)
        << "no golden metrics recorded for '" << name << "'";
  }
}

class GoldenPartitioner : public testing::TestWithParam<std::string> {};

TEST_P(GoldenPartitioner, QualityMetricsMatchRecordedValues) {
  const std::string name = GetParam();
  ASSERT_TRUE(golden_table().count(name) != 0);
  const GoldenMetrics& golden = golden_table().at(name);

  const Graph& g = golden_graph();
  const EdgePartition part =
      make_partitioner(name)->partition(g, golden_config());
  ASSERT_EQ(part.part_of_edge.size(), g.num_edges());
  const PartitionMetrics m = compute_metrics(g, part);

  constexpr double kTol = 1e-6;
  EXPECT_NEAR(m.replication_factor, golden.replication_factor, kTol)
      << name << ": replication factor drifted";
  EXPECT_NEAR(m.edge_imbalance, golden.edge_imbalance, kTol)
      << name << ": edge imbalance drifted";
  EXPECT_NEAR(m.vertex_imbalance, golden.vertex_imbalance, kTol)
      << name << ": vertex imbalance drifted";
}

TEST_P(GoldenPartitioner, RepeatedRunsAreIdentical) {
  const std::string name = GetParam();
  const Graph& g = golden_graph();
  const EdgePartition a = make_partitioner(name)->partition(g, golden_config());
  const EdgePartition b = make_partitioner(name)->partition(g, golden_config());
  EXPECT_EQ(a.part_of_edge, b.part_of_edge)
      << name << " is not deterministic under a fixed seed";
}

/// Seed-scorer reference: the part-major byte-matrix implementation the
/// repo shipped with, reproduced verbatim (membership branches and
/// floating-point association order included) so the vertex-major bitmask
/// core can be checked for BIT-IDENTICAL assignments — including at part
/// counts that straddle the 64-bit mask-word boundary.
EdgePartition legacy_ebv_reference(const Graph& g,
                                   const PartitionConfig& config) {
  const PartitionId p = config.num_parts;
  const double edges_per_part =
      static_cast<double>(std::max<EdgeId>(g.num_edges(), 1)) / p;
  const double vertices_per_part = static_cast<double>(g.num_vertices()) / p;
  std::vector<std::uint8_t> keep(static_cast<std::size_t>(p) *
                                     g.num_vertices(),
                                 0);
  std::vector<std::uint64_t> ecount(p, 0);
  std::vector<std::uint64_t> vcount(p, 0);
  auto kept = [&](PartitionId i, VertexId v) -> std::uint8_t& {
    return keep[static_cast<std::size_t>(i) * g.num_vertices() + v];
  };

  EdgePartition result;
  result.num_parts = p;
  result.part_of_edge.assign(g.num_edges(), kInvalidPartition);
  for (const EdgeId e :
       make_edge_order(g, config.edge_order, config.seed, 1)) {
    const auto [u, v] = g.edge(e);
    PartitionId best = 0;
    double best_eva = std::numeric_limits<double>::infinity();
    for (PartitionId i = 0; i < p; ++i) {
      double eva = 0.0;
      if (kept(i, u) == 0) eva += 1.0;
      if (kept(i, v) == 0) eva += 1.0;
      eva += config.alpha * static_cast<double>(ecount[i]) / edges_per_part;
      eva += config.beta * static_cast<double>(vcount[i]) / vertices_per_part;
      if (eva < best_eva) {
        best_eva = eva;
        best = i;
      }
    }
    result.part_of_edge[e] = best;
    ++ecount[best];
    for (const VertexId w : {u, v}) {
      if (kept(best, w) == 0) {
        kept(best, w) = 1;
        ++vcount[best];
      }
    }
  }
  return result;
}

/// The bitmask scorer must agree with the legacy part-major scorer bit for
/// bit, at part counts below / at / above the mask-word width (multi-word
/// rows) — at 1 and 4 threads.
TEST(MaskScorerEquivalence, MatchesLegacyScorerAcrossPartCounts) {
  const Graph g = gen::chung_lu(800, 6'000, 2.3, false, 21);
  for (const PartitionId parts : {2u, 63u, 64u, 65u, 200u}) {
    PartitionConfig config;
    config.num_parts = parts;
    config.seed = 21;
    const EdgePartition legacy = legacy_ebv_reference(g, config);

    config.num_threads = 1;
    const EdgePartition serial =
        make_partitioner("ebv")->partition(g, config);
    EXPECT_EQ(serial.part_of_edge, legacy.part_of_edge)
        << "bitmask scorer diverged from the legacy scorer at p=" << parts;

    config.num_threads = 4;
    const EdgePartition threaded =
        make_partitioner("ebv")->partition(g, config);
    EXPECT_EQ(threaded.part_of_edge, legacy.part_of_edge)
        << "4-thread EBV diverged from the legacy scorer at p=" << parts;
  }
}

/// Thread-count invariance on the golden workload: every thread count must
/// reproduce the serial assignment exactly for both EBV drivers.
TEST(GoldenDeterminism, ThreadCountMatchesSerial) {
  const Graph& g = golden_graph();
  for (const std::string name : {"ebv", "ebv-stream"}) {
    PartitionConfig config = golden_config();
    config.num_threads = 1;
    const EdgePartition serial = make_partitioner(name)->partition(g, config);
    for (const std::uint32_t threads : {1u, 4u, 16u}) {
      config.num_threads = threads;
      const EdgePartition run = make_partitioner(name)->partition(g, config);
      EXPECT_EQ(run.part_of_edge, serial.part_of_edge)
          << name << " diverged at threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPartitioners, GoldenPartitioner,
                         testing::ValuesIn(all_partitioners()),
                         [](const testing::TestParamInfo<std::string>& param) {
                           std::string id = param.param;
                           for (char& c : id) {
                             if (c == '-') c = '_';
                           }
                           return id;
                         });

}  // namespace
}  // namespace ebv
