// The static exchange plan (src/bsp/exchange_plan.h) against the
// DistributedGraph it is derived from: every slot a message is addressed
// to must be the vertex's local id on the receiving worker, every fan-out
// list must name each mirror once in ascending worker order, and the lane
// topology must list exactly the pairs that share a replicated vertex —
// for random graphs with uncovered vertices, p ∈ {1, 3, 64}, resident and
// spilled.
#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "bsp/distributed_graph.h"
#include "bsp/exchange_plan.h"
#include "common/rng.h"
#include "graph/generators.h"

namespace ebv {
namespace {

using bsp::DistributedGraph;
using bsp::ExchangePlan;
using bsp::FanOut;
using bsp::LocalSubgraph;

/// A random graph plus a tail of isolated (uncovered) vertex ids.
Graph random_graph_with_uncovered(std::uint64_t seed) {
  Rng rng(derive_seed(seed, 0xE1));
  const auto n = static_cast<VertexId>(50 + bounded(rng, 400));
  const auto m = static_cast<EdgeId>(n + bounded(rng, n * 8));
  const double eta = 2.1 + 0.01 * static_cast<double>(bounded(rng, 60));
  const Graph base = bounded(rng, 2) == 0
                         ? gen::erdos_renyi(n, m, seed)
                         : gen::chung_lu(n, m, eta, false, seed);
  const std::span<const Edge> edges = base.edges();
  return Graph(base.num_vertices() + 7,
               std::vector<Edge>(edges.begin(), edges.end()));
}

EdgePartition random_partition(const Graph& g, PartitionId p,
                               std::uint64_t seed) {
  Rng rng(derive_seed(seed, 0xE2));
  EdgePartition part{p, std::vector<PartitionId>(g.num_edges())};
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    part.part_of_edge[e] = static_cast<PartitionId>(bounded(rng, p));
  }
  return part;
}

std::vector<LocalSubgraph> materialise(const DistributedGraph& dist) {
  std::vector<LocalSubgraph> out;
  for (PartitionId i = 0; i < dist.num_workers(); ++i) {
    out.push_back(dist.spilled() ? dist.load_worker(i, false)
                                 : dist.local(i));
  }
  return out;
}

void expect_plan_matches(const DistributedGraph& dist) {
  const ExchangePlan plan = bsp::build_exchange_plan(dist);
  const PartitionId p = dist.num_workers();
  const std::vector<LocalSubgraph> locals = materialise(dist);
  ASSERT_EQ(plan.num_workers, p);
  ASSERT_EQ(plan.slot_offset.size(), p + std::size_t{1});
  ASSERT_EQ(plan.fanout_offset.size(), p + std::size_t{1});

  // Lane topology: exactly the pairs sharing a replicated vertex, ids
  // dense in (mirror, master) order.
  std::vector<std::uint8_t> shares(static_cast<std::size_t>(p) * p, 0);
  std::uint64_t mirrors = 0;
  for (VertexId gv = 0; gv < dist.num_global_vertices(); ++gv) {
    const auto parts = dist.parts_of(gv);
    if (parts.size() < 2) continue;
    mirrors += parts.size() - 1;
    for (const PartitionId i : parts) {
      if (i != dist.master_of(gv)) {
        shares[static_cast<std::size_t>(i) * p + dist.master_of(gv)] = 1;
      }
    }
  }
  std::uint32_t expected_lane = 0;
  std::vector<PartitionId> lane_mirror;
  std::vector<PartitionId> lane_master;
  for (PartitionId i = 0; i < p; ++i) {
    for (PartitionId m = 0; m < p; ++m) {
      if (shares[static_cast<std::size_t>(i) * p + m] == 0) {
        EXPECT_EQ(plan.lane(i, m), ExchangePlan::kNoLane);
        continue;
      }
      EXPECT_EQ(plan.lane(i, m), expected_lane++);
      lane_mirror.push_back(i);
      lane_master.push_back(m);
    }
  }
  EXPECT_EQ(plan.num_lanes, expected_lane);
  for (PartitionId w = 0; w < p; ++w) {
    for (std::size_t k = 1; k < plan.senders_of[w].size(); ++k) {
      EXPECT_LT(plan.senders_of[w][k - 1], plan.senders_of[w][k]);
    }
    for (std::size_t k = 1; k < plan.masters_of[w].size(); ++k) {
      EXPECT_LT(plan.masters_of[w][k - 1], plan.masters_of[w][k]);
    }
  }

  // Slots and fan-out lists, checked vertex by vertex against local_of.
  std::uint64_t fanout_entries = 0;
  for (PartitionId i = 0; i < p; ++i) {
    ASSERT_EQ(plan.slot(i).size(), locals[i].num_vertices())
        << "worker " << i;
    fanout_entries += plan.fanout(i).size();
  }
  EXPECT_EQ(fanout_entries, mirrors);  // 8 bytes per mirror, nothing more
  for (VertexId gv = 0; gv < dist.num_global_vertices(); ++gv) {
    const auto parts = dist.parts_of(gv);
    if (parts.size() < 2) continue;
    const PartitionId m = dist.master_of(gv);
    const VertexId master_lv = locals[m].local_of(gv);
    ASSERT_NE(master_lv, kInvalidVertex);
    for (const PartitionId i : parts) {
      if (i == m) continue;
      const VertexId lv = locals[i].local_of(gv);
      ASSERT_NE(lv, kInvalidVertex);
      EXPECT_EQ(plan.slot(i)[lv], master_lv)
          << "mirror of " << gv << " on worker " << i;
    }
    // The master's fan-out: one entry per mirror, ascending peers, each
    // on the (mirror, master) lane, addressed to the mirror-local id,
    // the last one flagged.
    const PartitionId last_mirror =
        parts.back() != m ? parts.back() : parts[parts.size() - 2];
    std::size_t e = plan.slot(m)[master_lv];
    for (const PartitionId i : parts) {
      if (i == m) continue;
      ASSERT_LT(e, plan.fanout(m).size());
      const FanOut& f = plan.fanout(m)[e++];
      const std::uint32_t lane = f.lane & ~ExchangePlan::kLastMirror;
      ASSERT_LT(lane, plan.num_lanes);
      EXPECT_EQ(lane_mirror[lane], i) << "vertex " << gv;
      EXPECT_EQ(lane_master[lane], m) << "vertex " << gv;
      EXPECT_EQ(f.slot, locals[i].local_of(gv)) << "vertex " << gv;
      const bool flagged = (f.lane & ExchangePlan::kLastMirror) != 0;
      EXPECT_EQ(flagged, i == last_mirror)
          << "vertex " << gv << " peer " << i;
    }
  }
}

class ExchangePlanSweep
    : public testing::TestWithParam<std::tuple<PartitionId, std::uint64_t>> {
};

TEST_P(ExchangePlanSweep, SlotsMatchLocalIdsResidentAndSpilled) {
  const auto [p, seed] = GetParam();
  const Graph g = random_graph_with_uncovered(seed);
  const EdgePartition part = random_partition(g, p, seed);
  const DistributedGraph resident(g, part);
  // The appended tail is uncovered: the plan must skip it.
  ASSERT_TRUE(resident.parts_of(g.num_vertices() - 1).empty());
  expect_plan_matches(resident);

  const std::string path = testing::TempDir() + "/exchange_plan_" +
                           std::to_string(p) + "_" + std::to_string(seed) +
                           ".ebvw";
  {
    const DistributedGraph spilled(g, part, {.spill_path = path});
    expect_plan_matches(spilled);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, ExchangePlanSweep,
    testing::Combine(testing::Values(PartitionId{1}, PartitionId{3},
                                     PartitionId{64}),
                     testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                     std::uint64_t{3}, std::uint64_t{4})));

TEST(ExchangePlan, SinglePartHasNoLanes) {
  const Graph g = gen::erdos_renyi(100, 400, 9);
  const DistributedGraph dist(g, random_partition(g, 1, 9));
  const ExchangePlan plan = bsp::build_exchange_plan(dist);
  EXPECT_EQ(plan.num_lanes, 0u);
  EXPECT_TRUE(plan.fanout(0).empty());
  EXPECT_TRUE(plan.senders_of[0].empty());
  EXPECT_TRUE(plan.masters_of[0].empty());
}

}  // namespace
}  // namespace ebv
