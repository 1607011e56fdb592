// Thread-pool primitives (common/parallel.h) and the bit-identical
// thread-count invariance of the EBV family (parallel edge sort, serial
// Eva scoring).
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"
#include "graph/generators.h"
#include "partition/partitioner.h"
#include "partition/registry.h"

namespace ebv {
namespace {

TEST(ParallelFor, MatchesSerialSum) {
  constexpr std::size_t kN = 100'000;
  std::vector<std::uint64_t> data(kN);
  std::iota(data.begin(), data.end(), std::uint64_t{1});

  std::vector<std::uint64_t> out(kN, 0);
  parallel_for(kN, [&](std::size_t i) { out[i] = data[i] * data[i]; });

  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(out[i], data[i] * data[i]) << "index " << i;
  }
}

TEST(ParallelFor, EveryIndexExactlyOnce) {
  constexpr std::size_t kN = 54'321;  // not a multiple of any grain
  std::vector<std::atomic<std::uint32_t>> hits(kN);
  parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
  }
}

TEST(ParallelFor, ZeroIterationsIsANoop) {
  bool touched = false;
  parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, PropagatesException) {
  EXPECT_THROW(
      parallel_for(
          10'000,
          [](std::size_t i) {
            if (i == 4'321) throw std::runtime_error("boom");
          },
          64),
      std::runtime_error);
}

TEST(ParallelFor, PoolSurvivesAnException) {
  try {
    parallel_for(1'000, [](std::size_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<std::size_t> count{0};
  parallel_for(1'000, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 1'000u);
}

TEST(ParallelFor, NestedUseRunsInline) {
  std::atomic<std::uint64_t> total{0};
  parallel_for(
      64,
      [&](std::size_t) {
        // Nested call from a pool body must not deadlock; it degrades to
        // serial inline execution.
        std::uint64_t local = 0;
        parallel_for(100, [&](std::size_t j) { local += j; });
        total.fetch_add(local, std::memory_order_relaxed);
      },
      1);
  EXPECT_EQ(total.load(), 64u * (99u * 100u / 2));
}

TEST(ParallelFor, ConcurrentExternalCallersSerialise) {
  std::atomic<std::uint64_t> total{0};
  ThreadPool::global().run_team(2, [&](unsigned, unsigned) {
    parallel_for(10'000, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 20'000u);
}

TEST(RunTeam, AllRanksRunConcurrently) {
  constexpr unsigned kTeam = 8;  // oversubscribes small CI hosts on purpose
  std::barrier barrier(kTeam);
  std::vector<unsigned> rank_seen(kTeam, 0);
  ThreadPool::global().run_team(kTeam, [&](unsigned rank, unsigned team) {
    ASSERT_EQ(team, kTeam);
    // Would deadlock unless all ranks are live at once.
    barrier.arrive_and_wait();
    rank_seen[rank] = rank + 1;
    barrier.arrive_and_wait();
  });
  for (unsigned r = 0; r < kTeam; ++r) EXPECT_EQ(rank_seen[r], r + 1);
}

TEST(RunTeam, PropagatesException) {
  EXPECT_THROW(ThreadPool::global().run_team(
                   4,
                   [](unsigned rank, unsigned) {
                     if (rank == 2) throw std::invalid_argument("rank 2");
                   }),
               std::invalid_argument);
}

TEST(RequestGlobalThreads, WarnsWhenTheKnobCannotApply) {
  // --threads used to be silently ignored once the pool existed; the
  // request_ wrapper must say so. Force the pool into existence first.
  parallel_for(10, [](std::size_t) {});
  const unsigned current = ThreadPool::global().num_threads();

  std::ostringstream warn;
  EXPECT_TRUE(request_global_threads(current, warn))
      << "matching size is always accepted";
  EXPECT_TRUE(warn.str().empty()) << warn.str();

  std::ostringstream warn2;
  EXPECT_FALSE(request_global_threads(current + 1, warn2));
  EXPECT_NE(warn2.str().find("ignored"), std::string::npos) << warn2.str();

  std::ostringstream warn3;
  EXPECT_FALSE(request_global_threads(0, warn3));
  EXPECT_FALSE(warn3.str().empty()) << "zero threads must be called out";
}

TEST(EdgeOrder, ParallelSortMatchesSerial) {
  // Above the 2^14 parallel-sort threshold so the chunk-sort + merge path
  // actually runs.
  const Graph g = gen::chung_lu(6'000, 40'000, 2.3, false, 11);
  const auto serial = make_edge_order(g, EdgeOrder::kSortedAscending, 42, 1);
  const auto par4 = make_edge_order(g, EdgeOrder::kSortedAscending, 42, 4);
  const auto par16 = make_edge_order(g, EdgeOrder::kSortedAscending, 42, 16);
  EXPECT_EQ(serial, par4);
  EXPECT_EQ(serial, par16);
  const auto desc1 = make_edge_order(g, EdgeOrder::kSortedDescending, 42, 1);
  const auto desc8 = make_edge_order(g, EdgeOrder::kSortedDescending, 42, 8);
  EXPECT_EQ(desc1, desc8);
}

/// The headline guarantee: EBV output is bit-identical to the 1-thread
/// run at every thread count.
TEST(EbvParallelDeterminism, PartOfEdgeIdenticalAcrossThreads) {
  // Above the 2^14 threshold of make_edge_order's parallel key fill and
  // chunk-sort, the stages num_threads fans out.
  const Graph g = gen::chung_lu(4'000, 20'000, 2.3, false, 5);
  ASSERT_GE(g.num_edges(), EdgeId{1} << 14);
  const auto partitioner = make_partitioner("ebv");
  PartitionConfig config;
  config.num_parts = 32;

  config.num_threads = 1;
  const EdgePartition serial = partitioner->partition(g, config);
  for (const std::uint32_t threads : {1u, 4u, 16u}) {
    config.num_threads = threads;
    const EdgePartition parallel = partitioner->partition(g, config);
    ASSERT_EQ(parallel.num_parts, serial.num_parts);
    EXPECT_EQ(parallel.part_of_edge, serial.part_of_edge)
        << "EBV output diverged at " << threads << " threads";
  }
}

TEST(EbvParallelDeterminism, StreamingIdenticalAcrossThreads) {
  const Graph g = gen::chung_lu(1'500, 8'000, 2.4, false, 9);
  const auto partitioner = make_partitioner("ebv-stream");
  PartitionConfig config;
  config.num_parts = 16;

  config.num_threads = 1;
  const EdgePartition serial = partitioner->partition(g, config);
  for (const std::uint32_t threads : {1u, 4u, 16u}) {
    config.num_threads = threads;
    const EdgePartition parallel = partitioner->partition(g, config);
    EXPECT_EQ(parallel.part_of_edge, serial.part_of_edge)
        << "streaming EBV output diverged at " << threads << " threads";
  }
}

TEST(EbvParallelDeterminism, NaturalOrderAndHyperParams) {
  // Exercise a non-default order and asymmetric α/β at 4 threads.
  const Graph g = gen::chung_lu(1'000, 6'000, 2.2, false, 13);
  const auto partitioner = make_partitioner("ebv");
  PartitionConfig config;
  config.num_parts = 8;
  config.alpha = 2.5;
  config.beta = 0.5;
  config.edge_order = EdgeOrder::kNatural;

  config.num_threads = 1;
  const EdgePartition serial = partitioner->partition(g, config);
  config.num_threads = 4;
  const EdgePartition parallel = partitioner->partition(g, config);
  EXPECT_EQ(parallel.part_of_edge, serial.part_of_edge);
}

}  // namespace
}  // namespace ebv
