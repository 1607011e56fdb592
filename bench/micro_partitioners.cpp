// Micro-benchmarks (google-benchmark): partitioner throughput in edges/s
// and the cost of the building blocks (CSR construction, edge sorting,
// metrics, distributed-graph assembly).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bsp/distributed_graph.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "partition/eva_scorer.h"
#include "partition/metrics.h"
#include "partition/registry.h"

namespace {

using namespace ebv;

const Graph& test_graph() {
  static const Graph g = gen::chung_lu(20'000, 200'000, 2.3, false, 42);
  return g;
}

void BM_Partitioner(benchmark::State& state, const std::string& name) {
  const Graph& g = test_graph();
  const auto partitioner = make_partitioner(name);
  PartitionConfig config;
  config.num_parts = static_cast<PartitionId>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(partitioner->partition(g, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}

// 1M-edge power-law graph for the EBV trajectory recorded in
// BENCH_partition.json (serial scoring, 1–4 thread edge sort).
const Graph& big_graph() {
  static const Graph g = gen::chung_lu(100'000, 1'000'000, 2.3, false, 42);
  return g;
}

// The Eva scoring core in isolation (no edge sort): assign every edge of
// the 1M-edge graph in natural order with the serial best_part → commit
// loop; the BENCH_partition.json trajectory tracks it in edges/sec.
void BM_EvaScore(benchmark::State& state) {
  const Graph& g = big_graph();
  PartitionConfig config;
  config.num_parts = 64;
  for (auto _ : state) {
    detail::EvaState eva(g, config);
    std::uint64_t committed = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto [u, v] = g.edge(e);
      const PartitionId best = eva.best_part(u, v);
      eva.commit(best, u, v);
      committed += best;
    }
    benchmark::DoNotOptimize(committed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}

void BM_EbvThreads(benchmark::State& state) {
  const Graph& g = big_graph();
  const auto partitioner = make_partitioner("ebv");
  PartitionConfig config;
  config.num_parts = 64;
  config.num_threads = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(partitioner->partition(g, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}

void BM_EdgeSortThreads(benchmark::State& state) {
  const Graph& g = big_graph();
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        make_edge_order(g, EdgeOrder::kSortedAscending, 42, threads));
  }
}

void BM_CsrBuild(benchmark::State& state) {
  const Graph& g = test_graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CsrGraph::build(g, CsrGraph::Direction::kBoth));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}

void BM_EdgeSort(benchmark::State& state) {
  const Graph& g = test_graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        make_edge_order(g, EdgeOrder::kSortedAscending, 42));
  }
}

void BM_Metrics(benchmark::State& state) {
  const Graph& g = test_graph();
  const auto part = make_partitioner("dbh")->partition(g, {.num_parts = 16});
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_metrics(g, part));
  }
}

// Interquartile range (linear-interpolated quartiles) of the repetition
// samples, reported beside the median of the single-iteration rows.
double iqr(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  std::vector<double> v = samples;
  std::sort(v.begin(), v.end());
  auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return quantile(0.75) - quantile(0.25);
}

void BM_DistributedGraphBuild(benchmark::State& state) {
  const Graph& g = test_graph();
  const auto part = make_partitioner("ebv")->partition(g, {.num_parts = 16});
  for (auto _ : state) {
    benchmark::DoNotOptimize(bsp::DistributedGraph(g, part));
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_Partitioner, ebv, std::string("ebv"))->Arg(16);
BENCHMARK_CAPTURE(BM_Partitioner, ginger, std::string("ginger"))->Arg(16);
BENCHMARK_CAPTURE(BM_Partitioner, dbh, std::string("dbh"))->Arg(16);
BENCHMARK_CAPTURE(BM_Partitioner, cvc, std::string("cvc"))->Arg(16);
BENCHMARK_CAPTURE(BM_Partitioner, ne, std::string("ne"))->Arg(16);
BENCHMARK_CAPTURE(BM_Partitioner, metis, std::string("metis"))->Arg(16);
BENCHMARK_CAPTURE(BM_Partitioner, hdrf, std::string("hdrf"))->Arg(16);
BENCHMARK_CAPTURE(BM_Partitioner, ebv_p4, std::string("ebv"))->Arg(4);
BENCHMARK_CAPTURE(BM_Partitioner, ebv_p64, std::string("ebv"))->Arg(64);
// The 1M-edge rows run one iteration per sample, so each reports the
// median and IQR of 5 repetitions instead of a single sample.
BENCHMARK(BM_EvaScore)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Repetitions(5)
    ->ComputeStatistics("iqr", iqr)
    ->ReportAggregatesOnly(true);
BENCHMARK(BM_EbvThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Repetitions(5)
    ->ComputeStatistics("iqr", iqr)
    ->ReportAggregatesOnly(true);
BENCHMARK(BM_EdgeSortThreads)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Repetitions(5)
    ->ComputeStatistics("iqr", iqr)
    ->ReportAggregatesOnly(true);
BENCHMARK(BM_CsrBuild);
BENCHMARK(BM_EdgeSort);
BENCHMARK(BM_Metrics);
BENCHMARK(BM_DistributedGraphBuild);
