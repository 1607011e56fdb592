// Shared evaluation-function core for the EBV family (Algorithm 1) and
// the other replica-tracking streaming partitioners (HDRF).
//
// Replica membership is stored VERTEX-MAJOR as bitmasks: every vertex owns
// ceil(p/64) contiguous uint64 words whose bit i says "v is replicated on
// part i". Compared with the seed's part-major p × |V| byte matrix this is
// an 8× memory reduction (|V|·⌈p/64⌉·8 bytes instead of p·|V|), and — the
// actual point — scoring an edge (u, v) against all p parts touches just
// the two vertices' mask rows (2·⌈p/64⌉ contiguous words) instead of 2p
// scattered byte loads across p different |V|-sized arrays.
//
// EvaState additionally keeps the balance terms of
//
//   Eva(u,v)(i) = I(u ∉ keep[i]) + I(v ∉ keep[i])
//               + α·ecount[i]/(|E|/p) + β·vcount[i]/(|V|/p)
//
// INCREMENTALLY: load_e[i] = α·ecount[i]/(|E|/p) and
// load_v[i] = β·vcount[i]/(|V|/p) are dense per-part arrays refreshed only
// when a commit changes part i, so the per-edge argmin is a branch-light
// sweep of (miss + load_e[i]) + load_v[i] driven by countr_zero iteration
// over the membership classes (both endpoints present / exactly one /
// neither) — no division and no membership branch in the hot loop. The two
// load terms stay SEPARATE and every eva is evaluated as
// ((miss + load_e) + load_v) with load_x recomputed from the integer
// counters, because that reproduces the seed scorer's floating-point
// rounding exactly: double addition is not associative, and the golden
// tests pin the seed's lowest-index tie-break down to the last ulp.
//
// The drivers own the assignment loop: for each edge in their order they
// call best_part(u, v) and then commit(best, u, v). Algorithm 1 is
// sequential by nature — each argmin depends on every earlier commit — so
// scoring is serial; PartitionConfig::num_threads only bounds the parallel
// edge sort (make_edge_order), and output is bit-identical for every value.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "partition/partitioner.h"
#include "partition/replica_masks.h"

namespace ebv::detail {

struct EvaState {
  double alpha = 1.0;
  double beta = 1.0;
  double edges_per_part = 1.0;
  double vertices_per_part = 1.0;

  ReplicaMasks masks;
  std::vector<std::uint64_t> ecount;
  std::vector<std::uint64_t> vcount;
  /// Incrementally maintained balance terms, refreshed on commit():
  /// load_e[i] = α·ecount[i]/(|E|/p), load_v[i] = β·vcount[i]/(|V|/p).
  /// Always recomputed from the counters (never accumulated), so each
  /// entry is the exact double the seed scorer computed per edge.
  std::vector<double> load_e;
  std::vector<double> load_v;

  EvaState(const GraphView& graph, const PartitionConfig& config)
      : alpha(config.alpha),
        beta(config.beta),
        edges_per_part(
            static_cast<double>(std::max<EdgeId>(graph.num_edges(), 1)) /
            config.num_parts),
        vertices_per_part(static_cast<double>(graph.num_vertices()) /
                          config.num_parts),
        masks(graph.num_vertices(), config.num_parts),
        ecount(config.num_parts, 0),
        vcount(config.num_parts, 0),
        load_e(config.num_parts, 0.0),
        load_v(config.num_parts, 0.0) {}

  /// Argmin of Eva(u,v)(·) over all parts with lowest-index tie-breaking.
  /// One pass over the two vertices' mask rows: per 64-part word the parts
  /// split into membership classes with constant replication miss (both
  /// bits set → 0, exactly one → 1, neither → 2), each walked with
  /// countr_zero so the loop body is miss + two array reads + one compare.
  [[nodiscard]] PartitionId best_part(VertexId u, VertexId v) const {
    const std::uint64_t* mu = masks.row(u);
    const std::uint64_t* mv = masks.row(v);
    PartitionId best = 0;
    double best_eva = std::numeric_limits<double>::infinity();
    const std::uint32_t words = masks.words_per_vertex();
    for (std::uint32_t w = 0; w < words; ++w) {
      const PartitionId base = static_cast<PartitionId>(w) * 64;
      const std::uint64_t a = mu[w];
      const std::uint64_t b = mv[w];
      // The classes are walked out of ascending-part order, so ties are
      // broken by an explicit index compare — equivalent to the seed's
      // ascending strict-< scan.
      auto scan = [&](std::uint64_t bits, double miss) {
        while (bits != 0) {
          const PartitionId i =
              base + static_cast<PartitionId>(std::countr_zero(bits));
          bits &= bits - 1;
          const double e = (miss + load_e[i]) + load_v[i];
          if (e < best_eva || (e == best_eva && i < best)) {
            best_eva = e;
            best = i;
          }
        }
      };
      scan(a & b, 0.0);
      scan(a ^ b, 1.0);
      scan(~(a | b) & masks.word_mask(w), 2.0);
    }
    return best;
  }

  /// Commit edge (u, v) to part `best`: bump the counters, refresh the
  /// part's load terms, and return how many endpoints became new replicas
  /// (0, 1 or 2).
  unsigned commit(PartitionId best, VertexId u, VertexId v) {
    ++ecount[best];
    unsigned new_replicas = 0;
    if (masks.set(u, best)) ++new_replicas;
    if (v != u && masks.set(v, best)) ++new_replicas;
    vcount[best] += new_replicas;
    load_e[best] =
        alpha * static_cast<double>(ecount[best]) / edges_per_part;
    load_v[best] =
        beta * static_cast<double>(vcount[best]) / vertices_per_part;
    return new_replicas;
  }
};

}  // namespace ebv::detail
