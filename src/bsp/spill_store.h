// EBVW worker-spill snapshots ("DistributedSnapshot"): the on-disk form
// of a DistributedGraph's per-worker subgraphs, built on the same
// page-aligned section machinery as EBVS graph snapshots
// (graph/section_io.h).
//
// Layout (byte-level spec in docs/FORMATS.md): a 4 KiB header page —
// magic "EBVW", version, endianness marker, worker count, global counts,
// flags, worker-table location — followed by each worker's six raw
// little-endian sections, every section starting at a 4096-byte-aligned
// offset, and finally the worker table (one entry per worker with its
// vertex/edge counts and section offsets/lengths):
//
//   global_ids    u32 × |Vi|, ascending (local id = position)
//   edges         Edge{u32 src, u32 dst} × |Ei|, LOCAL endpoints, in
//                 ascending global edge id order
//   weights       f32 × |Ei| (absent when the graph is unweighted)
//   flags         u8 × |Vi|; bit 0 = replicated, bit 1 = master
//   master_part   u32 × |Vi| (kInvalidPartition never appears: every
//                 local vertex is covered by ≥ 1 edge here)
//   out_degree    u32 × |Vi| — the vertex's GLOBAL out-degree
//
// The writer consumes one fully-built LocalSubgraph at a time (workers
// ascending), so DistributedGraph can spill during construction without
// ever holding the p-worker aggregate; the reader maps the file
// read-only and materialises single workers on demand — the residency
// bound behind `ebvpart run --resident-workers k`.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "bsp/local_subgraph.h"
#include "graph/section_io.h"

namespace ebv::bsp {

namespace detail {

/// On-disk worker-table entry (112 bytes; docs/FORMATS.md). ONE struct
/// shared by writer and reader, memcpy'd to/from the file verbatim, so
/// the two sides cannot drift apart.
struct SpillWorkerEntry {
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t sec_offset[6] = {};
  std::uint64_t sec_bytes[6] = {};
};
static_assert(sizeof(SpillWorkerEntry) == 112,
              "EBVW worker-table entry layout is part of the format");

}  // namespace detail

/// Streaming producer of an EBVW file. Workers must be written in
/// ascending part order, exactly `num_workers` of them, then finish()
/// called exactly once. The destructor removes a file that was never
/// finished, so an exception mid-spill cannot leave a truncated snapshot
/// behind. Throws std::runtime_error on I/O failure.
class SpillStoreWriter {
 public:
  SpillStoreWriter(const std::string& path, PartitionId num_workers,
                   VertexId num_global_vertices, EdgeId num_global_edges,
                   bool weighted);
  ~SpillStoreWriter();
  SpillStoreWriter(const SpillStoreWriter&) = delete;
  SpillStoreWriter& operator=(const SpillStoreWriter&) = delete;

  /// Append the next worker's sections. `ls.part` must equal the number
  /// of workers written so far; adjacency is not serialised (a loaded
  /// worker builds it on first use).
  void write_worker(const LocalSubgraph& ls);

  /// Write the worker table, patch the header, flush. Requires all
  /// `num_workers` workers written.
  void finish();

 private:
  std::string path_;
  std::ofstream out_;
  std::size_t cursor_ = 0;
  PartitionId num_workers_ = 0;
  EdgeId num_global_edges_ = 0;
  bool weighted_ = false;
  bool finished_ = false;
  std::vector<detail::SpillWorkerEntry> table_;
};

/// An EBVW snapshot mapped read-only. Opening validates the header and
/// the whole worker table (magic, version, endianness, counts, bounds,
/// alignment, Σ|Ei| = |E|); section contents are trusted — they are
/// produced and consumed by this pair of classes only. load_worker()
/// materialises one worker's LocalSubgraph from its sections; everything
/// else stays as reclaimable page cache.
class SpillStore {
 public:
  explicit SpillStore(const std::string& path);

  [[nodiscard]] PartitionId num_workers() const { return num_workers_; }
  [[nodiscard]] VertexId num_global_vertices() const {
    return num_global_vertices_;
  }
  [[nodiscard]] EdgeId num_global_edges() const { return num_global_edges_; }
  [[nodiscard]] bool weighted() const { return weighted_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::size_t mapped_bytes() const { return file_.size(); }

  /// Materialise worker i: O(|Vi| + |Ei|) section copies. No adjacency
  /// is built here; LocalSubgraph::csr() builds a direction on first use,
  /// so a load that only routes messages never pays for one.
  [[nodiscard]] LocalSubgraph load_worker(PartitionId i) const;

 private:
  io::detail::MappedFile file_;
  std::string path_;
  PartitionId num_workers_ = 0;
  VertexId num_global_vertices_ = 0;
  EdgeId num_global_edges_ = 0;
  bool weighted_ = false;
  // Validated copy of the on-disk worker table.
  std::vector<detail::SpillWorkerEntry> table_;
};

}  // namespace ebv::bsp
