#include "bsp/spill_store.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common/assert.h"
#include "common/failpoint.h"

namespace ebv::bsp {
namespace {

using io::detail::get_field;
using io::detail::kSectionEndianMarker;
using io::detail::kSectionPageAlign;
using io::detail::pad_to_page;
using io::detail::put_field;
using io::detail::write_raw;

// Header field offsets within the 4 KiB header page (docs/FORMATS.md).
constexpr char kMagic[4] = {'E', 'B', 'V', 'W'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 4096;

constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffVersion = 4;
constexpr std::size_t kOffEndian = 8;
constexpr std::size_t kOffHeaderBytes = 12;
constexpr std::size_t kOffNumWorkers = 16;
constexpr std::size_t kOffFlags = 20;
constexpr std::size_t kOffNumVertices = 24;
constexpr std::size_t kOffNumEdges = 32;
constexpr std::size_t kOffTableOffset = 40;
constexpr std::size_t kOffTableBytes = 48;

constexpr std::uint32_t kFlagWeighted = 1u << 0;

// Per-worker section indices (fixed order inside each worker's blob).
enum Section : std::size_t {
  kSecGlobalIds = 0,
  kSecEdges = 1,
  kSecWeights = 2,
  kSecFlags = 3,
  kSecMasterPart = 4,
  kSecOutDegree = 5,
  kNumWorkerSections = 6,
};

constexpr std::uint8_t kVertexReplicated = 1u << 0;
constexpr std::uint8_t kVertexMaster = 1u << 1;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("EBVW: " + what);
}

}  // namespace

SpillStoreWriter::SpillStoreWriter(const std::string& path,
                                   PartitionId num_workers,
                                   VertexId num_global_vertices,
                                   EdgeId num_global_edges, bool weighted)
    : path_(path),
      num_workers_(num_workers),
      num_global_edges_(num_global_edges),
      weighted_(weighted) {
  EBV_REQUIRE(num_workers >= 1, "spill store needs at least one worker");
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) fail("cannot open for writing: " + path);

  std::vector<char> header(kHeaderBytes, 0);
  std::memcpy(header.data() + kOffMagic, kMagic, sizeof kMagic);
  put_field(header, kOffVersion, kVersion);
  put_field(header, kOffEndian, kSectionEndianMarker);
  put_field(header, kOffHeaderBytes, static_cast<std::uint32_t>(kHeaderBytes));
  put_field(header, kOffNumWorkers, static_cast<std::uint32_t>(num_workers));
  put_field(header, kOffFlags, weighted ? kFlagWeighted : 0u);
  put_field(header, kOffNumVertices,
            static_cast<std::uint64_t>(num_global_vertices));
  put_field(header, kOffNumEdges, static_cast<std::uint64_t>(num_global_edges));
  // Table offset/bytes patched by finish().
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  cursor_ = kHeaderBytes;
  table_.reserve(num_workers);
}

SpillStoreWriter::~SpillStoreWriter() {
  if (!finished_) {
    // Abandoned mid-spill (an exception unwound construction): never
    // leave a table-less file behind.
    out_.close();
    std::remove(path_.c_str());
  }
}

void SpillStoreWriter::write_worker(const LocalSubgraph& ls) {
  EBV_REQUIRE(!finished_, "write_worker after finish");
  EBV_REQUIRE(table_.size() < num_workers_,
              "more workers written than declared");
  EBV_REQUIRE(ls.part == static_cast<PartitionId>(table_.size()),
              "workers must be written in ascending part order");
  const auto vn = static_cast<std::size_t>(ls.num_vertices());
  EBV_REQUIRE(ls.is_replicated.size() == vn && ls.is_master.size() == vn &&
                  ls.master_part.size() == vn &&
                  ls.global_out_degree.size() == vn,
              "worker metadata arrays must cover every local vertex");
  EBV_REQUIRE(!weighted_ || ls.edge_weights.size() == ls.edges.size(),
              "weighted store needs one weight per local edge");

  detail::SpillWorkerEntry entry;
  entry.num_vertices = vn;
  entry.num_edges = ls.edges.size();

  failpoint::maybe_fail_stream("spill_store.write", out_);

  auto begin_section = [&](Section sec) {
    cursor_ = pad_to_page(out_, cursor_);
    entry.sec_offset[sec] = cursor_;
  };
  auto end_section = [&](Section sec) {
    entry.sec_bytes[sec] = cursor_ - entry.sec_offset[sec];
  };

  begin_section(kSecGlobalIds);
  write_raw(out_, cursor_, ls.global_ids.data(),
            ls.global_ids.size() * sizeof(VertexId));
  end_section(kSecGlobalIds);

  begin_section(kSecEdges);
  write_raw(out_, cursor_, ls.edges.data(), ls.edges.size() * sizeof(Edge));
  end_section(kSecEdges);

  begin_section(kSecWeights);
  if (weighted_) {
    write_raw(out_, cursor_, ls.edge_weights.data(),
              ls.edge_weights.size() * sizeof(float));
  }
  end_section(kSecWeights);

  begin_section(kSecFlags);
  {
    std::vector<std::uint8_t> flags(vn, 0);
    for (std::size_t lv = 0; lv < vn; ++lv) {
      flags[lv] = static_cast<std::uint8_t>(
          (ls.is_replicated[lv] != 0 ? kVertexReplicated : 0) |
          (ls.is_master[lv] != 0 ? kVertexMaster : 0));
    }
    write_raw(out_, cursor_, flags.data(), flags.size());
  }
  end_section(kSecFlags);

  begin_section(kSecMasterPart);
  write_raw(out_, cursor_, ls.master_part.data(),
            ls.master_part.size() * sizeof(PartitionId));
  end_section(kSecMasterPart);

  begin_section(kSecOutDegree);
  write_raw(out_, cursor_, ls.global_out_degree.data(),
            ls.global_out_degree.size() * sizeof(std::uint32_t));
  end_section(kSecOutDegree);

  if (!out_) fail("write failed (--spill-dir): " + path_);
  table_.push_back(entry);
}

void SpillStoreWriter::finish() {
  EBV_REQUIRE(!finished_, "SpillStoreWriter::finish called twice");
  EBV_REQUIRE(table_.size() == num_workers_,
              "finish before every worker was written");

  failpoint::maybe_fail_stream("spill_store.write", out_);
  cursor_ = pad_to_page(out_, cursor_);
  const std::uint64_t table_offset = cursor_;
  write_raw(out_, cursor_, table_.data(),
            table_.size() * sizeof(detail::SpillWorkerEntry));
  const std::uint64_t table_bytes = cursor_ - table_offset;

  out_.seekp(static_cast<std::streamoff>(kOffTableOffset));
  out_.write(reinterpret_cast<const char*>(&table_offset),
             sizeof table_offset);
  out_.write(reinterpret_cast<const char*>(&table_bytes), sizeof table_bytes);
  out_.flush();
  if (!out_) fail("write failed (--spill-dir): " + path_);
  finished_ = true;
}

SpillStore::SpillStore(const std::string& path) : path_(path) {
  try {
    file_ = io::detail::MappedFile(path);
  } catch (const std::runtime_error& e) {
    fail(e.what());
  }
  const std::byte* base = file_.data();
  const std::size_t size = file_.size();

  io::detail::check_header_prologue(base, size, kMagic, kVersion, "EBVW");
  const auto workers = get_field<std::uint32_t>(base, kOffNumWorkers);
  if (workers == 0) fail("zero workers");
  const auto v64 = get_field<std::uint64_t>(base, kOffNumVertices);
  const auto e64 = get_field<std::uint64_t>(base, kOffNumEdges);
  if (v64 >= kInvalidVertex) fail("vertex count exceeds 32-bit id space");
  // Bound every count by the file size BEFORE any size arithmetic so a
  // hostile header cannot wrap the products below (same rule as EBVS).
  if (e64 > size / sizeof(Edge)) {
    fail("edge count exceeds the file (truncated or hostile header)");
  }
  num_workers_ = workers;
  num_global_vertices_ = static_cast<VertexId>(v64);
  num_global_edges_ = e64;
  weighted_ = (get_field<std::uint32_t>(base, kOffFlags) & kFlagWeighted) != 0;

  const auto table_offset = get_field<std::uint64_t>(base, kOffTableOffset);
  const auto table_bytes = get_field<std::uint64_t>(base, kOffTableBytes);
  if (table_bytes != static_cast<std::uint64_t>(workers) *
                         sizeof(detail::SpillWorkerEntry)) {
    fail("worker table has wrong length");
  }
  if (table_offset % kSectionPageAlign != 0) {
    fail("worker table is not page-aligned");
  }
  if (table_offset > size || size - table_offset < table_bytes) {
    fail("worker table exceeds the file (truncated?)");
  }
  table_.resize(workers);
  std::memcpy(table_.data(), base + table_offset,
              static_cast<std::size_t>(table_bytes));

  std::uint64_t edge_sum = 0;
  for (const detail::SpillWorkerEntry& entry : table_) {
    if (entry.num_vertices >= kInvalidVertex) {
      fail("worker vertex count exceeds 32-bit id space");
    }
    if (entry.num_edges > size / sizeof(Edge)) {
      fail("worker edge count exceeds the file");
    }
    edge_sum += entry.num_edges;
    const std::uint64_t expect[kNumWorkerSections] = {
        entry.num_vertices * sizeof(VertexId),
        entry.num_edges * sizeof(Edge),
        weighted_ ? entry.num_edges * sizeof(float) : 0,
        entry.num_vertices,
        entry.num_vertices * sizeof(PartitionId),
        entry.num_vertices * sizeof(std::uint32_t),
    };
    for (std::size_t s = 0; s < kNumWorkerSections; ++s) {
      if (entry.sec_bytes[s] != expect[s]) {
        fail("worker section has wrong length");
      }
      if (entry.sec_bytes[s] == 0) continue;
      if (entry.sec_offset[s] % kSectionPageAlign != 0) {
        fail("worker section is not page-aligned");
      }
      if (entry.sec_offset[s] > size ||
          size - entry.sec_offset[s] < entry.sec_bytes[s]) {
        fail("worker section exceeds the file (truncated?)");
      }
    }
  }
  if (edge_sum != num_global_edges_) {
    fail("worker edge counts do not sum to the global edge count");
  }
}

LocalSubgraph SpillStore::load_worker(PartitionId i) const {
  EBV_REQUIRE(i < num_workers_, "load_worker: worker id out of range");
  const detail::SpillWorkerEntry& entry = table_[i];
  const std::byte* base = file_.data();
  const auto vn = static_cast<std::size_t>(entry.num_vertices);
  const auto en = static_cast<std::size_t>(entry.num_edges);

  LocalSubgraph ls;
  ls.part = i;
  ls.is_replicated.resize(vn);
  ls.is_master.resize(vn);

  // Zero-length sections have unvalidated offsets (nothing to read), so
  // never form a pointer into them.
  if (vn > 0) {
    const auto* ids = reinterpret_cast<const VertexId*>(
        base + entry.sec_offset[kSecGlobalIds]);
    ls.global_ids.assign(ids, ids + vn);

    const auto* flags = reinterpret_cast<const std::uint8_t*>(
        base + entry.sec_offset[kSecFlags]);
    for (std::size_t lv = 0; lv < vn; ++lv) {
      ls.is_replicated[lv] = (flags[lv] & kVertexReplicated) != 0 ? 1 : 0;
      ls.is_master[lv] = (flags[lv] & kVertexMaster) != 0 ? 1 : 0;
    }

    const auto* masters = reinterpret_cast<const PartitionId*>(
        base + entry.sec_offset[kSecMasterPart]);
    ls.master_part.assign(masters, masters + vn);

    const auto* degrees = reinterpret_cast<const std::uint32_t*>(
        base + entry.sec_offset[kSecOutDegree]);
    ls.global_out_degree.assign(degrees, degrees + vn);
  }

  if (en > 0) {
    const auto* edges =
        reinterpret_cast<const Edge*>(base + entry.sec_offset[kSecEdges]);
    ls.edges.assign(edges, edges + en);
    if (weighted_) {
      const auto* weights = reinterpret_cast<const float*>(
          base + entry.sec_offset[kSecWeights]);
      ls.edge_weights.assign(weights, weights + en);
    }
  }
  return ls;
}

}  // namespace ebv::bsp
