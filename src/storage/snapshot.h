#ifndef DEEPDIVE_STORAGE_SNAPSHOT_H_
#define DEEPDIVE_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "factor/graph.h"
#include "factor/io.h"
#include "storage/catalog.h"
#include "util/result.h"
#include "util/status.h"

namespace dd {

/// ---- Binary snapshot sections readable in place -----------------------
///
/// The DDSN container (factor/io.h) is the envelope: per-section CRC32C,
/// strict terminator, temp+fsync+rename writes. This module defines the
/// *binary* section payloads that make a snapshot loadable without
/// deserialization:
///
///   DICT  string pool: u64 count, u64 blob_len, u32 offsets[count+1],
///         zero-pad to 8, blob. Ids are snapshot-local, assigned in
///         first-reference order during encode, so the bytes are
///         deterministic regardless of global intern order.
///   GRBN  factor graph as flat arrays (layout in snapshot.cc): counts
///         header, evidence words, weight values/desc-ids/fixed flags,
///         factor funcs/weights, literal CSR offsets, literal words.
///   COLS  catalog of tables as columnar arrays: a directory (names,
///         schemas, row counts), then per table the liveness bitmap
///         words, per-row hashes, and per-column payload+tag arrays —
///         byte-for-byte the arrays Table holds in memory, with string
///         cells remapped to DICT-local ids.
///
/// Every multi-byte integer is little-endian (util/bytes.h). Each binary
/// section is an aligned container section (factor/io.h), so its content
/// lands on an 8-byte file offset and an mmap of the file (page-aligned
/// base) exposes 8-byte-aligned arrays. All readers go through the
/// bounds-checked ByteReader and per-element memcpy accessors — on
/// aligned mapped data these compile to single loads, and on unaligned
/// heap copies they are still well-defined.
/// Malformed input (bad counts, out-of-range ids, non-monotone offsets,
/// nonzero padding, trailing bytes) yields Status::Corruption, never UB.

/// ---- String pool (DICT) -----------------------------------------------

/// Deduplicating builder; ids are dense and assigned in first-reference
/// order, making the encoded bytes a pure function of the reference
/// sequence.
class StringPoolBuilder {
 public:
  uint32_t IdFor(std::string_view s);
  size_t size() const { return strings_.size(); }

  /// DICT section content.
  std::string EncodeContent() const;

 private:
  std::vector<std::string> strings_;
  std::vector<uint32_t> ids_by_probe_;  // open addressing over strings_
  size_t ProbeFor(std::string_view s) const;
  void MaybeGrow();
};

/// Validated zero-copy view over DICT content. Holds views into the
/// caller's buffer; the buffer must outlive the view.
class StringPoolView {
 public:
  StringPoolView() = default;
  static Result<StringPoolView> Parse(std::string_view content);

  size_t size() const { return count_; }

  /// id < size() required (callers validate ids during section parse).
  std::string_view String(uint32_t id) const {
    uint32_t begin = OffsetAt(id);
    uint32_t end = OffsetAt(id + 1);
    return blob_.substr(begin, end - begin);
  }

 private:
  uint32_t OffsetAt(size_t i) const {
    uint32_t v;
    std::memcpy(&v, offsets_ + 4 * i, 4);
    return v;
  }

  size_t count_ = 0;
  const char* offsets_ = nullptr;  // (count_+1) little-endian u32s
  std::string_view blob_;
};

/// ---- Binary factor graph (GRBN) ---------------------------------------

/// Typed view over validated GRBN content: element counts plus byte
/// offsets of each flat array. Accessors memcpy one element — zero-copy
/// in the sense that no array is ever materialized; on an mmap'ed
/// snapshot the bytes read are the file's pages.
struct BinaryGraphView {
  std::string_view content;
  uint64_t num_variables = 0;
  uint64_t num_evidence = 0;
  uint64_t num_weights = 0;
  uint64_t num_factors = 0;
  uint64_t num_literals = 0;
  size_t evidence_off = 0;         // num_evidence u64s: var | value<<32
  size_t weight_values_off = 0;    // num_weights doubles (IEEE bits)
  size_t weight_desc_off = 0;      // num_weights u32 pool ids
  size_t weight_fixed_off = 0;     // num_weights u8 flags
  size_t factor_funcs_off = 0;     // num_factors u8
  size_t factor_weights_off = 0;   // num_factors u32
  size_t literal_offsets_off = 0;  // (num_factors+1) u64 CSR offsets
  size_t literals_off = 0;         // num_literals u64s: var | positive<<32

  uint64_t EvidenceWord(size_t i) const { return U64(evidence_off + 8 * i); }
  double WeightValue(size_t i) const {
    uint64_t bits = U64(weight_values_off + 8 * i);
    double d;
    std::memcpy(&d, &bits, 8);
    return d;
  }
  uint32_t WeightDescId(size_t i) const { return U32(weight_desc_off + 4 * i); }
  bool WeightFixed(size_t i) const {
    return content[weight_fixed_off + i] != 0;
  }
  FactorFunc FactorFuncAt(size_t i) const {
    return static_cast<FactorFunc>(
        static_cast<uint8_t>(content[factor_funcs_off + i]));
  }
  uint32_t FactorWeight(size_t i) const { return U32(factor_weights_off + 4 * i); }
  uint64_t LiteralOffset(size_t i) const {
    return U64(literal_offsets_off + 8 * i);
  }
  uint64_t LiteralWord(size_t i) const { return U64(literals_off + 8 * i); }

 private:
  uint64_t U64(size_t off) const {
    uint64_t v;
    std::memcpy(&v, content.data() + off, 8);
    return v;
  }
  uint32_t U32(size_t off) const {
    uint32_t v;
    std::memcpy(&v, content.data() + off, 4);
    return v;
  }
};

/// Encode `graph` as GRBN content; weight descriptions are interned into
/// `pool` (callers append the pool's DICT section after all encoders
/// that share it have run).
std::string EncodeBinaryGraph(const FactorGraph& graph, StringPoolBuilder* pool);

/// Validate GRBN content (bounds, monotone CSR offsets, id ranges
/// against `pool`, zero high bits, zero padding, exact length) and build
/// the typed view. Corruption on any defect.
Result<BinaryGraphView> ParseBinaryGraph(std::string_view content,
                                         const StringPoolView& pool);

/// Materialize a FactorGraph (finalized) from a validated view.
Result<FactorGraph> GraphFromBinary(const BinaryGraphView& view,
                                    const StringPoolView& pool);

/// ---- Catalog snapshot (COLS) ------------------------------------------

struct MappedColumnView {
  std::string_view name;
  ValueType declared_type = ValueType::kNull;
  size_t payload_off = 0;  // num_rows u64s within the COLS content
  size_t tags_off = 0;     // num_rows u8s
};

/// One table inside validated COLS content: the directory entry plus
/// byte offsets of its arrays. Row ids (including tombstones) are the
/// array index, exactly as in the in-memory Table.
struct MappedTableView {
  std::string_view content;  // whole COLS content
  std::string_view name;
  uint64_t num_rows = 0;
  size_t live_off = 0;    // WordsFor(num_rows) u64s
  size_t hashes_off = 0;  // num_rows u64s
  std::vector<MappedColumnView> columns;

  bool RowLive(size_t row) const {
    uint64_t word;
    std::memcpy(&word, content.data() + live_off + 8 * (row >> 6), 8);
    return (word >> (row & 63)) & 1;
  }
  uint64_t RowHash(size_t row) const {
    uint64_t h;
    std::memcpy(&h, content.data() + hashes_off + 8 * row, 8);
    return h;
  }
  uint64_t CellPayload(size_t col, size_t row) const {
    uint64_t v;
    std::memcpy(&v, content.data() + columns[col].payload_off + 8 * row, 8);
    return v;
  }
  uint8_t CellTag(size_t col, size_t row) const {
    return static_cast<uint8_t>(content[columns[col].tags_off + row]);
  }
};

/// Parsed COLS directory + per-table array offsets, fully validated
/// (tags in range, string ids < pool size, bool payloads in {0,1}, null
/// payloads zero, trailing liveness bits zero, names sorted).
struct CatalogView {
  std::vector<MappedTableView> tables;
};

Result<CatalogView> ParseCatalogSection(std::string_view cols_content,
                                        const StringPoolView& pool);

/// Encode every table of `catalog` (sorted by name) into a DDSN
/// container with COLS + DICT sections.
std::string EncodeCatalogSnapshot(const Catalog& catalog);
Status WriteCatalogSnapshot(const Catalog& catalog, const std::string& path);

/// Rebuild tables from a snapshot into `catalog` (tables must not
/// already exist there). Row ids and tombstones are preserved exactly;
/// string cells re-intern into the process-global dictionary; stored
/// row hashes are revalidated against recomputed tuple hashes.
Status LoadCatalogSnapshot(const std::string& bytes, Catalog* catalog);
Status LoadCatalogSnapshotFile(const std::string& path, Catalog* catalog);

/// ---- Mapped snapshots -------------------------------------------------

/// A snapshot file opened for in-place reading: mmap(PROT_READ) when the
/// platform allows it, with a checked-read heap fallback into an 8-byte-
/// aligned buffer otherwise (so section contents are 8-aligned either
/// way). Open eagerly validates the whole container (magic, every
/// section CRC, terminator); Pool()/Graph()/Tables() validate their
/// sections on demand. All returned views borrow the mapping — they are
/// invalid after the MappedSnapshot is destroyed.
class MappedSnapshot {
 public:
  MappedSnapshot() = default;
  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;
  MappedSnapshot(MappedSnapshot&& other) noexcept { *this = std::move(other); }
  MappedSnapshot& operator=(MappedSnapshot&& other) noexcept;
  ~MappedSnapshot();

  static Result<MappedSnapshot> Open(const std::string& path);

  std::string_view bytes() const { return bytes_; }
  bool mapped() const { return map_base_ != nullptr; }
  const SnapshotView& view() const { return view_; }

  /// Parse the DICT section (NotFound if absent, Corruption if bad).
  Result<StringPoolView> Pool() const;
  /// Parse the GRBN section against `pool`.
  Result<BinaryGraphView> Graph(const StringPoolView& pool) const;
  /// Parse the COLS section against `pool`.
  Result<CatalogView> Tables(const StringPoolView& pool) const;

 private:
  void* map_base_ = nullptr;
  size_t map_len_ = 0;
  std::unique_ptr<uint64_t[]> heap_;  // 8-aligned fallback buffer
  std::string_view bytes_;
  SnapshotView view_;
};

}  // namespace dd

#endif  // DEEPDIVE_STORAGE_SNAPSHOT_H_
