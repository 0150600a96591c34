#ifndef DEEPDIVE_FACTOR_IO_H_
#define DEEPDIVE_FACTOR_IO_H_

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "factor/graph.h"
#include "util/result.h"
#include "util/rng.h"

namespace dd {

/// Text serialization of factor graphs — the equivalent of the files
/// DeepDive ships between the grounding phase (inside the database) and
/// the out-of-process DimmWitted sampler (§3.3: "These data structures
/// are then passed to the sampler, which runs outside the database").
///
/// Format (line-oriented, '#' comments allowed):
///   ddfg 1                          header + version
///   V <num_variables>
///   v <id> <is_evidence 0|1> <value 0|1>        (only non-default rows)
///   W <num_weights>
///   w <id> <value> <is_fixed 0|1> <description...>
///   F <num_factors>
///   f <func> <weight_id> <arity> (<var_id> <is_positive 0|1>)*
std::string SerializeGraph(const FactorGraph& graph);

/// Parse a serialized graph. The result is finalized. Fails with
/// ParseError on malformed input (wrong counts, unknown factor function,
/// out-of-range ids).
Result<FactorGraph> DeserializeGraph(const std::string& text);

/// ---- Crash-consistent binary snapshots --------------------------------
///
/// Container format (all integers little-endian, util/bytes.h):
///   magic   "DDSN"             4 bytes
///   version u32                (currently 1)
///   repeated sections:
///     tag          4 ASCII bytes  (e.g. "GRBN")
///     payload_len  u64
///     payload      payload_len bytes
///     crc32c       u32            over tag + payload_len + payload
///   terminator: a section with tag "END." and payload_len 0
///
/// An aligned section's payload is [u8 pad_len][pad_len zero bytes]
/// [content], with pad_len chosen so the content starts at a file offset
/// divisible by 8: an mmap of the file (page-aligned base) then exposes
/// 8-byte-aligned arrays. SnapshotWriter places the pad itself and
/// SnapshotView::AlignedSection validates and strips it.
///
/// Every read is bounds-checked; truncation, bit flips, and length
/// overruns are detected (magic/version check, per-section CRC32C that
/// also covers the tag and length fields, strict terminator + no
/// trailing bytes) and reported as Status::Corruption with the byte
/// offset — never undefined behavior. Files are written to a temp path,
/// fsync'ed, and atomically renamed into place, so a crash mid-write
/// leaves either the previous snapshot or none, never a torn one.

class SnapshotWriter {
 public:
  /// Append a section. `tag` must be exactly 4 ASCII characters and
  /// unique within the snapshot.
  void AddSection(const std::string& tag, std::string payload);
  /// Append a section whose content starts at an 8-aligned file offset.
  void AddAlignedSection(const std::string& tag, std::string_view content);

  /// Serialize the container to bytes (in-memory path, used by tests).
  std::string Encode() const;

  /// Encode + write via temp file + fsync + atomic rename.
  Status WriteFile(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::string>> sections_;
  size_t size_ = 8;  // encoded bytes so far: header plus every section
};

/// Zero-copy container index: validates the full container (magic,
/// version, per-section CRC32C, terminator, no trailing bytes) and hands
/// out string_views into the caller's buffer. The buffer must outlive the
/// view; MappedSnapshot (storage/snapshot.h) parses mmap'ed files with it.
class SnapshotView {
 public:
  /// Any structural defect yields Status::Corruption (with offset),
  /// never a crash — every read is bounds-checked before dereference.
  static Result<SnapshotView> Parse(std::string_view bytes);

  bool Has(const std::string& tag) const { return sections_.count(tag) > 0; }
  /// The payload of section `tag`; NotFound if absent.
  Result<std::string_view> Section(const std::string& tag) const;
  /// The content of aligned section `tag`, its pad validated against the
  /// section's file offset and stripped; Corruption on a bad pad.
  Result<std::string_view> AlignedSection(const std::string& tag) const;

 private:
  struct Span {
    size_t offset = 0;  // file offset of the payload
    std::string_view payload;
  };
  std::map<std::string, Span> sections_;
};

/// ---- META sections ----------------------------------------------------
///
/// META payloads are `key=value` lines. The encoder keeps the order it is
/// given; the parser splits each non-empty line at its first '='.
std::string EncodeMeta(const std::vector<std::pair<std::string, std::string>>& entries);
Result<std::map<std::string, std::string>> ParseMeta(std::string_view payload);
/// The decimal value of `key`. Corruption when the key is missing, empty,
/// holds anything but digits or overflows a u64.
Result<uint64_t> MetaU64(const std::map<std::string, std::string>& meta,
                         const std::string& key);

/// ---- Typed snapshot of pipeline/learning/inference state --------------
///
/// One container carries any subset of:
///   GRBN  factor graph, binary columnar format (aligned; readable in
///         place — see storage/snapshot.h)
///   DICT  string pool for GRBN weight descriptions (aligned)
///   WGHT  dense weight vector (overrides the graph's weights)
///   CHNS  per-chain variable assignments (one byte per variable)
///   CNTS  per-variable marginal tallies (u64)
///   MRGN  marginal probabilities (doubles)
///   RNGS  RNG states (s0, s1 pairs)
///   WRLD  bit-packed stored worlds: u64 variable count, u64 world
///         count, then each world's words (PackedWorlds)
///   META  key=value lines in key order (epoch counters, seeds, ...)

/// Assignments of one variable set, one bit per variable: world i's
/// variable v is bit v % 64 of words[i * words_per_world() + v / 64].
/// Bits past num_variables in a world's last word are zero.
struct PackedWorlds {
  uint64_t num_variables = 0;
  uint64_t num_worlds = 0;
  std::vector<uint64_t> words;

  size_t words_per_world() const {
    return static_cast<size_t>(num_variables / 64 + (num_variables % 64 != 0 ? 1 : 0));
  }
  /// Append `assignment` (one 0/1 byte per variable) as the next world.
  void Append(const std::vector<uint8_t>& assignment);
  bool Get(size_t world, uint32_t v) const {
    return (words[world * words_per_world() + v / 64] >> (v % 64)) & 1;
  }
};

struct GraphSnapshot {
  bool has_graph = false;
  FactorGraph graph;
  std::vector<double> weights;
  std::vector<std::vector<uint8_t>> chains;
  std::vector<uint64_t> counts;
  std::vector<double> marginals;
  std::vector<RngState> rng_states;
  PackedWorlds worlds;
  std::map<std::string, std::string> meta;
};

std::string EncodeGraphSnapshot(const GraphSnapshot& snapshot);
/// Decode and validate. A GRBN section declaring more than
/// `max_variables` variables is Corruption, reported before the graph is
/// allocated (its format carries no per-variable bytes, so only the
/// caller knows how large a graph it can expect). Readers whose
/// snapshots never carry a graph pass 0.
Result<GraphSnapshot> DecodeGraphSnapshot(const std::string& bytes,
                                          uint64_t max_variables);

/// Atomic (temp + fsync + rename) snapshot write.
Status WriteGraphSnapshot(const GraphSnapshot& snapshot, const std::string& path);
/// Load + validate as DecodeGraphSnapshot; Corruption on any
/// truncated/bit-flipped file.
Result<GraphSnapshot> ReadGraphSnapshot(const std::string& path,
                                        uint64_t max_variables);

/// Exact (bit-preserving) double <-> string for snapshot metadata, via
/// hex float formatting.
std::string FormatExactDouble(double v);
Result<double> ParseExactDouble(const std::string& s);

/// stat()-based existence check (shared by checkpoint/recovery code).
bool FileExists(const std::string& path);

/// Read a whole file with checked chunked freads (ferror surfaces as
/// IoError, never a silent short read). Honors the kFactorIoRead
/// failpoint.
Result<std::string> ReadFileBytes(const std::string& path);

/// Durable write protocol shared by every snapshot producer: temp file,
/// full write, fsync, atomic rename. Honors the kFactorIoWrite (short
/// write) and kFactorIoRename failpoints.
Status WriteBytesAtomic(const std::string& bytes, const std::string& path);

}  // namespace dd

#endif  // DEEPDIVE_FACTOR_IO_H_
