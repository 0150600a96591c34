#include "factor/io.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string_view>

#include "storage/snapshot.h"
#include "util/bytes.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace dd {

namespace {

Result<FactorFunc> FuncFromName(const std::string& name) {
  if (name == "istrue") return FactorFunc::kIsTrue;
  if (name == "and") return FactorFunc::kAnd;
  if (name == "or") return FactorFunc::kOr;
  if (name == "imply") return FactorFunc::kImply;
  if (name == "equal") return FactorFunc::kEqual;
  return Status::ParseError("unknown factor function: " + name);
}

}  // namespace

std::string SerializeGraph(const FactorGraph& graph) {
  std::string out;
  out += "ddfg 1\n";
  out += StrFormat("V %zu\n", graph.num_variables());
  for (uint32_t v = 0; v < graph.num_variables(); ++v) {
    if (graph.is_evidence(v)) {
      out += StrFormat("v %u 1 %d\n", v, graph.evidence_value(v) ? 1 : 0);
    }
  }
  out += StrFormat("W %zu\n", graph.num_weights());
  for (uint32_t w = 0; w < graph.num_weights(); ++w) {
    const Weight& weight = graph.weight(w);
    out += StrFormat("w %u %.17g %d %s\n", w, graph.weight_value(w), weight.is_fixed ? 1 : 0,
                     weight.description.c_str());
  }
  out += StrFormat("F %zu\n", graph.num_factors());
  for (uint32_t f = 0; f < graph.num_factors(); ++f) {
    size_t arity = 0;
    const Literal* literals = graph.factor_literals(f, &arity);
    out += StrFormat("f %s %u %zu", FactorFuncName(graph.factor_func(f)),
                     graph.factor_weight(f), arity);
    for (size_t i = 0; i < arity; ++i) {
      out += StrFormat(" %u %d", literals[i].var, literals[i].is_positive ? 1 : 0);
    }
    out += '\n';
  }
  return out;
}

Result<FactorGraph> DeserializeGraph(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  auto error = [&](const std::string& msg) {
    return Status::ParseError(StrFormat("line %d: %s", lineno, msg.c_str()));
  };

  FactorGraph graph;
  bool header_seen = false;
  size_t declared_vars = 0, declared_weights = 0, declared_factors = 0;
  size_t seen_weights = 0, seen_factors = 0;
  std::vector<std::pair<bool, bool>> evidence;  // (is_evidence, value) per var

  while (std::getline(in, line)) {
    ++lineno;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    auto fields = SplitWhitespace(trimmed);

    if (!header_seen) {
      if (fields.size() != 2 || fields[0] != "ddfg" || fields[1] != "1") {
        return error("expected header 'ddfg 1'");
      }
      header_seen = true;
      continue;
    }
    const std::string& tag = fields[0];
    if (tag == "V") {
      if (fields.size() != 2) return error("V expects a count");
      declared_vars = std::strtoull(fields[1].c_str(), nullptr, 10);
      evidence.assign(declared_vars, {false, false});
    } else if (tag == "v") {
      if (fields.size() != 4) return error("v expects: id is_evidence value");
      size_t id = std::strtoull(fields[1].c_str(), nullptr, 10);
      if (id >= declared_vars) return error("variable id out of range");
      evidence[id] = {fields[2] == "1", fields[3] == "1"};
    } else if (tag == "W") {
      if (fields.size() != 2) return error("W expects a count");
      declared_weights = std::strtoull(fields[1].c_str(), nullptr, 10);
      // Variables must be materialized before weights/factors reference them.
      for (size_t v = 0; v < declared_vars; ++v) {
        graph.AddVariable(evidence[v].first, evidence[v].second);
      }
    } else if (tag == "w") {
      if (fields.size() < 4) return error("w expects: id value is_fixed desc");
      size_t id = std::strtoull(fields[1].c_str(), nullptr, 10);
      if (id != seen_weights) return error("weights must appear in id order");
      double value = std::strtod(fields[2].c_str(), nullptr);
      bool fixed = fields[3] == "1";
      std::string description;
      for (size_t i = 4; i < fields.size(); ++i) {
        if (i > 4) description += ' ';
        description += fields[i];
      }
      graph.AddWeight(value, fixed, description);
      ++seen_weights;
    } else if (tag == "F") {
      if (fields.size() != 2) return error("F expects a count");
      declared_factors = std::strtoull(fields[1].c_str(), nullptr, 10);
    } else if (tag == "f") {
      if (fields.size() < 4) return error("f expects: func weight arity literals...");
      DD_ASSIGN_OR_RETURN(FactorFunc func, FuncFromName(fields[1]));
      uint32_t weight = static_cast<uint32_t>(std::strtoul(fields[2].c_str(),
                                                           nullptr, 10));
      size_t arity = std::strtoull(fields[3].c_str(), nullptr, 10);
      if (fields.size() != 4 + 2 * arity) return error("literal count mismatch");
      std::vector<Literal> literals;
      for (size_t i = 0; i < arity; ++i) {
        Literal l;
        l.var = static_cast<uint32_t>(
            std::strtoul(fields[4 + 2 * i].c_str(), nullptr, 10));
        l.is_positive = fields[5 + 2 * i] == "1";
        literals.push_back(l);
      }
      Status st = graph.AddFactor(func, weight, std::move(literals));
      if (!st.ok()) return error(st.ToString());
      ++seen_factors;
    } else {
      return error("unknown record tag: " + tag);
    }
  }
  if (!header_seen) return Status::ParseError("empty input (missing header)");
  if (graph.num_variables() != declared_vars) {
    return Status::ParseError("missing W section (variables not materialized)");
  }
  if (seen_weights != declared_weights) {
    return Status::ParseError(StrFormat("declared %zu weights, found %zu",
                                        declared_weights, seen_weights));
  }
  if (seen_factors != declared_factors) {
    return Status::ParseError(StrFormat("declared %zu factors, found %zu",
                                        declared_factors, seen_factors));
  }
  DD_RETURN_IF_ERROR(graph.Finalize());
  return graph;
}

// ---- Binary snapshot container ----------------------------------------

namespace {

constexpr char kMagic[4] = {'D', 'D', 'S', 'N'};
constexpr uint32_t kSnapshotVersion = 1;
constexpr char kEndTag[] = "END.";

/// Pad length that puts an aligned section's content, which follows the
/// one-byte pad length and the pad, on an 8-aligned file offset.
size_t AlignmentPad(size_t payload_offset) {
  return (8 - ((payload_offset + 1) & 7)) & 7;
}

/// The section CRC covers the tag, the u64 length and the payload.
uint32_t SectionCrc(std::string_view tag, std::string_view payload) {
  ByteWriter header;
  header.Raw(tag);
  header.U64(payload.size());
  uint32_t crc = Crc32c(header.str().data(), header.size());
  return Crc32cExtend(crc, payload.data(), payload.size());
}

}  // namespace

/// Read a whole file with checked chunked freads (no size assumptions;
/// ferror is surfaced as IoError, never a short silent read).
Result<std::string> ReadFileBytes(const std::string& path) {
  Status injected;
  DD_FAILPOINT(failpoints::kFactorIoRead, &injected);
  if (!injected.ok()) return injected;

  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError(StrFormat("cannot open '%s' for reading: %s",
                                     path.c_str(), std::strerror(errno)));
  }
  std::string bytes;
  char chunk[1 << 16];
  for (;;) {
    size_t n = std::fread(chunk, 1, sizeof(chunk), f);
    bytes.append(chunk, n);
    if (n < sizeof(chunk)) {
      if (std::ferror(f)) {
        std::fclose(f);
        return Status::IoError(StrFormat("read error on '%s' at offset %zu",
                                         path.c_str(), bytes.size()));
      }
      break;  // EOF
    }
  }
  std::fclose(f);
  return bytes;
}

void SnapshotWriter::AddSection(const std::string& tag, std::string payload) {
  DD_CHECK(tag.size() == 4);
  size_ += 12 + payload.size() + 4;
  sections_.emplace_back(tag, std::move(payload));
}

void SnapshotWriter::AddAlignedSection(const std::string& tag,
                                       std::string_view content) {
  // The payload starts after this section's 4-byte tag and u64 length.
  const size_t pad = AlignmentPad(size_ + 12);
  std::string payload;
  payload.reserve(1 + pad + content.size());
  payload.push_back(static_cast<char>(pad));
  payload.append(pad, '\0');
  payload.append(content);
  AddSection(tag, std::move(payload));
}

std::string SnapshotWriter::Encode() const {
  ByteWriter out;
  out.Raw(std::string_view(kMagic, 4));
  out.U32(kSnapshotVersion);
  auto append_section = [&out](std::string_view tag, std::string_view payload) {
    out.Raw(tag);
    out.U64(payload.size());
    out.Raw(payload);
    out.U32(SectionCrc(tag, payload));
  };
  for (const auto& [tag, payload] : sections_) append_section(tag, payload);
  append_section(kEndTag, "");
  return out.Take();
}

/// Durable write protocol shared by every snapshot producer: temp file,
/// full write, fsync, atomic rename. A fired short-write failpoint
/// shrinks the byte count silently (simulating a crash that persisted a
/// partial buffer and still got renamed) so reader-side Corruption
/// detection is exercised end to end.
Status WriteBytesAtomic(const std::string& bytes, const std::string& path) {
  size_t to_write = bytes.size();
  Status injected;
  DD_FAILPOINT_WRITE(failpoints::kFactorIoWrite, to_write, &injected);
  if (!injected.ok()) return injected;

  std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError(StrFormat("cannot open '%s' for writing: %s",
                                     tmp.c_str(), std::strerror(errno)));
  }
  size_t written = std::fwrite(bytes.data(), 1, to_write, f);
  if (written != to_write || std::fflush(f) != 0 || ::fsync(fileno(f)) != 0) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return Status::IoError(StrFormat("short write to '%s' (%zu of %zu bytes)",
                                     tmp.c_str(), written, to_write));
  }
  if (std::fclose(f) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError(StrFormat("close failed on '%s'", tmp.c_str()));
  }

  DD_FAILPOINT(failpoints::kFactorIoRename, &injected);
  if (!injected.ok()) {
    std::remove(tmp.c_str());
    return injected;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError(StrFormat("rename '%s' -> '%s' failed: %s", tmp.c_str(),
                                     path.c_str(), std::strerror(errno)));
  }
  return Status::OK();
}

Status SnapshotWriter::WriteFile(const std::string& path) const {
  return WriteBytesAtomic(Encode(), path);
}

Result<SnapshotView> SnapshotView::Parse(std::string_view bytes) {
  ByteReader r(bytes);
  std::string_view magic;
  DD_RETURN_IF_ERROR(r.Raw(4, &magic, "snapshot magic"));
  if (magic != std::string_view(kMagic, 4)) {
    return Status::Corruption("bad magic: not a DDSN snapshot");
  }
  uint32_t version = 0;
  DD_RETURN_IF_ERROR(r.U32(&version, "snapshot version"));
  if (version != kSnapshotVersion) {
    return Status::Corruption(StrFormat("unsupported snapshot version %u", version));
  }

  SnapshotView view;
  for (;;) {
    const size_t section_offset = r.offset();
    std::string_view tag;
    DD_RETURN_IF_ERROR(r.Raw(4, &tag, "section tag"));
    uint64_t len = 0;
    DD_RETURN_IF_ERROR(r.U64(&len, "section length"));
    if (len > r.remaining()) {
      return Status::Corruption(
          StrFormat("section '%s' at offset %zu declares %llu payload bytes but "
                    "only %zu remain",
                    std::string(tag).c_str(), section_offset,
                    static_cast<unsigned long long>(len), r.remaining()));
    }
    const size_t payload_offset = r.offset();
    std::string_view payload;
    DD_RETURN_IF_ERROR(r.Raw(static_cast<size_t>(len), &payload, "section payload"));
    uint32_t stored_crc = 0;
    DD_RETURN_IF_ERROR(r.U32(&stored_crc, "section checksum"));
    const uint32_t computed = SectionCrc(tag, payload);
    if (computed != stored_crc) {
      return Status::Corruption(
          StrFormat("checksum mismatch in section '%s' at offset %zu "
                    "(stored %08x, computed %08x)",
                    std::string(tag).c_str(), section_offset, stored_crc, computed));
    }
    if (tag == kEndTag) {
      if (len != 0) {
        return Status::Corruption("terminator section carries a payload");
      }
      DD_RETURN_IF_ERROR(r.ExpectEnd("terminator"));
      break;
    }
    auto [it, inserted] =
        view.sections_.emplace(std::string(tag), Span{payload_offset, payload});
    if (!inserted) {
      return Status::Corruption(StrFormat("duplicate section '%s' at offset %zu",
                                          it->first.c_str(), section_offset));
    }
  }
  return view;
}

Result<std::string_view> SnapshotView::Section(const std::string& tag) const {
  auto it = sections_.find(tag);
  if (it == sections_.end()) {
    return Status::NotFound("snapshot has no section '" + tag + "'");
  }
  return it->second.payload;
}

Result<std::string_view> SnapshotView::AlignedSection(const std::string& tag) const {
  DD_ASSIGN_OR_RETURN(std::string_view payload, Section(tag));
  const size_t offset = sections_.at(tag).offset;
  ByteReader r(payload);
  uint8_t pad = 0;
  DD_RETURN_IF_ERROR(r.U8(&pad, "section pad length"));
  const size_t expected = AlignmentPad(offset);
  if (pad != expected) {
    return Status::Corruption(
        StrFormat("section '%s' pad length %u does not match file offset %zu "
                  "(expected %zu)",
                  tag.c_str(), pad, offset, expected));
  }
  std::string_view pad_bytes;
  DD_RETURN_IF_ERROR(r.Raw(pad, &pad_bytes, "section pad"));
  if (pad_bytes.find_first_not_of('\0') != std::string_view::npos) {
    return Status::Corruption(StrFormat("nonzero pad byte in section '%s' at offset %zu",
                                        tag.c_str(), offset));
  }
  return payload.substr(r.offset());
}

// ---- META ---------------------------------------------------------------

std::string EncodeMeta(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  std::string out;
  for (const auto& [key, value] : entries) {
    out += key;
    out += '=';
    out += value;
    out += '\n';
  }
  return out;
}

Result<std::map<std::string, std::string>> ParseMeta(std::string_view payload) {
  std::map<std::string, std::string> meta;
  for (const std::string& line : Split(payload, '\n')) {
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::Corruption("META line without '=': " + line);
    }
    meta[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return meta;
}

Result<uint64_t> MetaU64(const std::map<std::string, std::string>& meta,
                         const std::string& key) {
  auto it = meta.find(key);
  if (it == meta.end()) {
    return Status::Corruption("META missing key '" + key + "'");
  }
  if (it->second.empty() || !IsAllDigits(it->second)) {
    return Status::Corruption("META key '" + key + "' is not a number: " +
                              it->second);
  }
  errno = 0;
  const uint64_t v = std::strtoull(it->second.c_str(), nullptr, 10);
  if (errno != 0) {
    return Status::Corruption("META key '" + key + "' out of range: " + it->second);
  }
  return v;
}

// ---- Typed graph snapshot ---------------------------------------------

namespace {

/// WGHT, CNTS, MRGN and RNGS: a u64 count, then exactly `count` records
/// of `record_size` bytes.
template <typename T, typename WriteRecord>
void EncodeRecords(const char* tag, const std::vector<T>& records,
                   WriteRecord write_record, SnapshotWriter* writer) {
  if (records.empty()) return;
  ByteWriter w;
  w.U64(records.size());
  for (const T& record : records) write_record(&w, record);
  writer->AddSection(tag, w.Take());
}

template <typename T, typename ReadRecord>
Status DecodeRecords(const SnapshotView& view, const char* tag, size_t record_size,
                     ReadRecord read_record, std::vector<T>* records) {
  if (!view.Has(tag)) return Status::OK();
  DD_ASSIGN_OR_RETURN(std::string_view payload, view.Section(tag));
  ByteReader r(payload);
  uint64_t count = 0;
  DD_RETURN_IF_ERROR(r.U64(&count, tag));
  if (r.remaining() % record_size != 0 || count != r.remaining() / record_size) {
    return Status::Corruption(StrFormat(
        "%s declares %llu records of %zu bytes but carries %zu bytes at offset %zu",
        tag, static_cast<unsigned long long>(count), record_size, r.remaining(),
        r.offset()));
  }
  records->resize(static_cast<size_t>(count));
  for (T& record : *records) DD_RETURN_IF_ERROR(read_record(&r, &record));
  return Status::OK();
}

}  // namespace

void PackedWorlds::Append(const std::vector<uint8_t>& assignment) {
  const size_t begin = words.size();
  words.resize(begin + words_per_world(), 0);
  const size_t n = assignment.size();
  size_t v = 0;
  // Eight 0/1 bytes at a time: the multiply moves byte k's low bit to bit
  // 56 + k, and no two partial products share a bit position, so nothing
  // carries into the top byte.
  for (; v + 8 <= n; v += 8) {
    uint64_t bytes;
    std::memcpy(&bytes, assignment.data() + v, 8);
    const uint64_t bits =
        ((bytes & 0x0101010101010101ull) * 0x0102040810204080ull) >> 56;
    words[begin + v / 64] |= bits << (v % 64);
  }
  for (; v < n; ++v) {
    words[begin + v / 64] |= static_cast<uint64_t>(assignment[v] & 1) << (v % 64);
  }
  ++num_worlds;
}

std::string EncodeGraphSnapshot(const GraphSnapshot& snapshot) {
  SnapshotWriter writer;
  if (snapshot.has_graph) {
    StringPoolBuilder pool;
    writer.AddAlignedSection("GRBN", EncodeBinaryGraph(snapshot.graph, &pool));
    writer.AddAlignedSection("DICT", pool.EncodeContent());
  }
  EncodeRecords("WGHT", snapshot.weights,
                [](ByteWriter* w, double v) { w->F64(v); }, &writer);
  if (!snapshot.chains.empty()) {
    ByteWriter w;
    w.U64(snapshot.chains.size());
    for (const auto& chain : snapshot.chains) {
      w.Bytes(std::string_view(reinterpret_cast<const char*>(chain.data()),
                               chain.size()));
    }
    writer.AddSection("CHNS", w.Take());
  }
  EncodeRecords("CNTS", snapshot.counts,
                [](ByteWriter* w, uint64_t c) { w->U64(c); }, &writer);
  EncodeRecords("MRGN", snapshot.marginals,
                [](ByteWriter* w, double m) { w->F64(m); }, &writer);
  EncodeRecords("RNGS", snapshot.rng_states,
                [](ByteWriter* w, const RngState& st) {
                  w->U64(st.s0);
                  w->U64(st.s1);
                },
                &writer);
  if (snapshot.worlds.num_worlds > 0) {
    ByteWriter w;
    w.U64(snapshot.worlds.num_variables);
    w.U64(snapshot.worlds.num_worlds);
    for (uint64_t word : snapshot.worlds.words) w.U64(word);
    writer.AddSection("WRLD", w.Take());
  }
  if (!snapshot.meta.empty()) {
    writer.AddSection("META", EncodeMeta({snapshot.meta.begin(), snapshot.meta.end()}));
  }
  return writer.Encode();
}

Result<GraphSnapshot> DecodeGraphSnapshot(const std::string& bytes,
                                          uint64_t max_variables) {
  DD_ASSIGN_OR_RETURN(SnapshotView view, SnapshotView::Parse(bytes));
  GraphSnapshot snap;

  if (view.Has("GRBN")) {
    if (!view.Has("DICT")) {
      return Status::Corruption("GRBN section without its DICT string pool");
    }
    DD_ASSIGN_OR_RETURN(std::string_view dict, view.AlignedSection("DICT"));
    DD_ASSIGN_OR_RETURN(StringPoolView pool, StringPoolView::Parse(dict));
    DD_ASSIGN_OR_RETURN(std::string_view grbn, view.AlignedSection("GRBN"));
    DD_ASSIGN_OR_RETURN(BinaryGraphView graph, ParseBinaryGraph(grbn, pool));
    if (graph.num_variables > max_variables) {
      return Status::Corruption(StrFormat(
          "GRBN declares %llu variables; this reader accepts at most %llu",
          static_cast<unsigned long long>(graph.num_variables),
          static_cast<unsigned long long>(max_variables)));
    }
    DD_ASSIGN_OR_RETURN(snap.graph, GraphFromBinary(graph, pool));
    snap.has_graph = true;
  }
  DD_RETURN_IF_ERROR(DecodeRecords(
      view, "WGHT", 8, [](ByteReader* r, double* w) { return r->F64(w, "WGHT weight"); },
      &snap.weights));
  if (view.Has("CHNS")) {
    DD_ASSIGN_OR_RETURN(std::string_view payload, view.Section("CHNS"));
    ByteReader r(payload);
    uint64_t num_chains = 0;
    DD_RETURN_IF_ERROR(r.U64(&num_chains, "CHNS count"));
    // Each chain needs at least its 8-byte length prefix.
    if (num_chains > r.remaining() / 8) {
      return Status::Corruption(StrFormat("CHNS declares %llu chains in a %zu-byte "
                                          "payload",
                                          static_cast<unsigned long long>(num_chains),
                                          payload.size()));
    }
    snap.chains.resize(static_cast<size_t>(num_chains));
    for (auto& chain : snap.chains) {
      std::string_view values;
      DD_RETURN_IF_ERROR(r.Bytes(&values, "CHNS chain"));
      if (values.find_first_not_of(std::string_view("\0\1", 2)) != std::string_view::npos) {
        return Status::Corruption(
            StrFormat("CHNS chain byte outside {0,1} before offset %zu", r.offset()));
      }
      chain.assign(values.begin(), values.end());
    }
    DD_RETURN_IF_ERROR(r.ExpectEnd("CHNS"));
  }
  DD_RETURN_IF_ERROR(DecodeRecords(
      view, "CNTS", 8, [](ByteReader* r, uint64_t* c) { return r->U64(c, "CNTS tally"); },
      &snap.counts));
  DD_RETURN_IF_ERROR(DecodeRecords(
      view, "MRGN", 8, [](ByteReader* r, double* m) { return r->F64(m, "MRGN marginal"); },
      &snap.marginals));
  DD_RETURN_IF_ERROR(DecodeRecords(
      view, "RNGS", 16,
      [](ByteReader* r, RngState* st) {
        DD_RETURN_IF_ERROR(r->U64(&st->s0, "RNGS s0"));
        return r->U64(&st->s1, "RNGS s1");
      },
      &snap.rng_states));
  if (view.Has("WRLD")) {
    DD_ASSIGN_OR_RETURN(std::string_view payload, view.Section("WRLD"));
    ByteReader r(payload);
    PackedWorlds& worlds = snap.worlds;
    DD_RETURN_IF_ERROR(r.U64(&worlds.num_variables, "WRLD variable count"));
    DD_RETURN_IF_ERROR(r.U64(&worlds.num_worlds, "WRLD world count"));
    // Check the declared shape against the bytes present before sizing
    // anything by it.
    const uint64_t per_world = worlds.words_per_world();
    const uint64_t words = r.remaining() / 8;
    if (r.remaining() % 8 != 0 ||
        (per_world == 0 ? words != 0
                        : worlds.num_worlds > words / per_world ||
                              worlds.num_worlds * per_world != words)) {
      return Status::Corruption(StrFormat(
          "WRLD declares %llu worlds of %llu variables but carries %zu bytes at "
          "offset %zu",
          static_cast<unsigned long long>(worlds.num_worlds),
          static_cast<unsigned long long>(worlds.num_variables), r.remaining(),
          r.offset()));
    }
    worlds.words.resize(static_cast<size_t>(words));
    const unsigned tail_bits = static_cast<unsigned>(worlds.num_variables % 64);
    for (size_t i = 0; i < worlds.words.size(); ++i) {
      DD_RETURN_IF_ERROR(r.U64(&worlds.words[i], "WRLD word"));
      if (tail_bits != 0 && (i + 1) % per_world == 0 &&
          (worlds.words[i] >> tail_bits) != 0) {
        return Status::Corruption(StrFormat(
            "WRLD world %zu sets bits past its %llu variables", i / per_world,
            static_cast<unsigned long long>(worlds.num_variables)));
      }
    }
  }
  if (view.Has("META")) {
    DD_ASSIGN_OR_RETURN(std::string_view payload, view.Section("META"));
    DD_ASSIGN_OR_RETURN(snap.meta, ParseMeta(payload));
  }
  return snap;
}

Status WriteGraphSnapshot(const GraphSnapshot& snapshot, const std::string& path) {
  return WriteBytesAtomic(EncodeGraphSnapshot(snapshot), path);
}

Result<GraphSnapshot> ReadGraphSnapshot(const std::string& path,
                                        uint64_t max_variables) {
  DD_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  return DecodeGraphSnapshot(bytes, max_variables);
}

std::string FormatExactDouble(double v) { return StrFormat("%a", v); }

Result<double> ParseExactDouble(const std::string& s) {
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    return Status::Corruption("not a hex-float value: " + s);
  }
  return v;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace dd
