// Seeded mutation fuzzing of every decoder on the shared byte reader:
// graph, catalog and serving-epoch snapshots (in memory and through
// MappedSnapshot), the seven dist protocol messages and wire frames read
// off a loopback socket. Each case starts from a valid encoding, mutates
// it — bit flips; counts or lengths set to 0, to the bytes remaining + 1
// and to 2^32 or more; truncations; splices — and decodes it. The
// decoder must return OK or a Status; under ASan/UBSan it must also stay
// clean. Snapshot mutations go to one section's content and the section
// is re-framed with a fresh CRC, so they reach the section parsers
// rather than stopping at the CRC check; frames are likewise re-framed.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dist/protocol.h"
#include "dist/wire.h"
#include "factor/io.h"
#include "serve/epoch.h"
#include "storage/catalog.h"
#include "storage/snapshot.h"
#include "util/bytes.h"
#include "util/crc32c.h"
#include "util/deadline.h"
#include "util/rng.h"

namespace dd {
namespace {

// ---- Mutations ----------------------------------------------------------

/// One random mutation of `bytes`, never growing it by more than its size.
std::string Mutate(std::string bytes, Rng* rng) {
  const auto pick = [rng](size_t n) { return static_cast<size_t>(rng->Next() % n); };
  switch (pick(4)) {
    case 0: {  // flip one to three bits
      if (bytes.empty()) return bytes;
      for (size_t i = 0, n = 1 + pick(3); i < n; ++i) {
        bytes[pick(bytes.size())] ^= static_cast<char>(1u << pick(8));
      }
      return bytes;
    }
    case 1: {  // a count or length field set to 0, remaining + 1 or >= 2^32
      const size_t width = pick(2) == 0 ? 4 : 8;
      if (bytes.size() < width) return bytes;
      const size_t offset = pick(bytes.size() / width) * width;
      const uint64_t remaining = bytes.size() - offset - width;
      const uint64_t wide[] = {0, remaining + 1, uint64_t{1} << 32,
                               (uint64_t{1} << 32) + 1, ~uint64_t{0}};
      const uint64_t narrow[] = {0, remaining + 1, 0xffffffffu};
      const uint64_t value = width == 8 ? wide[pick(5)] : narrow[pick(3)];
      std::memcpy(bytes.data() + offset, &value, width);
      return bytes;
    }
    case 2:  // truncation
      bytes.resize(pick(bytes.size() + 1));
      return bytes;
    default: {  // splice: a random slice copied over or into another place
      if (bytes.empty()) return bytes;
      const size_t from = pick(bytes.size());
      const std::string slice = bytes.substr(from, 1 + pick(bytes.size() - from));
      const size_t to = pick(bytes.size());
      if (pick(2) == 0) {
        bytes.replace(to, std::min(slice.size(), bytes.size() - to), slice);
      } else {
        bytes.insert(to, slice);
      }
      return bytes;
    }
  }
}

// ---- DDSN framing, test-local so mutations can re-frame sections ---------

struct Section {
  std::string tag;
  std::string payload;
};

std::vector<Section> SplitContainer(const std::string& bytes) {
  std::vector<Section> sections;
  size_t pos = 8;  // magic + version
  while (pos + 12 <= bytes.size()) {
    Section s;
    s.tag = bytes.substr(pos, 4);
    uint64_t len = 0;
    std::memcpy(&len, bytes.data() + pos + 4, 8);
    if (s.tag == "END.") break;
    s.payload = bytes.substr(pos + 12, len);
    sections.push_back(std::move(s));
    pos += 12 + len + 4;
  }
  return sections;
}

bool IsAligned(const std::string& tag) {
  return tag == "GRBN" || tag == "DICT" || tag == "COLS" || tag == "VARS" ||
         tag == "PROB";
}

/// Mutate the content of one section other than `spared` (aligned
/// sections keep a correct pad for their new position) and re-frame
/// every section with its CRC.
std::string MutateSection(const std::string& container, const char* spared, Rng* rng) {
  std::vector<Section> sections = SplitContainer(container);
  size_t target = 0;
  do {
    target = static_cast<size_t>(rng->Next() % sections.size());
  } while (sections[target].tag == spared);
  SnapshotWriter writer;
  for (size_t i = 0; i < sections.size(); ++i) {
    const Section& s = sections[i];
    if (IsAligned(s.tag)) {
      const size_t pad = static_cast<uint8_t>(s.payload[0]);
      std::string content = s.payload.substr(1 + pad);
      if (i == target) content = Mutate(std::move(content), rng);
      writer.AddAlignedSection(s.tag, content);
    } else {
      writer.AddSection(s.tag, i == target ? Mutate(s.payload, rng) : s.payload);
    }
  }
  return writer.Encode();
}

// ---- Base encodings -----------------------------------------------------

FactorGraph SmallGraph() {
  FactorGraph g;
  for (int v = 0; v < 6; ++v) g.AddVariable(v % 3 == 1, v % 2 == 0);
  const uint32_t w0 = g.AddWeight(1.25, false, "feature=a");
  const uint32_t w1 = g.AddWeight(-0.75, true, "feature=b c");
  EXPECT_TRUE(g.AddFactor(FactorFunc::kIsTrue, w0, {{0, true}}).ok());
  EXPECT_TRUE(g.AddFactor(FactorFunc::kAnd, w1, {{1, true}, {2, false}}).ok());
  EXPECT_TRUE(g.AddFactor(FactorFunc::kImply, w0, {{0, true}, {3, false}, {5, true}}).ok());
  EXPECT_TRUE(g.AddFactor(FactorFunc::kEqual, w1, {{2, true}, {4, true}}).ok());
  EXPECT_TRUE(g.Finalize().ok());
  return g;
}

std::string GraphSnapshotBytes() {
  GraphSnapshot snap;
  snap.has_graph = true;
  snap.graph = SmallGraph();
  snap.weights = {1.25, -0.75};
  snap.chains = {{0, 1, 1, 0, 1, 0}, {1, 1, 0, 0, 0, 1}};
  snap.counts = {0, 7, 3, 0, 1, 9};
  snap.marginals = {0.5, 1.0, 0.25, 0.0, 0.125, 0.75};
  snap.rng_states = {{1, 2}, {3, 4}};
  snap.meta = {{"kind", "fuzz"}, {"epoch", "12"}};
  return EncodeGraphSnapshot(snap);
}

std::string CatalogBytes() {
  Catalog catalog;
  Table* people = *catalog.CreateTable(
      "people", Schema({{"name", ValueType::kString}, {"age", ValueType::kInt},
                        {"score", ValueType::kDouble}, {"ok", ValueType::kBool}}));
  for (int i = 0; i < 9; ++i) {
    EXPECT_TRUE(people
                    ->Insert(Tuple({Value::String("p" + std::to_string(i % 5)),
                                    Value::Int(i), Value::Double(i * 0.5),
                                    i % 4 == 0 ? Value::Null() : Value::Bool(i % 2)}))
                    .ok());
  }
  (void)people->Erase(Tuple({Value::String("p1"), Value::Int(1), Value::Double(0.5),
                       Value::Bool(true)}));
  Table* pairs = *catalog.CreateTable(
      "pairs", Schema({{"a", ValueType::kString}, {"b", ValueType::kString}}));
  EXPECT_TRUE(pairs->Insert(Tuple({Value::String("x"), Value::String("y")})).ok());
  return EncodeCatalogSnapshot(catalog);
}

std::string EpochBytes() {
  FactorGraph graph = SmallGraph();
  std::vector<double> marginals = {0.5, 1.0, 0.25, 0.0, 0.125, 0.75};
  std::vector<EpochVarEntry> vars;
  for (int v = 0; v < 6; ++v) {
    vars.push_back(EpochVarEntry{v < 3 ? "Spouse" : "Causes", v, v != 4});
  }
  return EncodeEpochSnapshot(graph, marginals, vars, 3);
}

// ---- Decoders under test -----------------------------------------------

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "codec_fuzz_" + name + ".snap";
}

Status WriteTemp(const std::string& path, const std::string& bytes) {
  return WriteBytesAtomic(bytes, path);
}

Status DecodeMappedCatalog(const std::string& bytes) {
  const std::string path = TempPath("mapped_catalog");
  DD_RETURN_IF_ERROR(WriteTemp(path, bytes));
  DD_ASSIGN_OR_RETURN(MappedSnapshot snap, MappedSnapshot::Open(path));
  DD_ASSIGN_OR_RETURN(StringPoolView pool, snap.Pool());
  return snap.Tables(pool).status();
}

Status DecodeMappedGraph(const std::string& bytes) {
  const std::string path = TempPath("mapped_graph");
  DD_RETURN_IF_ERROR(WriteTemp(path, bytes));
  DD_ASSIGN_OR_RETURN(MappedSnapshot snap, MappedSnapshot::Open(path));
  DD_ASSIGN_OR_RETURN(StringPoolView pool, snap.Pool());
  return snap.Graph(pool).status();
}

Status DecodeEpoch(const std::string& bytes) {
  const std::string path = TempPath("epoch");
  DD_RETURN_IF_ERROR(WriteTemp(path, bytes));
  DD_ASSIGN_OR_RETURN(ServingEpoch epoch, ServingEpoch::Load(path));
  // Touch every accessor the server uses on a loaded epoch.
  for (uint32_t v = 0; v < epoch.num_variables(); ++v) {
    (void)epoch.marginal(v);
    (void)epoch.var_relation(v);
    (void)epoch.FindVar(epoch.var_relation(v), epoch.var_row(v));
  }
  return Status::OK();
}

Status DecodeCatalog(const std::string& bytes) {
  Catalog catalog;
  return LoadCatalogSnapshot(bytes, &catalog);
}

Status DecodeGraph(const std::string& bytes) {
  DD_ASSIGN_OR_RETURN(GraphSnapshot snap, DecodeGraphSnapshot(bytes));
  (void)EncodeGraphSnapshot(snap);  // whatever decodes must encode again
  return Status::OK();
}

/// A frame (magic, type, payload length, payload, CRC) read off a
/// loopback socket whose sender closes after writing it.
class FrameChannel {
 public:
  FrameChannel() {
    auto listener = WireListener::Listen("tcp:127.0.0.1:0");
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    if (listener.ok()) listener_ = std::move(*listener);
  }

  Status Decode(const std::string& wire) {
    const std::string& endpoint = listener_.endpoint();
    const int port = std::stoi(endpoint.substr(endpoint.rfind(':') + 1));
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return Status::IoError("loopback connect failed");
    }
    auto conn = listener_.Accept(Deadline::AfterMillis(5000));
    size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::write(fd, wire.data() + sent, wire.size() - sent);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);
    Status status = conn.ok() ? conn->RecvFrame(Deadline::AfterMillis(5000)).status()
                              : conn.status();
    ::close(fd);
    return status;
  }

 private:
  WireListener listener_;
};

/// Frame bytes around `payload` with a correct length and CRC, unless
/// `declared_len` overrides the length field.
std::string Frame(uint32_t type, const std::string& payload, uint64_t declared_len) {
  ByteWriter frame;
  frame.U32(kWireMagic);
  frame.U32(type);
  frame.U64(declared_len);
  frame.Raw(payload);
  frame.U32(Crc32c(frame.str().data() + 4, frame.size() - 4));
  return frame.Take();
}

// ---- Formats ------------------------------------------------------------

enum class Shape { kContainer, kMessage, kFrame };

struct Format {
  const char* name;
  Shape shape;
  int iterations;
  const char* spared;  // container section left unmutated
  std::function<std::string()> encode;
  std::function<Status(const std::string&)> decode;
};

std::string RoundResultBytes() {
  RoundResultMsg msg;
  msg.round = 11;
  msg.is_final = true;
  msg.boundary_bits = {1, 0};
  msg.boundary_estimates = {0.5, 0.25};
  msg.owned_marginals = {0.1, 0.2, 0.3};
  msg.num_accumulated = 160;
  return EncodeRoundResult(msg);
}

const std::vector<Format>& Formats() {
  static const std::vector<Format> formats = {
      // DecodeGraphSnapshot materializes GRBN's variable count, which no
      // other section bounds: a mutated count asks for gigabytes. GRBN is
      // fuzzed through the mapped views and the epoch loader instead,
      // which validate it without materializing a FactorGraph.
      {"graph_snapshot", Shape::kContainer, 400, "GRBN", GraphSnapshotBytes, DecodeGraph},
      {"catalog_snapshot", Shape::kContainer, 400, "", CatalogBytes, DecodeCatalog},
      {"mapped_catalog", Shape::kContainer, 150, "", CatalogBytes, DecodeMappedCatalog},
      {"mapped_graph", Shape::kContainer, 150, "", GraphSnapshotBytes, DecodeMappedGraph},
      {"serving_epoch", Shape::kContainer, 150, "", EpochBytes, DecodeEpoch},
      {"hello", Shape::kMessage, 300, "",
       [] { return EncodeHello(HelloMsg{kDistProtocolVersion, 3}); },
       [](const std::string& b) { return DecodeHello(b).status(); }},
      {"assign", Shape::kMessage, 300, "",
       [] {
         AssignMsg msg;
         msg.shard = 1;
         msg.num_shards = 2;
         msg.num_owned = 3;
         msg.local_to_global = {10, 11, 12, 40};
         msg.owned_boundary = {0, 2};
         msg.checkpoint_path = "run/shard1.snap";
         msg.graph_snapshot = GraphSnapshotBytes();
         return EncodeAssign(msg);
       },
       [](const std::string& b) { return DecodeAssign(b).status(); }},
      {"ready", Shape::kMessage, 300, "",
       [] {
         ReadyMsg msg;
         msg.phase = kPhaseInfer;
         msg.next = 6;
         msg.has_result = true;
         msg.result = RoundResultBytes();
         return EncodeReady(msg);
       },
       [](const std::string& b) { return DecodeReady(b).status(); }},
      {"epoch_start", Shape::kMessage, 300, "",
       [] { return EncodeEpochStart(EpochStartMsg{7, {0.5, -1.5, 2.25}, {1, 0, 1}}); },
       [](const std::string& b) { return DecodeEpochStart(b).status(); }},
      {"epoch_result", Shape::kMessage, 300, "",
       [] { return EncodeEpochResult(EpochResultMsg{7, {0.5, -1.25}, {0, 1}, {0.25, 0.875}}); },
       [](const std::string& b) { return DecodeEpochResult(b).status(); }},
      {"round_start", Shape::kMessage, 300, "",
       [] { return EncodeRoundStart(RoundStartMsg{11, {3.0}, {1}}); },
       [](const std::string& b) { return DecodeRoundStart(b).status(); }},
      {"round_result", Shape::kMessage, 300, "", RoundResultBytes,
       [](const std::string& b) { return DecodeRoundResult(b).status(); }},
      {"frame", Shape::kFrame, 120, "", RoundResultBytes, nullptr},
  };
  return formats;
}

class CodecFuzzTest : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(CodecFuzzTest, MutantsDecodeToOkOrStatus) {
  const auto [index, seed] = GetParam();
  const Format& format = Formats()[index];
  const std::string base = format.encode();
  Rng rng(seed * 7919 + index);
  std::optional<FrameChannel> channel;
  if (format.shape == Shape::kFrame) channel.emplace();
  auto decode = [&](const std::string& bytes) {
    return channel ? channel->Decode(bytes) : format.decode(bytes);
  };

  if (format.shape == Shape::kFrame) {
    ASSERT_TRUE(decode(Frame(kMsgRoundResult, base, base.size())).ok());
  } else {
    Status status = decode(base);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  int rejected = 0;
  for (int i = 0; i < format.iterations; ++i) {
    std::string mutant;
    switch (format.shape) {
      case Shape::kContainer:
        mutant = MutateSection(base, format.spared, &rng);
        break;
      case Shape::kMessage:
        mutant = Mutate(base, &rng);
        break;
      case Shape::kFrame: {
        // The payload is mutated and re-framed with its true length, or
        // kept and framed under a wrong one. The length field is never
        // bit-flipped: see RecvFrame's note in CHANGES.md.
        const uint64_t lengths[] = {0, base.size() + 1, uint64_t{1} << 32};
        const uint64_t choice = rng.Next() % 4;
        const std::string payload = choice == 3 ? Mutate(base, &rng) : base;
        mutant = Frame(static_cast<uint32_t>(rng.Next() % 9), payload,
                       choice == 3 ? payload.size() : lengths[choice]);
        break;
      }
    }
    // A decoder must answer; a crash or a sanitizer report fails the run.
    if (!decode(mutant).ok()) ++rejected;
  }
  // The mutations must reach the decoders, not all be no-ops.
  EXPECT_GT(rejected, 0) << format.name;
}

INSTANTIATE_TEST_SUITE_P(
    FormatBySeed, CodecFuzzTest,
    ::testing::Combine(::testing::Range<size_t>(0, Formats().size()), ::testing::Values<uint64_t>(1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, uint64_t>>& info) {
      return std::string(Formats()[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace dd
