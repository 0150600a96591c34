// Pinned encoder bytes for every binary format outside the grounding
// table (grounding_pinned_test pins the graph, epoch and catalog
// snapshots of the KBC workloads): a graph snapshot carrying every
// section, the serving-epoch CURRENT manifest, the pipeline run
// manifest, the seven dist protocol messages and one wire frame read
// off a loopback socket. Each entry is the FNV-1a digest and length of
// the encoded bytes. A codec change that moves one of them changes an
// on-disk or on-wire format. (Not CRC32C: DDSN sections and wire frames
// end in a CRC32C of what precedes them, and a CRC32C over a message
// followed by its own CRC32C is a constant.)

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/checkpoint.h"
#include "dist/protocol.h"
#include "dist/wire.h"
#include "factor/io.h"
#include "serve/epoch.h"
#include "util/deadline.h"

namespace dd {
namespace {

std::string Pin(const std::string& bytes) {
  uint32_t h = 0x811c9dc5u;
  for (unsigned char c : bytes) h = (h ^ c) * 0x01000193u;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "fnv=0x%08x len=%zu", h, bytes.size());
  return buf;
}

std::string ReadAll(const std::string& path) {
  Result<std::string> bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::string();
}

FactorGraph SmallGraph() {
  FactorGraph g;
  g.AddVariable();
  g.AddVariable(/*is_evidence=*/true, /*value=*/true);
  g.AddVariable();
  g.AddVariable(/*is_evidence=*/true, /*value=*/false);
  g.AddVariable();
  const uint32_t w0 = g.AddWeight(1.25, false, "feature=a");
  const uint32_t w1 = g.AddWeight(-0.75, true, "feature=b c");
  const uint32_t w2 = g.AddWeight(0.0, false, "");
  EXPECT_TRUE(g.AddFactor(FactorFunc::kIsTrue, w0, {{0, true}}).ok());
  EXPECT_TRUE(g.AddFactor(FactorFunc::kAnd, w1, {{1, true}, {2, false}}).ok());
  EXPECT_TRUE(
      g.AddFactor(FactorFunc::kImply, w2, {{0, true}, {3, false}, {4, true}}).ok());
  EXPECT_TRUE(g.AddFactor(FactorFunc::kEqual, w0, {{2, true}, {4, true}}).ok());
  EXPECT_TRUE(g.AddFactor(FactorFunc::kOr, w1, {{1, false}, {4, true}}).ok());
  EXPECT_TRUE(g.Finalize().ok());
  return g;
}

TEST(BytesPinnedTest, GraphSnapshotWithEverySection) {
  GraphSnapshot snap;
  snap.has_graph = true;
  snap.graph = SmallGraph();
  snap.weights = {1.25, -0.75, 0.1};
  snap.chains = {{0, 1, 1, 0, 1}, {1, 1, 0, 0, 0}, {}};
  snap.counts = {0, 7, 3, 0, 1ull << 40};
  snap.marginals = {0.5, 1.0, 0.25, 0.0, 0.125};
  snap.rng_states = {{1, 2}, {0x9e3779b97f4a7c15ull, 0xdeadbeefull}};
  snap.meta = {{"kind", "pin"}, {"lr", FormatExactDouble(0.1)}, {"epoch", "12"}};
  const std::string bytes = EncodeGraphSnapshot(snap);
  EXPECT_EQ(Pin(bytes), "fnv=0xca242beb len=732");
}

TEST(BytesPinnedTest, EpochManifest) {
  EpochDirectory dir(::testing::TempDir() + "bytes_pinned_epochs");
  ASSERT_TRUE(dir.Create().ok());
  std::remove(dir.CurrentManifestPath().c_str());
  ASSERT_TRUE(dir.Publish(42, "epoch bytes").ok());
  EXPECT_EQ(Pin(ReadAll(dir.CurrentManifestPath())), "fnv=0x174ccb04 len=92");
}

TEST(BytesPinnedTest, PipelineManifest) {
  RunDirectory dir(::testing::TempDir() + "bytes_pinned_run");
  ASSERT_TRUE(dir.Create().ok());
  ASSERT_TRUE(dir.WriteManifest({{"graph_crc", "3735928559"}, {"phase", "learned"}}).ok());
  EXPECT_EQ(Pin(ReadAll(dir.ManifestPath())), "fnv=0x952dffdf len=98");
}

TEST(BytesPinnedTest, ProtocolMessages) {
  HelloMsg hello;
  hello.shard = 3;
  EXPECT_EQ(Pin(EncodeHello(hello)), "fnv=0x2f04cf77 len=8");

  AssignMsg assign;
  assign.shard = 1;
  assign.num_shards = 4;
  assign.num_owned = 3;
  assign.local_to_global = {10, 11, 12, 40};
  assign.owned_boundary = {0, 2};
  assign.epochs = 25;
  assign.learning_rate = 0.05;
  assign.decay = 0.95;
  assign.l2 = 0.001;
  assign.sweeps_per_epoch = 2;
  assign.learn_seed = 99;
  assign.burn_in = 40;
  assign.num_samples = 200;
  assign.inference_seed = 1ull << 33;
  assign.sweeps_per_exchange = 5;
  assign.checkpoint_path = "run/shard1.snap";
  assign.graph_snapshot = std::string("DDSN\x01\x00\x00\x00", 8);
  EXPECT_EQ(Pin(EncodeAssign(assign)), "fnv=0xeb9185f9 len=155");

  ReadyMsg ready;
  ready.phase = kPhaseInfer;
  ready.next = 6;
  ready.has_result = true;
  ready.result = "carried result";
  EXPECT_EQ(Pin(EncodeReady(ready)), "fnv=0x4da19612 len=34");

  EpochStartMsg epoch_start;
  epoch_start.epoch = 7;
  epoch_start.weights = {0.5, -1.5, 2.25};
  epoch_start.pins = {1, 0, 1, 1};
  EXPECT_EQ(Pin(EncodeEpochStart(epoch_start)), "fnv=0x1c61c89f len=48");

  EpochResultMsg epoch_result;
  epoch_result.epoch = 7;
  epoch_result.weights = {0.5, -1.25, 2.0};
  epoch_result.boundary_bits = {0, 1};
  epoch_result.boundary_estimates = {0.25, 0.875};
  EXPECT_EQ(Pin(EncodeEpochResult(epoch_result)), "fnv=0xb6393a73 len=70");

  RoundStartMsg round_start;
  round_start.round = 11;
  round_start.weights = {3.0};
  round_start.pins = {};
  EXPECT_EQ(Pin(EncodeRoundStart(round_start)), "fnv=0x6b9231ee len=28");

  RoundResultMsg round_result;
  round_result.round = 11;
  round_result.is_final = true;
  round_result.boundary_bits = {1};
  round_result.boundary_estimates = {0.5};
  round_result.owned_marginals = {0.1, 0.2, 0.3};
  round_result.num_accumulated = 160;
  EXPECT_EQ(Pin(EncodeRoundResult(round_result)), "fnv=0xfb4ca000 len=73");
}

int RawDial(const std::string& endpoint) {
  const int port = std::stoi(endpoint.substr(endpoint.rfind(':') + 1));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

TEST(BytesPinnedTest, FrameOffLoopbackSocket) {
  auto listener = WireListener::Listen("tcp:127.0.0.1:0");
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const int fd = RawDial(listener->endpoint());
  auto conn = listener->Accept(Deadline::AfterMillis(5000));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  const std::string payload("boundary bits\0\x01\xff", 16);
  ASSERT_TRUE(conn->SendFrame(kMsgRoundResult, payload, Deadline::AfterMillis(5000)).ok());
  // magic + type + payload_len + payload + crc
  std::string wire(16 + payload.size() + 4, '\0');
  size_t got = 0;
  while (got < wire.size()) {
    const ssize_t n = ::read(fd, wire.data() + got, wire.size() - got);
    ASSERT_GT(n, 0);
    got += static_cast<size_t>(n);
  }
  EXPECT_EQ(Pin(wire), "fnv=0xb813f273 len=36");

  // The same bytes sent back decode to the same frame.
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::write(fd, wire.data() + sent, wire.size() - sent);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
  auto frame = conn->RecvFrame(Deadline::AfterMillis(5000));
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, kMsgRoundResult);
  EXPECT_EQ(frame->payload, payload);
  ::close(fd);
}

}  // namespace
}  // namespace dd
