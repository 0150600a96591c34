// Fault-injection tests for the distributed runtime (DESIGN.md §15),
// driven through the dist.{connect,send,recv,partition,barrier}
// failpoints:
//
//   * transient socket faults (kUnavailable/kIoError at a frame
//     boundary) are retried with backoff and leave the result
//     bit-identical to a clean run;
//   * corruption (a poisoned frame, a bad CRC) fails loudly and is
//     never retried;
//   * a shard killed mid-epoch in fork mode is respawned, resumes from
//     its checkpoint, and the finished run is bit-identical to an
//     uninterrupted one;
//   * a shard that keeps dying exhausts its restart budget and the run
//     fails instead of looping.
//
// Labeled death (kills forked children) + failpoints (the CI fault
// sweep replays every registered site against this binary).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.h"
#include "dist/protocol.h"
#include "dist/shard.h"
#include "dist/wire.h"
#include "factor/io.h"
#include "testdata/synthetic_graphs.h"
#include "util/bytes.h"
#include "util/crc32c.h"
#include "util/deadline.h"
#include "util/failpoint.h"

namespace dd {
namespace {

FactorGraph MakeFaultGraph() {
  SyntheticGraphOptions options;
  options.num_variables = 80;
  options.factors_per_variable = 2.0;
  options.evidence_fraction = 0.2;
  options.weight_scale = 0.5;
  options.num_weights = 8;
  options.seed = 41;
  FactorGraph graph = MakeRandomGraph(options);
  EXPECT_TRUE(graph.Finalize().ok());
  return graph;
}

// A schedule small enough that fork-mode kill/resume tests stay fast:
// 6 learning exchanges, then 8 inference exchanges of 8 sweeps each.
DistributedOptions FastDistOptions() {
  DistributedOptions options;
  options.num_shards = 2;
  options.launch = DistLaunchMode::kThreads;
  options.epochs = 6;
  options.learning_rate = 0.05;
  options.burn_in = 16;
  options.num_samples = 48;
  options.sweeps_per_exchange = 8;
  return options;
}

class DistFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::Instance().Reset(); }

  std::string TempDirPath(const std::string& name) {
    return ::testing::TempDir() + name;
  }
};

// ---- Transient faults are retried -------------------------------------

TEST_F(DistFaultTest, TransientConnectFaultIsRetried) {
  FactorGraph clean_graph = MakeFaultGraph();
  auto clean = RunDistributed(&clean_graph, FastDistOptions());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // Both workers' first dial attempt fails with a retryable I/O error;
  // DialRetry backs off and the run still completes, bit-identically.
  ASSERT_TRUE(
      Failpoints::Instance().Configure("dist.connect=ioerror(hits=2)").ok());
  FactorGraph graph = MakeFaultGraph();
  auto result = RunDistributed(&graph, FastDistOptions());
  EXPECT_EQ(Failpoints::Instance().fired_count("dist.connect"), 2u);
  Failpoints::Instance().Reset();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->marginals, clean->marginals);
  EXPECT_EQ(result->weights, clean->weights);
}

TEST_F(DistFaultTest, TransientSendRecvFaultsAreRetried) {
  FactorGraph clean_graph = MakeFaultGraph();
  auto clean = RunDistributed(&clean_graph, FastDistOptions());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // Frame-boundary send/recv faults: the failpoints fire before any byte
  // moves, so the retry wrappers resend the same frame in place.
  ASSERT_TRUE(Failpoints::Instance()
                  .Configure("dist.send=ioerror(skip=3,hits=2);"
                             "dist.recv=ioerror(skip=5,hits=2)")
                  .ok());
  FactorGraph graph = MakeFaultGraph();
  auto result = RunDistributed(&graph, FastDistOptions());
  EXPECT_GE(Failpoints::Instance().fired_count("dist.send"), 1u);
  EXPECT_GE(Failpoints::Instance().fired_count("dist.recv"), 1u);
  Failpoints::Instance().Reset();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->marginals, clean->marginals);
  EXPECT_EQ(result->weights, clean->weights);
}

// ---- Corruption is permanent ------------------------------------------

TEST_F(DistFaultTest, CorruptedSendPoisonsTheRun) {
  // skip past part of the handshake so the poison lands mid-protocol;
  // wherever it fires, corruption must fail the run, not be retried.
  ASSERT_TRUE(Failpoints::Instance()
                  .Configure("dist.send=corruption(skip=4,hits=1)")
                  .ok());
  FactorGraph graph = MakeFaultGraph();
  auto result = RunDistributed(&graph, FastDistOptions());
  Failpoints::Instance().Reset();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
      << result.status().ToString();
}

TEST_F(DistFaultTest, PartitionFailpointFailsLoudly) {
  ASSERT_TRUE(
      Failpoints::Instance().Configure("dist.partition=error(hits=1)").ok());
  FactorGraph graph = MakeFaultGraph();
  auto result = RunDistributed(&graph, FastDistOptions());
  EXPECT_EQ(Failpoints::Instance().fired_count("dist.partition"), 1u);
  Failpoints::Instance().Reset();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

// ---- Wire-level corruption: a bad frame off a real socket -------------

int RawDial(const std::string& endpoint) {
  // endpoint is "tcp:127.0.0.1:<port>" from WireListener::Listen.
  const size_t colon = endpoint.rfind(':');
  EXPECT_NE(colon, std::string::npos);
  const int port = std::stoi(endpoint.substr(colon + 1));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

void RawSend(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
}

TEST_F(DistFaultTest, BadFrameCrcIsCorruption) {
  auto listener = WireListener::Listen("tcp:127.0.0.1:0");
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  const int fd = RawDial(listener->endpoint());
  auto conn = listener->Accept(Deadline::AfterMillis(5000));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  // A well-formed frame except for the CRC word.
  const std::string payload = "boundary bits";
  ByteWriter frame;
  frame.U32(kWireMagic);
  frame.U32(7);  // type
  frame.U64(payload.size());
  frame.Raw(payload);
  frame.U32(Crc32c(frame.str().data() + 4, frame.size() - 4) ^ 0xdeadbeef);
  RawSend(fd, frame.str());

  auto received = conn->RecvFrame(Deadline::AfterMillis(5000));
  EXPECT_EQ(received.status().code(), StatusCode::kCorruption)
      << received.status().ToString();
  ::close(fd);
}

TEST_F(DistFaultTest, BadMagicIsCorruption) {
  auto listener = WireListener::Listen("tcp:127.0.0.1:0");
  ASSERT_TRUE(listener.ok());

  const int fd = RawDial(listener->endpoint());
  auto conn = listener->Accept(Deadline::AfterMillis(5000));
  ASSERT_TRUE(conn.ok());

  ByteWriter frame;
  frame.U32(0x4b4f4f4c);  // not "DDW1"
  frame.U32(1);
  frame.U64(0);
  frame.U32(0);
  RawSend(fd, frame.str());

  auto received = conn->RecvFrame(Deadline::AfterMillis(5000));
  EXPECT_EQ(received.status().code(), StatusCode::kCorruption);
  ::close(fd);
}

// ---- A shard refuses an assignment whose graph is not GRBN -------------

TEST_F(DistFaultTest, ShardRefusesTextGraphAssignment) {
  auto listener = WireListener::Listen("tcp:127.0.0.1:0");
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  ShardWorkerOptions options;
  options.endpoint = listener->endpoint();
  options.io_deadline_ms = 5000;
  Status worker_status;
  std::thread worker([&] { worker_status = RunShardWorker(options); });

  auto conn = listener->Accept(Deadline::AfterMillis(5000));
  if (conn.ok()) {
    auto hello = conn->RecvFrame(Deadline::AfterMillis(5000));
    EXPECT_TRUE(hello.ok()) << hello.status().ToString();
    // The retired ddfg text section (GRPH) carries a graph in a form no
    // decoder reads any more.
    SnapshotWriter graph;
    graph.AddSection("GRPH", SerializeGraph(MakeChainGraph(4, 1.0, 3)));
    AssignMsg assign;
    assign.graph_snapshot = graph.Encode();
    EXPECT_TRUE(
        conn->SendFrame(kMsgAssign, EncodeAssign(assign), Deadline::AfterMillis(5000))
            .ok());
  }
  worker.join();
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  EXPECT_EQ(worker_status.code(), StatusCode::kInvalidArgument)
      << worker_status.ToString();
}

// ---- Kill a shard mid-epoch; resume bit-identically -------------------

// skip=2 lands the crash at the third learning exchange; skip=8 lands
// it in the middle of the inference rounds (6 learning barriers come
// first). Both must resume from the shard checkpoint bit-identically.
class DistKillShardTest : public DistFaultTest,
                          public ::testing::WithParamInterface<int> {};

TEST_P(DistKillShardTest, RespawnedShardResumesBitIdentically) {
  DistributedOptions options = FastDistOptions();
  options.launch = DistLaunchMode::kForkedProcesses;
  options.checkpoint_dir = TempDirPath("dd_dist_kill_clean");

  FactorGraph clean_graph = MakeFaultGraph();
  auto clean = RunDistributed(&clean_graph, options);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->restarts, 0);

  // Same run, but shard 1's child process crashes (hard _Exit, as a real
  // kill would) at its chosen exchange barrier — after computing, before
  // checkpointing that exchange.
  DistributedOptions faulty = options;
  faulty.checkpoint_dir = TempDirPath("dd_dist_kill_faulty");
  faulty.shard_failpoints[1] =
      "dist.barrier=crash(skip=" + std::to_string(GetParam()) + ",hits=1)";
  FactorGraph graph = MakeFaultGraph();
  auto result = RunDistributed(&graph, faulty);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->restarts, 1);
  EXPECT_EQ(result->marginals, clean->marginals);
  EXPECT_EQ(result->weights, clean->weights);
  EXPECT_EQ(result->num_accumulated, clean->num_accumulated);
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, DistKillShardTest,
                         ::testing::Values(2, 8));

TEST_F(DistFaultTest, RestartBudgetExhaustionFailsTheRun) {
  DistributedOptions options = FastDistOptions();
  options.launch = DistLaunchMode::kForkedProcesses;
  options.checkpoint_dir = TempDirPath("dd_dist_budget");
  options.max_shard_restarts = 1;
  // Shard 0 dies at its first barrier, and again on every respawn: the
  // budget (1 restart) runs out and the run must fail, not spin.
  options.shard_failpoints[0] = "dist.barrier=crash(hits=1)";
  options.respawn_failpoints[0] = "dist.barrier=crash(hits=1)";
  FactorGraph graph = MakeFaultGraph();
  auto result = RunDistributed(&graph, options);
  ASSERT_FALSE(result.ok());
}

}  // namespace
}  // namespace dd
