// Pinned grounding bytes. The CRC32C of each workload's factor graph
// (binary GRBN + DICT snapshot) and of its tables (every row id's
// liveness and contents) after Grounder::Initialize(), after one
// insert+delete ApplyDeltas() batch and after a second batch that undoes
// it (derivation counts left by the first batch decide the row ids the
// second one assigns), recorded from the per-rule
// evaluator that body-group evaluation replaced. Any change to variable
// ids, factor order, weight ids or derived-table row ids moves them.
// Checked at 1, 2, 4 and 8 grounding threads with small morsels, so the
// ordered morsel merges run too.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>

#include "core/udf.h"
#include "factor/io.h"
#include "grounding/grounder.h"
#include "kbc_workloads.h"
#include "util/crc32c.h"

namespace dd {
namespace {

using testing_workloads::KbcWorkload;

struct Pinned {
  const char* workload;
  uint32_t init_graph, init_tables, delta_graph, delta_tables, undo_graph, undo_tables;
};

const Pinned kPinned[] = {
    {"logs", 0xa624a576, 0xcd3407e7, 0x52f5b88d, 0xd3d19ee5, 0xa7fa3f35, 0x091236bf},
    {"spouse", 0x8c541069, 0x1d713bd7, 0xd096c360, 0x62be5e85, 0x0a7b02e4, 0x9ed5c6e9},
    {"synthetic1", 0xe8b8caf1, 0xa6e0c7a4, 0x97ba0afd, 0xd571f671, 0xb6fec2d4, 0x86686c5d},
    {"synthetic2", 0x19251603, 0x8729b3f8, 0xaf11a217, 0x7807c9ae, 0xfb2826b6, 0x0837abd4},
    {"synthetic3", 0xe36185d2, 0x356163e0, 0x2556e325, 0xdd7c4eed, 0x5ba2f255, 0x3beb1a99},
    {"synthetic4", 0x0b8e7a2f, 0x5b832b90, 0xcf6466eb, 0x381e4dfd, 0x8a596617, 0x43c15cf6},
    {"synthetic5", 0x79d5947d, 0xf80a0d2e, 0x4edc5780, 0xa3250394, 0xeafb2b45, 0xa8833a5f},
    {"synthetic6", 0xd6a2b0f3, 0xee41480a, 0x66e45337, 0x4b27a87e, 0x1ff40bd8, 0x70c7800b},
    {"synthetic7", 0x4e7e41ae, 0xa3400596, 0x4544537e, 0x14f53036, 0x4e7e41ae, 0x32e6155c},
    {"synthetic8", 0xd50bedc7, 0x8cf9affe, 0x02470f74, 0x8f84403f, 0xe021d973, 0x115f2358},
};

Result<KbcWorkload> MakeWorkload(const std::string& name) {
  if (name == "logs") return testing_workloads::LogsWorkload(/*num_windows=*/120);
  if (name == "spouse") return testing_workloads::SpouseWorkload(/*num_documents=*/40);
  return testing_workloads::SyntheticKbcWorkload(std::stoull(name.substr(9)));
}

uint32_t GraphCrc(const FactorGraph& graph) {
  GraphSnapshot snapshot;
  snapshot.has_graph = true;
  snapshot.graph = graph;
  const std::string bytes = EncodeGraphSnapshot(snapshot);
  return Crc32c(bytes.data(), bytes.size());
}

uint32_t TablesCrc(const Catalog& catalog) {
  uint32_t crc = 0;
  for (const std::string& name : catalog.TableNames()) {
    const Table* table = *catalog.GetTable(name);
    std::string bytes = name + "\n";
    for (size_t id = 0; id < table->capacity(); ++id) {
      const int64_t row = static_cast<int64_t>(id);
      bytes += table->is_live(row) ? table->row(row).ToString() + "\n" : "-\n";
    }
    crc = Crc32cExtend(crc, bytes.data(), bytes.size());
  }
  return crc;
}

std::string Hex(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

class GroundingPinnedTest
    : public ::testing::TestWithParam<std::tuple<Pinned, size_t>> {};

TEST_P(GroundingPinnedTest, BytesMatchRecorded) {
  const auto [pinned, threads] = GetParam();
  auto workload = MakeWorkload(pinned.workload);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  Catalog catalog;
  ASSERT_TRUE(testing_workloads::Populate(*workload, &catalog).ok());
  UdfRegistry udfs;
  RegisterBuiltinUdfs(&udfs);
  GroundingOptions options;
  options.num_threads = threads;
  options.morsel_size = 16;
  options.holdout_fraction = 0.2;
  Grounder grounder(&catalog, &workload->program, &udfs, options);
  Status st = grounder.Initialize();
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_GT(grounder.graph().num_factors(), 0u);
  const uint32_t init_graph = GraphCrc(grounder.graph());
  const uint32_t init_tables = TablesCrc(catalog);
  st = grounder.ApplyDeltas(workload->delta);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const uint32_t delta_graph = GraphCrc(grounder.graph());
  const uint32_t delta_tables = TablesCrc(catalog);
  std::map<std::string, DeltaSet> undo = workload->delta;
  for (auto& [relation, delta] : undo) {
    for (auto& [tuple, count] : delta) count = -count;
  }
  st = grounder.ApplyDeltas(undo);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const uint32_t undo_graph = GraphCrc(grounder.graph());
  const uint32_t undo_tables = TablesCrc(catalog);

  const std::string actual = "{\"" + std::string(pinned.workload) + "\", " +
                             Hex(init_graph) + ", " + Hex(init_tables) + ", " +
                             Hex(delta_graph) + ", " + Hex(delta_tables) + ", " +
                             Hex(undo_graph) + ", " + Hex(undo_tables) + "},";
  EXPECT_EQ(init_graph, pinned.init_graph) << actual;
  EXPECT_EQ(init_tables, pinned.init_tables) << actual;
  EXPECT_EQ(delta_graph, pinned.delta_graph) << actual;
  EXPECT_EQ(delta_tables, pinned.delta_tables) << actual;
  EXPECT_EQ(undo_graph, pinned.undo_graph) << actual;
  EXPECT_EQ(undo_tables, pinned.undo_tables) << actual;
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadByThreads, GroundingPinnedTest,
    ::testing::Combine(::testing::ValuesIn(kPinned),
                       ::testing::Values<size_t>(1, 2, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<Pinned, size_t>>& info) {
      return std::string(std::get<0>(info.param).workload) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace dd
