// Pinned grounding bytes after Grounder::Initialize(), after one
// insert+delete ApplyDeltas() batch and after a second batch that undoes
// it (derivation counts left by the first batch decide the row ids the
// second one assigns): per workload, a digest of its factor graph
// snapshot (binary GRBN + DICT), the CRC32C of its tables (every row
// id's liveness and contents), and digests of its serving-epoch snapshot
// (EncodeEpochSnapshot with fixed marginals) and of its catalog snapshot
// (EncodeCatalogSnapshot). Any change to variable ids, factor order,
// weight ids or derived-table row ids moves them, and so does any change
// to the bytes the snapshot encoders write. Checked at 1, 2, 4 and 8
// grounding threads with small morsels, so the ordered morsel merges run
// too.
//
// Snapshots are pinned with FNV-1a, not CRC32C: every DDSN section ends
// in the CRC32C of its tag, length and payload, and a CRC32C taken over a
// message followed by its own CRC32C is a constant, so a CRC32C of a
// whole container sees only its section lengths.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/udf.h"
#include "factor/io.h"
#include "grounding/grounder.h"
#include "kbc_workloads.h"
#include "serve/epoch.h"
#include "storage/snapshot.h"
#include "util/crc32c.h"

namespace dd {
namespace {

using testing_workloads::KbcWorkload;

struct Pinned {
  const char* workload;
  uint32_t init_graph, init_tables, delta_graph, delta_tables, undo_graph, undo_tables;
  uint32_t init_epoch, init_catalog, delta_epoch, delta_catalog, undo_epoch, undo_catalog;
};

const Pinned kPinned[] = {
    {"logs", 0xffd59489, 0xcd3407e7, 0x9efe54c5, 0xd3d19ee5, 0xd35cf7be, 0x091236bf,
     0xccf1c22a, 0xbf70ec7a, 0x45a7d9c9, 0xf6285509, 0x6ba28768, 0xf9b2f6de},
    {"spouse", 0x346061e2, 0x1d713bd7, 0xcf2d7f59, 0x62be5e85, 0x08e835a0, 0x9ed5c6e9,
     0xf2568530, 0x5cf52c77, 0x55d54b56, 0x8d9ec433, 0xb02accf0, 0xf0249f75},
    {"synthetic1", 0x9938e7cb, 0xa6e0c7a4, 0xe66b2aec, 0xd571f671, 0x388b83a4, 0x86686c5d,
     0x8e61705c, 0x2a69db41, 0x7e96d140, 0xbf724e2b, 0xbea76cc9, 0xb193df44},
    {"synthetic2", 0x3fba27b1, 0x8729b3f8, 0xfcf403ad, 0x7807c9ae, 0x20002015, 0x0837abd4,
     0x4cc13126, 0x7242a9d5, 0x19b4817c, 0x41fa4893, 0xf2f98b49, 0x4e30fb1c},
    {"synthetic3", 0xe54e824d, 0x356163e0, 0x3cafa1e5, 0xdd7c4eed, 0xd5497ce4, 0x3beb1a99,
     0x6d683bd6, 0x2d7b4390, 0x7ed007ef, 0x90f699e6, 0xb9b89418, 0xfaadafb0},
    {"synthetic4", 0xb19b47d7, 0x5b832b90, 0xef86e027, 0x381e4dfd, 0xbec2b0e6, 0x43c15cf6,
     0x1a380c79, 0x3909a5ba, 0x1df1cbee, 0x616d7697, 0xd9c05579, 0xb9c50259},
    {"synthetic5", 0xb1cccd52, 0xf80a0d2e, 0x31b823f3, 0xa3250394, 0x5152edb6, 0xa8833a5f,
     0xc6988c23, 0x881bee83, 0x97bb7c9a, 0xa96e60cd, 0xa2d041b0, 0x120fda48},
    {"synthetic6", 0xf8440edc, 0xee41480a, 0xc08df133, 0x4b27a87e, 0x8ccba743, 0x70c7800b,
     0xef6ee006, 0xf2fb5744, 0x6618c67a, 0x38ec4b88, 0x5856751b, 0x1c9d7bfc},
    {"synthetic7", 0x4c98947d, 0xa3400596, 0xa88e5f57, 0x14f53036, 0x4c98947d, 0x32e6155c,
     0x9f3addb5, 0x06357634, 0x3beaf46f, 0x74f42230, 0x9f3addb5, 0x834fcfef},
    {"synthetic8", 0xf4dd1454, 0x8cf9affe, 0x2bfccd80, 0x8f84403f, 0x47e4d89e, 0x115f2358,
     0x6be74791, 0x381268d5, 0xd8fc9eb7, 0x549d074c, 0x90b3558e, 0xf987df10},
};

Result<KbcWorkload> MakeWorkload(const std::string& name) {
  if (name == "logs") return testing_workloads::LogsWorkload(/*num_windows=*/120);
  if (name == "spouse") return testing_workloads::SpouseWorkload(/*num_documents=*/40);
  return testing_workloads::SyntheticKbcWorkload(std::stoull(name.substr(9)));
}

uint32_t Fnv1a(const std::string& bytes) {
  uint32_t h = 0x811c9dc5u;
  for (unsigned char c : bytes) h = (h ^ c) * 0x01000193u;
  return h;
}

uint32_t GraphDigest(const FactorGraph& graph) {
  GraphSnapshot snapshot;
  snapshot.has_graph = true;
  snapshot.graph = graph;
  return Fnv1a(EncodeGraphSnapshot(snapshot));
}

uint32_t EpochDigest(const Grounder& grounder) {
  const FactorGraph& graph = grounder.graph();
  std::vector<double> marginals(graph.num_variables());
  for (size_t v = 0; v < marginals.size(); ++v) {
    marginals[v] = static_cast<double>(v % 9) / 8.0;
  }
  std::vector<EpochVarEntry> vars;
  for (const VarInfo& info : grounder.var_info()) {
    vars.push_back(EpochVarEntry{info.relation, info.row_id, info.live});
  }
  return Fnv1a(EncodeEpochSnapshot(graph, marginals, vars, 3));
}

uint32_t CatalogDigest(const Catalog& catalog) {
  return Fnv1a(EncodeCatalogSnapshot(catalog));
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
  const uint32_t init_graph = GraphDigest(grounder.graph());
  const uint32_t init_tables = TablesCrc(catalog);
  const uint32_t init_epoch = EpochDigest(grounder);
  const uint32_t init_catalog = CatalogDigest(catalog);
  st = grounder.ApplyDeltas(workload->delta);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const uint32_t delta_graph = GraphDigest(grounder.graph());
  const uint32_t delta_tables = TablesCrc(catalog);
  const uint32_t delta_epoch = EpochDigest(grounder);
  const uint32_t delta_catalog = CatalogDigest(catalog);
  std::map<std::string, DeltaSet> undo = workload->delta;
  for (auto& [relation, delta] : undo) {
    for (auto& [tuple, count] : delta) count = -count;
  }
  st = grounder.ApplyDeltas(undo);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const uint32_t undo_graph = GraphDigest(grounder.graph());
  const uint32_t undo_tables = TablesCrc(catalog);
  const uint32_t undo_epoch = EpochDigest(grounder);
  const uint32_t undo_catalog = CatalogDigest(catalog);

  const std::string actual = "{\"" + std::string(pinned.workload) + "\", " +
                             Hex(init_graph) + ", " + Hex(init_tables) + ", " +
                             Hex(delta_graph) + ", " + Hex(delta_tables) + ", " +
                             Hex(undo_graph) + ", " + Hex(undo_tables) + ",\n     " +
                             Hex(init_epoch) + ", " + Hex(init_catalog) + ", " +
                             Hex(delta_epoch) + ", " + Hex(delta_catalog) + ", " +
                             Hex(undo_epoch) + ", " + Hex(undo_catalog) + "},";
  EXPECT_EQ(init_graph, pinned.init_graph) << actual;
  EXPECT_EQ(init_tables, pinned.init_tables) << actual;
  EXPECT_EQ(delta_graph, pinned.delta_graph) << actual;
  EXPECT_EQ(delta_tables, pinned.delta_tables) << actual;
  EXPECT_EQ(undo_graph, pinned.undo_graph) << actual;
  EXPECT_EQ(undo_tables, pinned.undo_tables) << actual;
  EXPECT_EQ(init_epoch, pinned.init_epoch) << actual;
  EXPECT_EQ(init_catalog, pinned.init_catalog) << actual;
  EXPECT_EQ(delta_epoch, pinned.delta_epoch) << actual;
  EXPECT_EQ(delta_catalog, pinned.delta_catalog) << actual;
  EXPECT_EQ(undo_epoch, pinned.undo_epoch) << actual;
  EXPECT_EQ(undo_catalog, pinned.undo_catalog) << actual;
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
