// EXP-STORE — dictionary-encoded columnar storage + zero-copy snapshots.
//
// Three measurements backing DESIGN.md §12:
//
//  1. Scan throughput: aggregate over every live row of a large table,
//     once through the columnar payload/tag arrays (the storage engine's
//     native layout) and once through a row-oriented replica
//     (vector<Tuple>, one heap allocation per row — the layout this
//     engine replaced). Both scans must produce bit-identical aggregates;
//     the ratio is the cache-locality win.
//
//  2. Snapshot load: the paper-scale spouse graph serialized as the ddfg
//     text oracle vs. the binary GRBN/DICT snapshot opened with
//     MappedSnapshot (mmap + validate + typed views, no per-element
//     materialization). The mmap-loaded graph must serialize to exactly
//     the oracle text; the ratio is the zero-copy win.
//
//  3. Memory: structural bytes (columnar arrays vs. per-row heap tuples)
//     plus the measured resident-set growth while building each.
//
// Writes BENCH_storage.json (gated by ci/bench_gate.py).

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_report.h"
#include "core/udf.h"
#include "ddlog/parser.h"
#include "factor/io.h"
#include "grounding/grounder.h"
#include "storage/catalog.h"
#include "storage/snapshot.h"
#include "storage/table.h"
#include "testdata/spouse_app.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace {

/// Resident-set size in bytes from /proc/self/statm (0 where absent).
size_t ResidentBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long total = 0, resident = 0;
  int n = std::fscanf(f, "%lu %lu", &total, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return resident * 4096;
}

// ---- Scan workload ------------------------------------------------------

// xorshift64: deterministic column contents without <random> overhead.
uint64_t Next(uint64_t* s) {
  uint64_t x = *s;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return *s = x;
}

void FillScanTable(dd::Table* table, size_t rows) {
  table->Reserve(rows);
  uint64_t s = 0x1234abcd;
  for (size_t i = 0; i < rows; ++i) {
    uint64_t r = Next(&s);
    table->InsertUnchecked(dd::Tuple({
        dd::Value::Int(static_cast<int64_t>(i)),
        dd::Value::Double(static_cast<double>(r % 1000) / 16.0),
        dd::Value::Bool((r & 1) != 0),
        dd::Value::Int(static_cast<int64_t>(r % 4096)),
    }));
  }
  // Tombstone a slice so both scans must honor liveness.
  for (size_t i = 0; i < rows; i += 16) {
    table->Erase(table->row(static_cast<int64_t>(i)));
  }
}

struct ScanChecksum {
  uint64_t sum = 0;
  uint64_t mix = 0;
  size_t rows = 0;
  bool operator==(const ScanChecksum& o) const {
    return sum == o.sum && mix == o.mix && rows == o.rows;
  }
};

/// Native path: walk the flat payload arrays and the liveness bitmap.
ScanChecksum ScanColumnar(const dd::Table& table) {
  ScanChecksum c;
  const size_t n = table.capacity();
  const uint64_t* col0 = table.column(0).payload_data();
  const uint64_t* col1 = table.column(1).payload_data();
  const uint64_t* col3 = table.column(3).payload_data();
  const dd::Bitmap& live = table.live_bitmap();
  for (size_t i = 0; i < n; ++i) {
    if (!live.Get(i)) continue;
    c.sum += col0[i] + col3[i];
    c.mix ^= col1[i] + 0x9e3779b97f4a7c15ull + (c.mix << 6);
    ++c.rows;
  }
  return c;
}

/// Replica path: the same aggregate over materialized heap tuples.
ScanChecksum ScanRowStore(const std::vector<dd::Tuple>& rows) {
  ScanChecksum c;
  for (const dd::Tuple& t : rows) {
    c.sum += t.at(0).payload_bits() + t.at(3).payload_bits();
    c.mix ^= t.at(1).payload_bits() + 0x9e3779b97f4a7c15ull + (c.mix << 6);
    ++c.rows;
  }
  return c;
}

/// Heap bytes a vector<Tuple> row store pins (vector headers + Value
/// payloads), the structural counterpart of Table::MemoryBytes().
size_t RowStoreBytes(const std::vector<dd::Tuple>& rows) {
  size_t bytes = rows.capacity() * sizeof(dd::Tuple);
  for (const dd::Tuple& t : rows) bytes += t.size() * sizeof(dd::Value);
  return bytes;
}

// ---- Spouse graph workload ----------------------------------------------

bool GroundSpouseGraph(size_t num_docs, dd::FactorGraph* graph) {
  dd::SpouseCorpusOptions corpus_options;
  corpus_options.num_documents = num_docs;
  corpus_options.seed = 51;
  dd::SpouseCorpus corpus = dd::GenerateSpouseCorpus(corpus_options);
  dd::SpouseAppOptions app;
  dd::Extractor extractor = dd::MakeSpouseExtractor(app);
  auto parsed = dd::ParseDdlog(dd::SpouseDdlog(app));
  if (!parsed.ok()) return false;

  dd::Catalog catalog;
  auto insert = [&](const std::string& relation, const dd::Tuple& t) {
    const dd::RelationDecl* decl = parsed->FindDecl(relation);
    if (decl == nullptr) return;
    auto table = catalog.GetOrCreateTable(relation, decl->schema);
    if (table.ok()) (void)(*table)->Insert(t);
  };
  for (size_t d = 0; d < corpus.documents.size(); ++d) {
    dd::Document doc = dd::AnnotateDocument(corpus.documents[d].first,
                                            corpus.documents[d].second);
    dd::TupleEmitter emitter;
    if (!extractor(doc, &emitter).ok()) continue;
    for (const auto& [relation, tuples] : emitter.emitted()) {
      for (const dd::Tuple& t : tuples) insert(relation, t);
    }
  }
  for (const auto& [a, b] : corpus.kb_married) {
    insert("KbMarried", dd::Tuple({dd::Value::String(a), dd::Value::String(b)}));
  }
  for (const auto& [a, b] : corpus.kb_siblings) {
    insert("KbSiblings", dd::Tuple({dd::Value::String(a), dd::Value::String(b)}));
  }

  dd::UdfRegistry udfs;
  dd::GroundingOptions gopt;
  dd::Grounder grounder(&catalog, &*parsed, &udfs, gopt);
  if (!grounder.Initialize().ok()) return false;
  *graph = grounder.graph();
  return true;
}

}  // namespace

int main() {
  const int repeats = 5;
  const size_t rows = 2000000;
  const size_t docs = 200;

  std::printf("=== EXP-STORE: columnar storage + zero-copy snapshots ===\n");
  std::printf("hardware_concurrency: %zu  repeats (best-of): %d\n\n",
              dd::HardwareThreads(), repeats);

  // --- 1. Scan throughput + 3. memory footprint.
  size_t rss0 = ResidentBytes();
  dd::Table table("scan", dd::Schema({{"id", dd::ValueType::kInt},
                                      {"score", dd::ValueType::kDouble},
                                      {"flag", dd::ValueType::kBool},
                                      {"bucket", dd::ValueType::kInt}}));
  FillScanTable(&table, rows);
  size_t rss_columnar = ResidentBytes();

  std::vector<dd::Tuple> row_store = table.Scan();
  size_t rss_rows = ResidentBytes();

  double col_best = 0, row_best = 0;
  ScanChecksum col_sum, row_sum;
  for (int rep = 0; rep < repeats; ++rep) {
    dd::Stopwatch w1;
    col_sum = ScanColumnar(table);
    double cs = w1.Seconds();
    dd::Stopwatch w2;
    row_sum = ScanRowStore(row_store);
    double rs = w2.Seconds();
    if (rep == 0 || cs < col_best) col_best = cs;
    if (rep == 0 || rs < row_best) row_best = rs;
  }
  const bool scans_agree = col_sum == row_sum;
  const double live_rows = static_cast<double>(col_sum.rows);
  const double col_mtps = live_rows / col_best / 1e6;
  const double row_mtps = live_rows / row_best / 1e6;
  const double scan_speedup = row_best / col_best;

  const size_t columnar_bytes = table.MemoryBytes();
  const size_t row_bytes = RowStoreBytes(row_store);
  const double memory_reduction =
      columnar_bytes > 0 ? static_cast<double>(row_bytes) / columnar_bytes : 0;
  const size_t rss_columnar_delta = rss_columnar - rss0;
  const size_t rss_row_delta = rss_rows - rss_columnar;

  std::printf("scan (%zu live rows, best of %d):\n", col_sum.rows, repeats);
  std::printf("  columnar  %8.1f Mtuples/s  (%.4fs)\n", col_mtps, col_best);
  std::printf("  row store %8.1f Mtuples/s  (%.4fs)\n", row_mtps, row_best);
  std::printf("  speedup   %8.2fx  checksums %s\n", scan_speedup,
              scans_agree ? "agree" : "DISAGREE");
  std::printf("memory: columnar %.1f MiB vs row store %.1f MiB (%.2fx), "
              "RSS deltas %.1f / %.1f MiB\n\n",
              columnar_bytes / 1048576.0, row_bytes / 1048576.0,
              memory_reduction, rss_columnar_delta / 1048576.0,
              rss_row_delta / 1048576.0);

  // --- 2. Spouse-graph snapshot load: text oracle vs. mapped binary.
  dd::FactorGraph graph;
  if (!GroundSpouseGraph(docs, &graph)) {
    std::fprintf(stderr, "spouse grounding failed\n");
    return 1;
  }
  const std::string text = dd::SerializeGraph(graph);

  dd::GraphSnapshot snap;
  snap.has_graph = true;
  snap.graph = graph;
  const std::string snapshot_path = "bench_storage_snapshot.ddsn";
  dd::Status wst = dd::WriteGraphSnapshot(snap, snapshot_path);
  if (!wst.ok()) {
    std::fprintf(stderr, "%s\n", wst.ToString().c_str());
    return 1;
  }

  double text_best = 0, mmap_best = 0;
  bool graph_identical = true;
  for (int rep = 0; rep < repeats; ++rep) {
    dd::Stopwatch w1;
    auto parsed = dd::DeserializeGraph(text);
    double ts = w1.Seconds();
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }

    dd::Stopwatch w2;
    auto mapped = dd::MappedSnapshot::Open(snapshot_path);
    if (!mapped.ok()) {
      std::fprintf(stderr, "%s\n", mapped.status().ToString().c_str());
      return 1;
    }
    auto pool = mapped->Pool();
    auto view = pool.ok() ? mapped->Graph(*pool)
                          : dd::Result<dd::BinaryGraphView>(pool.status());
    double ms = w2.Seconds();
    if (!view.ok()) {
      std::fprintf(stderr, "%s\n", view.status().ToString().c_str());
      return 1;
    }
    if (rep == 0 || ts < text_best) text_best = ts;
    if (rep == 0 || ms < mmap_best) mmap_best = ms;
    if (rep == 0) {
      // Identity (outside the timed region): the mapped view must
      // describe exactly the graph the text oracle describes.
      auto rebuilt = dd::GraphFromBinary(*view, *pool);
      graph_identical = rebuilt.ok() && dd::SerializeGraph(*rebuilt) == text &&
                        view->num_variables == graph.num_variables() &&
                        view->num_factors == graph.num_factors();
    }
  }
  std::remove(snapshot_path.c_str());

  const double load_speedup = mmap_best > 0 ? text_best / mmap_best : 0;
  std::printf("spouse graph (%zu vars, %zu factors, %zu docs):\n",
              graph.num_variables(), graph.num_factors(), docs);
  std::printf("  text DeserializeGraph %10.4fs  (%zu bytes)\n", text_best,
              text.size());
  std::printf("  mmap open+views       %10.4fs\n", mmap_best);
  std::printf("  speedup               %10.1fx  graph %s\n\n", load_speedup,
              graph_identical ? "identical" : "DIFFERENT");

  // Floors: DESIGN.md §12's claims, with margin far beyond timing noise.
  dd::BenchReport report("bench_storage", "EXP-STORE columnar storage + mmap snapshots");
  report.Identity("scans_agree", scans_agree);
  report.Identity("graph_identical", graph_identical);
  report.Higher("columnar_scan_mtuples_per_sec", col_mtps, "Mtuples/s");
  report.Higher("row_scan_mtuples_per_sec", row_mtps, "Mtuples/s");
  report.Higher("columnar_scan_speedup", scan_speedup, "x", {.tolerance = 0.20, .limit = 2.0});
  report.Lower("columnar_bytes", static_cast<double>(columnar_bytes), "bytes");
  report.Lower("row_store_bytes", static_cast<double>(row_bytes), "bytes");
  report.Higher("memory_reduction", memory_reduction, "x", {.limit = 1.0});
  report.Lower("rss_delta_columnar_bytes", static_cast<double>(rss_columnar_delta), "bytes");
  report.Lower("rss_delta_row_store_bytes", static_cast<double>(rss_row_delta), "bytes");
  report.Lower("text_load_s", text_best, "s");
  report.Lower("mmap_load_s", mmap_best, "s");
  report.Higher("mmap_load_speedup", load_speedup, "x", {.tolerance = 0.45, .limit = 10.0});
  const bool wrote = report.Write("BENCH_storage.json");
  return (wrote && scans_agree && graph_identical) ? 0 : 2;
}
