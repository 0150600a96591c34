// The one shape every BENCH_*.json takes, and its one writer:
//
//   {"bench", "experiment", "hardware_concurrency",
//    "identities": {name: bool},
//    "metrics": {name: {"value", "unit", "better",
//                       optional "tolerance", "limit", "min_cores"}}}
//
// ci/bench_gate.py compares a fresh file against the committed baseline
// of the same name. A metric's bar is written by the bench that measures
// it, so a fresh file carries the same bars as its baseline, and
// refreshing a baseline is copying a fresh file over it.

#ifndef DEEPDIVE_BENCH_BENCH_REPORT_H_
#define DEEPDIVE_BENCH_BENCH_REPORT_H_

#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/parallel.h"

namespace dd {

/// The optional bar of a metric; a metric without one is only printed.
struct Bar {
  /// Largest fraction of the baseline value by which the metric may move
  /// in its worse direction.
  std::optional<double> tolerance = std::nullopt;
  /// Absolute floor (higher is better) or ceiling (lower is better).
  std::optional<double> limit = std::nullopt;
  /// The bar applies only when both files' machines had this many
  /// hardware threads (a parallel speedup needs the cores behind it).
  std::optional<int> min_cores = std::nullopt;
};

class BenchReport {
 public:
  /// `bench` is the binary's name: CI runs the binary a baseline names.
  BenchReport(std::string bench, std::string experiment)
      : bench_(std::move(bench)), experiment_(std::move(experiment)) {}

  /// A property every run must have, such as a parallel result being
  /// bit-identical to its serial oracle.
  void Identity(std::string name, bool holds) {
    identities_.emplace_back(std::move(name), holds);
  }
  void Lower(std::string name, double value, std::string unit, Bar bar = {}) {
    metrics_.push_back({std::move(name), value, std::move(unit), "lower", bar});
  }
  void Higher(std::string name, double value, std::string unit, Bar bar = {}) {
    metrics_.push_back({std::move(name), value, std::move(unit), "higher", bar});
  }

  /// Writes the report to `path`. Names, units and the experiment are
  /// fixed strings in the benches, so nothing is escaped.
  bool Write(const std::string& path) const {
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(out, "{\n  \"bench\": \"%s\",\n  \"experiment\": \"%s\",\n",
                 bench_.c_str(), experiment_.c_str());
    std::fprintf(out, "  \"hardware_concurrency\": %zu,\n  \"identities\": {",
                 HardwareThreads());
    const char* sep = "\n";
    for (const auto& [name, holds] : identities_) {
      std::fprintf(out, "%s    \"%s\": %s", sep, name.c_str(), holds ? "true" : "false");
      sep = ",\n";
    }
    std::fprintf(out, "%s},\n  \"metrics\": {", identities_.empty() ? "" : "\n  ");
    sep = "\n";
    for (const Metric& m : metrics_) {
      std::fprintf(out, "%s    \"%s\": {\"value\": %.10g, \"unit\": \"%s\", \"better\": \"%s\"",
                   sep, m.name.c_str(), m.value, m.unit.c_str(), m.better);
      if (m.bar.tolerance) std::fprintf(out, ", \"tolerance\": %.10g", *m.bar.tolerance);
      if (m.bar.limit) std::fprintf(out, ", \"limit\": %.10g", *m.bar.limit);
      if (m.bar.min_cores) std::fprintf(out, ", \"min_cores\": %d", *m.bar.min_cores);
      std::fprintf(out, "}");
      sep = ",\n";
    }
    std::fprintf(out, "\n  }\n}\n");
    const bool ok = std::fclose(out) == 0;
    std::printf("%s %s\n", ok ? "wrote" : "failed to write", path.c_str());
    return ok;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    const char* better;
    Bar bar;
  };
  std::string bench_;
  std::string experiment_;
  std::vector<std::pair<std::string, bool>> identities_;
  std::vector<Metric> metrics_;
};

}  // namespace dd

#endif  // DEEPDIVE_BENCH_BENCH_REPORT_H_
