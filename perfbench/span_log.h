#ifndef PERFBENCH_SPAN_LOG_H_
#define PERFBENCH_SPAN_LOG_H_

// In-memory span recorder for the benchmark's traced run. The traced run
// calls each layer through its public entry point and wraps every call
// in one span (name, start, end, parent). Spans stay in memory and are
// written out once, when the benchmark ends. Single-threaded: only the
// thread that drives the KBC run records spans.

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  double start_s = 0.0;
  double end_s = 0.0;
  /// Counts and layer-reported times measured where the work happened
  /// (e.g. "grounding.factors", "query.eval_s").
  std::vector<std::pair<std::string, double>> attrs;

  double seconds() const { return end_s - start_s; }
};

class SpanLog {
 public:
  explicit SpanLog(std::string run_id);

  /// Opens a span on construction and closes it on destruction; the
  /// innermost open span becomes its parent.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name) : log_(log), id_(log->Begin(name)) {}
    ~Scope() { log_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void Attr(const std::string& key, double value) { log_->Attr(id_, key, value); }

   private:
    SpanLog* log_;
    int id_;
  };

  int Begin(const char* name);
  void End(int id);
  void Attr(int id, const std::string& key, double value);

  struct Ledger {
    double wall_s = 0;  ///< the root span's duration
    /// Self time (duration minus the time direct children cover) summed
    /// per span name over the root's subtree, the root's own included.
    std::map<std::string, double> self_s;
    /// Every attribute in the subtree, summed per key.
    std::map<std::string, double> attrs;
  };
  Ledger RootLedger(int root) const;

  /// Indices of all root spans named `name`, in start order.
  std::vector<int> Roots(const std::string& name) const;

  /// {"run_id": ..., "spans": [{name, parent, start_s, end_s, attrs}, ...]}
  std::string ToJson() const;

 private:
  double Now() const;

  std::string run_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LOG_H_
