#ifndef PERFBENCH_KBC_RUNNER_H_
#define PERFBENCH_KBC_RUNNER_H_

// Two ways to drive one KBC application over the same inputs:
//
//  * PipelineRunner goes through DeepDivePipeline (AddDocument /
//    IngestStream, Run(), PublishEpoch) exactly as a user would. The
//    end-to-end metrics are timed on it, untraced.
//  * TracedRunner performs the same run by calling each layer through its
//    public entry point (AnnotateDocument, the registered Extractor,
//    StreamIngester::Ingest, Table::Insert, Grounder::Initialize /
//    ApplyDeltas, Learner::Learn, IncrementalInference::Materialize /
//    Update, CalibrationReport::Build, EncodeEpochSnapshot +
//    EpochDirectory::Publish), with one span around each call.
//
// Both publish serving epochs; the benchmark requires the epoch files of
// the two to be byte-identical (same graph, weights and marginals).

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "grounding/grounder.h"
#include "inference/incremental.h"
#include "span_log.h"
#include "stream/ingester.h"
#include "util/thread_pool.h"

namespace perfbench {

/// One KBC application and its pipeline settings.
struct KbcApp {
  std::string ddlog;
  /// Document UDF; empty for the stream-fed logs application.
  dd::Extractor extractor;
  /// Distant-supervision KB rows in the order the application queues them.
  std::vector<std::pair<std::string, dd::Tuple>> kb;
  dd::PipelineOptions options;
  /// Record UDF and ingest settings for stream input (logs application).
  dd::StreamExtractor stream_extractor;
  dd::StreamOptions stream;
};

class KbcRunner {
 public:
  virtual ~KbcRunner() = default;

  virtual dd::Status AddDocument(const std::string& id, const std::string& text) = 0;
  /// Stream `text` (newline-separated records) into the next Run().
  virtual dd::Status Ingest(const std::string& text, dd::IngestStats* stats) = 0;
  virtual dd::Status Run() = 0;
  /// Publish the last Run() as the next serving epoch of `dir`.
  virtual dd::Status Publish(const std::string& dir) = 0;

  /// Documents quarantined by the last Run().
  virtual uint64_t documents_quarantined() const = 0;
  virtual const dd::Grounder& grounder() const = 0;
  /// Marginal of every live tuple of a query relation, in variable order.
  virtual dd::Result<std::vector<std::pair<dd::Tuple, double>>> Marginals(
      const std::string& relation) const = 0;
};

/// Creates a runner with the program loaded and the KB queued.
dd::Result<std::unique_ptr<KbcRunner>> MakePipelineRunner(const KbcApp& app);
/// `log` must outlive the runner; every call records its spans there.
dd::Result<std::unique_ptr<KbcRunner>> MakeTracedRunner(const KbcApp& app,
                                                        SpanLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_KBC_RUNNER_H_
