#include "core/error_analysis.h"

#include <algorithm>
#include <map>

#include "util/string_util.h"

namespace dd {

EvaluationResult Evaluate(const std::vector<Tuple>& extracted,
                          const std::unordered_set<Tuple, TupleHash>& truth) {
  EvaluationResult result;
  std::unordered_set<Tuple, TupleHash> extracted_set(extracted.begin(),
                                                     extracted.end());
  for (const Tuple& t : extracted_set) {
    if (truth.count(t) > 0) {
      ++result.true_positives;
    } else {
      ++result.false_positives;
    }
  }
  for (const Tuple& t : truth) {
    if (extracted_set.count(t) == 0) ++result.false_negatives;
  }
  size_t p_denom = result.true_positives + result.false_positives;
  size_t r_denom = result.true_positives + result.false_negatives;
  result.precision =
      p_denom == 0 ? 0.0 : static_cast<double>(result.true_positives) / p_denom;
  result.recall =
      r_denom == 0 ? 0.0 : static_cast<double>(result.true_positives) / r_denom;
  result.f1 = (result.precision + result.recall) == 0
                  ? 0.0
                  : 2 * result.precision * result.recall /
                        (result.precision + result.recall);
  return result;
}

ErrorAnalysis ErrorAnalysis::Build(
    const std::vector<std::pair<Tuple, double>>& marginals, double threshold,
    const std::unordered_set<Tuple, TupleHash>& truth, const TagFn& tag_fn,
    size_t examples_per_bucket) {
  ErrorAnalysis analysis;
  std::vector<Tuple> extracted;
  for (const auto& [tuple, prob] : marginals) {
    if (prob >= threshold) extracted.push_back(tuple);
  }
  analysis.metrics_ = Evaluate(extracted, truth);

  std::map<std::string, FailureBucket> buckets;
  auto record = [&](const Tuple& tuple, bool is_fp, double prob) {
    std::string tag = tag_fn(tuple, is_fp);
    FailureBucket& bucket = buckets[tag];
    bucket.tag = tag;
    bucket.count++;
    if (bucket.examples.size() < examples_per_bucket) {
      bucket.examples.push_back(StrFormat("%s %s (p=%.3f)",
                                          is_fp ? "FP" : "FN",
                                          tuple.ToString().c_str(), prob));
    }
  };

  std::unordered_set<Tuple, TupleHash> extracted_set(extracted.begin(),
                                                     extracted.end());
  for (const auto& [tuple, prob] : marginals) {
    bool above = prob >= threshold;
    bool is_true = truth.count(tuple) > 0;
    if (above && !is_true) record(tuple, true, prob);
    if (!above && is_true) record(tuple, false, prob);
  }
  // Truth tuples that never became candidates (candidate-generation
  // misses): probability is effectively 0 and unknown to the system.
  for (const Tuple& t : truth) {
    bool seen = false;
    for (const auto& [tuple, prob] : marginals) {
      if (tuple == t) {
        seen = true;
        break;
      }
    }
    if (!seen) record(t, false, 0.0);
  }

  for (auto& [tag, bucket] : buckets) analysis.buckets_.push_back(std::move(bucket));
  std::sort(analysis.buckets_.begin(), analysis.buckets_.end(),
            [](const FailureBucket& a, const FailureBucket& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.tag < b.tag;
            });
  return analysis;
}

std::string ErrorAnalysis::ToText(const Grounder* grounder,
                                  size_t max_features) const {
  std::string out = "=== Error Analysis ===\n";
  out += StrFormat("precision %.3f  recall %.3f  F1 %.3f  (TP %zu, FP %zu, FN %zu)\n",
                   metrics_.precision, metrics_.recall, metrics_.f1,
                   metrics_.true_positives, metrics_.false_positives,
                   metrics_.false_negatives);
  out += "--- Failure modes (attack the largest bucket first) ---\n";
  for (const FailureBucket& bucket : buckets_) {
    out += StrFormat("  [%zu errors] %s\n", bucket.count, bucket.tag.c_str());
    for (const std::string& example : bucket.examples) {
      out += "      " + example + "\n";
    }
  }
  if (grounder != nullptr) {
    out += "--- Feature statistics (weight, observations) ---\n";
    const FactorGraph& graph = grounder->graph();
    std::vector<uint32_t> ids(graph.num_weights());
    for (uint32_t w = 0; w < ids.size(); ++w) ids[w] = w;
    std::sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
      return std::abs(graph.weight_value(a)) > std::abs(graph.weight_value(b));
    });
    size_t shown = 0;
    for (uint32_t w : ids) {
      if (shown++ >= max_features) break;
      uint64_t obs = grounder->weight_observations()[w];
      out += StrFormat("  w=%+8.3f  n=%-6llu %s%s\n", graph.weight_value(w),
                       static_cast<unsigned long long>(obs),
                       grounder->WeightKey(w).c_str(),
                       obs < 3 ? "   <-- few observations!" : "");
    }
  }
  return out;
}

}  // namespace dd
