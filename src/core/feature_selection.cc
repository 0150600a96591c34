#include "core/feature_selection.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace dd {

Result<std::vector<SelectedFeature>> FeatureSelector::Run(
    Grounder* grounder, const FeatureSelectionOptions& options) {
  FactorGraph* graph = grounder->mutable_graph();

  LearnOptions learn = options.learn;
  learn.l2 = options.selection_l2;
  Learner learner(graph);
  DD_RETURN_IF_ERROR(learner.Learn(learn));

  std::vector<SelectedFeature> out;
  for (uint32_t w = 0; w < graph->num_weights(); ++w) {
    const Weight& weight = graph->weight(w);
    if (weight.is_fixed) continue;  // priors/rules are not features
    SelectedFeature feature;
    feature.weight_id = w;
    feature.key = grounder->WeightKey(w);
    feature.learned_weight = graph->weight_value(w);
    feature.observations = grounder->weight_observations()[w];
    feature.kept = feature.observations >= options.min_observations &&
                   std::fabs(feature.learned_weight) >= options.min_abs_weight;
    out.push_back(std::move(feature));
  }
  std::sort(out.begin(), out.end(), [](const SelectedFeature& a,
                                       const SelectedFeature& b) {
    return std::fabs(a.learned_weight) > std::fabs(b.learned_weight);
  });
  return out;
}

std::vector<std::string> FeatureSelector::KeptKeys(
    const std::vector<SelectedFeature>& all) {
  std::vector<std::string> out;
  for (const SelectedFeature& f : all) {
    if (f.kept) out.push_back(f.key);
  }
  return out;
}

std::string FeatureSelector::Report(const std::vector<SelectedFeature>& all,
                                    size_t max_rows) {
  size_t kept = 0;
  for (const SelectedFeature& f : all) kept += f.kept;
  std::string out = StrFormat("feature selection: kept %zu of %zu proposed\n", kept,
                              all.size());
  size_t shown = 0;
  for (const SelectedFeature& f : all) {
    if (shown++ >= max_rows) break;
    out += StrFormat("  %s w=%+7.3f n=%-5llu %s\n", f.kept ? "KEEP " : "prune",
                     f.learned_weight, static_cast<unsigned long long>(f.observations),
                     f.key.c_str());
  }
  return out;
}

}  // namespace dd
