#include "ppref/infer/top_prob_minmax.h"

#include "ppref/common/check.h"
#include "ppref/infer/internal/dp_engine.h"
#include "ppref/infer/internal/dp_plan.h"

namespace ppref::infer {

double TopMatchingMinMaxProb(const LabeledRimModel& model,
                             const LabelPattern& pattern, const Matching& gamma,
                             const std::vector<LabelId>& tracked,
                             const MinMaxCondition& condition) {
  PPREF_CHECK(condition != nullptr);
  return internal::RunTopProbDp(model, pattern, gamma, tracked, &condition);
}

double PatternMinMaxProb(const LabeledRimModel& model,
                         const LabelPattern& pattern,
                         const std::vector<LabelId>& tracked,
                         const MinMaxCondition& condition) {
  PPREF_CHECK(condition != nullptr);
  const internal::DpPlan plan(model, pattern, tracked);
  return PatternMinMaxProbWithPlan(plan, condition);
}

double PatternMinMaxProbWithPlan(const internal::DpPlan& plan,
                                 const MinMaxCondition& condition,
                                 const PatternProbOptions& options) {
  PPREF_CHECK(condition != nullptr);
  const LabeledRimModel& model = plan.model();
  const LabelPattern& pattern = plan.pattern();
  internal::DpPlan::Scratch scratch;
  if (pattern.NodeCount() == 0) {
    return plan.TopProb(/*gamma=*/{}, &condition, scratch, options.control);
  }
  double total = 0.0;
  internal::ForEachCandidate(
      model, pattern,
      [&](const Matching& gamma) {
        total += plan.TopProb(gamma, &condition, scratch, options.control);
      },
      options.prune_candidates);
  return total;
}

double MinMaxProb(const LabeledRimModel& model,
                  const std::vector<LabelId>& tracked,
                  const MinMaxCondition& condition) {
  return PatternMinMaxProb(model, LabelPattern{}, tracked, condition);
}

}  // namespace ppref::infer
