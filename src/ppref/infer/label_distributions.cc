#include "ppref/infer/label_distributions.h"

#include "ppref/common/check.h"
#include "ppref/infer/internal/dp_engine.h"
#include "ppref/infer/internal/dp_plan.h"

namespace ppref::infer {

namespace {

/// Folds one (α, β, probability) contribution into `result`.
void Accumulate(const MinMaxValues& values, double prob,
                LabelPositionDistributions& result) {
  const auto& alpha = values.min_position[0];
  const auto& beta = values.max_position[0];
  if (!alpha.has_value()) {
    result.absent_prob += prob;
    return;
  }
  PPREF_CHECK(beta.has_value());
  result.joint[*alpha][*beta] += prob;
  result.min_marginal[*alpha] += prob;
  result.max_marginal[*beta] += prob;
}

LabelPositionDistributions EmptyDistributions(unsigned m) {
  LabelPositionDistributions result;
  result.joint.assign(m, std::vector<double>(m, 0.0));
  result.min_marginal.assign(m, 0.0);
  result.max_marginal.assign(m, 0.0);
  return result;
}

}  // namespace

LabelPositionDistributions LabelPositions(const LabeledRimModel& model,
                                          LabelId label) {
  LabelPositionDistributions result = EmptyDistributions(model.size());
  internal::RunTopProbDpDistribution(
      model, LabelPattern{}, /*gamma=*/{}, {label},
      [&](const MinMaxValues& values, double prob) {
        Accumulate(values, prob, result);
      });
  return result;
}

LabelPositionDistributions PatternLabelPositions(const LabeledRimModel& model,
                                                 const LabelPattern& pattern,
                                                 LabelId label) {
  LabelPositionDistributions result = EmptyDistributions(model.size());
  const internal::DpPlan plan(model, pattern, {label});
  const auto accumulate = [&result](const MinMaxValues& values, double prob) {
    Accumulate(values, prob, result);
  };
  internal::DpPlan::Scratch scratch;
  if (pattern.NodeCount() == 0) {
    plan.Distribution(/*gamma=*/{}, accumulate, scratch);
    return result;
  }
  // Candidate top matchings partition the pattern-matching rankings
  // (Lemma 5.3), so their distributions add up.
  internal::ForEachCandidate(model, pattern, [&](const Matching& gamma) {
    plan.Distribution(gamma, accumulate, scratch);
  });
  return result;
}

}  // namespace ppref::infer
