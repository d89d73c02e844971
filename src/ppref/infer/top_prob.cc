#include "ppref/infer/top_prob.h"

#include "ppref/infer/internal/dp_engine.h"
#include "ppref/infer/internal/dp_plan.h"

namespace ppref::infer {

double TopMatchingProb(const LabeledRimModel& model, const LabelPattern& pattern,
                       const Matching& gamma) {
  return internal::RunTopProbDp(model, pattern, gamma, /*tracked=*/{},
                                /*condition=*/nullptr);
}

std::vector<Matching> CandidateTopMatchings(const LabeledRimModel& model,
                                            const LabelPattern& pattern) {
  return internal::EnumerateCandidates(model, pattern);
}

double PatternProb(const LabeledRimModel& model, const LabelPattern& pattern) {
  return PatternProb(model, pattern, PatternProbOptions{});
}

double PatternProb(const LabeledRimModel& model, const LabelPattern& pattern,
                   const PatternProbOptions& options) {
  if (pattern.NodeCount() == 0) return 1.0;  // The empty pattern always matches.
  const internal::DpPlan plan(model, pattern, /*tracked=*/{});
  return PatternProbWithPlan(plan, options);
}

double PatternProbWithPlan(const internal::DpPlan& plan,
                           const PatternProbOptions& options) {
  const LabeledRimModel& model = plan.model();
  const LabelPattern& pattern = plan.pattern();
  if (pattern.NodeCount() == 0) return 1.0;
  // Stream candidates, one plan + one scratch for all γ.
  internal::DpPlan::Scratch scratch;
  double total = 0.0;
  internal::ForEachCandidate(
      model, pattern,
      [&](const Matching& gamma) {
        total += plan.TopProb(gamma, /*condition=*/nullptr, scratch,
                              options.control);
      },
      options.prune_candidates);
  return total;
}

std::optional<std::pair<Matching, double>> MostProbableTopMatching(
    const LabeledRimModel& model, const LabelPattern& pattern) {
  if (pattern.NodeCount() == 0) return std::make_pair(Matching{}, 1.0);
  const internal::DpPlan plan(model, pattern, /*tracked=*/{});
  return MostProbableTopMatchingWithPlan(plan);
}

std::optional<std::pair<Matching, double>> MostProbableTopMatchingWithPlan(
    const internal::DpPlan& plan, const PatternProbOptions& options) {
  const LabeledRimModel& model = plan.model();
  const LabelPattern& pattern = plan.pattern();
  if (pattern.NodeCount() == 0) return std::make_pair(Matching{}, 1.0);
  std::optional<std::pair<Matching, double>> best;
  internal::DpPlan::Scratch scratch;
  internal::ForEachCandidate(model, pattern, [&](const Matching& gamma) {
    const double prob = plan.TopProb(gamma, /*condition=*/nullptr, scratch,
                                     options.control);
    if (prob > 0.0 && (!best.has_value() || prob > best->second)) {
      best = std::make_pair(gamma, prob);
    }
  });
  return best;
}

}  // namespace ppref::infer
