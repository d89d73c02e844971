/// \file top_prob_minmax.h
/// \brief The TopProbMinMax dynamic program (Fig. 6) — §5.5 of the paper.
///
/// Computes Pr(g ∧ φ | σ, Π, λ): the probability that a random ranking
/// matches the pattern g *and* the realized min/max positions (α, β) of the
/// tracked labels satisfy the condition φ. With an empty pattern this is a
/// pure min/max query — e.g. "Clinton is among the top 3", "every Democrat
/// is preferred to every Republican" (the §5.5 example events).
///
/// The paper tracks α/β for every label in Λ_λ; tracking is restricted here
/// to the labels φ actually mentions, which keeps the state space at
/// O(m^{k + 2·|tracked|}) (Thm 5.11's bound with |Λ_λ| replaced by the
/// tracked set) — still polynomial in m for a fixed query.

#ifndef PPREF_INFER_TOP_PROB_MINMAX_H_
#define PPREF_INFER_TOP_PROB_MINMAX_H_

#include <vector>

#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/matching.h"
#include "ppref/infer/minmax_condition.h"
#include "ppref/infer/pattern.h"
#include "ppref/infer/top_prob.h"

namespace ppref::infer {

/// p_{γ,φ}: probability that `gamma` is the top matching of `pattern` in a
/// random ranking whose realized (α, β) over `tracked` satisfy `condition`.
double TopMatchingMinMaxProb(const LabeledRimModel& model,
                             const LabelPattern& pattern, const Matching& gamma,
                             const std::vector<LabelId>& tracked,
                             const MinMaxCondition& condition);

/// Pr(g ∧ φ | σ, Π, λ) — Thm 5.11. `tracked` lists the labels whose α/β the
/// condition reads (MinMaxValues entries are parallel to it).
double PatternMinMaxProb(const LabeledRimModel& model,
                         const LabelPattern& pattern,
                         const std::vector<LabelId>& tracked,
                         const MinMaxCondition& condition);

/// Pure min/max query: Pr(φ) with no pattern constraint (empty pattern).
double MinMaxProb(const LabeledRimModel& model,
                  const std::vector<LabelId>& tracked,
                  const MinMaxCondition& condition);

/// PatternMinMaxProb executed against a caller-supplied compiled plan (the
/// serve layer's plan-injection entry point). The plan's model, pattern,
/// and tracked set are the inputs; only the condition varies per call, so
/// one cached plan serves every φ over the same tracked labels.
double PatternMinMaxProbWithPlan(const internal::DpPlan& plan,
                                 const MinMaxCondition& condition,
                                 const PatternProbOptions& options = {});

}  // namespace ppref::infer

#endif  // PPREF_INFER_TOP_PROB_MINMAX_H_
