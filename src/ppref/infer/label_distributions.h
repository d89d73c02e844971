/// \file label_distributions.h
/// \brief Exact joint distributions of a label's extreme positions.
///
/// For a label l, α(l)/β(l) are the positions of the highest- and lowest-
/// ranked items carrying l (§5.5). One TopProbMinMax-style DP run yields
/// the full joint distribution Pr(α = i, β = j), from which callers answer
/// every min/max query about l without re-running inference.

#ifndef PPREF_INFER_LABEL_DISTRIBUTIONS_H_
#define PPREF_INFER_LABEL_DISTRIBUTIONS_H_

#include <vector>

#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/pattern.h"

namespace ppref::infer {

/// Joint and marginal distributions of one label's extreme positions.
struct LabelPositionDistributions {
  /// joint[i][j] = Pr(α = i and β = j); zero whenever j < i.
  std::vector<std::vector<double>> joint;
  /// min_marginal[i] = Pr(α = i); max_marginal[j] = Pr(β = j).
  std::vector<double> min_marginal;
  std::vector<double> max_marginal;
  /// Pr(no item carries the label) — 1 exactly when the label is absent.
  double absent_prob = 0.0;
};

/// Computes the distributions for `label` under the model. O(m) DP steps
/// over O(m²) (α, β) states.
LabelPositionDistributions LabelPositions(const LabeledRimModel& model,
                                          LabelId label);

/// Joint (unnormalized) distributions restricted to pattern-matching
/// rankings: entry (i, j) is Pr(pattern matches ∧ α = i ∧ β = j), so the
/// total mass equals PatternProb(model, pattern). Divide by that mass for
/// the conditional distribution given the pattern.
LabelPositionDistributions PatternLabelPositions(const LabeledRimModel& model,
                                                 const LabelPattern& pattern,
                                                 LabelId label);

}  // namespace ppref::infer

#endif  // PPREF_INFER_LABEL_DISTRIBUTIONS_H_
