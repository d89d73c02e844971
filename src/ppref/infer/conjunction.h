/// \file conjunction.h
/// \brief Conjunction of label-pattern events and conditional pattern
/// probabilities.
///
/// Two pattern events over the same item universe can be conjoined by
/// renaming one side's labels apart and taking the disjoint union of the
/// graphs: since matchings of the two patterns are independent existentials,
/// a ranking matches the conjunction instance iff it matches both inputs.
/// This is the building block for evaluating unions of CQs (per-session
/// inclusion–exclusion) and for conditioning.

#ifndef PPREF_INFER_CONJUNCTION_H_
#define PPREF_INFER_CONJUNCTION_H_

#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/labeling.h"
#include "ppref/infer/pattern.h"

namespace ppref::infer {

/// A pattern with its labeling: one matching event over a fixed item
/// universe.
struct PatternInstance {
  LabelPattern pattern;
  ItemLabeling labeling{0};
};

/// The conjunction instance of `a` and `b` (over the same number of items):
/// `b`'s labels are shifted above `a`'s so the graphs stay disjoint, and the
/// labelings are merged. A ranking matches the result iff it matches both
/// `a` and `b`.
PatternInstance Conjoin(const PatternInstance& a, const PatternInstance& b);

/// Pr(both `a` and `b` match a random ranking of `model`). The instances'
/// labelings must cover exactly `model`'s items; `model`'s own labeling is
/// ignored (the instances carry theirs).
double ConjunctionProb(const rim::RimModel& model, const PatternInstance& a,
                       const PatternInstance& b);

/// Pr(`target` matches | `given` matches) = Pr(target ∧ given)/Pr(given).
/// Returns 0 when the conditioning event has probability 0.
double ConditionalPatternProb(const rim::RimModel& model,
                              const PatternInstance& target,
                              const PatternInstance& given);

}  // namespace ppref::infer

#endif  // PPREF_INFER_CONJUNCTION_H_
