/// \file marginals.h
/// \brief Common marginal queries over RIM models, built on dedicated
/// polynomial-time dynamic programs.
///
/// These are the "existing inference" primitives the paper contrasts with
/// (queries over individual items rather than labels): pairwise preference
/// marginals Pr(a ≻ b) and single-item position distributions. They double
/// as fast paths for singleton-label patterns, and tests cross-check them
/// against the general TopProb machinery.

#ifndef PPREF_INFER_MARGINALS_H_
#define PPREF_INFER_MARGINALS_H_

#include <vector>

#include "ppref/rim/rim_model.h"

namespace ppref::infer {

/// Pr(item a is preferred to item b) under the model. O(m²) dynamic
/// program: tracks the position of the earlier-inserted item until the later
/// one arrives; insertions after both cannot change their relative order.
double PairwiseMarginal(const rim::RimModel& model, rim::ItemId a,
                        rim::ItemId b);

/// The full matrix M[a][b] = Pr(a ≻ b); diagonal is 0.
std::vector<std::vector<double>> PairwiseMarginalMatrix(
    const rim::RimModel& model);

/// Distribution of the final position of `item`: result[p] = Pr(position p).
/// O(m²) dynamic program over the item's position as later items insert.
std::vector<double> PositionDistribution(const rim::RimModel& model,
                                         rim::ItemId item);

/// Pr(`item` lands in the top k positions) — cumulative of
/// PositionDistribution.
double TopKProb(const rim::RimModel& model, rim::ItemId item, unsigned k);

}  // namespace ppref::infer

#endif  // PPREF_INFER_MARGINALS_H_
