/// \file monte_carlo_evaluator.h
/// \brief Monte-Carlo query evaluation over RIM-PPDs: sample one ranking per
/// session, materialize the world, evaluate the CQ. Works for any CQ
/// (including the #P-hard side of the dichotomy) at the cost of sampling
/// error — the approximate-answering direction the paper's §6 raises.

#ifndef PPREF_PPD_MONTE_CARLO_EVALUATOR_H_
#define PPREF_PPD_MONTE_CARLO_EVALUATOR_H_

#include "ppref/common/random.h"
#include "ppref/infer/monte_carlo.h"
#include "ppref/ppd/ppd.h"
#include "ppref/query/cq.h"

namespace ppref::ppd {

/// Estimates conf_Q([E]) for a Boolean CQ from `samples` sampled worlds.
infer::McEstimate EstimateBoolean(const RimPpd& ppd,
                                  const query::ConjunctiveQuery& query,
                                  unsigned samples, Rng& rng);

/// Seeded estimate of conf_Q([E]). Worlds are sampled in fixed blocks
/// seeded from (options.seed, block), so the estimate is a pure function of
/// the query, `options.seed` and `options.samples` — see infer::McOptions.
infer::McEstimate EstimateBoolean(const RimPpd& ppd,
                                  const query::ConjunctiveQuery& query,
                                  const infer::McOptions& options);

}  // namespace ppref::ppd

#endif  // PPREF_PPD_MONTE_CARLO_EVALUATOR_H_
