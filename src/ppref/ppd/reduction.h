/// \file reduction.h
/// \brief The §4.4 reduction: itemwise Boolean CQs over a RIM-PPD become
/// labeled-RIM pattern-matching instances, one per matching session.
///
/// For a session s, the reduction substitutes s into the query (Lemma 4.8),
/// splits the o-atoms into connected components, checks satisfiability of
/// item-variable-free components against the o-instances, computes potential
/// matches for each item term, and emits the labeling λ and label pattern g
/// such that Pr(s ⊨ Q^s) = Pr(g | σ^s, Π^s, λ).

#ifndef PPREF_PPD_REDUCTION_H_
#define PPREF_PPD_REDUCTION_H_

#include <string>
#include <vector>

#include "ppref/infer/labeling.h"
#include "ppref/infer/pattern.h"
#include "ppref/ppd/ppd.h"
#include "ppref/query/cq.h"

namespace ppref::ppd {

/// The labeled-RIM instance produced for one session of r_Q.
struct SessionReduction {
  /// The session tuple s.
  db::Tuple session;
  /// The session's model (borrowed from the PPD; valid while it lives).
  const SessionModel* model = nullptr;
  /// False when some item-variable-free o-component is unsatisfiable, in
  /// which case Pr(s ⊨ Q^s) = 0 and `pattern`/`labeling` are meaningless.
  bool satisfiable = true;
  /// True when a p-atom relates an item term to itself (σ ≻ σ is
  /// unsatisfiable), forcing Pr(s ⊨ Q^s) = 0.
  bool reflexive_preference = false;
  /// The label pattern g; node labels index `node_terms`.
  infer::LabelPattern pattern;
  /// λ over the session's dense item ids.
  infer::ItemLabeling labeling{0};
  /// Human-readable rendering of each node's item term (variable name or
  /// constant), parallel to pattern node indices.
  std::vector<std::string> node_terms;
};

/// Runs the reduction for every session of r_Q (sessions whose tuple unifies
/// with the common session terms of the query's p-atoms). Throws SchemaError
/// when the query is not Boolean, has no p-atoms, or is not itemwise.
std::vector<SessionReduction> ReduceItemwise(const RimPpd& ppd,
                                             const query::ConjunctiveQuery& query);

/// False when Pr(s ⊨ Q^s) is 0 by construction: the session is
/// unsatisfiable or reflexive, or a pattern label marks no item
/// (infer::AbsentLabel). The server-routed evaluators submit only sessions
/// that can match: the serving boundary refuses such a label.
bool CanMatch(const SessionReduction& reduction);

/// Pr(s ⊨ Q^s) for one reduced session: 0 when unsatisfiable or reflexive,
/// otherwise Pr(g | σ^s, Π^s, λ) via TopProb. One DP plan is compiled per
/// session and reused across all of its candidate matchings.
double SessionProb(const SessionReduction& reduction);

}  // namespace ppref::ppd

#endif  // PPREF_PPD_REDUCTION_H_
