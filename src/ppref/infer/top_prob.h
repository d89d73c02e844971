/// \file top_prob.h
/// \brief The TopProb dynamic program (Fig. 5) and the Pr(g | σ, Π, λ)
/// driver — §5 of the paper.
///
/// `TopMatchingProb` computes p_γ: the probability that a given
/// γ : nodes(g) -> items is *the* top matching of g in a random ranking of
/// the model (Eq. (3)). `PatternProb` computes Pr(g | σ, Π, λ) (Eq. (1)) by
/// summing p_γ over all candidate γ (Eq. (2)); distinct γ induce disjoint
/// ranking sets by the uniqueness of the top matching (Lemma 5.3), so the
/// sum is exact.
///
/// Indexing: the paper is 1-based; this code is 0-based throughout. The DP
/// state δ maps each pattern node to the current prefix position of its
/// image item; insertion of reference item t chooses a slot j in
/// [0, prefix size], and the paper's adjusted insertion probability
/// Υ(i, j, δ) = Π(i, j − #{unscanned placeholders before j}) becomes
/// `Prob(t, j - pending_before_j)`.
///
/// Complexity (Thm 5.9): O(m^{k+2}) per γ with k = |nodes(g)|, and there
/// are O(m^k) candidate γ, i.e. Pr(g) costs O(m^{2k+2}) in the worst case —
/// polynomial in m for a fixed pattern (Thm 5.10).

#ifndef PPREF_INFER_TOP_PROB_H_
#define PPREF_INFER_TOP_PROB_H_

#include <optional>
#include <utility>
#include <vector>

#include "ppref/common/deadline.h"
#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/matching.h"
#include "ppref/infer/pattern.h"

namespace ppref::infer {

namespace internal {
class DpPlan;
}  // namespace internal

/// p_γ (Eq. (3)): probability that `gamma` is the top matching of `pattern`
/// in a random ranking of `model`. Returns 0 when `gamma` violates labels,
/// maps edge-related nodes to the same item, or the pattern is cyclic.
double TopMatchingProb(const LabeledRimModel& model, const LabelPattern& pattern,
                       const Matching& gamma);

/// Enumerates all candidate top matchings: label-consistent γ with
/// γ(u) != γ(v) whenever v is reachable from u. Every actual top matching of
/// every ranking is in this set.
std::vector<Matching> CandidateTopMatchings(const LabeledRimModel& model,
                                            const LabelPattern& pattern);

/// Tuning knobs for PatternProb; the defaults match the paper's algorithm.
struct PatternProbOptions {
  /// Skip candidate γ mapping two path-connected nodes to one item (their
  /// p_γ is provably 0). Disabled only by the ablation benchmark.
  bool prune_candidates = true;
  /// Optional stop conditions (deadline / cancellation), borrowed. When
  /// non-null, the DP polls it at the start of every candidate's run and
  /// periodically inside it, and aborts by throwing
  /// DeadlineExceededError / CancelledError — partial results are
  /// discarded, never returned. nullptr (the default) runs to completion
  /// with zero polling cost.
  const RunControl* control = nullptr;
};

/// Pr(g | σ, Π, λ) (Eq. (1)): probability that a random ranking matches the
/// pattern. Returns 1 for the empty pattern and 0 for cyclic patterns or
/// patterns mentioning absent labels.
double PatternProb(const LabeledRimModel& model, const LabelPattern& pattern);

/// PatternProb with explicit options.
double PatternProb(const LabeledRimModel& model, const LabelPattern& pattern,
                   const PatternProbOptions& options);

/// The maximum-probability explanation of the pattern: the candidate γ with
/// the largest p_γ, together with that probability — "which concrete items
/// most likely realize the pattern". Returns nullopt when no candidate has
/// positive probability (absent labels, cyclic pattern); the empty pattern
/// yields the empty matching with probability 1. Ties resolve to the first
/// candidate in enumeration order.
std::optional<std::pair<Matching, double>> MostProbableTopMatching(
    const LabeledRimModel& model, const LabelPattern& pattern);

/// PatternProb executed against a caller-supplied compiled plan — the
/// plan-injection entry point the serve layer's plan cache uses to amortize
/// compilation *across* calls (PR-2's compile-once / run-many split, lifted
/// from one call to a session of calls). The plan's model and pattern are
/// the inputs; a plan with an empty tracked set is fastest, but any tracked
/// set gives the same probability (the extra α/β state is summed out).
double PatternProbWithPlan(const internal::DpPlan& plan,
                           const PatternProbOptions& options = {});

/// MostProbableTopMatching executed against a caller-supplied compiled plan.
/// Same tie-breaking as the plain overload.
std::optional<std::pair<Matching, double>> MostProbableTopMatchingWithPlan(
    const internal::DpPlan& plan, const PatternProbOptions& options = {});

}  // namespace ppref::infer

#endif  // PPREF_INFER_TOP_PROB_H_
