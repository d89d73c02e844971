/// \file matching.h
/// \brief Matchings of label patterns in concrete rankings — §4.3 and §5.1.
///
/// A matching γ maps pattern nodes to items so that labels and edges are
/// preserved. The *top matching* (Lemma 5.3) is the unique pointwise
/// position-minimal matching; it exists whenever any matching exists, and is
/// computed here greedily along a topological order (the construction used
/// in the paper's proof of Lemma 5.3).

#ifndef PPREF_INFER_MATCHING_H_
#define PPREF_INFER_MATCHING_H_

#include <optional>
#include <vector>

#include "ppref/infer/labeling.h"
#include "ppref/infer/pattern.h"
#include "ppref/rim/ranking.h"

namespace ppref::infer {

/// γ: node index -> item; `Matching[node]` is the item matched to `node`.
using Matching = std::vector<rim::ItemId>;

/// True iff `gamma` is a matching of `pattern` in `ranking` w.r.t.
/// `labeling`: labels match and edges map to strict preferences.
bool IsMatching(const LabelPattern& pattern, const ItemLabeling& labeling,
                const rim::Ranking& ranking, const Matching& gamma);

/// True iff (τ, λ) |= g: at least one matching exists. Computed via the
/// greedy top-matching construction (O(k·m) after indexing).
bool Matches(const LabelPattern& pattern, const ItemLabeling& labeling,
             const rim::Ranking& ranking);

/// The unique top matching of `pattern` in `ranking`, or nullopt when no
/// matching exists. Greedy over a topological order: each node takes the
/// earliest-positioned item carrying its label strictly after all its
/// parents' images; an induction shows the result is pointwise minimal among
/// all matchings and independent of the topological order chosen.
std::optional<Matching> TopMatching(const LabelPattern& pattern,
                                    const ItemLabeling& labeling,
                                    const rim::Ranking& ranking);

/// The first node label of `pattern` that no item carries, or nullopt. A
/// pattern with such a label matches no ranking.
std::optional<LabelId> AbsentLabel(const LabelPattern& pattern,
                                   const ItemLabeling& labeling);

/// Exhaustive enumeration of Γ(g, τ): all matchings, in lexicographic node
/// assignment order. Exponential in |nodes(g)|; test/benchmark oracle only.
std::vector<Matching> AllMatchings(const LabelPattern& pattern,
                                   const ItemLabeling& labeling,
                                   const rim::Ranking& ranking);

}  // namespace ppref::infer

#endif  // PPREF_INFER_MATCHING_H_
