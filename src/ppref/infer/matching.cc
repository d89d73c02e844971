#include "ppref/infer/matching.h"

#include <algorithm>

#include "ppref/common/check.h"

namespace ppref::infer {
namespace {

/// Recursion for AllMatchings: assigns nodes in index order.
void EnumerateMatchings(const LabelPattern& pattern, const ItemLabeling& labeling,
                        const rim::Ranking& ranking, Matching& partial,
                        unsigned next_node, std::vector<Matching>& out) {
  const unsigned k = pattern.NodeCount();
  if (next_node == k) {
    out.push_back(partial);
    return;
  }
  const LabelId label = pattern.NodeLabel(next_node);
  for (rim::ItemId item = 0; item < labeling.item_count(); ++item) {
    if (!labeling.HasLabel(item, label)) continue;
    // Check edges against already-assigned neighbors.
    bool consistent = true;
    for (unsigned parent : pattern.Parents(next_node)) {
      if (parent < next_node &&
          !ranking.Prefers(partial[parent], item)) {
        consistent = false;
        break;
      }
    }
    if (consistent) {
      for (unsigned child : pattern.Children(next_node)) {
        if (child < next_node && !ranking.Prefers(item, partial[child])) {
          consistent = false;
          break;
        }
      }
    }
    if (!consistent) continue;
    partial[next_node] = item;
    EnumerateMatchings(pattern, labeling, ranking, partial, next_node + 1, out);
  }
}

}  // namespace

bool IsMatching(const LabelPattern& pattern, const ItemLabeling& labeling,
                const rim::Ranking& ranking, const Matching& gamma) {
  PPREF_CHECK(gamma.size() == pattern.NodeCount());
  for (unsigned node = 0; node < pattern.NodeCount(); ++node) {
    if (!labeling.HasLabel(gamma[node], pattern.NodeLabel(node))) return false;
    for (unsigned child : pattern.Children(node)) {
      if (!ranking.Prefers(gamma[node], gamma[child])) return false;
    }
  }
  return true;
}

std::optional<Matching> TopMatching(const LabelPattern& pattern,
                                    const ItemLabeling& labeling,
                                    const rim::Ranking& ranking) {
  const unsigned k = pattern.NodeCount();
  if (k == 0) return Matching{};  // The empty matching always exists.
  const std::vector<unsigned> topo = pattern.TopologicalOrder();
  if (topo.empty()) return std::nullopt;  // Cyclic patterns never match.

  // positions_by_label[label occurrence] is resolved on demand: for each
  // node we scan the ranking positions of items carrying the node's label,
  // in increasing position order.
  const unsigned m = ranking.size();
  Matching gamma(k);
  std::vector<rim::Position> node_position(k);
  for (unsigned node : topo) {
    // Earliest legal position: strictly after every parent's image.
    rim::Position lower = 0;  // first admissible position
    for (unsigned parent : pattern.Parents(node)) {
      lower = std::max(lower, node_position[parent] + 1);
    }
    const LabelId label = pattern.NodeLabel(node);
    bool found = false;
    for (rim::Position p = lower; p < m; ++p) {
      if (labeling.HasLabel(ranking.At(p), label)) {
        gamma[node] = ranking.At(p);
        node_position[node] = p;
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;
  }
  return gamma;
}

bool Matches(const LabelPattern& pattern, const ItemLabeling& labeling,
             const rim::Ranking& ranking) {
  return TopMatching(pattern, labeling, ranking).has_value();
}

std::vector<Matching> AllMatchings(const LabelPattern& pattern,
                                   const ItemLabeling& labeling,
                                   const rim::Ranking& ranking) {
  std::vector<Matching> out;
  Matching partial(pattern.NodeCount());
  if (!pattern.IsAcyclic() && pattern.NodeCount() > 0) return out;
  EnumerateMatchings(pattern, labeling, ranking, partial, 0, out);
  return out;
}

std::optional<LabelId> AbsentLabel(const LabelPattern& pattern,
                                   const ItemLabeling& labeling) {
  for (unsigned node = 0; node < pattern.NodeCount(); ++node) {
    const LabelId label = pattern.NodeLabel(node);
    if (labeling.ItemsWith(label).empty()) return label;
  }
  return std::nullopt;
}

}  // namespace ppref::infer
