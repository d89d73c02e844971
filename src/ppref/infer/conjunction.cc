#include "ppref/infer/conjunction.h"

#include <algorithm>

#include "ppref/common/check.h"
#include "ppref/infer/top_prob.h"

namespace ppref::infer {
namespace {

LabelId MaxLabel(const ItemLabeling& labeling) {
  LabelId max_label = 0;
  for (LabelId label : labeling.LabelUniverse()) {
    max_label = std::max(max_label, label);
  }
  return max_label;
}

}  // namespace

PatternInstance Conjoin(const PatternInstance& a, const PatternInstance& b) {
  PPREF_CHECK_MSG(a.labeling.item_count() == b.labeling.item_count(),
                  "conjunction requires a common item universe");
  // Shift b's labels above everything a uses (labels or pattern nodes).
  LabelId shift = MaxLabel(a.labeling) + 1;
  for (unsigned node = 0; node < a.pattern.NodeCount(); ++node) {
    shift = std::max(shift, a.pattern.NodeLabel(node) + 1);
  }

  PatternInstance result;
  result.labeling = ItemLabeling(a.labeling.item_count());
  for (rim::ItemId item = 0; item < a.labeling.item_count(); ++item) {
    for (LabelId label : a.labeling.LabelsOf(item)) {
      result.labeling.AddLabel(item, label);
    }
    for (LabelId label : b.labeling.LabelsOf(item)) {
      result.labeling.AddLabel(item, label + shift);
    }
  }
  for (unsigned node = 0; node < a.pattern.NodeCount(); ++node) {
    result.pattern.AddNode(a.pattern.NodeLabel(node));
  }
  const unsigned offset = a.pattern.NodeCount();
  for (unsigned node = 0; node < b.pattern.NodeCount(); ++node) {
    result.pattern.AddNode(b.pattern.NodeLabel(node) + shift);
  }
  for (unsigned from = 0; from < a.pattern.NodeCount(); ++from) {
    for (unsigned to : a.pattern.Children(from)) {
      result.pattern.AddEdge(from, to);
    }
  }
  for (unsigned from = 0; from < b.pattern.NodeCount(); ++from) {
    for (unsigned to : b.pattern.Children(from)) {
      result.pattern.AddEdge(offset + from, offset + to);
    }
  }
  return result;
}

double ConjunctionProb(const rim::RimModel& model, const PatternInstance& a,
                       const PatternInstance& b) {
  const PatternInstance joint = Conjoin(a, b);
  return PatternProb(LabeledRimModel(model, joint.labeling), joint.pattern);
}

double ConditionalPatternProb(const rim::RimModel& model,
                              const PatternInstance& target,
                              const PatternInstance& given) {
  const double given_prob =
      PatternProb(LabeledRimModel(model, given.labeling), given.pattern);
  if (given_prob <= 0.0) return 0.0;
  return ConjunctionProb(model, target, given) / given_prob;
}

}  // namespace ppref::infer
