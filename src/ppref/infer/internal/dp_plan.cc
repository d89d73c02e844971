#include "ppref/infer/internal/dp_plan.h"

#include <algorithm>
#include <optional>

#include "ppref/circuit/circuit.h"
#include "ppref/common/check.h"
#include "ppref/common/fault_injection.h"
#include "ppref/obs/metrics.h"

namespace ppref::infer::internal {

using rim::ItemId;

namespace {

/// Process-wide DP workload counters. The scan loop accumulates into plain
/// locals; one flush per γ-run publishes them — three relaxed atomic adds
/// per run, nothing per state. Exception-safe (a deadline unwinding through
/// RunCore still publishes the work it did, which is exactly what a "where
/// did the cycles go" dashboard wants to see).
struct DpCounters {
  obs::Counter& runs;
  obs::Counter& steps;
  obs::Counter& states;
  obs::Counter& plans;
};

DpCounters& GlobalDpCounters() {
  static DpCounters* counters = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    return new DpCounters{
        registry.GetCounter("ppref_infer_dp_runs_total",
                            "Per-candidate-matching DP executions"),
        registry.GetCounter("ppref_infer_dp_steps_total",
                            "Reference-scan steps executed across all DP runs"),
        registry.GetCounter(
            "ppref_infer_dp_states_total",
            "Packed DP states expanded across all DP scan steps"),
        registry.GetCounter("ppref_infer_plans_compiled_total",
                            "DpPlan compilations (gamma-independent prefix)"),
    };
  }();
  return *counters;
}

struct ScopedDpAccounting {
  std::uint64_t steps = 0;
  std::uint64_t states = 0;

  ~ScopedDpAccounting() {
    DpCounters& counters = GlobalDpCounters();
    counters.runs.Inc();
    if (steps != 0) counters.steps.Inc(steps);
    if (states != 0) counters.states.Inc(states);
  }
};

/// Value-semiring policy for the numeric scan: plain double arithmetic, each
/// method one source expression. Inlining collapses RunCoreImpl<NumericOps>
/// into exactly the pre-template scan.
struct NumericOps {
  const rim::InsertionFunction& pi;
  std::vector<double>& row_prefix;

  double AddOne(double acc) const { return acc + 1.0; }
  double MulLeaf(double value, unsigned t, unsigned slot) const {
    return value * pi.Prob(t, slot);
  }
  void BeginRow(unsigned t) {
    row_prefix.resize(t + 2);
    row_prefix[0] = 0.0;
    for (unsigned x = 0; x <= t; ++x) {
      row_prefix[x + 1] = row_prefix[x] + pi.Prob(t, x);
    }
  }
  double RangeWeight(unsigned /*t*/, unsigned hi_index,
                     unsigned lo_index) const {
    return row_prefix[hi_index] - row_prefix[lo_index];
  }
  double MulAdd(double acc, double prob, double weight) const {
    return acc + prob * weight;
  }
  double MulAddLeaf(double acc, double prob, unsigned t, unsigned slot) const {
    return acc + prob * pi.Prob(t, slot);
  }
};

/// Recording policy: values are circuit node ids stored in the doubles of
/// the scratch state tables (node counts sit far below 2^53, so the
/// round-trip is exact). Every arithmetic method of NumericOps becomes one
/// emitted node of the same expression shape; BeginRow is a no-op because
/// the evaluator re-derives Π prefix rows itself (circuit/circuit.h).
struct RecordOps {
  circuit::CircuitBuilder& builder;

  static circuit::NodeId IdOf(double value) {
    return static_cast<circuit::NodeId>(value);
  }
  static double ValueOf(circuit::NodeId id) { return static_cast<double>(id); }

  double AddOne(double acc) {
    return ValueOf(builder.Add(IdOf(acc), builder.One()));
  }
  double MulLeaf(double value, unsigned t, unsigned slot) {
    return ValueOf(builder.Mul(IdOf(value), builder.Leaf(t, slot)));
  }
  void BeginRow(unsigned /*t*/) {}
  double RangeWeight(unsigned t, unsigned hi_index, unsigned lo_index) {
    return ValueOf(builder.PrefixDiff(t, hi_index, lo_index));
  }
  double MulAdd(double acc, double prob, double weight) {
    return ValueOf(builder.MulAdd(IdOf(acc), IdOf(prob), IdOf(weight)));
  }
  double MulAddLeaf(double acc, double prob, unsigned t, unsigned slot) {
    return ValueOf(
        builder.MulAdd(IdOf(acc), IdOf(prob), builder.Leaf(t, slot)));
  }
};

}  // namespace

DpPlan::DpPlan(const LabeledRimModel& model, const LabelPattern& pattern,
               std::vector<LabelId> tracked)
    : model_(&model),
      pattern_(&pattern),
      tracked_(std::move(tracked)),
      m_(model.size()),
      k_(pattern.NodeCount()),
      tracked_count_(static_cast<unsigned>(tracked_.size())),
      state_size_(k_ + 2 * tracked_count_),
      acyclic_(pattern.IsAcyclic()) {
  GlobalDpCounters().plans.Inc();
  PPREF_CHECK_MSG(m_ < kUnsetPosition, "model too large for 16-bit positions");
  if (!acyclic_) return;  // every run returns 0; nothing else is needed
  reach_ = pattern.Reachability();
  item_pattern_nodes_.resize(m_);
  item_tracked_.resize(m_);
  node_item_ok_.assign(k_, std::vector<bool>(m_, false));
  for (ItemId item = 0; item < m_; ++item) {
    for (LabelId label : model.labeling().LabelsOf(item)) {
      if (auto node = pattern.NodeOf(label); node.has_value()) {
        item_pattern_nodes_[item].push_back(*node);
        node_item_ok_[*node][item] = true;
      }
      for (unsigned ti = 0; ti < tracked_.size(); ++ti) {
        if (tracked_[ti] == label) item_tracked_[item].push_back(ti);
      }
    }
  }
}

int DpPlan::MaxParentPosition(const std::uint16_t* state, unsigned node) const {
  int max_pos = -1;
  for (unsigned parent : pattern_->Parents(node)) {
    max_pos = std::max(max_pos, static_cast<int>(state[parent]));
  }
  return max_pos;
}

bool DpPlan::InsertionIsLegal(const std::uint16_t* state,
                              const std::vector<unsigned>& nodes,
                              unsigned j) const {
  // Forbidden iff the item would land before some γ(l) it shares a label
  // with, without landing before l's latest parent (Lemma 5.4 condition 2).
  for (unsigned node : nodes) {
    if (j <= state[node]) {
      const int max_parent = MaxParentPosition(state, node);
      if (max_parent < 0 || static_cast<int>(j) > max_parent) return false;
    }
  }
  return true;
}

void DpPlan::FoldTracked(ItemId item, unsigned pos,
                         std::uint16_t* state) const {
  for (unsigned ti : item_tracked_[item]) {
    std::uint16_t& alpha = state[k_ + ti];
    std::uint16_t& beta = state[k_ + tracked_count_ + ti];
    const auto p = static_cast<std::uint16_t>(pos);
    if (alpha == kUnsetPosition || p < alpha) alpha = p;
    if (beta == kUnsetPosition || p > beta) beta = p;
  }
}

void DpPlan::ShiftState(unsigned j, std::uint16_t* state) const {
  for (unsigned i = 0; i < k_; ++i) {
    if (state[i] >= j) ++state[i];
  }
  for (unsigned i = k_; i < state_size_; ++i) {
    if (state[i] != kUnsetPosition && state[i] >= j) ++state[i];
  }
}

void DpPlan::DecodeTracked(const std::uint16_t* state, Scratch& scratch) const {
  scratch.values_.min_position.resize(tracked_count_);
  scratch.values_.max_position.resize(tracked_count_);
  for (unsigned ti = 0; ti < tracked_count_; ++ti) {
    const std::uint16_t alpha = state[k_ + ti];
    const std::uint16_t beta = state[k_ + tracked_count_ + ti];
    scratch.values_.min_position[ti] =
        alpha == kUnsetPosition ? std::nullopt
                                : std::make_optional<unsigned>(alpha);
    scratch.values_.max_position[ti] =
        beta == kUnsetPosition ? std::nullopt
                               : std::make_optional<unsigned>(beta);
  }
}

template <class Ops>
bool DpPlan::RunCoreImpl(const Matching& gamma, Scratch& scratch,
                         const RunControl* control, Ops& ops) const {
  PPREF_CHECK(gamma.size() == k_);
  // One poll per run, so a request of many short runs (each under the
  // StopCheck stride) still stops between them.
  if (control != nullptr) control->Check();
  // Accumulates locally, publishes once on scope exit (including unwinds).
  ScopedDpAccounting accounting;
  if (!acyclic_) return false;
  // Amortized stop polling: one clock read per ~1024 state-table entries,
  // so an expired deadline stops the scan within microseconds of holding.
  StopCheck stop(control);

  // γ must be label-consistent, and nodes connected by a directed path must
  // map to distinct items (their positions are strictly ordered).
  for (unsigned node = 0; node < k_; ++node) {
    if (!node_item_ok_[node][gamma[node]]) return false;
  }
  for (unsigned u = 0; u < k_; ++u) {
    for (unsigned v = 0; v < k_; ++v) {
      if (reach_[u][v] && gamma[u] == gamma[v]) return false;
    }
  }

  const rim::Ranking& ref = model_->model().reference();

  // Distinct placeholder items of img(γ), each with one representative node
  // (all nodes mapped to the same item always share a δ value), plus the
  // node -> distinct-item index used by the R_0 permutation loop.
  scratch.ph_items_.clear();
  scratch.ph_rep_.clear();
  scratch.node_ph_index_.assign(k_, 0);
  for (unsigned node = 0; node < k_; ++node) {
    const auto it = std::find(scratch.ph_items_.begin(),
                              scratch.ph_items_.end(), gamma[node]);
    if (it == scratch.ph_items_.end()) {
      scratch.node_ph_index_[node] =
          static_cast<unsigned>(scratch.ph_items_.size());
      scratch.ph_items_.push_back(gamma[node]);
      scratch.ph_rep_.push_back(node);
    } else {
      scratch.node_ph_index_[node] =
          static_cast<unsigned>(it - scratch.ph_items_.begin());
    }
  }
  const unsigned u = static_cast<unsigned>(scratch.ph_items_.size());
  // For each distinct placeholder, the reference step at which it is
  // scanned, and the reverse lookup step -> placeholder index (or -1).
  scratch.ph_scan_step_.resize(u);
  for (unsigned i = 0; i < u; ++i) {
    scratch.ph_scan_step_[i] = ref.PositionOf(scratch.ph_items_[i]);
  }
  scratch.step_placeholder_.assign(m_, -1);
  for (unsigned i = 0; i < u; ++i) {
    scratch.step_placeholder_[scratch.ph_scan_step_[i]] = static_cast<int>(i);
  }

  FlatStateMap& current = scratch.current_;
  FlatStateMap& next = scratch.next_;
  std::vector<std::uint16_t>& state = scratch.state_;
  current.Reset(state_size_);

  // --- R_0: all orderings of the distinct placeholders consistent with the
  // pattern and with the (static) placeholder-vs-placeholder legality of
  // Lemma 5.4 condition 2.
  scratch.perm_.resize(u);
  for (unsigned i = 0; i < u; ++i) scratch.perm_[i] = i;
  scratch.position_of_ph_.resize(u);
  do {
    // position_of_ph[i] = prefix position of distinct placeholder i.
    for (unsigned pos = 0; pos < u; ++pos) {
      scratch.position_of_ph_[scratch.perm_[pos]] = pos;
    }
    state.assign(state_size_, kUnsetPosition);
    for (unsigned node = 0; node < k_; ++node) {
      state[node] = static_cast<std::uint16_t>(
          scratch.position_of_ph_[scratch.node_ph_index_[node]]);
    }
    // Edge consistency: δ(from) < δ(to).
    bool legal = true;
    for (unsigned from = 0; from < k_ && legal; ++from) {
      for (unsigned to : pattern_->Children(from)) {
        if (state[from] >= state[to]) {
          legal = false;
          break;
        }
      }
    }
    // Static legality: a placeholder carrying node-l's label must not sit
    // before γ(l) unless it sits before l's latest parent. Relative
    // placeholder order never changes, so checking once here suffices.
    for (unsigned node = 0; node < k_ && legal; ++node) {
      const LabelId label = pattern_->NodeLabel(node);
      for (unsigned i = 0; i < u; ++i) {
        if (scratch.ph_items_[i] == gamma[node]) continue;
        if (!model_->labeling().HasLabel(scratch.ph_items_[i], label)) continue;
        const unsigned pos = scratch.position_of_ph_[i];
        if (pos < state[node]) {
          // The placeholder would be a better match for `node` iff it sits
          // strictly after every parent image; at pos == max parent it IS
          // the latest parent's image, which cannot improve the matching.
          const int max_parent = MaxParentPosition(state.data(), node);
          if (max_parent < 0 || static_cast<int>(pos) > max_parent) {
            legal = false;
            break;
          }
        }
      }
    }
    if (legal) {
      double& seed = current.Upsert(state.data());
      seed = ops.AddOne(seed);
    }
    stop.Tick();
  } while (std::next_permutation(scratch.perm_.begin(), scratch.perm_.end()));
  if (current.empty()) return false;

  // --- Main scan over reference items (Fig. 5 / Fig. 6 main loop).
  for (unsigned t = 0; t < m_; ++t) {
    PPREF_FAULT_DP_STEP();
    ++accounting.steps;
    accounting.states += current.size();
    const ItemId item = ref.At(t);
    // Pending = distinct placeholders not yet scanned (reference step > t).
    scratch.pending_reps_.clear();
    for (unsigned i = 0; i < u; ++i) {
      if (scratch.ph_scan_step_[i] > t) {
        scratch.pending_reps_.push_back(scratch.ph_rep_[i]);
      }
    }
    const auto pending_count =
        static_cast<unsigned>(scratch.pending_reps_.size());
    const int ph_index = scratch.step_placeholder_[t];
    const bool folds_tracked = !item_tracked_[item].empty();

    if (ph_index >= 0 && !folds_tracked) {
      // Case A, in place: the scanned item is a placeholder already in the
      // prefix, its slot is forced and the mapping is unchanged (Fig. 5
      // line 5). With no α/β fold the packed key is untouched, so values
      // rescale inside `current` — no rehash, no table swap.
      for (std::size_t e = 0; e < current.size(); ++e) {
        stop.Tick();
        const std::uint16_t* in_state = current.KeyAt(e);
        const unsigned j = in_state[scratch.ph_rep_[ph_index]];
        unsigned pending_before = 0;
        for (unsigned rep : scratch.pending_reps_) {
          if (in_state[rep] < j) ++pending_before;
        }
        PPREF_CHECK(j >= pending_before);
        const unsigned slot = j - pending_before;
        PPREF_CHECK(slot <= t);
        double& value = current.MutableValueAt(e);
        value = ops.MulLeaf(value, t, slot);
      }
      continue;
    }

    next.Reset(state_size_);
    if (ph_index < 0 && !folds_tracked) {
      // Case B, collapsed: between consecutive breakpoints `state[i] + 1`
      // the shift pattern, the pending count, and the Lemma 5.4 legality of
      // slot j are all constant, so a whole slot range folds into a single
      // upsert weighted by a prefix-sum difference of the Π row. This takes
      // the per-state work from O(prefix) to O(state size).
      ops.BeginRow(t);
      const unsigned prefix_size = t + pending_count;
      for (std::size_t e = 0; e < current.size(); ++e) {
        stop.Tick();
        const std::uint16_t* in_state = current.KeyAt(e);
        const double prob = current.ValueAt(e);
        scratch.bounds_.clear();
        scratch.bounds_.push_back(0);
        for (unsigned i = 0; i < state_size_; ++i) {
          if (in_state[i] != kUnsetPosition) {
            scratch.bounds_.push_back(in_state[i] + 1u);
          }
        }
        scratch.bounds_.push_back(prefix_size + 1);
        std::sort(scratch.bounds_.begin(), scratch.bounds_.end());
        scratch.bounds_.erase(
            std::unique(scratch.bounds_.begin(), scratch.bounds_.end()),
            scratch.bounds_.end());
        for (std::size_t s = 0; s + 1 < scratch.bounds_.size(); ++s) {
          const unsigned lo = scratch.bounds_[s];
          const unsigned hi = scratch.bounds_[s + 1] - 1;  // inclusive
          if (!InsertionIsLegal(in_state, item_pattern_nodes_[item], lo)) {
            continue;
          }
          unsigned pending_before = 0;
          for (unsigned rep : scratch.pending_reps_) {
            if (in_state[rep] < lo) ++pending_before;
          }
          PPREF_CHECK(lo >= pending_before);
          PPREF_CHECK(hi - pending_before <= t);
          const double weight = ops.RangeWeight(t, hi + 1 - pending_before,
                                                lo - pending_before);
          state.assign(in_state, in_state + state_size_);
          ShiftState(lo, state.data());
          double& acc = next.Upsert(state.data());
          acc = ops.MulAdd(acc, prob, weight);
        }
      }
    } else {
      // General per-slot scan: the scanned item carries a tracked label
      // (each slot folds a distinct α/β), or is a tracked placeholder.
      for (std::size_t e = 0; e < current.size(); ++e) {
        stop.Tick();
        const std::uint16_t* in_state = current.KeyAt(e);
        const double prob = current.ValueAt(e);
        if (ph_index >= 0) {
          // Case A: the placeholder's slot is forced (Fig. 5 line 5).
          const unsigned j = in_state[scratch.ph_rep_[ph_index]];
          unsigned pending_before = 0;
          for (unsigned rep : scratch.pending_reps_) {
            if (in_state[rep] < j) ++pending_before;
          }
          PPREF_CHECK(j >= pending_before);
          const unsigned slot = j - pending_before;
          PPREF_CHECK(slot <= t);
          state.assign(in_state, in_state + state_size_);
          FoldTracked(item, j, state.data());
          double& acc = next.Upsert(state.data());
          acc = ops.MulAddLeaf(acc, prob, t, slot);
        } else {
          // Case B: a fresh item is inserted into every legal slot.
          const unsigned prefix_size = t + pending_count;
          for (unsigned j = 0; j <= prefix_size; ++j) {
            if (!InsertionIsLegal(in_state, item_pattern_nodes_[item], j)) {
              continue;
            }
            unsigned pending_before = 0;
            for (unsigned rep : scratch.pending_reps_) {
              if (in_state[rep] < j) ++pending_before;
            }
            PPREF_CHECK(j >= pending_before);
            const unsigned slot = j - pending_before;
            PPREF_CHECK(slot <= t);
            state.assign(in_state, in_state + state_size_);
            ShiftState(j, state.data());
            FoldTracked(item, j, state.data());
            double& acc = next.Upsert(state.data());
            acc = ops.MulAddLeaf(acc, prob, t, slot);
          }
        }
      }
    }
    current.Swap(next);
    if (current.empty()) return false;
  }
  return true;
}

bool DpPlan::RunCore(const Matching& gamma, Scratch& scratch,
                     const RunControl* control) const {
  NumericOps ops{model_->model().insertion(), scratch.row_prefix_};
  return RunCoreImpl(gamma, scratch, control, ops);
}

std::uint32_t DpPlan::RecordTopProb(const Matching& gamma,
                                    const MinMaxCondition* condition,
                                    Scratch& scratch,
                                    circuit::CircuitBuilder& builder) const {
  RecordOps ops{builder};
  if (!RunCoreImpl(gamma, scratch, /*control=*/nullptr, ops)) {
    return builder.Zero();
  }
  // Mirrors TopProb's final sum: total starts at 0.0 (node Zero()) and folds
  // the surviving final states in table order.
  const FlatStateMap& final_states = scratch.current_;
  circuit::NodeId total = builder.Zero();
  for (std::size_t e = 0; e < final_states.size(); ++e) {
    if (condition != nullptr) {
      DecodeTracked(final_states.KeyAt(e), scratch);
      if (!(*condition)(scratch.values_)) continue;
    }
    total = builder.Add(total, RecordOps::IdOf(final_states.ValueAt(e)));
  }
  return total;
}

double DpPlan::TopProb(const Matching& gamma, const MinMaxCondition* condition,
                       Scratch& scratch, const RunControl* control) const {
  if (!RunCore(gamma, scratch, control)) return 0.0;
  const FlatStateMap& final_states = scratch.current_;
  double total = 0.0;
  for (std::size_t e = 0; e < final_states.size(); ++e) {
    if (condition != nullptr) {
      DecodeTracked(final_states.KeyAt(e), scratch);
      if (!(*condition)(scratch.values_)) continue;
    }
    total += final_states.ValueAt(e);
  }
  return total;
}

void DpPlan::Distribution(
    const Matching& gamma,
    const std::function<void(const MinMaxValues&, double)>& visit,
    Scratch& scratch, const RunControl* control) const {
  if (!RunCore(gamma, scratch, control)) return;
  const FlatStateMap& final_states = scratch.current_;
  // Aggregate by the (α, β) suffix (several δ can share one combination);
  // `next_` is free again after RunCore and serves as the aggregation table.
  FlatStateMap& aggregated = scratch.next_;
  aggregated.Reset(2 * tracked_count_);
  for (std::size_t e = 0; e < final_states.size(); ++e) {
    aggregated.Upsert(final_states.KeyAt(e) + k_) += final_states.ValueAt(e);
  }
  for (std::size_t e = 0; e < aggregated.size(); ++e) {
    const std::uint16_t* suffix = aggregated.KeyAt(e);
    scratch.values_.min_position.resize(tracked_count_);
    scratch.values_.max_position.resize(tracked_count_);
    for (unsigned ti = 0; ti < tracked_count_; ++ti) {
      const std::uint16_t alpha = suffix[ti];
      const std::uint16_t beta = suffix[tracked_count_ + ti];
      scratch.values_.min_position[ti] =
          alpha == kUnsetPosition ? std::nullopt
                                  : std::make_optional<unsigned>(alpha);
      scratch.values_.max_position[ti] =
          beta == kUnsetPosition ? std::nullopt
                                 : std::make_optional<unsigned>(beta);
    }
    visit(scratch.values_, aggregated.ValueAt(e));
  }
}

}  // namespace ppref::infer::internal
