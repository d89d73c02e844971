/// \file dp_plan.h
/// \brief Internal: compiled plan for the TopProb / TopProbMinMax dynamic
/// program (Figs. 5 and 6).
///
/// The per-γ DP shares a large γ-independent prefix: pattern acyclicity and
/// reachability, the item → pattern-node and item → tracked-label indexes,
/// and per-node label-consistency bitmaps. `DpPlan` compiles all of that
/// once per (model, pattern, tracked) triple; `TopProb`/`Distribution` then
/// execute against a single candidate matching γ. Drivers that sum over
/// many γ (`PatternProb`, `PatternMinMaxProb`, the distribution variants)
/// build one plan and run it once per candidate — the compile-once /
/// run-many split.
///
/// Execution state lives in `DpPlan::Scratch`: two recycled `FlatStateMap`
/// table buffers (swapped across the m scan steps, reused across γ) plus
/// small per-γ setup arrays. States are packed fixed-stride `uint16`
/// sequences — k δ-slots followed by `tracked` α-slots then β-slots, with
/// 0xFFFF meaning "label not seen yet" — stored contiguously inside the
/// map's arena, so the scan loop performs no per-state heap allocation.
/// A `Scratch` may be used by one thread at a time; a plan is immutable, so
/// concurrent runs against one plan each bring their own Scratch.
///
/// Not part of the public API; include top_prob.h / top_prob_minmax.h
/// instead.

#ifndef PPREF_INFER_INTERNAL_DP_PLAN_H_
#define PPREF_INFER_INTERNAL_DP_PLAN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "ppref/common/deadline.h"
#include "ppref/common/flat_map.h"
#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/matching.h"
#include "ppref/infer/minmax_condition.h"
#include "ppref/infer/pattern.h"

namespace ppref::circuit {
class CircuitBuilder;
}

namespace ppref::infer::internal {

/// Sentinel for "label not seen yet" in α/β slots. Positions are < 2^16.
inline constexpr std::uint16_t kUnsetPosition = 0xFFFF;

class DpPlan {
 public:
  /// Reusable working memory for plan execution. Cheap to default-construct;
  /// buffers grow on first use and are recycled across runs. Not shareable
  /// between concurrent runs.
  class Scratch {
   public:
    Scratch() = default;

   private:
    friend class DpPlan;
    FlatStateMap current_;
    FlatStateMap next_;
    std::vector<std::uint16_t> state_;        // one packed state being built
    std::vector<rim::ItemId> ph_items_;       // distinct placeholder items
    std::vector<unsigned> ph_rep_;            // representative node per item
    std::vector<unsigned> node_ph_index_;     // node -> distinct-item index
    std::vector<unsigned> ph_scan_step_;      // reference step per item
    std::vector<int> step_placeholder_;       // step -> distinct index or -1
    std::vector<unsigned> pending_reps_;      // reps of unscanned items
    std::vector<unsigned> perm_;              // R_0 permutation
    std::vector<unsigned> position_of_ph_;    // R_0 placeholder positions
    std::vector<unsigned> bounds_;            // slot-range breakpoints
    std::vector<double> row_prefix_;          // prefix sums of one Π row
    MinMaxValues values_;                     // decoded (α, β) per state
  };

  /// Compiles the γ-independent parts. The model and pattern are borrowed
  /// and must outlive the plan; `tracked` is copied.
  DpPlan(const LabeledRimModel& model, const LabelPattern& pattern,
         std::vector<LabelId> tracked);

  /// p_γ (or p_{γ,φ} with a condition): probability that `gamma` is the top
  /// matching, restricted to rankings whose realized (α, β) over the
  /// tracked labels satisfy `condition` when one is given. Returns 0 for
  /// infeasible γ. A non-null `control` is polled on entry and inside the
  /// scan (amortized via StopCheck) and may abort the run by throwing
  /// DeadlineExceededError / CancelledError; the scratch stays reusable
  /// after such an unwind.
  double TopProb(const Matching& gamma, const MinMaxCondition* condition,
                 Scratch& scratch, const RunControl* control = nullptr) const;

  /// Invokes `visit(values, probability)` for every final aggregated (α, β)
  /// combination with positive mass, restricted to rankings whose top
  /// matching is `gamma`.
  void Distribution(
      const Matching& gamma,
      const std::function<void(const MinMaxValues&, double)>& visit,
      Scratch& scratch, const RunControl* control = nullptr) const;

  /// Records the multiply-add structure of `TopProb(gamma, condition)` into
  /// `builder` and returns the root node id of the recorded sub-circuit
  /// (`builder.Zero()` for infeasible γ). The recording replays the scan
  /// through the exact code path the numeric run takes — control flow never
  /// depends on Π values — so evaluating the emitted circuit reproduces the
  /// DP's answer bit for bit under any insertion function of the same size
  /// (see circuit/circuit.h). Drivers compiling whole queries live in
  /// circuit/compile.h.
  std::uint32_t RecordTopProb(const Matching& gamma,
                              const MinMaxCondition* condition,
                              Scratch& scratch,
                              circuit::CircuitBuilder& builder) const;

  const LabeledRimModel& model() const { return *model_; }
  const LabelPattern& pattern() const { return *pattern_; }
  const std::vector<LabelId>& tracked() const { return tracked_; }

 private:
  /// The shared Fig. 5 / Fig. 6 scan. Leaves the aggregated final states in
  /// `scratch.current_`; returns false when γ is infeasible. Throws via
  /// `control` (when non-null) once a stop condition holds.
  bool RunCore(const Matching& gamma, Scratch& scratch,
               const RunControl* control) const;

  /// The scan body shared by the numeric run and the circuit recording.
  /// `Ops` abstracts the value semiring: `NumericOps` computes doubles
  /// exactly as before; `RecordOps` stores circuit node ids (exact in a
  /// double far below 2^53) and emits one node per arithmetic operation,
  /// reusing the same `FlatStateMap` machinery so the recorded accumulation
  /// order is the executed one by construction.
  template <class Ops>
  bool RunCoreImpl(const Matching& gamma, Scratch& scratch,
                   const RunControl* control, Ops& ops) const;

  /// Largest δ over the parents of `node` in `state`, or -1 with no parents.
  int MaxParentPosition(const std::uint16_t* state, unsigned node) const;

  /// Legality of inserting a non-placeholder item carrying pattern nodes
  /// `nodes` at slot j (Lemma 5.4 condition 2 / the Range subroutine).
  bool InsertionIsLegal(const std::uint16_t* state,
                        const std::vector<unsigned>& nodes, unsigned j) const;

  /// Folds position `pos` of `item` into the α/β slots of `state`.
  void FoldTracked(rim::ItemId item, unsigned pos, std::uint16_t* state) const;

  /// Applies the +j shift: every recorded position >= j moves one slot back.
  void ShiftState(unsigned j, std::uint16_t* state) const;

  /// Decodes the α/β slots of `state` into `scratch.values_`.
  void DecodeTracked(const std::uint16_t* state, Scratch& scratch) const;

  const LabeledRimModel* model_ = nullptr;
  const LabelPattern* pattern_ = nullptr;
  std::vector<LabelId> tracked_;
  unsigned m_ = 0;
  unsigned k_ = 0;
  unsigned tracked_count_ = 0;
  unsigned state_size_ = 0;  // k δ-slots + 2·tracked α/β-slots
  bool acyclic_ = false;
  std::vector<std::vector<bool>> reach_;
  // item -> pattern node indices whose label the item carries.
  std::vector<std::vector<unsigned>> item_pattern_nodes_;
  // item -> indices into `tracked_` of the tracked labels the item carries.
  std::vector<std::vector<unsigned>> item_tracked_;
  // node_item_ok_[node][item]: item carries the node's label (γ validity).
  std::vector<std::vector<bool>> node_item_ok_;
};

}  // namespace ppref::infer::internal

#endif  // PPREF_INFER_INTERNAL_DP_PLAN_H_
