/// \file bench_e17_plan_reuse.cc
/// \brief Experiment E17 — the plan/execute split and packed-state DP:
/// per-γ cost of `PatternProb` with and without plan reuse, against the
/// seed implementation (per-γ context rebuild + `std::unordered_map` over
/// heap-allocated state vectors).
///
/// The workload is multi-matching by construction (m >= 30, >= 50 candidate
/// γ), the regime the compile-once / run-many refactor targets: every PPD
/// session evaluation bottoms out in exactly this sum. Emits
/// `BENCH_e17.json` next to the working directory for trajectory tracking.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "ppref/infer/internal/dp_engine.h"
#include "ppref/infer/top_prob.h"

namespace seed_impl {

// Condensed copy of the seed's dp_engine.cc hot path (pre-refactor): one
// Context rebuilt per γ, states as std::vector<uint16_t> keys in a
// std::unordered_map. Kept here as the ablation baseline so the speedup of
// the packed-state plan engine stays measurable after the refactor.

using namespace ppref;
using namespace ppref::infer;
using rim::ItemId;

constexpr std::uint16_t kUnset = 0xFFFF;
using State = std::vector<std::uint16_t>;

struct StateHash {
  std::size_t operator()(const State& state) const {
    std::size_t hash = 1469598103934665603ull;
    for (std::uint16_t value : state) {
      hash ^= value;
      hash *= 1099511628211ull;
    }
    return hash;
  }
};

using StateMap = std::unordered_map<State, double, StateHash>;

struct Context {
  const LabelPattern* pattern = nullptr;
  unsigned k = 0;
  std::vector<std::vector<unsigned>> item_pattern_nodes;
};

Context BuildContext(const LabeledRimModel& model, const LabelPattern& pattern) {
  Context ctx;
  ctx.pattern = &pattern;
  ctx.k = pattern.NodeCount();
  ctx.item_pattern_nodes.resize(model.size());
  for (ItemId item = 0; item < model.size(); ++item) {
    for (LabelId label : model.labeling().LabelsOf(item)) {
      if (auto node = pattern.NodeOf(label); node.has_value()) {
        ctx.item_pattern_nodes[item].push_back(*node);
      }
    }
  }
  return ctx;
}

int MaxParentPosition(const LabelPattern& pattern, const State& state,
                      unsigned node) {
  int max_pos = -1;
  for (unsigned parent : pattern.Parents(node)) {
    max_pos = std::max(max_pos, static_cast<int>(state[parent]));
  }
  return max_pos;
}

bool InsertionIsLegal(const Context& ctx, const State& state,
                      const std::vector<unsigned>& nodes, unsigned j) {
  for (unsigned node : nodes) {
    if (j <= state[node]) {
      const int max_parent = MaxParentPosition(*ctx.pattern, state, node);
      if (max_parent < 0 || static_cast<int>(j) > max_parent) return false;
    }
  }
  return true;
}

double TopMatchingProbSeed(const LabeledRimModel& model,
                           const LabelPattern& pattern, const Matching& gamma) {
  const unsigned m = model.size();
  const unsigned k = pattern.NodeCount();
  if (!pattern.IsAcyclic()) return 0.0;
  for (unsigned node = 0; node < k; ++node) {
    if (!model.labeling().HasLabel(gamma[node], pattern.NodeLabel(node))) {
      return 0.0;
    }
  }
  const auto reach = pattern.Reachability();
  for (unsigned u = 0; u < k; ++u) {
    for (unsigned v = 0; v < k; ++v) {
      if (reach[u][v] && gamma[u] == gamma[v]) return 0.0;
    }
  }

  const Context ctx = BuildContext(model, pattern);
  const rim::Ranking& ref = model.model().reference();
  const rim::InsertionFunction& pi = model.model().insertion();

  std::vector<ItemId> ph_items;
  std::vector<unsigned> ph_rep;
  for (unsigned node = 0; node < k; ++node) {
    if (std::find(ph_items.begin(), ph_items.end(), gamma[node]) ==
        ph_items.end()) {
      ph_items.push_back(gamma[node]);
      ph_rep.push_back(node);
    }
  }
  const unsigned u = static_cast<unsigned>(ph_items.size());
  std::vector<unsigned> ph_scan_step(u);
  for (unsigned i = 0; i < u; ++i) ph_scan_step[i] = ref.PositionOf(ph_items[i]);
  std::vector<int> step_placeholder(m, -1);
  for (unsigned i = 0; i < u; ++i) {
    step_placeholder[ph_scan_step[i]] = static_cast<int>(i);
  }

  StateMap current;
  {
    std::vector<unsigned> perm(u);
    for (unsigned i = 0; i < u; ++i) perm[i] = i;
    do {
      std::vector<unsigned> position_of_ph(u);
      for (unsigned pos = 0; pos < u; ++pos) position_of_ph[perm[pos]] = pos;
      State state(k, kUnset);
      for (unsigned node = 0; node < k; ++node) {
        const auto it =
            std::find(ph_items.begin(), ph_items.end(), gamma[node]);
        const auto idx = static_cast<unsigned>(it - ph_items.begin());
        state[node] = static_cast<std::uint16_t>(position_of_ph[idx]);
      }
      bool legal = true;
      for (unsigned from = 0; from < k && legal; ++from) {
        for (unsigned to : pattern.Children(from)) {
          if (state[from] >= state[to]) {
            legal = false;
            break;
          }
        }
      }
      for (unsigned node = 0; node < k && legal; ++node) {
        const LabelId label = pattern.NodeLabel(node);
        for (unsigned i = 0; i < u; ++i) {
          if (ph_items[i] == gamma[node]) continue;
          if (!model.labeling().HasLabel(ph_items[i], label)) continue;
          const unsigned pos = position_of_ph[i];
          if (pos < state[node]) {
            const int max_parent = MaxParentPosition(pattern, state, node);
            if (max_parent < 0 || static_cast<int>(pos) > max_parent) {
              legal = false;
              break;
            }
          }
        }
      }
      if (legal) current.emplace(std::move(state), 1.0);
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
  if (current.empty()) return 0.0;

  StateMap next;
  for (unsigned t = 0; t < m; ++t) {
    const ItemId item = ref.At(t);
    std::vector<unsigned> pending_reps;
    for (unsigned i = 0; i < u; ++i) {
      if (ph_scan_step[i] > t) pending_reps.push_back(ph_rep[i]);
    }
    const auto pending_count = static_cast<unsigned>(pending_reps.size());
    next.clear();
    const int ph_index = step_placeholder[t];
    for (const auto& [state, prob] : current) {
      if (ph_index >= 0) {
        const unsigned j = state[ph_rep[ph_index]];
        unsigned pending_before = 0;
        for (unsigned rep : pending_reps) {
          if (state[rep] < j) ++pending_before;
        }
        next[state] += prob * pi.Prob(t, j - pending_before);
      } else {
        const unsigned prefix_size = t + pending_count;
        for (unsigned j = 0; j <= prefix_size; ++j) {
          if (!InsertionIsLegal(ctx, state, ctx.item_pattern_nodes[item], j)) {
            continue;
          }
          unsigned pending_before = 0;
          for (unsigned rep : pending_reps) {
            if (state[rep] < j) ++pending_before;
          }
          State out = state;
          for (unsigned i = 0; i < k; ++i) {
            if (out[i] >= j) ++out[i];
          }
          next[std::move(out)] += prob * pi.Prob(t, j - pending_before);
        }
      }
    }
    current.swap(next);
    if (current.empty()) return 0.0;
  }
  double total = 0.0;
  for (const auto& [state, prob] : current) total += prob;
  return total;
}

double PatternProbSeed(const LabeledRimModel& model,
                       const LabelPattern& pattern) {
  double total = 0.0;
  for (const Matching& gamma :
       ppref::infer::internal::EnumerateCandidates(model, pattern)) {
    total += TopMatchingProbSeed(model, pattern, gamma);
  }
  return total;
}

}  // namespace seed_impl

int main() {
  using namespace ppref;
  using namespace ppref::bench;

  PrintHeader("E17", "plan/execute split: plan reuse + packed states");
  const unsigned m = 32;
  const unsigned k = 2;
  const unsigned per_label = 8;  // >= 50 candidate matchings (8^2 - overlap)
  const double phi = 0.8;
  const auto model = LabeledMallows(m, phi, SpreadLabeling(m, k, per_label));
  const auto pattern = ChainPattern(k);
  const auto candidates = infer::CandidateTopMatchings(model, pattern);
  std::printf("Mallows phi=%.1f, m=%u, chain k=%u, %zu candidate matchings\n\n",
              phi, m, k, candidates.size());

  // Correctness gate before timing anything.
  const double reference = infer::PatternProb(model, pattern);
  const double seed_value = seed_impl::PatternProbSeed(model, pattern);
  std::printf("PatternProb = %.12f (seed impl %.12f, |diff| %.2e)\n\n",
              reference, seed_value, std::abs(reference - seed_value));

  const double seed_ms =
      TimeMsAveraged([&] { seed_impl::PatternProbSeed(model, pattern); }, 200.0);
  // "No reuse": the packed-state engine, but one plan compiled per γ.
  const double no_reuse_ms = TimeMsAveraged(
      [&] {
        double total = 0.0;
        for (const auto& gamma : candidates) {
          total += infer::TopMatchingProb(model, pattern, gamma);
        }
        (void)total;
      },
      200.0);
  const double reuse_ms =
      TimeMsAveraged([&] { infer::PatternProb(model, pattern); }, 200.0);

  const double per_gamma = 1000.0 / static_cast<double>(candidates.size());
  std::printf("%-34s %10s %14s\n", "configuration", "total[ms]", "per-gamma[us]");
  std::printf("%-34s %10.2f %14.1f\n", "seed (unordered_map, per-g context)",
              seed_ms, seed_ms * per_gamma);
  std::printf("%-34s %10.2f %14.1f\n", "packed states, plan per gamma",
              no_reuse_ms, no_reuse_ms * per_gamma);
  std::printf("%-34s %10.2f %14.1f\n", "packed states, one plan (reuse)",
              reuse_ms, reuse_ms * per_gamma);
  std::printf("\nspeedup vs seed: %.2fx (plan reuse alone: %.2fx)\n",
              seed_ms / reuse_ms, no_reuse_ms / reuse_ms);

  FILE* json = std::fopen("BENCH_e17.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"experiment\": \"e17_plan_reuse\",\n"
                 "  \"git_sha\": \"%s\",\n  \"utc_date\": \"%s\",\n"
                 "  \"m\": %u,\n  \"k\": %u,\n  \"candidates\": %zu,\n"
                 "  \"seed_ms\": %.3f,\n  \"no_reuse_ms\": %.3f,\n"
                 "  \"reuse_ms\": %.3f,\n  \"speedup_vs_seed\": %.3f\n"
                 "}\n",
                 GitSha().c_str(), UtcDate().c_str(), m, k, candidates.size(),
                 seed_ms, no_reuse_ms, reuse_ms, seed_ms / reuse_ms);
    std::fclose(json);
    std::printf("wrote BENCH_e17.json\n");
  }
  return std::abs(reference - seed_value) < 1e-9 ? 0 : 1;
}
