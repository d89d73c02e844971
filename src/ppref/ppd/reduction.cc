#include "ppref/ppd/reduction.h"

#include <algorithm>
#include <map>

#include "ppref/common/check.h"
#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/matching.h"
#include "ppref/infer/top_prob.h"
#include "ppref/obs/metrics.h"
#include "ppref/query/classify.h"
#include "ppref/query/eval.h"

namespace ppref::ppd {
namespace {

using query::Atom;
using query::ConjunctiveQuery;
using query::Term;

/// Unifies the p-atoms' session terms with a session tuple. Returns false on
/// mismatch; otherwise fills `binding` with the variable assignments.
bool MatchSession(const std::vector<Term>& session_terms,
                  const db::Tuple& session, query::Binding& binding) {
  PPREF_CHECK(session_terms.size() == session.size());
  for (std::size_t i = 0; i < session_terms.size(); ++i) {
    const Term& term = session_terms[i];
    if (!term.is_variable()) {
      if (term.constant() != session[i]) return false;
      continue;
    }
    const auto it = binding.find(term.variable());
    if (it != binding.end()) {
      if (it->second != session[i]) return false;
    } else {
      binding.emplace(term.variable(), session[i]);
    }
  }
  return true;
}

/// Connected components of the o-atoms under shared variables. Returns, per
/// component, the atom list and the set of variables it mentions.
struct OComponent {
  std::vector<Atom> atoms;
  std::vector<std::string> variables;
};

std::vector<OComponent> OComponents(const ConjunctiveQuery& query) {
  const std::vector<const Atom*> o_atoms = query.OAtoms();
  const std::size_t n = o_atoms.size();
  // Variables per atom.
  std::vector<std::vector<std::string>> atom_vars(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const Term& term : o_atoms[i]->terms) {
      if (term.is_variable()) atom_vars[i].push_back(term.variable());
    }
  }
  // Union-find over atoms.
  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool shares = std::any_of(
          atom_vars[i].begin(), atom_vars[i].end(), [&](const std::string& v) {
            return std::find(atom_vars[j].begin(), atom_vars[j].end(), v) !=
                   atom_vars[j].end();
          });
      if (shares) parent[find(i)] = find(j);
    }
  }
  std::map<std::size_t, OComponent> by_root;
  for (std::size_t i = 0; i < n; ++i) {
    OComponent& component = by_root[find(i)];
    component.atoms.push_back(*o_atoms[i]);
    for (const std::string& v : atom_vars[i]) {
      if (std::find(component.variables.begin(), component.variables.end(),
                    v) == component.variables.end()) {
        component.variables.push_back(v);
      }
    }
  }
  std::vector<OComponent> components;
  for (auto& [root, component] : by_root) {
    components.push_back(std::move(component));
  }
  return components;
}

/// A stable key for an item term: variables by name, constants by rendered
/// value (kinds disambiguated by Value::ToString quoting).
std::string TermKey(const Term& term) {
  return term.is_variable() ? "var:" + term.variable()
                            : "const:" + term.constant().ToString();
}

}  // namespace

std::vector<SessionReduction> ReduceItemwise(const RimPpd& ppd,
                                             const ConjunctiveQuery& query) {
  if (!query.IsBoolean()) {
    throw SchemaError("ReduceItemwise expects a Boolean query; substitute the "
                      "head variables first");
  }
  if (query.PAtoms().empty()) {
    throw SchemaError("ReduceItemwise expects at least one p-atom");
  }
  if (!query::IsItemwise(query)) {
    throw SchemaError("query is not itemwise: " + query.ToString());
  }

  const Atom& first_p = *query.PAtoms().front();
  const std::vector<Term> session_terms = first_p.SessionTerms();
  const RimPreferenceInstance& instance = ppd.PInstance(first_p.symbol);

  std::vector<SessionReduction> reductions;
  for (const auto& [session, model] : instance.sessions()) {
    query::Binding binding;
    if (!MatchSession(session_terms, session, binding)) continue;

    // Q^s: the query with the session bound (Lemma 4.8).
    ConjunctiveQuery bound = query;
    for (const auto& [variable, value] : binding) {
      bound = bound.Substitute(variable, value);
    }

    SessionReduction reduction;
    reduction.session = session;
    reduction.model = &model;
    reduction.labeling = infer::ItemLabeling(model.size());

    // Item terms of the bound query, in first-occurrence order.
    std::vector<Term> item_terms;
    std::vector<std::string> item_keys;
    auto node_of_term = [&](const Term& term) {
      const std::string key = TermKey(term);
      const auto it = std::find(item_keys.begin(), item_keys.end(), key);
      if (it != item_keys.end()) {
        return static_cast<unsigned>(it - item_keys.begin());
      }
      item_terms.push_back(term);
      item_keys.push_back(key);
      reduction.node_terms.push_back(term.ToString());
      return reduction.pattern.AddNode(
          static_cast<infer::LabelId>(item_terms.size() - 1));
    };

    for (const Atom* p_atom : bound.PAtoms()) {
      const unsigned lhs = node_of_term(p_atom->Lhs());
      const unsigned rhs = node_of_term(p_atom->Rhs());
      if (lhs == rhs) {
        reduction.reflexive_preference = true;
        break;
      }
      reduction.pattern.AddEdge(lhs, rhs);
    }
    if (reduction.reflexive_preference) {
      reductions.push_back(std::move(reduction));
      continue;
    }

    // O-components: satisfiability for item-variable-free ones, potential
    // matches for the single item variable otherwise (Lemma 4.8 part 2).
    const std::vector<std::string> item_variables = bound.ItemVariables();
    std::vector<bool> term_resolved(item_terms.size(), false);
    for (const OComponent& component : OComponents(bound)) {
      // The component's item variables.
      std::vector<std::string> in_component;
      for (const std::string& v : component.variables) {
        if (std::find(item_variables.begin(), item_variables.end(), v) !=
            item_variables.end()) {
          in_component.push_back(v);
        }
      }
      PPREF_CHECK_MSG(in_component.size() <= 1,
                      "itemwise invariant violated: component with "
                          << in_component.size() << " item variables");
      const ConjunctiveQuery component_query({}, component.atoms);
      if (in_component.empty()) {
        if (!query::IsSatisfiable(component_query, ppd.ODatabase())) {
          reduction.satisfiable = false;
          break;
        }
        continue;
      }
      // Potential matches of the item variable against each session item.
      const std::string& x = in_component.front();
      const auto node = std::find(item_keys.begin(), item_keys.end(),
                                  "var:" + x);
      PPREF_CHECK(node != item_keys.end());
      const unsigned node_index =
          static_cast<unsigned>(node - item_keys.begin());
      term_resolved[node_index] = true;
      for (rim::ItemId id = 0; id < model.size(); ++id) {
        query::Binding item_binding;
        item_binding.emplace(x, model.ItemOf(id));
        if (query::IsSatisfiable(component_query, ppd.ODatabase(),
                                 item_binding)) {
          reduction.labeling.AddLabel(id, reduction.pattern.NodeLabel(node_index));
        }
      }
    }
    if (!reduction.satisfiable) {
      reductions.push_back(std::move(reduction));
      continue;
    }

    // Remaining terms: constants label their own item; item variables with
    // no o-atoms are matched by every item.
    for (unsigned node = 0; node < item_terms.size(); ++node) {
      if (term_resolved[node]) continue;
      const infer::LabelId label = reduction.pattern.NodeLabel(node);
      const Term& term = item_terms[node];
      if (term.is_variable()) {
        for (rim::ItemId id = 0; id < model.size(); ++id) {
          reduction.labeling.AddLabel(id, label);
        }
      } else if (const auto id = model.IdOf(term.constant()); id.has_value()) {
        reduction.labeling.AddLabel(*id, label);
      }
      // A constant absent from the session's items leaves its label empty,
      // making the pattern probability 0 — as required.
    }
    reductions.push_back(std::move(reduction));
  }
  return reductions;
}

bool CanMatch(const SessionReduction& reduction) {
  return reduction.satisfiable && !reduction.reflexive_preference &&
         !infer::AbsentLabel(reduction.pattern, reduction.labeling);
}

double SessionProb(const SessionReduction& reduction) {
  PPREF_CHECK(reduction.model != nullptr);
  // Process-wide PPD workload counters: evaluated sessions, split by the
  // trivial short-circuit vs. the ones that reach the inference engine.
  static obs::Counter& sessions = obs::MetricsRegistry::Default().GetCounter(
      "ppref_ppd_sessions_total",
      "Session reductions evaluated via SessionProb");
  static obs::Counter& trivial = obs::MetricsRegistry::Default().GetCounter(
      "ppref_ppd_sessions_trivial_total",
      "Sessions short-circuited to 0 (unsatisfiable or reflexive)");
  sessions.Inc();
  if (!reduction.satisfiable || reduction.reflexive_preference) {
    trivial.Inc();
    return 0.0;
  }
  const infer::LabeledRimModel labeled(reduction.model->model(),
                                       reduction.labeling);
  return infer::PatternProb(labeled, reduction.pattern);
}

}  // namespace ppref::ppd
