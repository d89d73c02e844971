#include "ppref/ppd/evaluator.h"

#include <algorithm>
#include <stdexcept>

#include "ppref/common/check.h"
#include "ppref/obs/metrics.h"
#include "ppref/ppd/reduction.h"
#include "ppref/query/classify.h"
#include "ppref/query/eval.h"

namespace ppref::ppd {
namespace {

/// Process-wide count of Boolean CQ evaluations, across all entry points
/// (serial and server-batched).
void CountBooleanQuery() {
  static obs::Counter& queries = obs::MetricsRegistry::Default().GetCounter(
      "ppref_ppd_boolean_queries_total",
      "Boolean CQ evaluations via ppd::EvaluateBoolean*");
  queries.Inc();
}

}  // namespace

double EvaluateBoolean(const RimPpd& ppd, const query::ConjunctiveQuery& query) {
  if (!query.IsBoolean()) {
    throw SchemaError("EvaluateBoolean expects a Boolean query");
  }
  CountBooleanQuery();
  if (query.PAtoms().empty()) {
    return query::IsSatisfiable(query, ppd.ODatabase()) ? 1.0 : 0.0;
  }
  double none_matches = 1.0;
  for (const SessionReduction& reduction : ReduceItemwise(ppd, query)) {
    none_matches *= 1.0 - SessionProb(reduction);
  }
  return 1.0 - none_matches;
}

double EvaluateBoolean(const RimPpd& ppd, const query::ConjunctiveQuery& query,
                       serve::Server& server) {
  const StatusOr<BooleanResult> result =
      TryEvaluateBoolean(ppd, query, server);
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kInvalidArgument) {
      throw SchemaError(result.status().message());
    }
    throw std::runtime_error(result.status().ToString());
  }
  if (result->approximate) {
    throw std::runtime_error(
        "EvaluateBoolean: a session was answered approximately");
  }
  return result->confidence;
}

StatusOr<BooleanResult> TryEvaluateBoolean(const RimPpd& ppd,
                                           const query::ConjunctiveQuery& query,
                                           serve::Server& server,
                                           const serve::RequestControl& control) {
  if (!query.IsBoolean()) {
    return Status::InvalidArgument("TryEvaluateBoolean expects a Boolean query");
  }
  CountBooleanQuery();
  if (query.PAtoms().empty()) {
    return BooleanResult{
        query::IsSatisfiable(query, ppd.ODatabase()) ? 1.0 : 0.0, false, 0.0};
  }
  // ReduceItemwise throws SchemaError on non-itemwise queries; at this
  // boundary that is a malformed request, not a programming error.
  std::vector<SessionReduction> reductions;
  try {
    reductions = ReduceItemwise(ppd, query);
  } catch (const SchemaError& e) {
    return Status::InvalidArgument(e.what());
  }
  // Sessions that cannot match never reach the server; the rest go out as
  // one deduplicated batch. The labeled models must stay alive until the
  // batch returns, hence the reserve (no relocation under the borrowed
  // pointers).
  std::vector<infer::LabeledRimModel> models;
  models.reserve(reductions.size());
  std::vector<serve::Request> batch;
  std::vector<std::size_t> reduction_of;
  for (std::size_t i = 0; i < reductions.size(); ++i) {
    const SessionReduction& reduction = reductions[i];
    if (!CanMatch(reduction)) continue;
    models.emplace_back(reduction.model->model(), reduction.labeling);
    serve::Request request;
    request.kind = serve::Request::Kind::kPatternProb;
    request.model = &models.back();
    request.pattern = &reduction.pattern;
    request.control = control;
    batch.push_back(request);
    reduction_of.push_back(i);
  }
  const std::vector<serve::Response> responses = server.EvaluateBatch(batch);
  // A session that failed outright fails the query with that status; a
  // degraded (approximate) session keeps the query answerable but marks the
  // result approximate with a summed error bound.
  BooleanResult result;
  std::vector<double> session_probs(reductions.size(), 0.0);
  for (std::size_t b = 0; b < responses.size(); ++b) {
    const serve::Response& response = responses[b];
    if (!response.status.ok() && !response.approximate) {
      return response.status;
    }
    if (response.approximate) {
      result.approximate = true;
      result.std_error += response.std_error;
    }
    session_probs[reduction_of[b]] = response.probability;
  }
  // Combine in session order so the float result matches the serial path.
  double none_matches = 1.0;
  for (double prob : session_probs) none_matches *= 1.0 - prob;
  result.confidence = 1.0 - none_matches;
  return result;
}

db::Database PossibilityDatabase(const RimPpd& ppd) {
  db::Database database(ppd.schema());
  // Copy o-instances.
  for (const std::string& symbol : ppd.schema().OSymbols()) {
    for (const db::Tuple& tuple : ppd.OInstance(symbol)) {
      database.Add(symbol, tuple);
    }
  }
  // Saturate p-instances with every ordered pair of distinct items.
  for (const std::string& symbol : ppd.schema().PSymbols()) {
    for (const auto& [session, model] : ppd.PInstance(symbol).sessions()) {
      for (rim::ItemId a = 0; a < model.size(); ++a) {
        for (rim::ItemId b = 0; b < model.size(); ++b) {
          if (a == b) continue;
          db::Tuple tuple = session;
          tuple.push_back(model.ItemOf(a));
          tuple.push_back(model.ItemOf(b));
          database.Add(symbol, std::move(tuple));
        }
      }
    }
  }
  return database;
}

std::vector<Answer> EvaluateQuery(const RimPpd& ppd,
                                  const query::ConjunctiveQuery& query) {
  std::vector<Answer> answers;
  if (query.IsBoolean()) {
    const double confidence = EvaluateBoolean(ppd, query);
    if (confidence > 0.0) answers.push_back({db::Tuple{}, confidence});
    return answers;
  }
  const db::Database possibility = PossibilityDatabase(ppd);
  for (const db::Tuple& candidate : query::Evaluate(query, possibility)) {
    query::ConjunctiveQuery bound = query;
    for (std::size_t i = 0; i < candidate.size(); ++i) {
      bound = bound.Substitute(query.head()[i], candidate[i]);
    }
    const double confidence = EvaluateBoolean(ppd, bound);
    if (confidence > 0.0) answers.push_back({candidate, confidence});
  }
  std::stable_sort(answers.begin(), answers.end(),
                   [](const Answer& a, const Answer& b) {
                     return a.confidence > b.confidence;
                   });
  return answers;
}

}  // namespace ppref::ppd
