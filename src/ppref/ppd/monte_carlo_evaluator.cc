#include "ppref/ppd/monte_carlo_evaluator.h"

#include <vector>

#include "ppref/common/check.h"
#include "ppref/db/preference_instance.h"
#include "ppref/hard/estimator.h"
#include "ppref/hard/sampler.h"
#include "ppref/query/eval.h"
#include "ppref/rim/sampler.h"

namespace ppref::ppd {
namespace {

/// Samples one world from the PPD and evaluates the Boolean query on it.
bool SampleWorldAndEvaluate(const RimPpd& ppd,
                            const query::ConjunctiveQuery& query, Rng& rng) {
  db::Database world(ppd.schema());
  for (const std::string& symbol : ppd.schema().OSymbols()) {
    for (const db::Tuple& tuple : ppd.OInstance(symbol)) {
      world.Add(symbol, tuple);
    }
  }
  for (const std::string& symbol : ppd.schema().PSymbols()) {
    for (const auto& [session, model] : ppd.PInstance(symbol).sessions()) {
      const rim::Ranking tau = rim::SampleRanking(model.model(), rng);
      std::vector<db::Value> order;
      order.reserve(tau.size());
      for (rim::Position p = 0; p < tau.size(); ++p) {
        order.push_back(model.ItemOf(tau.At(p)));
      }
      db::AddRankingAsPairs(world, symbol, session, order);
    }
  }
  return query::IsSatisfiable(query, world);
}

infer::McEstimate FromBernoulliCount(unsigned hits, unsigned samples) {
  const hard::BernoulliEstimate point =
      hard::EstimateFromBernoulliCount(hits, samples);
  infer::McEstimate estimate;
  estimate.estimate = point.estimate;
  estimate.std_error = point.std_error;
  return estimate;
}

}  // namespace

infer::McEstimate EstimateBoolean(const RimPpd& ppd,
                                  const query::ConjunctiveQuery& query,
                                  unsigned samples, Rng& rng) {
  PPREF_CHECK(query.IsBoolean());
  PPREF_CHECK(samples > 0);
  unsigned hits = 0;
  for (unsigned s = 0; s < samples; ++s) {
    if (SampleWorldAndEvaluate(ppd, query, rng)) ++hits;
  }
  return FromBernoulliCount(hits, samples);
}

infer::McEstimate EstimateBoolean(const RimPpd& ppd,
                                  const query::ConjunctiveQuery& query,
                                  const infer::McOptions& options) {
  PPREF_CHECK(query.IsBoolean());
  PPREF_CHECK(options.samples > 0);
  // The shared seeded-block core (hard/sampler.h), at a smaller block size
  // because database worlds are costlier to materialize than rankings. The
  // estimate stays a function of (seed, samples) only.
  constexpr unsigned kBlockSamples = 256;
  const unsigned total = hard::SeededBlockHits(
      options.samples, kBlockSamples, options.seed, /*threads=*/1,
      options.control, [&](Rng& rng, unsigned begin, unsigned end) {
        unsigned h = 0;
        for (unsigned s = begin; s < end; ++s) {
          if (SampleWorldAndEvaluate(ppd, query, rng)) ++h;
        }
        return h;
      });
  return FromBernoulliCount(total, options.samples);
}

}  // namespace ppref::ppd
