#include "ppref/infer/monte_carlo.h"

#include <map>
#include <vector>

#include "ppref/common/check.h"
#include "ppref/hard/estimator.h"
#include "ppref/hard/sampler.h"
#include "ppref/infer/matching.h"
#include "ppref/rim/sampler.h"

namespace ppref::infer {
namespace {

/// Samples per seeding block of the McOptions entry points. Fixed so the
/// block decomposition (and therefore every estimate) depends only on the
/// sample budget; large enough that per-block Rng setup is noise.
constexpr unsigned kMcBlockSamples = 1024;

McEstimate FromBernoulliCount(unsigned hits, unsigned samples) {
  const hard::BernoulliEstimate point =
      hard::EstimateFromBernoulliCount(hits, samples);
  McEstimate result;
  result.estimate = point.estimate;
  result.std_error = point.std_error;
  return result;
}

/// Runs `block_hits(rng, begin, end)` over the fixed block decomposition of
/// `options.samples` draws and returns the summed hit count — the shared
/// seeded-block core (hard/sampler.h), run serially here with per-block
/// generators seeded from (options.seed, block index).
unsigned BlockedHits(
    const McOptions& options,
    const std::function<unsigned(Rng&, unsigned, unsigned)>& block_hits) {
  PPREF_CHECK(options.samples > 0);
  return hard::SeededBlockHits(options.samples, kMcBlockSamples, options.seed,
                               /*threads=*/1, options.control, block_hits);
}

}  // namespace

McEstimate PatternProbMonteCarlo(const LabeledRimModel& model,
                                 const LabelPattern& pattern, unsigned samples,
                                 Rng& rng) {
  PPREF_CHECK(samples > 0);
  unsigned hits = 0;
  for (unsigned s = 0; s < samples; ++s) {
    const rim::Ranking tau = rim::SampleRanking(model.model(), rng);
    if (Matches(pattern, model.labeling(), tau)) ++hits;
  }
  return FromBernoulliCount(hits, samples);
}

McEstimate PatternMinMaxProbMonteCarlo(const LabeledRimModel& model,
                                       const LabelPattern& pattern,
                                       const std::vector<LabelId>& tracked,
                                       const MinMaxCondition& condition,
                                       unsigned samples, Rng& rng) {
  PPREF_CHECK(samples > 0);
  unsigned hits = 0;
  for (unsigned s = 0; s < samples; ++s) {
    const rim::Ranking tau = rim::SampleRanking(model.model(), rng);
    if (Matches(pattern, model.labeling(), tau) &&
        condition(RealizedMinMax(model.labeling(), tau, tracked))) {
      ++hits;
    }
  }
  return FromBernoulliCount(hits, samples);
}

McEstimate PatternProbMonteCarlo(const LabeledRimModel& model,
                                 const LabelPattern& pattern,
                                 const McOptions& options) {
  const unsigned hits =
      BlockedHits(options, [&](Rng& rng, unsigned begin, unsigned end) {
        unsigned h = 0;
        for (unsigned s = begin; s < end; ++s) {
          const rim::Ranking tau = rim::SampleRanking(model.model(), rng);
          if (Matches(pattern, model.labeling(), tau)) ++h;
        }
        return h;
      });
  return FromBernoulliCount(hits, options.samples);
}

McEstimate PatternMinMaxProbMonteCarlo(const LabeledRimModel& model,
                                       const LabelPattern& pattern,
                                       const std::vector<LabelId>& tracked,
                                       const MinMaxCondition& condition,
                                       const McOptions& options) {
  PPREF_CHECK(condition != nullptr);
  const unsigned hits =
      BlockedHits(options, [&](Rng& rng, unsigned begin, unsigned end) {
        unsigned h = 0;
        for (unsigned s = begin; s < end; ++s) {
          const rim::Ranking tau = rim::SampleRanking(model.model(), rng);
          if (Matches(pattern, model.labeling(), tau) &&
              condition(RealizedMinMax(model.labeling(), tau, tracked))) {
            ++h;
          }
        }
        return h;
      });
  return FromBernoulliCount(hits, options.samples);
}

McTopMatching TopMatchingMonteCarlo(const LabeledRimModel& model,
                                    const LabelPattern& pattern,
                                    const McOptions& options) {
  PPREF_CHECK(options.samples > 0);
  const unsigned blocks =
      hard::SeededBlockCount(options.samples, kMcBlockSamples);
  // Per-block histograms over realized top matchings, merged in block order.
  // std::map keys are ordered, so the modal pick (ties to the smallest γ)
  // is deterministic in (seed, samples).
  std::vector<std::map<Matching, unsigned>> histograms(blocks);
  hard::RunSeededBlocks(
      0, blocks, options.samples, kMcBlockSamples, options.seed,
      /*threads=*/1, options.control,
      [&](const hard::SampleBlock& block, Rng& rng) {
        for (unsigned s = block.begin; s < block.end; ++s) {
          const rim::Ranking tau = rim::SampleRanking(model.model(), rng);
          const std::optional<Matching> top =
              TopMatching(pattern, model.labeling(), tau);
          if (top.has_value()) ++histograms[block.index][*top];
        }
      });
  std::map<Matching, unsigned> merged;
  for (const auto& histogram : histograms) {
    for (const auto& [gamma, count] : histogram) merged[gamma] += count;
  }
  McTopMatching result;
  unsigned best = 0;
  for (const auto& [gamma, count] : merged) {
    if (count > best) {
      best = count;
      result.matching = gamma;
    }
  }
  const hard::BernoulliEstimate frequency =
      hard::EstimateFromBernoulliCount(best, options.samples);
  result.frequency = frequency.estimate;
  result.std_error = frequency.std_error;
  return result;
}

}  // namespace ppref::infer
