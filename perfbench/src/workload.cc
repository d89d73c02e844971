#include "workload.h"

#include <bit>

#include "ppref/infer/top_prob.h"
#include "ppref/rim/insertion.h"
#include "ppref/rim/rim_model.h"

namespace perfbench {
namespace {

using ppref::serve::Request;

constexpr unsigned kSweepPoints = 16;
constexpr unsigned kCheckedSweepPoints = 2;
constexpr double kHardTarget = 0.02;
/// The hard probe's looser target keeps its sampling short, so that its
/// first answer mostly times the daemon's start.
constexpr double kHardProbeTarget = 0.05;
constexpr unsigned kConsensusTopK = 5;

// Every shape list a median is taken over has an odd length: with an even
// number of equally frequent cost modes the median falls in the gap between
// the two middle modes and jumps from seed to seed.

/// Cold evaluate shapes: DP cost from ~0.4 to ~15 ms each on a 2020s x86
/// core, ~3 ms on average, so the DP is well over 90% of a cold round trip
/// and a 12 s window still holds over 2000 requests, enough for a p99.
const Shape kColdShapes[] = {
    {14, 2, 0.6}, {16, 2, 0.9}, {18, 2, 0.6}, {20, 2, 0.9}, {22, 2, 0.6},
    {24, 2, 0.6}, {24, 2, 0.9}, {12, 3, 0.6}, {12, 3, 0.9}, {14, 3, 0.6},
    {16, 3, 0.3}, {16, 3, 0.6}, {18, 3, 0.3}, {20, 3, 0.3}, {14, 3, 0.9},
};
const Shape kWarmShapes[] = {
    {8, 2, 0.5}, {10, 3, 0.5}, {12, 2, 0.5}, {14, 3, 0.5},
};
const Shape kStoreShapes[] = {
    {8, 2, 0.5}, {9, 3, 0.5}, {10, 2, 0.5}, {11, 3, 0.5}, {12, 2, 0.5},
};
const Shape kSweepShapes[] = {
    {10, 2, 0.4}, {10, 2, 0.8}, {12, 2, 0.4}, {12, 2, 0.8}, {13, 2, 0.6},
    {14, 2, 0.4}, {14, 2, 0.8}, {16, 2, 0.4}, {16, 2, 0.8},
};
const Shape kHardShapes[] = {{20, 3, 0.5}, {30, 3, 0.5}, {40, 3, 0.5}};
const Shape kConsensusShapes[] = {{12, 0, 0.0}, {16, 0, 0.0}, {20, 0, 0.0}};

/// The probe is the same query under every seed, so that first_answer_ms
/// times the same work on every run (a hard probe's sample count, for one,
/// depends on its model). Its index lies far beyond any run's draws.
constexpr std::uint64_t kProbeSeed = 0;
constexpr std::uint64_t kProbeIndex = 1ull << 40;

template <std::size_t N>
const Shape& Cycle(const Shape (&shapes)[N], std::uint64_t index) {
  return shapes[index % N];
}

std::vector<WorkloadSpec> BuildSpecs() {
  std::vector<WorkloadSpec> specs(6);
  specs[0].name = "warm_rtt";
  specs[0].connections = 2;
  // Every HTTP request is a new TCP connection that leaves a TIME_WAIT
  // entry for 60 s; at warm rates a larger share would cycle through most
  // of the ephemeral ports towards one daemon port within a run.
  specs[0].http_every = 120;

  specs[1].name = "cold_exact";
  specs[1].store = true;

  specs[2].name = "analytics_sweep";
  specs[2].kind = Kind::kSweep;
  specs[3].name = "analytics_hard";
  specs[3].kind = Kind::kHard;
  specs[4].name = "analytics_consensus";
  specs[4].kind = Kind::kConsensus;

  specs[5].name = "store_restart";
  specs[5].store = true;
  specs[5].plan_capacity = 16;
  specs[5].result_capacity = 64;
  specs[5].cycle_requests = 400;
  return specs;
}

Query MakeEval(const Instance& instance, Request::Kind kind,
               std::uint64_t id) {
  Query query;
  query.eval.emplace(id, kind, 0, instance.model, instance.pattern);
  query.http_body = QueryJson(*query.eval);
  return query;
}

Query MakeSweep(const Instance& instance, std::uint64_t seed,
                std::uint64_t index) {
  Query query;
  query.kind = Kind::kSweep;
  query.sweep.emplace(index, 0, instance.model, instance.pattern,
                      MakePhiGrid(seed, index, kSweepPoints));
  ppref::Rng rng(MixSeed(seed, Stream::kSweepGrid, ~index));
  for (unsigned i = 0; i < kCheckedSweepPoints; ++i) {
    query.checked_points.push_back(rng.NextIndex(kSweepPoints));
  }
  return query;
}

Query MakeHard(const Instance& instance, std::uint64_t id,
               double target = kHardTarget) {
  Query query;
  query.kind = Kind::kHard;
  query.hard.emplace(id, 0, target, instance.model, instance.pattern);
  return query;
}

Query MakeConsensus(const Instance& instance, std::uint64_t id) {
  Query query;
  query.kind = Kind::kConsensus;
  query.consensus.emplace(id, 0, kConsensusTopK, instance.model);
  return query;
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kEval: return "eval";
    case Kind::kHttp: return "http";
    case Kind::kSweep: return "sweep";
    case Kind::kHard: return "hard";
    case Kind::kConsensus: return "consensus";
  }
  return "?";
}

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> specs = BuildSpecs();
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

void ComputeExpected(Query& query, ppref::serve::Server& oracle) {
  Reply& expected = query.expected;
  switch (query.kind) {
    case Kind::kEval:
    case Kind::kHttp: {
      const ppref::net::WireRequest& wire = *query.eval;
      if (wire.kind == Request::Kind::kPatternProb) {
        expected.probability = ppref::infer::PatternProb(wire.model, wire.pattern);
      } else if (const auto best = ppref::infer::MostProbableTopMatching(
                     wire.model, wire.pattern)) {
        expected.top_matching = best->first;
        expected.probability = best->second;
      }
      break;
    }
    case Kind::kSweep: {
      const ppref::net::WireSweepRequest& wire = *query.sweep;
      const ppref::rim::RimModel& rim = wire.model.model();
      for (const std::size_t point : query.checked_points) {
        const ppref::infer::LabeledRimModel rebound(
            ppref::rim::RimModel(rim.reference(),
                                 ppref::rim::InsertionFunction::Mallows(
                                     rim.size(), wire.params[point][0])),
            wire.model.labeling());
        expected.probabilities.push_back(
            ppref::infer::PatternProb(rebound, wire.pattern));
      }
      break;
    }
    case Kind::kHard: {
      const ppref::net::WireHardRequest& wire = *query.hard;
      const auto answer = oracle.HardPatternProb(wire.model, wire.pattern,
                                                 wire.target_half_width);
      expected.hard.status = answer.status();
      if (answer.ok()) {
        expected.hard.estimate = answer->estimate;
        expected.hard.std_error = answer->std_error;
        expected.hard.n_samples = answer->n_samples;
        expected.hard.target_met = answer->target_met;
        expected.hard.deadline_limited = answer->deadline_limited;
      }
      break;
    }
    case Kind::kConsensus: {
      const ppref::net::WireConsensusRequest& wire = *query.consensus;
      const auto answer = oracle.ConsensusTopK(wire.model, wire.top_k);
      expected.consensus.status = answer.status();
      if (answer.ok()) {
        expected.consensus.ranking = answer->ranking;
        expected.consensus.mean_footrule = answer->mean_footrule;
        expected.consensus.footrule_std_error = answer->footrule_std_error;
        expected.consensus.mean_kendall = answer->mean_kendall;
        expected.consensus.kendall_std_error = answer->kendall_std_error;
        expected.consensus.n_samples = answer->n_samples;
      }
      break;
    }
  }
  query.has_expected = true;
}

bool Matches(const Query& query, const Reply& reply) {
  const Reply& expected = query.expected;
  switch (query.kind) {
    case Kind::kEval:
    case Kind::kHttp:
      return SameBits(reply.probability, expected.probability) &&
             reply.top_matching == expected.top_matching;
    case Kind::kSweep:
      if (reply.probabilities.size() != query.sweep->params.size()) return false;
      for (std::size_t i = 0; i < query.checked_points.size(); ++i) {
        if (!SameBits(reply.probabilities[query.checked_points[i]],
                      expected.probabilities[i])) {
          return false;
        }
      }
      return true;
    case Kind::kHard: {
      const auto& a = reply.hard;
      const auto& b = expected.hard;
      return b.status.ok() && SameBits(a.estimate, b.estimate) &&
             SameBits(a.std_error, b.std_error) && a.n_samples == b.n_samples &&
             a.target_met == b.target_met &&
             a.deadline_limited == b.deadline_limited;
    }
    case Kind::kConsensus: {
      const auto& a = reply.consensus;
      const auto& b = expected.consensus;
      return b.status.ok() && a.ranking == b.ranking &&
             SameBits(a.mean_footrule, b.mean_footrule) &&
             SameBits(a.footrule_std_error, b.footrule_std_error) &&
             SameBits(a.mean_kendall, b.mean_kendall) &&
             SameBits(a.kendall_std_error, b.kendall_std_error) &&
             a.n_samples == b.n_samples;
    }
  }
  return false;
}

Generator::Generator(const WorkloadSpec& spec, std::uint64_t seed,
                     ppref::serve::Server& oracle)
    : spec_(spec), seed_(seed) {
  const Shape* eval_shapes = kWarmShapes;
  std::size_t eval_shape_count = std::size(kWarmShapes);
  std::size_t eval_pairs = 0;
  if (spec.name == "warm_rtt") eval_pairs = 64;
  if (spec.name == "store_restart") {
    eval_pairs = 512;
    eval_shapes = kStoreShapes;
    eval_shape_count = std::size(kStoreShapes);
    hot_biased_ = false;  // uniform over a pool 8x the result cache
  }
  for (std::size_t pair = 0; pair < eval_pairs; ++pair) {
    const Instance instance = MakeInstance(
        seed, Stream::kWarmPool, pair, eval_shapes[pair % eval_shape_count]);
    pool_.push_back(MakeEval(instance, Request::Kind::kPatternProb, pair));
    pool_.push_back(MakeEval(instance, Request::Kind::kTopMatching, pair));
  }
  if (spec.kind == Kind::kSweep) {
    // The circuit shapes set-up compiles; every request in the window puts
    // a fresh φ grid on one of them.
    for (std::size_t i = 0; i < std::size(kSweepShapes); ++i) {
      pool_.push_back(MakeSweep(
          MakeInstance(seed, Stream::kSweepShape, i, kSweepShapes[i]), seed,
          i));
    }
  }

  switch (spec.kind) {
    case Kind::kSweep:
      probe_ = std::make_unique<Query>(MakeSweep(
          MakeInstance(kProbeSeed, Stream::kSweepShape, kProbeIndex,
                       {8, 2, 0.6}),
          kProbeSeed, kProbeIndex));
      break;
    case Kind::kHard:
      probe_ = std::make_unique<Query>(MakeHard(
          MakeInstance(kProbeSeed, Stream::kHard, kProbeIndex, {12, 3, 0.5}),
          kProbeIndex, kHardProbeTarget));
      break;
    case Kind::kConsensus:
      probe_ = std::make_unique<Query>(MakeConsensus(
          MakeInstance(kProbeSeed, Stream::kConsensus, kProbeIndex,
                       {8, 0, 0.0}),
          kProbeIndex));
      break;
    default:
      // store_restart probes with a pooled query: a store hit on restart.
      probe_ = std::make_unique<Query>(
          spec.name == "store_restart"
              ? pool_.front()
              : MakeEval(MakeInstance(kProbeSeed, Stream::kWarmPool,
                                      kProbeIndex, {8, 2, 0.5}),
                         Request::Kind::kPatternProb, kProbeIndex));
      break;
  }
  ComputeExpected(*probe_, oracle);
  for (Query& query : pool_) ComputeExpected(query, oracle);
}

Generator::Cursor Generator::MakeCursor(unsigned connection) const {
  return Cursor(MixSeed(seed_, Stream::kDraw, connection));
}

std::vector<const Query*> Generator::WarmSet() const {
  std::vector<const Query*> set;
  for (const Query& query : pool_) set.push_back(&query);
  return set;
}

std::unique_ptr<Query> Generator::MakeFresh(std::uint64_t index) const {
  switch (spec_.kind) {
    case Kind::kEval:
    case Kind::kHttp: {
      // Shapes cycle, and each full cycle of shapes alternates
      // pattern_prob x3, top_matching x1.
      const Instance instance = MakeInstance(seed_, Stream::kCold, index,
                                             Cycle(kColdShapes, index));
      const auto request_kind = (index / std::size(kColdShapes)) % 4 == 3
                                    ? Request::Kind::kTopMatching
                                    : Request::Kind::kPatternProb;
      return std::make_unique<Query>(MakeEval(instance, request_kind, index));
    }
    case Kind::kSweep: {
      const Query& shape = pool_[index % pool_.size()];
      return std::make_unique<Query>(
          MakeSweep(Instance{shape.sweep->model, shape.sweep->pattern}, seed_,
                    index + pool_.size()));
    }
    case Kind::kHard:
      return std::make_unique<Query>(MakeHard(
          MakeInstance(seed_, Stream::kHard, index, Cycle(kHardShapes, index)),
          index));
    case Kind::kConsensus:
      return std::make_unique<Query>(MakeConsensus(
          MakeInstance(seed_, Stream::kConsensus, index,
                       Cycle(kConsensusShapes, index)),
          index));
  }
  return nullptr;
}

const Query* Generator::Next(Cursor& cursor, Kind* slot,
                             std::unique_ptr<Query>* fresh_out) {
  const std::uint64_t n = cursor.sent++;
  *slot = spec_.http_every > 0 && n % spec_.http_every == spec_.http_every / 2
              ? Kind::kHttp
              : spec_.kind;
  if (spec_.kind != Kind::kEval || pool_.empty()) {
    *fresh_out = MakeFresh(n);
    return fresh_out->get();
  }
  std::size_t pair = cursor.rng.NextIndex(pool_.size() / 2);
  if (hot_biased_ && cursor.rng.NextUnit() < 0.5) pair /= 2;
  return &pool_[2 * pair + (n % 4 == 3 ? 1 : 0)];
}

}  // namespace perfbench
