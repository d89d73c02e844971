/// \file inputs.h
/// \brief Seeded input generation for the perfbench workloads.
///
/// Every instance is a pure function of (seed, stream, index, shape): a
/// labeled Mallows model over a random reference order with a random
/// dispersion, and a chain pattern over labels 0..k-1. Instances are drawn
/// on demand from per-stream counters, so the same seed always yields
/// byte-identical requests whatever order a workload consumes them in.
///
/// Shapes are cycled through fixed schedules rather than drawn at random:
/// the seed varies which items carry which labels, the reference order and
/// the dispersion, while the size mix (and so the cost mix) of a run stays
/// the same from seed to seed. That is what keeps run-to-run spread small.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/pattern.h"
#include "ppref/net/wire.h"

namespace perfbench {

/// Size and label density of one generated instance.
struct Shape {
  unsigned m = 0;        // items
  unsigned k = 0;        // chain pattern nodes
  double density = 0.0;  // share of items that carry a pattern label
};

/// One generated query: a model plus a pattern (empty for consensus).
struct Instance {
  ppref::infer::LabeledRimModel model;
  ppref::infer::LabelPattern pattern;
};

/// Independent instance streams; a stream tag is mixed into every seed so
/// two streams never produce the same instance.
enum class Stream : std::uint64_t {
  kWarmPool = 1,
  kCold = 2,
  kSweepShape = 3,
  kSweepGrid = 4,
  kHard = 5,
  kConsensus = 6,
  kDraw = 8,
};

/// The instance `index` of `stream` under `seed`.
Instance MakeInstance(std::uint64_t seed, Stream stream, std::uint64_t index,
                      const Shape& shape);

/// A seeded φ grid of `points` dispersions in [0.2, 0.95], one per entry.
std::vector<std::vector<double>> MakePhiGrid(std::uint64_t seed,
                                             std::uint64_t index,
                                             unsigned points);

/// A 64-bit mix of (seed, stream, index), the per-draw seed.
std::uint64_t MixSeed(std::uint64_t seed, Stream stream, std::uint64_t index);

/// The JSON body of `POST /query` for `request`, with the insertion rows
/// printed %.17g so the daemon rebuilds the exact model the binary codec
/// would carry.
std::string QueryJson(const ppref::net::WireRequest& request);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
