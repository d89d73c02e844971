#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "ppref/common/random.h"
#include "ppref/rim/mallows.h"
#include "ppref/rim/ranking.h"

namespace perfbench {

using ppref::Rng;
using ppref::infer::ItemLabeling;
using ppref::infer::LabeledRimModel;
using ppref::infer::LabelPattern;

std::uint64_t MixSeed(std::uint64_t seed, Stream stream, std::uint64_t index) {
  // SplitMix64 finalizer over a combination of the three inputs.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull ^
                    (static_cast<std::uint64_t>(stream) << 56) ^
                    (index + 0x632BE59BD9B4E019ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Instance MakeInstance(std::uint64_t seed, Stream stream, std::uint64_t index,
                      const Shape& shape) {
  Rng rng(MixSeed(seed, stream, index));
  std::vector<ppref::rim::ItemId> order(shape.m);
  std::iota(order.begin(), order.end(), 0u);
  for (unsigned i = shape.m; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextIndex(i)]);
  }
  const double phi = 0.3 + 0.65 * rng.NextUnit();

  // A fixed number of labeled items, labels dealt round-robin: the seed
  // moves labels around but not how many items match each pattern node, so
  // the DP and circuit sizes of a shape vary little from seed to seed.
  ItemLabeling labeling(shape.m);
  if (shape.k > 0) {
    const auto labeled = std::clamp<unsigned>(
        static_cast<unsigned>(shape.density * shape.m + 0.5), shape.k, shape.m);
    std::vector<ppref::rim::ItemId> items(shape.m);
    std::iota(items.begin(), items.end(), 0u);
    for (unsigned i = 0; i < labeled; ++i) {
      std::swap(items[i], items[i + rng.NextIndex(shape.m - i)]);
      labeling.AddLabel(items[i], i % shape.k);
    }
  }

  LabelPattern pattern;
  for (unsigned node = 0; node < shape.k; ++node) pattern.AddNode(node);
  for (unsigned node = 0; node + 1 < shape.k; ++node) {
    pattern.AddEdge(node, node + 1);
  }
  return Instance{
      LabeledRimModel(
          ppref::rim::MallowsModel(ppref::rim::Ranking(std::move(order)), phi)
              .rim(),
          std::move(labeling)),
      std::move(pattern)};
}

std::vector<std::vector<double>> MakePhiGrid(std::uint64_t seed,
                                             std::uint64_t index,
                                             unsigned points) {
  Rng rng(MixSeed(seed, Stream::kSweepGrid, index));
  std::vector<std::vector<double>> grid(points);
  for (auto& point : grid) point = {0.2 + 0.75 * rng.NextUnit()};
  return grid;
}

namespace {

void AppendNumber(std::string& out, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

}  // namespace

std::string QueryJson(const ppref::net::WireRequest& request) {
  const auto& rim = request.model.model();
  const unsigned m = rim.size();
  std::string out = "{\"id\":" + std::to_string(request.id) + ",\"kind\":\"";
  out += request.kind == ppref::serve::Request::Kind::kPatternProb
             ? "pattern_prob"
             : "top_matching";
  out += "\",\"model\":{\"reference\":[";
  for (unsigned i = 0; i < m; ++i) {
    if (i > 0) out += ',';
    out += std::to_string(rim.reference().At(i));
  }
  out += "],\"insertion\":{\"rows\":[";
  for (unsigned t = 0; t < m; ++t) {
    if (t > 0) out += ',';
    out += '[';
    const std::vector<double>& row = rim.insertion().Row(t);
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (j > 0) out += ',';
      AppendNumber(out, row[j]);
    }
    out += ']';
  }
  out += "]},\"labels\":[";
  for (unsigned item = 0; item < m; ++item) {
    if (item > 0) out += ',';
    out += '[';
    const auto& labels = request.model.labeling().LabelsOf(item);
    for (std::size_t j = 0; j < labels.size(); ++j) {
      if (j > 0) out += ',';
      out += std::to_string(labels[j]);
    }
    out += ']';
  }
  out += "]},\"pattern\":{\"nodes\":[";
  const auto& pattern = request.pattern;
  for (unsigned node = 0; node < pattern.NodeCount(); ++node) {
    if (node > 0) out += ',';
    out += std::to_string(pattern.NodeLabel(node));
  }
  out += "],\"edges\":[";
  bool first = true;
  for (unsigned node = 0; node < pattern.NodeCount(); ++node) {
    for (const unsigned child : pattern.Children(node)) {
      if (!first) out += ',';
      first = false;
      out += '[' + std::to_string(node) + ',' + std::to_string(child) + ']';
    }
  }
  out += "]}}";
  return out;
}

}  // namespace perfbench
