#include "ppref/infer/marginals.h"

#include <algorithm>

#include "ppref/common/check.h"

namespace ppref::infer {
namespace {

/// Distribution of the prefix position of reference item `start` right after
/// step `upto` of the insertion process (inclusive); `start <= upto`.
/// Entry p is Pr(item sits at position p among the first upto+1 items).
std::vector<double> PrefixPositionDistribution(const rim::RimModel& model,
                                               unsigned start, unsigned upto) {
  const rim::InsertionFunction& pi = model.insertion();
  std::vector<double> dist(pi.Row(start));  // positions after the item inserts
  for (unsigned t = start + 1; t <= upto; ++t) {
    std::vector<double> next(t + 1, 0.0);
    double shift_prob = 0.0;  // Pr(slot <= p), built incrementally
    for (unsigned p = 0; p < dist.size(); ++p) {
      shift_prob += pi.Prob(t, p);  // slots 0..p push the item back
      next[p + 1] += dist[p] * shift_prob;
      next[p] += dist[p] * (1.0 - shift_prob);
    }
    dist.swap(next);
  }
  return dist;
}

}  // namespace

double PairwiseMarginal(const rim::RimModel& model, rim::ItemId a,
                        rim::ItemId b) {
  PPREF_CHECK(a != b);
  const unsigned t_a = model.reference().PositionOf(a);
  const unsigned t_b = model.reference().PositionOf(b);
  const unsigned first = std::min(t_a, t_b);
  const unsigned second = std::max(t_a, t_b);
  const std::vector<double> dist =
      PrefixPositionDistribution(model, first, second - 1);
  const rim::InsertionFunction& pi = model.insertion();

  // Pr(the second-inserted item lands before the first) given the first sits
  // at position p is Σ_{j <= p} Π(second, j).
  double second_before_first = 0.0;
  double cumulative = 0.0;
  for (unsigned p = 0; p < dist.size(); ++p) {
    cumulative += pi.Prob(second, p);
    second_before_first += dist[p] * cumulative;
  }
  // Relative order is fixed from step `second` on: later insertions shift
  // both items together.
  return (t_a == first) ? 1.0 - second_before_first : second_before_first;
}

std::vector<std::vector<double>> PairwiseMarginalMatrix(
    const rim::RimModel& model) {
  const unsigned m = model.size();
  std::vector<std::vector<double>> matrix(m, std::vector<double>(m, 0.0));
  // Row a fills the upper-triangle cells (a, b > a) and mirrors them.
  for (rim::ItemId a = 0; a < m; ++a) {
    for (rim::ItemId b = a + 1; b < m; ++b) {
      matrix[a][b] = PairwiseMarginal(model, a, b);
      matrix[b][a] = 1.0 - matrix[a][b];
    }
  }
  return matrix;
}

std::vector<double> PositionDistribution(const rim::RimModel& model,
                                         rim::ItemId item) {
  PPREF_CHECK(item < model.size());
  const unsigned start = model.reference().PositionOf(item);
  return PrefixPositionDistribution(model, start, model.size() - 1);
}

double TopKProb(const rim::RimModel& model, rim::ItemId item, unsigned k) {
  const std::vector<double> dist = PositionDistribution(model, item);
  double total = 0.0;
  for (unsigned p = 0; p < std::min<std::size_t>(k, dist.size()); ++p) {
    total += dist[p];
  }
  return total;
}

}  // namespace ppref::infer
