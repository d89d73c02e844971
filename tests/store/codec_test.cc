#include "ppref/store/codec.h"

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "ppref/circuit/circuit.h"
#include "ppref/circuit/compile.h"
#include "ppref/infer/internal/dp_plan.h"
#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/labeling.h"
#include "ppref/infer/pattern.h"
#include "ppref/rim/insertion.h"
#include "ppref/rim/ranking.h"
#include "ppref/rim/rim_model.h"

namespace ppref::store {
namespace {

infer::LabeledRimModel TestModel(unsigned m, double phi) {
  std::vector<rim::ItemId> order;
  for (unsigned i = 0; i < m; ++i) order.push_back(m - 1 - i);
  infer::ItemLabeling labeling(m);
  for (unsigned item = 0; item < m; ++item) {
    labeling.AddLabel(item, item % 3);
    if (item % 2 == 0) labeling.AddLabel(item, 5);
  }
  return infer::LabeledRimModel(
      rim::RimModel(rim::Ranking(std::move(order)),
                    rim::InsertionFunction::Mallows(m, phi)),
      std::move(labeling));
}

infer::LabelPattern ChainPattern() {
  infer::LabelPattern pattern;
  pattern.AddNode(0);
  pattern.AddNode(1);
  pattern.AddNode(2);
  pattern.AddEdge(0, 1);
  pattern.AddEdge(1, 2);
  return pattern;
}

TEST(StoreCodecTest, CircuitRoundTripEvaluatesBitIdentically) {
  const infer::LabeledRimModel model = TestModel(6, 0.5);
  const infer::LabelPattern pattern = ChainPattern();
  const infer::internal::DpPlan plan(model, pattern, {});
  const circuit::Circuit circuit = circuit::CompilePatternProb(plan);

  const std::string payload = EncodeCircuitPayload(circuit);
  std::optional<circuit::Circuit> decoded =
      DecodeCircuitPayload(payload, nullptr);
  ASSERT_TRUE(decoded.has_value());

  circuit::EvalScratch scratch_a;
  circuit::EvalScratch scratch_b;
  for (double phi : {0.2, 0.5, 0.77, 1.0}) {
    const rim::InsertionFunction pi =
        rim::InsertionFunction::Mallows(model.size(), phi);
    EXPECT_EQ(decoded->Evaluate(pi, scratch_a), circuit.Evaluate(pi, scratch_b));
  }
}

TEST(StoreCodecTest, CircuitZeroCopyBorrowsAlignedArena) {
  const infer::LabeledRimModel model = TestModel(5, 0.3);
  const infer::LabelPattern pattern = ChainPattern();
  const infer::internal::DpPlan plan(model, pattern, {});
  const circuit::Circuit circuit = circuit::CompilePatternProb(plan);
  const std::string payload = EncodeCircuitPayload(circuit);

  // Stage the payload at a guaranteed-16-aligned address, as a mapped
  // segment would serve it.
  auto holder = std::make_shared<std::vector<char>>(payload.size() + 16);
  char* base = holder->data();
  char* aligned =
      base + (16 - reinterpret_cast<std::uintptr_t>(base) % 16) % 16;
  std::memcpy(aligned, payload.data(), payload.size());

  std::optional<circuit::Circuit> decoded = DecodeCircuitPayload(
      std::string_view(aligned, payload.size()), holder);
  ASSERT_TRUE(decoded.has_value());
  // The borrowed arena points into the staged buffer, not a copy.
  EXPECT_GE(reinterpret_cast<const char*>(decoded->arena()), aligned);
  EXPECT_LT(reinterpret_cast<const char*>(decoded->arena()),
            aligned + payload.size());

  circuit::EvalScratch scratch_a;
  circuit::EvalScratch scratch_b;
  const rim::InsertionFunction pi =
      rim::InsertionFunction::Mallows(model.size(), 0.9);
  EXPECT_EQ(decoded->Evaluate(pi, scratch_a), circuit.Evaluate(pi, scratch_b));
}

TEST(StoreCodecTest, CircuitDecodeRejectsCorruptTopology) {
  const infer::LabeledRimModel model = TestModel(5, 0.3);
  const infer::LabelPattern pattern = ChainPattern();
  const infer::internal::DpPlan plan(model, pattern, {});
  const std::string payload =
      EncodeCircuitPayload(circuit::CompilePatternProb(plan));

  for (std::size_t n = 0; n < std::min<std::size_t>(payload.size(), 96); ++n) {
    DecodeCircuitPayload(std::string_view(payload.data(), n), nullptr);
  }
  for (std::size_t at = 0; at < payload.size(); at += 5) {
    std::string corrupt = payload;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x2A);
    // Either rejected or structurally valid — evaluating must stay in
    // bounds under ASan whichever way the validation went. A corrupt
    // `items` field can decode to a valid circuit over a *different* m;
    // binding it is then the caller's CHECK, not the decoder's problem.
    if (auto decoded = DecodeCircuitPayload(corrupt, nullptr)) {
      if (decoded->items() != model.size()) continue;
      circuit::EvalScratch scratch;
      decoded->Evaluate(rim::InsertionFunction::Mallows(model.size(), 0.5),
                        scratch);
    }
  }
}

TEST(StoreCodecTest, ResultRoundTrip) {
  const infer::Matching matching = {3, 0, 2};
  const std::string payload = EncodeResultPayload(0.1234567890123456789,
                                                  matching);
  const std::optional<DecodedResult> decoded = DecodeResultPayload(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->probability, 0.1234567890123456789);
  ASSERT_TRUE(decoded->top_matching.has_value());
  EXPECT_EQ(*decoded->top_matching, matching);

  const std::string bare = EncodeResultPayload(0.0, std::nullopt);
  const std::optional<DecodedResult> bare_decoded = DecodeResultPayload(bare);
  ASSERT_TRUE(bare_decoded.has_value());
  EXPECT_EQ(bare_decoded->probability, 0.0);
  EXPECT_FALSE(bare_decoded->top_matching.has_value());
}

TEST(StoreCodecTest, ResultDecodeRejectsTruncation) {
  const std::string payload = EncodeResultPayload(0.5, infer::Matching{1, 2});
  for (std::size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(
        DecodeResultPayload(std::string_view(payload.data(), n)).has_value())
        << "truncated to " << n << " bytes";
  }
}

}  // namespace
}  // namespace ppref::store
