/// \file golden_test.cc
/// \brief Wire-format pins: the exact bytes of one fixed sample per binary
/// body, and the exact JSON text of each response shape. The round-trip
/// suites (codec_test.cc) pass for any encoder and decoder changed together;
/// these fail on a change that would break a deployed peer. Each binary
/// golden is checked both ways: the encoder must produce it, and the
/// decoder must read it back to a value that re-encodes to it.

#include <string>
#include <string_view>

#include "gtest/gtest.h"
#include "ppref/infer/labeling.h"
#include "ppref/net/codec.h"
#include "ppref/net/http.h"
#include "ppref/rim/insertion.h"
#include "ppref/rim/ranking.h"
#include "ppref/rim/rim_model.h"

namespace ppref::net {
namespace {

/// m = 3 with a non-identity reference, exactly representable insertion
/// rows, and an item carrying two labels.
infer::LabeledRimModel GoldenModel() {
  infer::ItemLabeling labeling(3);
  labeling.AddLabel(0, 0);
  labeling.AddLabel(1, 1);
  labeling.AddLabel(1, 2);
  return infer::LabeledRimModel(
      rim::RimModel(rim::Ranking({2, 0, 1}),
                    rim::InsertionFunction(
                        {{1.0}, {0.25, 0.75}, {0.5, 0.25, 0.25}})),
      std::move(labeling));
}

/// Label 0 before label 1.
infer::LabelPattern GoldenPattern() {
  infer::LabelPattern pattern;
  pattern.AddNode(0);
  pattern.AddNode(1);
  pattern.AddEdge(0, 1);
  return pattern;
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

std::string Unhex(std::string_view hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out += static_cast<char>(std::stoi(std::string(hex.substr(i, 2)), nullptr,
                                       16));
  }
  return out;
}

// A keyed top-matching request: id 0x0102030405060708, deadline 5 ms,
// idempotency key 0x1122334455667788.
constexpr std::string_view kRequestGolden =
    "080706050403020101010000404b4c0000000000887766554433221103000000"
    "020000000000000001000000000000000000f03f000000000000d03f00000000"
    "0000e83f000000000000e03f000000000000d03f000000000000d03f01000000"
    "0000000002000000010000000200000000000000020000000000000001000000"
    "010000000000000001000000";

// id 9, deadline 1 µs, points {0.5} and {0.25, 0.5, 1.0}.
constexpr std::string_view kSweepRequestGolden =
    "84000000090000000000000000000000e8030000000000000300000002000000"
    "0000000001000000000000000000f03f000000000000d03f000000000000e83f"
    "000000000000e03f000000000000d03f000000000000d03f0100000000000000"
    "0200000001000000020000000000000002000000000000000100000001000000"
    "00000000010000000200000001000000000000000000e03f0300000000000000"
    "0000d03f000000000000e03f000000000000f03f";

// id 10, deadline 2 µs, target 0.125.
constexpr std::string_view kHardRequestGolden =
    "840000000a0000000000000000000000d0070000000000000300000002000000"
    "0000000001000000000000000000f03f000000000000d03f000000000000e83f"
    "000000000000e03f000000000000d03f000000000000d03f0100000000000000"
    "0200000001000000020000000000000002000000000000000100000001000000"
    "0000000001000000000000000000c03f";

// id 11, no deadline, top_k 2.
constexpr std::string_view kConsensusRequestGolden =
    "740000000b000000000000000000000000000000000000000300000002000000"
    "0000000001000000000000000000f03f000000000000d03f000000000000e83f"
    "000000000000e03f000000000000d03f000000000000d03f0100000000000000"
    "02000000010000000200000000000000000000000000000002000000";

WireResponse SampleResponse() {
  WireResponse response;
  response.id = 12;
  response.probability = 0.375;
  response.top_matching = infer::Matching{2, 1};
  response.approximate = true;
  response.std_error = 0.0625;
  response.retry_after_ns = 7;
  return response;
}

WireSweepResponse SampleSweepResponse() {
  WireSweepResponse response;
  response.id = 13;
  response.status = Status::DeadlineExceeded("run deadline exceeded");
  return response;
}

WireHardResponse SampleHardResponse() {
  WireHardResponse response;
  response.id = 14;
  response.estimate = 0.5;
  response.std_error = 0.015625;
  response.n_samples = 4096;
  response.target_met = true;
  return response;
}

WireConsensusResponse SampleConsensusResponse() {
  WireConsensusResponse response;
  response.id = 15;
  response.ranking = {2, 0};
  response.mean_footrule = 1.5;
  response.footrule_std_error = 0.25;
  response.mean_kendall = 0.75;
  response.kendall_std_error = 0.125;
  response.n_samples = 4096;
  return response;
}

constexpr std::string_view kResponseGolden =
    "0c000000000000000001010000000000000000000000d83f000000000000b03f"
    "0700000000000000020000000200000001000000";

constexpr std::string_view kSweepResponseGolden =
    "0d00000000000000020000001500000072756e20646561646c696e6520657863"
    "656564656400000000";

constexpr std::string_view kHardResponseGolden =
    "0e000000000000000001000000000000000000000000e03f000000000000903f"
    "0010000000000000";

constexpr std::string_view kConsensusResponseGolden =
    "0f00000000000000000000000000000002000000020000000000000000000000"
    "0000f83f000000000000d03f000000000000e83f000000000000c03f00100000"
    "00000000";

TEST(NetGoldenTest, RequestBodiesAreByteStable) {
  WireRequest request(0x0102030405060708ull,
                      serve::Request::Kind::kTopMatching, 5'000'000,
                      GoldenModel(), GoldenPattern());
  request.idempotency_key = 0x1122334455667788ull;
  EXPECT_EQ(Hex(EncodeRequest(request)), kRequestGolden);
  StatusOr<WireRequest> decoded = DecodeRequest(Unhex(kRequestGolden));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(Hex(EncodeRequest(*decoded)), kRequestGolden);

  const WireSweepRequest sweep(9, 1'000, GoldenModel(), GoldenPattern(),
                               {{0.5}, {0.25, 0.5, 1.0}});
  EXPECT_EQ(Hex(EncodeSweepRequest(sweep)), kSweepRequestGolden);
  StatusOr<WireSweepRequest> sweep_decoded =
      DecodeSweepRequest(Unhex(kSweepRequestGolden));
  ASSERT_TRUE(sweep_decoded.ok()) << sweep_decoded.status().ToString();
  EXPECT_EQ(Hex(EncodeSweepRequest(*sweep_decoded)), kSweepRequestGolden);

  const WireHardRequest hard(10, 2'000, 0.125, GoldenModel(),
                             GoldenPattern());
  EXPECT_EQ(Hex(EncodeHardRequest(hard)), kHardRequestGolden);
  StatusOr<WireHardRequest> hard_decoded =
      DecodeHardRequest(Unhex(kHardRequestGolden));
  ASSERT_TRUE(hard_decoded.ok()) << hard_decoded.status().ToString();
  EXPECT_EQ(Hex(EncodeHardRequest(*hard_decoded)), kHardRequestGolden);

  const WireConsensusRequest consensus(11, 0, 2, GoldenModel());
  EXPECT_EQ(Hex(EncodeConsensusRequest(consensus)), kConsensusRequestGolden);
  StatusOr<WireConsensusRequest> consensus_decoded =
      DecodeConsensusRequest(Unhex(kConsensusRequestGolden));
  ASSERT_TRUE(consensus_decoded.ok())
      << consensus_decoded.status().ToString();
  EXPECT_EQ(Hex(EncodeConsensusRequest(*consensus_decoded)),
            kConsensusRequestGolden);
}

TEST(NetGoldenTest, ResponseBodiesAreByteStable) {
  EXPECT_EQ(Hex(EncodeResponse(SampleResponse())), kResponseGolden);
  StatusOr<WireResponse> decoded = DecodeResponse(Unhex(kResponseGolden));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(Hex(EncodeResponse(*decoded)), kResponseGolden);

  EXPECT_EQ(Hex(EncodeSweepResponse(SampleSweepResponse())),
            kSweepResponseGolden);
  StatusOr<WireSweepResponse> sweep =
      DecodeSweepResponse(Unhex(kSweepResponseGolden));
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  EXPECT_EQ(sweep->status.message(), "run deadline exceeded");
  EXPECT_EQ(Hex(EncodeSweepResponse(*sweep)), kSweepResponseGolden);

  EXPECT_EQ(Hex(EncodeHardResponse(SampleHardResponse())),
            kHardResponseGolden);
  StatusOr<WireHardResponse> hard =
      DecodeHardResponse(Unhex(kHardResponseGolden));
  ASSERT_TRUE(hard.ok()) << hard.status().ToString();
  EXPECT_EQ(Hex(EncodeHardResponse(*hard)), kHardResponseGolden);

  EXPECT_EQ(Hex(EncodeConsensusResponse(SampleConsensusResponse())),
            kConsensusResponseGolden);
  StatusOr<WireConsensusResponse> consensus =
      DecodeConsensusResponse(Unhex(kConsensusResponseGolden));
  ASSERT_TRUE(consensus.ok()) << consensus.status().ToString();
  EXPECT_EQ(Hex(EncodeConsensusResponse(*consensus)),
            kConsensusResponseGolden);
}

TEST(NetGoldenTest, ResponseJsonIsTextStable) {
  EXPECT_EQ(JsonFromWireResponse(SampleResponse()),
            "{\"id\":12,\"status\":\"OK\",\"message\":\"\","
            "\"probability\":0.375,\"approximate\":true,\"std_error\":0.0625,"
            "\"retry_after_ns\":7,\"top_matching\":[2,1]}");
  EXPECT_EQ(JsonFromWireSweepResponse(SampleSweepResponse()),
            "{\"id\":13,\"status\":\"DEADLINE_EXCEEDED\","
            "\"message\":\"run deadline exceeded\",\"probabilities\":[]}");
  EXPECT_EQ(JsonFromWireHardResponse(SampleHardResponse()),
            "{\"id\":14,\"status\":\"OK\",\"message\":\"\",\"estimate\":0.5,"
            "\"std_error\":0.015625,\"n_samples\":4096,\"target_met\":true,"
            "\"deadline_limited\":false}");
  EXPECT_EQ(JsonFromWireConsensusResponse(SampleConsensusResponse()),
            "{\"id\":15,\"status\":\"OK\",\"message\":\"\",\"ranking\":[2,0],"
            "\"mean_footrule\":1.5,\"footrule_std_error\":0.25,"
            "\"mean_kendall\":0.75,\"kendall_std_error\":0.125,"
            "\"n_samples\":4096}");
}

}  // namespace
}  // namespace ppref::net
