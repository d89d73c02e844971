#include "ppref/net/codec.h"

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "ppref/common/bytes.h"
#include "ppref/infer/labeling.h"
#include "ppref/rim/insertion.h"
#include "ppref/rim/ranking.h"
#include "ppref/rim/rim_model.h"

namespace ppref::net {
namespace {

// Writers append with common/bytes.h's Put* helpers. Readers are its sticky
// ByteReader: every decoder checks ok() before it uses a value read, so a
// truncated body is never read past its end and each truncation reports the
// message of the first field it cut.

Status Malformed(std::string_view what) {
  return Status::InvalidArgument("malformed request body: " +
                                 std::string(what));
}

/// The error of every response decoder; `what` names the body.
Status Unreadable(std::string_view what) {
  return Status::InvalidArgument("malformed " + std::string(what));
}

/// Writes a standard request body: the one writer behind EncodeRequest and
/// the base request every composite body embeds. Model and pattern are read
/// in place.
void WriteBase(std::string& out, std::uint64_t id, serve::Request::Kind kind,
               std::uint64_t deadline_ns, std::uint64_t idempotency_key,
               const infer::LabeledRimModel& labeled,
               const infer::LabelPattern& pattern) {
  PutU64(out, id);
  PutU8(out, static_cast<std::uint8_t>(kind));
  PutU8(out, idempotency_key != 0 ? kRequestFlagIdempotencyKey : 0);
  PutU8(out, 0);
  PutU8(out, 0);
  PutU64(out, deadline_ns);
  if (idempotency_key != 0) PutU64(out, idempotency_key);

  const rim::RimModel& model = labeled.model();
  const unsigned m = model.size();
  PutU32(out, m);
  for (unsigned p = 0; p < m; ++p) PutU32(out, model.reference().At(p));
  for (unsigned t = 0; t < m; ++t) {
    for (double prob : model.insertion().Row(t)) PutDouble(out, prob);
  }
  const infer::ItemLabeling& labeling = labeled.labeling();
  for (unsigned item = 0; item < m; ++item) {
    const std::vector<infer::LabelId>& labels = labeling.LabelsOf(item);
    PutU32(out, static_cast<std::uint32_t>(labels.size()));
    for (infer::LabelId label : labels) PutU32(out, label);
  }

  const unsigned nodes = pattern.NodeCount();
  PutU32(out, nodes);
  for (unsigned node = 0; node < nodes; ++node) {
    PutU32(out, pattern.NodeLabel(node));
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (unsigned from = 0; from < nodes; ++from) {
    for (unsigned to : pattern.Children(from)) edges.emplace_back(from, to);
  }
  PutU32(out, static_cast<std::uint32_t>(edges.size()));
  for (const auto& [from, to] : edges) {
    PutU32(out, from);
    PutU32(out, to);
  }
}

/// Opens a composite body: its base request, a pattern_prob request body,
/// behind a u32 length prefix.
std::string WriteCompositeBase(std::uint64_t id, std::uint64_t deadline_ns,
                               const infer::LabeledRimModel& model,
                               const infer::LabelPattern& pattern) {
  std::string out;
  PutU32(out, 0);  // base_len, patched once the base is written
  WriteBase(out, id, serve::Request::Kind::kPatternProb, deadline_ns,
            /*idempotency_key=*/0, model, pattern);
  PatchU32(out, 0, static_cast<std::uint32_t>(out.size() - 4));
  return out;
}

/// Reads a composite body's length-prefixed base request under
/// DecodeRequest's rules; `what` names the kind in error messages.
StatusOr<WireRequest> ReadCompositeBase(ByteReader& r,
                                        const std::string& what) {
  const std::uint32_t base_len = r.U32();
  const std::string_view base = r.Bytes(base_len);
  if (!r.ok()) return Malformed("truncated " + what + " base request");
  StatusOr<WireRequest> decoded = DecodeRequest(base);
  if (decoded.ok() && decoded->kind != serve::Request::Kind::kPatternProb) {
    return Malformed(what + " base request kind must be pattern_prob");
  }
  return decoded;
}

/// Writes the status preamble every response body opens with: the echoed
/// id, the status code, two flag bytes (zero for kinds without flags), a
/// reserved zero byte, and the length-prefixed message.
void WriteStatus(std::string& out, std::uint64_t id, const Status& status,
                 bool flag_a = false, bool flag_b = false) {
  PutU64(out, id);
  PutU8(out, static_cast<std::uint8_t>(status.code()));
  PutU8(out, flag_a ? 1 : 0);
  PutU8(out, flag_b ? 1 : 0);
  PutU8(out, 0);
  PutU32(out, static_cast<std::uint32_t>(status.message().size()));
  out.append(status.message());
}

/// Reads the status preamble; false when it is truncated or out of range (a
/// code past kInternal, a flag above 1, a nonzero reserved byte).
bool ReadStatus(ByteReader& r, std::uint64_t* id, Status* status,
                bool* flag_a, bool* flag_b) {
  *id = r.U64();
  const std::uint8_t code = r.U8();
  std::uint8_t flags[3] = {};
  for (std::uint8_t& flag : flags) flag = r.U8();
  const std::uint32_t message_len = r.U32();
  const std::string_view message = r.Bytes(message_len);
  if (!r.ok() || code > static_cast<std::uint8_t>(StatusCode::kInternal) ||
      flags[0] > 1 || flags[1] > 1 || flags[2] != 0) {
    return false;
  }
  *status = Status(static_cast<StatusCode>(code), std::string(message));
  *flag_a = flags[0] != 0;
  *flag_b = flags[1] != 0;
  return true;
}

/// ReadStatus for the kinds whose flag bytes are reserved (must be zero).
bool ReadStatus(ByteReader& r, std::uint64_t* id, Status* status) {
  bool flag_a = false;
  bool flag_b = false;
  return ReadStatus(r, id, status, &flag_a, &flag_b) && !flag_a && !flag_b;
}

}  // namespace

// ---------------------------------------------------------------------------
// Request

std::string EncodeRequest(const WireRequest& request) {
  std::string out;
  WriteBase(out, request.id, request.kind, request.deadline_ns,
            request.idempotency_key, request.model, request.pattern);
  return out;
}

StatusOr<WireRequest> DecodeRequest(std::string_view body) {
  ByteReader r(body);
  const std::uint64_t id = r.U64();
  const std::uint8_t kind = r.U8();
  const std::uint8_t flags = r.U8();
  std::uint8_t reserved[2] = {};
  for (std::uint8_t& byte : reserved) byte = r.U8();
  const std::uint64_t deadline_ns = r.U64();
  if (!r.ok()) return Malformed("truncated preamble");
  if (kind > static_cast<std::uint8_t>(serve::Request::Kind::kTopMatching)) {
    return Malformed("unknown request kind");
  }
  if ((flags & ~kRequestFlagIdempotencyKey) != 0) {
    return Malformed("unknown request flags");
  }
  if (reserved[0] != 0 || reserved[1] != 0) {
    return Malformed("nonzero reserved bytes");
  }
  std::uint64_t idempotency_key = 0;
  if ((flags & kRequestFlagIdempotencyKey) != 0) {
    idempotency_key = r.U64();
    if (!r.ok()) return Malformed("truncated preamble");
    if (idempotency_key == 0) return Malformed("zero idempotency key");
  }

  // Model: reference ranking. Must be a permutation of 0..m-1 — the Ranking
  // constructor PPREF_CHECKs exactly that, so verify before constructing.
  const std::uint32_t m = r.U32();
  if (!r.ok()) return Malformed("truncated item count");
  if (m == 0 || m > kMaxWireItems) return Malformed("item count out of range");
  std::vector<rim::ItemId> order(m);
  std::vector<bool> seen(m, false);
  for (std::uint32_t p = 0; p < m; ++p) {
    order[p] = r.U32();
    if (!r.ok()) return Malformed("truncated reference ranking");
    if (order[p] >= m || seen[order[p]]) {
      return Malformed("reference ranking is not a permutation");
    }
    seen[order[p]] = true;
  }

  // Insertion rows: row t has t+1 finite non-negative entries summing to 1
  // within the InsertionFunction tolerance (again, pre-validating the
  // constructor's checks).
  std::vector<std::vector<double>> rows(m);
  for (std::uint32_t t = 0; t < m; ++t) {
    rows[t].resize(t + 1);
    double sum = 0.0;
    for (std::uint32_t j = 0; j <= t; ++j) {
      rows[t][j] = r.Double();
      if (!r.ok()) return Malformed("truncated insertion rows");
      if (!std::isfinite(rows[t][j]) || rows[t][j] < 0.0) {
        return Malformed("insertion probability not in [0, 1]");
      }
      sum += rows[t][j];
    }
    if (std::abs(sum - 1.0) > rim::InsertionFunction::kRowSumTolerance) {
      return Malformed("insertion row does not sum to 1");
    }
  }

  // Labeling: per-item label lists, bounded.
  infer::ItemLabeling labeling(m);
  for (std::uint32_t item = 0; item < m; ++item) {
    const std::uint32_t count = r.U32();
    if (!r.ok()) return Malformed("truncated labeling");
    if (count > kMaxWireLabelsPerItem) {
      return Malformed("too many labels on one item");
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t label = r.U32();
      if (!r.ok()) return Malformed("truncated labeling");
      labeling.AddLabel(item, label);
    }
  }

  // Pattern: distinct node labels (AddNode aborts on a duplicate), edges
  // over valid node indices without self-loops (AddEdge aborts on both).
  const std::uint32_t node_count = r.U32();
  if (!r.ok()) return Malformed("truncated pattern");
  if (node_count > kMaxWireNodes) return Malformed("too many pattern nodes");
  infer::LabelPattern pattern;
  std::vector<std::uint32_t> node_labels(node_count);
  for (std::uint32_t node = 0; node < node_count; ++node) {
    node_labels[node] = r.U32();
    if (!r.ok()) return Malformed("truncated pattern");
    for (std::uint32_t prev = 0; prev < node; ++prev) {
      if (node_labels[prev] == node_labels[node]) {
        return Malformed("duplicate pattern node label");
      }
    }
    pattern.AddNode(node_labels[node]);
  }
  const std::uint32_t edge_count = r.U32();
  if (!r.ok()) return Malformed("truncated pattern edges");
  if (edge_count > node_count * node_count) {
    return Malformed("edge count out of range");
  }
  for (std::uint32_t e = 0; e < edge_count; ++e) {
    const std::uint32_t from = r.U32();
    const std::uint32_t to = r.U32();
    if (!r.ok()) return Malformed("truncated pattern edges");
    if (from >= node_count || to >= node_count) {
      return Malformed("edge endpoint out of range");
    }
    if (from == to) return Malformed("self-loop edge");
    pattern.AddEdge(from, to);
  }

  if (r.remaining() != 0) return Malformed("trailing bytes");

  WireRequest request(
      id, static_cast<serve::Request::Kind>(kind), deadline_ns,
      infer::LabeledRimModel(
          rim::RimModel(rim::Ranking(std::move(order)),
                        rim::InsertionFunction(std::move(rows))),
          std::move(labeling)),
      std::move(pattern));
  request.idempotency_key = idempotency_key;
  return request;
}

std::uint64_t PeekIdempotencyKey(std::string_view body) {
  // Preamble: id(8) kind(1) flags(1) reserved(2) deadline(8) [key(8)].
  if (body.size() < 28) return 0;
  const auto flags = static_cast<std::uint8_t>(body[9]);
  if ((flags & kRequestFlagIdempotencyKey) == 0) return 0;
  return LoadU64(body.data() + 20);
}

// ---------------------------------------------------------------------------
// Response

std::string EncodeResponse(const WireResponse& response) {
  std::string out;
  WriteStatus(out, response.id, response.status, response.approximate,
              response.top_matching.has_value());
  PutDouble(out, response.probability);
  PutDouble(out, response.std_error);
  PutU64(out, response.retry_after_ns);
  if (response.top_matching.has_value()) {
    PutU32(out, static_cast<std::uint32_t>(response.top_matching->size()));
    for (rim::ItemId item : *response.top_matching) PutU32(out, item);
  }
  return out;
}

StatusOr<WireResponse> DecodeResponse(std::string_view body) {
  ByteReader r(body);
  WireResponse response;
  bool has_matching = false;
  if (!ReadStatus(r, &response.id, &response.status, &response.approximate,
                  &has_matching)) {
    return Unreadable("response body");
  }
  response.probability = r.Double();
  response.std_error = r.Double();
  response.retry_after_ns = r.U64();
  if (has_matching) {
    const std::uint32_t match_len = r.U32();
    if (!r.ok() || match_len > kMaxWireNodes) {
      return Unreadable("response body");
    }
    infer::Matching matching(match_len);
    for (rim::ItemId& item : matching) item = r.U32();
    response.top_matching = std::move(matching);
  }
  if (!r.ok() || r.remaining() != 0) return Unreadable("response body");
  return response;
}

// ---------------------------------------------------------------------------
// Sweep request / response

std::string EncodeSweepRequest(const WireSweepRequest& request) {
  std::string out = WriteCompositeBase(request.id, request.deadline_ns,
                                       request.model, request.pattern);
  PutU32(out, static_cast<std::uint32_t>(request.params.size()));
  for (const std::vector<double>& point : request.params) {
    PutU32(out, static_cast<std::uint32_t>(point.size()));
    for (double phi : point) PutDouble(out, phi);
  }
  return out;
}

StatusOr<WireSweepRequest> DecodeSweepRequest(std::string_view body) {
  ByteReader r(body);
  StatusOr<WireRequest> decoded = ReadCompositeBase(r, "sweep");
  if (!decoded.ok()) return decoded.status();
  const unsigned m = decoded->model.model().size();

  const std::uint32_t point_count = r.U32();
  if (!r.ok()) return Malformed("truncated sweep point count");
  if (point_count > kMaxWirePoints) {
    return Malformed("too many sweep points");
  }
  std::vector<std::vector<double>> params;
  params.reserve(point_count);
  for (std::uint32_t p = 0; p < point_count; ++p) {
    const std::uint32_t len = r.U32();
    if (!r.ok()) return Malformed("truncated sweep point");
    if (len != 1 && len != m) {
      return Malformed("sweep point arity must be 1 or m");
    }
    std::vector<double> point(len);
    for (std::uint32_t i = 0; i < len; ++i) {
      point[i] = r.Double();
      if (!r.ok()) return Malformed("truncated sweep point");
      // `!(x > 0 && x <= 1)` rather than the complement so NaN fails too.
      if (!std::isfinite(point[i]) ||
          !(point[i] > 0.0 && point[i] <= 1.0)) {
        return Malformed("sweep dispersion not in (0, 1]");
      }
    }
    params.push_back(std::move(point));
  }
  if (r.remaining() != 0) return Malformed("trailing bytes");

  WireRequest& base = decoded.value();
  return WireSweepRequest(base.id, base.deadline_ns, std::move(base.model),
                          std::move(base.pattern), std::move(params));
}

std::string EncodeSweepResponse(const WireSweepResponse& response) {
  std::string out;
  WriteStatus(out, response.id, response.status);
  PutU32(out, static_cast<std::uint32_t>(response.probabilities.size()));
  for (double p : response.probabilities) PutDouble(out, p);
  return out;
}

StatusOr<WireSweepResponse> DecodeSweepResponse(std::string_view body) {
  ByteReader r(body);
  WireSweepResponse response;
  if (!ReadStatus(r, &response.id, &response.status)) {
    return Unreadable("sweep response body");
  }
  const std::uint32_t count = r.U32();
  if (!r.ok() || count > kMaxWirePoints) {
    return Unreadable("sweep response body");
  }
  response.probabilities.resize(count);
  for (double& p : response.probabilities) p = r.Double();
  if (!r.ok() || r.remaining() != 0) return Unreadable("sweep response body");
  return response;
}

// ---------------------------------------------------------------------------
// Hard request / response

std::string EncodeHardRequest(const WireHardRequest& request) {
  std::string out = WriteCompositeBase(request.id, request.deadline_ns,
                                       request.model, request.pattern);
  PutDouble(out, request.target_half_width);
  return out;
}

StatusOr<WireHardRequest> DecodeHardRequest(std::string_view body) {
  ByteReader r(body);
  StatusOr<WireRequest> decoded = ReadCompositeBase(r, "hard");
  if (!decoded.ok()) return decoded.status();
  const double target = r.Double();
  if (!r.ok()) return Malformed("truncated hard target");
  // `!(x >= 0 && x <= 1)` rather than the complement so NaN fails too.
  if (!(target >= 0.0 && target <= 1.0)) {
    return Malformed("hard target not in [0, 1]");
  }
  if (r.remaining() != 0) return Malformed("trailing bytes");

  WireRequest& base = decoded.value();
  return WireHardRequest(base.id, base.deadline_ns, target,
                         std::move(base.model), std::move(base.pattern));
}

std::string EncodeHardResponse(const WireHardResponse& response) {
  std::string out;
  WriteStatus(out, response.id, response.status, response.target_met,
              response.deadline_limited);
  PutDouble(out, response.estimate);
  PutDouble(out, response.std_error);
  PutU64(out, response.n_samples);
  return out;
}

StatusOr<WireHardResponse> DecodeHardResponse(std::string_view body) {
  ByteReader r(body);
  WireHardResponse response;
  if (!ReadStatus(r, &response.id, &response.status, &response.target_met,
                  &response.deadline_limited)) {
    return Unreadable("hard response body");
  }
  response.estimate = r.Double();
  response.std_error = r.Double();
  response.n_samples = r.U64();
  if (!r.ok() || r.remaining() != 0) return Unreadable("hard response body");
  return response;
}

// ---------------------------------------------------------------------------
// Consensus request / response

std::string EncodeConsensusRequest(const WireConsensusRequest& request) {
  std::string out = WriteCompositeBase(request.id, request.deadline_ns,
                                       request.model, infer::LabelPattern());
  PutU32(out, request.top_k);
  return out;
}

StatusOr<WireConsensusRequest> DecodeConsensusRequest(std::string_view body) {
  ByteReader r(body);
  StatusOr<WireRequest> decoded = ReadCompositeBase(r, "consensus");
  if (!decoded.ok()) return decoded.status();
  if (decoded->pattern.NodeCount() != 0) {
    return Malformed("consensus base pattern must be empty");
  }
  const std::uint32_t top_k = r.U32();
  if (!r.ok()) return Malformed("truncated consensus top_k");
  if (top_k == 0 || top_k > kMaxWireItems) {
    return Malformed("consensus top_k out of range");
  }
  if (r.remaining() != 0) return Malformed("trailing bytes");

  WireRequest& base = decoded.value();
  return WireConsensusRequest(base.id, base.deadline_ns, top_k,
                              std::move(base.model));
}

std::string EncodeConsensusResponse(const WireConsensusResponse& response) {
  std::string out;
  WriteStatus(out, response.id, response.status);
  PutU32(out, static_cast<std::uint32_t>(response.ranking.size()));
  for (rim::ItemId item : response.ranking) PutU32(out, item);
  PutDouble(out, response.mean_footrule);
  PutDouble(out, response.footrule_std_error);
  PutDouble(out, response.mean_kendall);
  PutDouble(out, response.kendall_std_error);
  PutU64(out, response.n_samples);
  return out;
}

StatusOr<WireConsensusResponse> DecodeConsensusResponse(std::string_view body) {
  ByteReader r(body);
  WireConsensusResponse response;
  if (!ReadStatus(r, &response.id, &response.status)) {
    return Unreadable("consensus response body");
  }
  const std::uint32_t ranking_len = r.U32();
  if (!r.ok() || ranking_len > kMaxWireItems) {
    return Unreadable("consensus response body");
  }
  response.ranking.resize(ranking_len);
  for (rim::ItemId& item : response.ranking) item = r.U32();
  response.mean_footrule = r.Double();
  response.footrule_std_error = r.Double();
  response.mean_kendall = r.Double();
  response.kendall_std_error = r.Double();
  response.n_samples = r.U64();
  if (!r.ok() || r.remaining() != 0) {
    return Unreadable("consensus response body");
  }
  return response;
}

}  // namespace ppref::net
