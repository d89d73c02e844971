#include "ppref/net/codec.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "ppref/infer/labeling.h"
#include "ppref/rim/insertion.h"
#include "ppref/rim/ranking.h"
#include "ppref/rim/rim_model.h"

namespace ppref::net {
namespace {

// ---------------------------------------------------------------------------
// Little-endian byte writer / bounds-checked reader.

class Writer {
 public:
  void U8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) U8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  void Bytes(std::string_view bytes) { out_.append(bytes); }
  /// Overwrites the u32 at byte offset `at` (a length known only later).
  void PatchU32(std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_[at + i] = static_cast<char>(v >> (8 * i));
  }
  std::size_t size() const { return out_.size(); }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Every Get* returns false once the input is exhausted; the caller pattern
/// is `if (!reader.U32(&v)) return Malformed(...)`, so a truncated body can
/// never be read past its end.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool U8(std::uint8_t* v) {
    if (offset_ + 1 > data_.size()) return false;
    *v = static_cast<std::uint8_t>(data_[offset_++]);
    return true;
  }
  bool U32(std::uint32_t* v) {
    if (offset_ + 4 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<std::uint32_t>(
                static_cast<unsigned char>(data_[offset_ + i]))
            << (8 * i);
    }
    offset_ += 4;
    return true;
  }
  bool U64(std::uint64_t* v) {
    if (offset_ + 8 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<std::uint64_t>(
                static_cast<unsigned char>(data_[offset_ + i]))
            << (8 * i);
    }
    offset_ += 8;
    return true;
  }
  bool F64(double* v) {
    std::uint64_t bits = 0;
    if (!U64(&bits)) return false;
    *v = std::bit_cast<double>(bits);
    return true;
  }
  bool Bytes(std::size_t n, std::string* v) {
    if (offset_ + n > data_.size() || n > data_.size()) return false;
    v->assign(data_.data() + offset_, n);
    offset_ += n;
    return true;
  }
  bool AtEnd() const { return offset_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t offset_ = 0;
};

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
void WriteBase(Writer& w, std::uint64_t id, serve::Request::Kind kind,
               std::uint64_t deadline_ns, std::uint64_t idempotency_key,
               const infer::LabeledRimModel& labeled,
               const infer::LabelPattern& pattern) {
  w.U64(id);
  w.U8(static_cast<std::uint8_t>(kind));
  w.U8(idempotency_key != 0 ? kRequestFlagIdempotencyKey : 0);
  w.U8(0);
  w.U8(0);
  w.U64(deadline_ns);
  if (idempotency_key != 0) w.U64(idempotency_key);

  const rim::RimModel& model = labeled.model();
  const unsigned m = model.size();
  w.U32(m);
  for (unsigned p = 0; p < m; ++p) w.U32(model.reference().At(p));
  for (unsigned t = 0; t < m; ++t) {
    for (double prob : model.insertion().Row(t)) w.F64(prob);
  }
  const infer::ItemLabeling& labeling = labeled.labeling();
  for (unsigned item = 0; item < m; ++item) {
    const std::vector<infer::LabelId>& labels = labeling.LabelsOf(item);
    w.U32(static_cast<std::uint32_t>(labels.size()));
    for (infer::LabelId label : labels) w.U32(label);
  }

  const unsigned nodes = pattern.NodeCount();
  w.U32(nodes);
  for (unsigned node = 0; node < nodes; ++node) w.U32(pattern.NodeLabel(node));
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (unsigned from = 0; from < nodes; ++from) {
    for (unsigned to : pattern.Children(from)) edges.emplace_back(from, to);
  }
  w.U32(static_cast<std::uint32_t>(edges.size()));
  for (const auto& [from, to] : edges) {
    w.U32(from);
    w.U32(to);
  }
}

/// Opens a composite body: its base request, a pattern_prob request body,
/// behind a u32 length prefix.
Writer WriteCompositeBase(std::uint64_t id, std::uint64_t deadline_ns,
                          const infer::LabeledRimModel& model,
                          const infer::LabelPattern& pattern) {
  Writer w;
  w.U32(0);  // base_len, patched once the base is written
  WriteBase(w, id, serve::Request::Kind::kPatternProb, deadline_ns,
            /*idempotency_key=*/0, model, pattern);
  w.PatchU32(0, static_cast<std::uint32_t>(w.size() - 4));
  return w;
}

/// Reads a composite body's length-prefixed base request under
/// DecodeRequest's rules; `what` names the kind in error messages.
StatusOr<WireRequest> ReadCompositeBase(Reader& r, const std::string& what) {
  std::uint32_t base_len = 0;
  std::string base;
  if (!r.U32(&base_len) || !r.Bytes(base_len, &base)) {
    return Malformed("truncated " + what + " base request");
  }
  StatusOr<WireRequest> decoded = DecodeRequest(base);
  if (decoded.ok() && decoded->kind != serve::Request::Kind::kPatternProb) {
    return Malformed(what + " base request kind must be pattern_prob");
  }
  return decoded;
}

/// Writes the status preamble every response body opens with: the echoed
/// id, the status code, two flag bytes (zero for kinds without flags), a
/// reserved zero byte, and the length-prefixed message.
void WriteStatus(Writer& w, std::uint64_t id, const Status& status,
                 bool flag_a = false, bool flag_b = false) {
  w.U64(id);
  w.U8(static_cast<std::uint8_t>(status.code()));
  w.U8(flag_a ? 1 : 0);
  w.U8(flag_b ? 1 : 0);
  w.U8(0);
  w.U32(static_cast<std::uint32_t>(status.message().size()));
  w.Bytes(status.message());
}

/// Reads the status preamble; false when it is truncated or out of range (a
/// code past kInternal, a flag above 1, a nonzero reserved byte).
bool ReadStatus(Reader& r, std::uint64_t* id, Status* status, bool* flag_a,
                bool* flag_b) {
  std::uint8_t code = 0;
  std::uint8_t flags[3] = {};
  std::uint32_t message_len = 0;
  std::string message;
  if (!r.U64(id) || !r.U8(&code) || !r.U8(&flags[0]) || !r.U8(&flags[1]) ||
      !r.U8(&flags[2]) || !r.U32(&message_len) ||
      !r.Bytes(message_len, &message)) {
    return false;
  }
  if (code > static_cast<std::uint8_t>(StatusCode::kInternal) ||
      flags[0] > 1 || flags[1] > 1 || flags[2] != 0) {
    return false;
  }
  *status = Status(static_cast<StatusCode>(code), std::move(message));
  *flag_a = flags[0] != 0;
  *flag_b = flags[1] != 0;
  return true;
}

/// ReadStatus for the kinds whose flag bytes are reserved (must be zero).
bool ReadStatus(Reader& r, std::uint64_t* id, Status* status) {
  bool flag_a = false;
  bool flag_b = false;
  return ReadStatus(r, id, status, &flag_a, &flag_b) && !flag_a && !flag_b;
}

}  // namespace

// ---------------------------------------------------------------------------
// Request

std::string EncodeRequest(const WireRequest& request) {
  Writer w;
  WriteBase(w, request.id, request.kind, request.deadline_ns,
            request.idempotency_key, request.model, request.pattern);
  return w.Take();
}

StatusOr<WireRequest> DecodeRequest(std::string_view body) {
  Reader r(body);
  std::uint64_t id = 0;
  std::uint8_t kind = 0;
  std::uint8_t flags = 0;
  std::uint64_t deadline_ns = 0;
  std::uint8_t reserved[2];
  if (!r.U64(&id) || !r.U8(&kind) || !r.U8(&flags) || !r.U8(&reserved[0]) ||
      !r.U8(&reserved[1]) || !r.U64(&deadline_ns)) {
    return Malformed("truncated preamble");
  }
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
    if (!r.U64(&idempotency_key)) return Malformed("truncated preamble");
    if (idempotency_key == 0) return Malformed("zero idempotency key");
  }

  // Model: reference ranking. Must be a permutation of 0..m-1 — the Ranking
  // constructor PPREF_CHECKs exactly that, so verify before constructing.
  std::uint32_t m = 0;
  if (!r.U32(&m)) return Malformed("truncated item count");
  if (m == 0 || m > kMaxWireItems) return Malformed("item count out of range");
  std::vector<rim::ItemId> order(m);
  std::vector<bool> seen(m, false);
  for (std::uint32_t p = 0; p < m; ++p) {
    if (!r.U32(&order[p])) return Malformed("truncated reference ranking");
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
      if (!r.F64(&rows[t][j])) return Malformed("truncated insertion rows");
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
    std::uint32_t count = 0;
    if (!r.U32(&count)) return Malformed("truncated labeling");
    if (count > kMaxWireLabelsPerItem) {
      return Malformed("too many labels on one item");
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint32_t label = 0;
      if (!r.U32(&label)) return Malformed("truncated labeling");
      labeling.AddLabel(item, label);
    }
  }

  // Pattern: distinct node labels (AddNode aborts on a duplicate), edges
  // over valid node indices without self-loops (AddEdge aborts on both).
  std::uint32_t node_count = 0;
  if (!r.U32(&node_count)) return Malformed("truncated pattern");
  if (node_count > kMaxWireNodes) return Malformed("too many pattern nodes");
  infer::LabelPattern pattern;
  std::vector<std::uint32_t> node_labels(node_count);
  for (std::uint32_t node = 0; node < node_count; ++node) {
    if (!r.U32(&node_labels[node])) return Malformed("truncated pattern");
    for (std::uint32_t prev = 0; prev < node; ++prev) {
      if (node_labels[prev] == node_labels[node]) {
        return Malformed("duplicate pattern node label");
      }
    }
    pattern.AddNode(node_labels[node]);
  }
  std::uint32_t edge_count = 0;
  if (!r.U32(&edge_count)) return Malformed("truncated pattern edges");
  if (edge_count > node_count * node_count) {
    return Malformed("edge count out of range");
  }
  for (std::uint32_t e = 0; e < edge_count; ++e) {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    if (!r.U32(&from) || !r.U32(&to)) return Malformed("truncated pattern edges");
    if (from >= node_count || to >= node_count) {
      return Malformed("edge endpoint out of range");
    }
    if (from == to) return Malformed("self-loop edge");
    pattern.AddEdge(from, to);
  }

  if (!r.AtEnd()) return Malformed("trailing bytes");

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
  std::uint64_t key = 0;
  for (int i = 0; i < 8; ++i) {
    key |= static_cast<std::uint64_t>(static_cast<unsigned char>(body[20 + i]))
           << (8 * i);
  }
  return key;
}

// ---------------------------------------------------------------------------
// Response

std::string EncodeResponse(const WireResponse& response) {
  Writer w;
  WriteStatus(w, response.id, response.status, response.approximate,
              response.top_matching.has_value());
  w.F64(response.probability);
  w.F64(response.std_error);
  w.U64(response.retry_after_ns);
  if (response.top_matching.has_value()) {
    w.U32(static_cast<std::uint32_t>(response.top_matching->size()));
    for (rim::ItemId item : *response.top_matching) w.U32(item);
  }
  return w.Take();
}

StatusOr<WireResponse> DecodeResponse(std::string_view body) {
  Reader r(body);
  WireResponse response;
  bool has_matching = false;
  if (!ReadStatus(r, &response.id, &response.status, &response.approximate,
                  &has_matching) ||
      !r.F64(&response.probability) || !r.F64(&response.std_error) ||
      !r.U64(&response.retry_after_ns)) {
    return Unreadable("response body");
  }
  if (has_matching) {
    std::uint32_t match_len = 0;
    if (!r.U32(&match_len) || match_len > kMaxWireNodes) {
      return Unreadable("response body");
    }
    infer::Matching matching(match_len);
    for (std::uint32_t i = 0; i < match_len; ++i) {
      if (!r.U32(&matching[i])) return Unreadable("response body");
    }
    response.top_matching = std::move(matching);
  }
  if (!r.AtEnd()) return Unreadable("response body");
  return response;
}

// ---------------------------------------------------------------------------
// Sweep request / response

std::string EncodeSweepRequest(const WireSweepRequest& request) {
  Writer w = WriteCompositeBase(request.id, request.deadline_ns, request.model,
                                request.pattern);
  w.U32(static_cast<std::uint32_t>(request.params.size()));
  for (const std::vector<double>& point : request.params) {
    w.U32(static_cast<std::uint32_t>(point.size()));
    for (double phi : point) w.F64(phi);
  }
  return w.Take();
}

StatusOr<WireSweepRequest> DecodeSweepRequest(std::string_view body) {
  Reader r(body);
  StatusOr<WireRequest> decoded = ReadCompositeBase(r, "sweep");
  if (!decoded.ok()) return decoded.status();
  const unsigned m = decoded->model.model().size();

  std::uint32_t point_count = 0;
  if (!r.U32(&point_count)) return Malformed("truncated sweep point count");
  if (point_count > kMaxWirePoints) {
    return Malformed("too many sweep points");
  }
  std::vector<std::vector<double>> params;
  params.reserve(point_count);
  for (std::uint32_t p = 0; p < point_count; ++p) {
    std::uint32_t len = 0;
    if (!r.U32(&len)) return Malformed("truncated sweep point");
    if (len != 1 && len != m) {
      return Malformed("sweep point arity must be 1 or m");
    }
    std::vector<double> point(len);
    for (std::uint32_t i = 0; i < len; ++i) {
      if (!r.F64(&point[i])) return Malformed("truncated sweep point");
      // `!(x > 0 && x <= 1)` rather than the complement so NaN fails too.
      if (!std::isfinite(point[i]) ||
          !(point[i] > 0.0 && point[i] <= 1.0)) {
        return Malformed("sweep dispersion not in (0, 1]");
      }
    }
    params.push_back(std::move(point));
  }
  if (!r.AtEnd()) return Malformed("trailing bytes");

  WireRequest& base = decoded.value();
  return WireSweepRequest(base.id, base.deadline_ns, std::move(base.model),
                          std::move(base.pattern), std::move(params));
}

std::string EncodeSweepResponse(const WireSweepResponse& response) {
  Writer w;
  WriteStatus(w, response.id, response.status);
  w.U32(static_cast<std::uint32_t>(response.probabilities.size()));
  for (double p : response.probabilities) w.F64(p);
  return w.Take();
}

StatusOr<WireSweepResponse> DecodeSweepResponse(std::string_view body) {
  Reader r(body);
  WireSweepResponse response;
  std::uint32_t count = 0;
  if (!ReadStatus(r, &response.id, &response.status) || !r.U32(&count) ||
      count > kMaxWirePoints) {
    return Unreadable("sweep response body");
  }
  response.probabilities.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!r.F64(&response.probabilities[i])) {
      return Unreadable("sweep response body");
    }
  }
  if (!r.AtEnd()) return Unreadable("sweep response body");
  return response;
}

// ---------------------------------------------------------------------------
// Hard request / response

std::string EncodeHardRequest(const WireHardRequest& request) {
  Writer w = WriteCompositeBase(request.id, request.deadline_ns, request.model,
                                request.pattern);
  w.F64(request.target_half_width);
  return w.Take();
}

StatusOr<WireHardRequest> DecodeHardRequest(std::string_view body) {
  Reader r(body);
  StatusOr<WireRequest> decoded = ReadCompositeBase(r, "hard");
  if (!decoded.ok()) return decoded.status();
  double target = 0.0;
  if (!r.F64(&target)) return Malformed("truncated hard target");
  // `!(x >= 0 && x <= 1)` rather than the complement so NaN fails too.
  if (!(target >= 0.0 && target <= 1.0)) {
    return Malformed("hard target not in [0, 1]");
  }
  if (!r.AtEnd()) return Malformed("trailing bytes");

  WireRequest& base = decoded.value();
  return WireHardRequest(base.id, base.deadline_ns, target,
                         std::move(base.model), std::move(base.pattern));
}

std::string EncodeHardResponse(const WireHardResponse& response) {
  Writer w;
  WriteStatus(w, response.id, response.status, response.target_met,
              response.deadline_limited);
  w.F64(response.estimate);
  w.F64(response.std_error);
  w.U64(response.n_samples);
  return w.Take();
}

StatusOr<WireHardResponse> DecodeHardResponse(std::string_view body) {
  Reader r(body);
  WireHardResponse response;
  if (!ReadStatus(r, &response.id, &response.status, &response.target_met,
                  &response.deadline_limited) ||
      !r.F64(&response.estimate) || !r.F64(&response.std_error) ||
      !r.U64(&response.n_samples) || !r.AtEnd()) {
    return Unreadable("hard response body");
  }
  return response;
}

// ---------------------------------------------------------------------------
// Consensus request / response

std::string EncodeConsensusRequest(const WireConsensusRequest& request) {
  Writer w = WriteCompositeBase(request.id, request.deadline_ns, request.model,
                                infer::LabelPattern());
  w.U32(request.top_k);
  return w.Take();
}

StatusOr<WireConsensusRequest> DecodeConsensusRequest(std::string_view body) {
  Reader r(body);
  StatusOr<WireRequest> decoded = ReadCompositeBase(r, "consensus");
  if (!decoded.ok()) return decoded.status();
  if (decoded->pattern.NodeCount() != 0) {
    return Malformed("consensus base pattern must be empty");
  }
  std::uint32_t top_k = 0;
  if (!r.U32(&top_k)) return Malformed("truncated consensus top_k");
  if (top_k == 0 || top_k > kMaxWireItems) {
    return Malformed("consensus top_k out of range");
  }
  if (!r.AtEnd()) return Malformed("trailing bytes");

  WireRequest& base = decoded.value();
  return WireConsensusRequest(base.id, base.deadline_ns, top_k,
                              std::move(base.model));
}

std::string EncodeConsensusResponse(const WireConsensusResponse& response) {
  Writer w;
  WriteStatus(w, response.id, response.status);
  w.U32(static_cast<std::uint32_t>(response.ranking.size()));
  for (rim::ItemId item : response.ranking) w.U32(item);
  w.F64(response.mean_footrule);
  w.F64(response.footrule_std_error);
  w.F64(response.mean_kendall);
  w.F64(response.kendall_std_error);
  w.U64(response.n_samples);
  return w.Take();
}

StatusOr<WireConsensusResponse> DecodeConsensusResponse(std::string_view body) {
  Reader r(body);
  WireConsensusResponse response;
  std::uint32_t ranking_len = 0;
  if (!ReadStatus(r, &response.id, &response.status) ||
      !r.U32(&ranking_len) || ranking_len > kMaxWireItems) {
    return Unreadable("consensus response body");
  }
  response.ranking.resize(ranking_len);
  for (std::uint32_t i = 0; i < ranking_len; ++i) {
    if (!r.U32(&response.ranking[i])) {
      return Unreadable("consensus response body");
    }
  }
  if (!r.F64(&response.mean_footrule) ||
      !r.F64(&response.footrule_std_error) ||
      !r.F64(&response.mean_kendall) || !r.F64(&response.kendall_std_error) ||
      !r.U64(&response.n_samples) || !r.AtEnd()) {
    return Unreadable("consensus response body");
  }
  return response;
}

}  // namespace ppref::net
