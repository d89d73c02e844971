#include "ppref/net/http.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "ppref/infer/labeling.h"
#include "ppref/net/codec.h"
#include "ppref/rim/insertion.h"
#include "ppref/rim/ranking.h"
#include "ppref/rim/rim_model.h"

namespace ppref::net {
namespace {

std::string ToLower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view Trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

const std::string* HttpRequest::Header(std::string_view lowercase_name) const {
  for (const auto& [name, value] : headers) {
    if (name == lowercase_name) return &value;
  }
  return nullptr;
}

HttpAccumulator::State HttpAccumulator::Fail(std::string message) {
  state_ = State::kError;
  status_ = Status::InvalidArgument(std::move(message));
  return state_;
}

HttpAccumulator::State HttpAccumulator::Feed(std::string_view data) {
  if (state_ != State::kNeedMore) return state_;
  if (buffer_.size() + data.size() > max_bytes_) {
    return Fail("HTTP request exceeds size limit");
  }
  buffer_.append(data);
  return ParseBuffer();
}

HttpAccumulator::State HttpAccumulator::ParseBuffer() {
  const std::size_t header_end = buffer_.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    // A request line must arrive eventually; catch plainly-not-HTTP early.
    if (buffer_.size() > 8192 && buffer_.find("\r\n") == std::string::npos) {
      return Fail("oversized HTTP request line");
    }
    return state_;
  }

  // Request line.
  const std::string_view head =
      std::string_view(buffer_).substr(0, header_end);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      head.substr(0, line_end == std::string_view::npos ? head.size()
                                                        : line_end);
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return Fail("malformed HTTP request line");
  }
  const std::string_view version = request_line.substr(sp2 + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return Fail("unsupported HTTP version");
  }
  request_.method = std::string(request_line.substr(0, sp1));
  request_.target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));

  // Headers.
  request_.headers.clear();
  std::size_t cursor = line_end == std::string_view::npos
                           ? head.size()
                           : line_end + 2;
  while (cursor < head.size()) {
    std::size_t next = head.find("\r\n", cursor);
    if (next == std::string_view::npos) next = head.size();
    const std::string_view line = head.substr(cursor, next - cursor);
    cursor = next + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Fail("malformed HTTP header");
    }
    request_.headers.emplace_back(ToLower(line.substr(0, colon)),
                                  std::string(Trim(line.substr(colon + 1))));
  }

  if (request_.Header("transfer-encoding") != nullptr) {
    return Fail("chunked transfer encoding unsupported");
  }
  std::size_t content_length = 0;
  if (const std::string* header = request_.Header("content-length")) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(header->c_str(), &end, 10);
    if (end == header->c_str() || *end != '\0') {
      return Fail("malformed Content-Length");
    }
    content_length = static_cast<std::size_t>(parsed);
    if (content_length > max_bytes_) {
      return Fail("Content-Length exceeds size limit");
    }
  }
  const std::size_t body_start = header_end + 4;
  if (body_start + content_length > max_bytes_) {
    return Fail("HTTP request exceeds size limit");
  }
  if (buffer_.size() < body_start + content_length) return state_;
  if (buffer_.size() > body_start + content_length) {
    return Fail("bytes beyond Content-Length");
  }
  request_.body = buffer_.substr(body_start, content_length);
  state_ = State::kComplete;
  return state_;
}

std::string RenderHttpResponse(int status_code, std::string_view reason,
                               std::string_view content_type,
                               std::string_view body) {
  std::string out = "HTTP/1.1 " + std::to_string(status_code) + " " +
                    std::string(reason) + "\r\n";
  out += "Content-Type: " + std::string(content_type) + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

// ---------------------------------------------------------------------------
// /query JSON <-> wire mapping

namespace {

Status Bad(std::string_view what) {
  return Status::InvalidArgument("bad query: " + std::string(what));
}

/// A JSON number that must be a non-negative integer below `limit`.
bool AsIndex(const JsonValue* value, std::uint64_t limit, std::uint64_t* out) {
  if (value == nullptr || !value->IsNumber()) return false;
  const double number = value->number;
  if (!(number >= 0) || number >= static_cast<double>(limit) ||
      number != std::floor(number)) {
    return false;
  }
  *out = static_cast<std::uint64_t>(number);
  return true;
}

/// The /query mapping of a composite document's shared keys, whose kind
/// must be absent or "pattern_prob"; `what` names the query in the error.
StatusOr<WireRequest> CompositeBaseFromJson(const JsonValue& root,
                                            std::string_view what) {
  StatusOr<WireRequest> base = WireRequestFromJson(root);
  if (base.ok() && base->kind != serve::Request::Kind::kPatternProb) {
    return Bad("\"kind\" must be \"pattern_prob\" for " + std::string(what));
  }
  return base;
}

/// Opens every response document: the echoed id, the status name, and the
/// status message; each mapper appends its own fields and the closing brace.
std::string JsonStatusPrefix(std::uint64_t id, const Status& status) {
  return "{\"id\":" + std::to_string(id) + ",\"status\":" +
         JsonQuote(StatusCodeName(status.code())) +
         ",\"message\":" + JsonQuote(status.message());
}

}  // namespace

StatusOr<WireRequest> WireRequestFromJson(const JsonValue& root) {
  if (!root.IsObject()) return Bad("document must be an object");

  std::uint64_t id = 0;
  if (const JsonValue* id_value = root.Find("id")) {
    if (!AsIndex(id_value, static_cast<std::uint64_t>(1) << 53, &id)) {
      return Bad("\"id\" must be a non-negative integer");
    }
  }

  serve::Request::Kind kind = serve::Request::Kind::kPatternProb;
  if (const JsonValue* kind_value = root.Find("kind")) {
    if (!kind_value->IsString()) return Bad("\"kind\" must be a string");
    if (kind_value->string == "pattern_prob") {
      kind = serve::Request::Kind::kPatternProb;
    } else if (kind_value->string == "top_matching") {
      kind = serve::Request::Kind::kTopMatching;
    } else {
      return Bad("\"kind\" must be \"pattern_prob\" or \"top_matching\"");
    }
  }

  std::uint64_t deadline_us = 0;
  if (const JsonValue* deadline = root.Find("deadline_us")) {
    if (!AsIndex(deadline, static_cast<std::uint64_t>(1) << 53,
                 &deadline_us)) {
      return Bad("\"deadline_us\" must be a non-negative integer");
    }
  }

  // --- model ---
  const JsonValue* model_value = root.Find("model");
  if (model_value == nullptr || !model_value->IsObject()) {
    return Bad("\"model\" object required");
  }

  // Reference order: explicit permutation, or identity over "m" items.
  std::vector<rim::ItemId> order;
  if (const JsonValue* reference = model_value->Find("reference")) {
    if (!reference->IsArray() || reference->array.empty() ||
        reference->array.size() > kMaxWireItems) {
      return Bad("\"reference\" must be a non-empty array");
    }
    const std::size_t m = reference->array.size();
    order.resize(m);
    std::vector<bool> seen(m, false);
    for (std::size_t p = 0; p < m; ++p) {
      std::uint64_t item = 0;
      if (!AsIndex(&reference->array[p], m, &item) || seen[item]) {
        return Bad("\"reference\" must be a permutation of 0..m-1");
      }
      seen[item] = true;
      order[p] = static_cast<rim::ItemId>(item);
    }
  } else {
    std::uint64_t m = 0;
    if (!AsIndex(model_value->Find("m"), kMaxWireItems + 1ull, &m) || m == 0) {
      return Bad("\"model\" needs \"reference\" or a positive \"m\"");
    }
    order.resize(m);
    for (std::uint64_t item = 0; item < m; ++item) {
      order[item] = static_cast<rim::ItemId>(item);
    }
  }
  const unsigned m = static_cast<unsigned>(order.size());

  // Insertion function.
  const JsonValue* insertion_value = model_value->Find("insertion");
  if (insertion_value == nullptr || !insertion_value->IsObject()) {
    return Bad("\"insertion\" object required");
  }
  std::optional<rim::InsertionFunction> insertion;
  if (const JsonValue* phi_value = insertion_value->Find("phi")) {
    if (!phi_value->IsNumber() || !(phi_value->number > 0.0) ||
        !(phi_value->number <= 1.0)) {
      return Bad("\"phi\" must be in (0, 1]");
    }
    insertion = rim::InsertionFunction::Mallows(m, phi_value->number);
  } else if (const JsonValue* phis_value = insertion_value->Find("phis")) {
    if (!phis_value->IsArray() || phis_value->array.size() != m) {
      return Bad("\"phis\" must be an array of m numbers");
    }
    std::vector<double> phis(m);
    for (unsigned t = 0; t < m; ++t) {
      const JsonValue& phi = phis_value->array[t];
      if (!phi.IsNumber() || !(phi.number > 0.0) || !(phi.number <= 1.0)) {
        return Bad("\"phis\" entries must be in (0, 1]");
      }
      phis[t] = phi.number;
    }
    insertion = rim::InsertionFunction::GeneralizedMallows(phis);
  } else if (insertion_value->Find("uniform") != nullptr) {
    insertion = rim::InsertionFunction::Uniform(m);
  } else if (const JsonValue* rows_value = insertion_value->Find("rows")) {
    if (!rows_value->IsArray() || rows_value->array.size() != m) {
      return Bad("\"rows\" must be an array of m rows");
    }
    std::vector<std::vector<double>> rows(m);
    for (unsigned t = 0; t < m; ++t) {
      const JsonValue& row = rows_value->array[t];
      if (!row.IsArray() || row.array.size() != t + 1) {
        return Bad("insertion row t must have t+1 entries");
      }
      rows[t].resize(t + 1);
      double sum = 0.0;
      for (unsigned j = 0; j <= t; ++j) {
        if (!row.array[j].IsNumber() || !std::isfinite(row.array[j].number) ||
            row.array[j].number < 0.0) {
          return Bad("insertion probabilities must be finite and >= 0");
        }
        rows[t][j] = row.array[j].number;
        sum += rows[t][j];
      }
      if (std::abs(sum - 1.0) > rim::InsertionFunction::kRowSumTolerance) {
        return Bad("insertion row does not sum to 1");
      }
    }
    insertion = rim::InsertionFunction(std::move(rows));
  } else {
    return Bad("\"insertion\" needs \"phi\", \"phis\", \"uniform\", or \"rows\"");
  }

  // Labeling.
  const JsonValue* labels_value = model_value->Find("labels");
  if (labels_value == nullptr || !labels_value->IsArray() ||
      labels_value->array.size() != m) {
    return Bad("\"labels\" must be an array of m label sets");
  }
  infer::ItemLabeling labeling(m);
  for (unsigned item = 0; item < m; ++item) {
    const JsonValue& item_labels = labels_value->array[item];
    if (!item_labels.IsArray() ||
        item_labels.array.size() > kMaxWireLabelsPerItem) {
      return Bad("each \"labels\" entry must be a small array");
    }
    for (const JsonValue& label : item_labels.array) {
      std::uint64_t label_id = 0;
      if (!AsIndex(&label, static_cast<std::uint64_t>(1) << 32, &label_id)) {
        return Bad("labels must be 32-bit non-negative integers");
      }
      labeling.AddLabel(item, static_cast<infer::LabelId>(label_id));
    }
  }

  // --- pattern ---
  const JsonValue* pattern_value = root.Find("pattern");
  if (pattern_value == nullptr || !pattern_value->IsObject()) {
    return Bad("\"pattern\" object required");
  }
  const JsonValue* nodes_value = pattern_value->Find("nodes");
  if (nodes_value == nullptr || !nodes_value->IsArray() ||
      nodes_value->array.size() > kMaxWireNodes) {
    return Bad("\"nodes\" must be an array of at most 64 labels");
  }
  infer::LabelPattern pattern;
  std::vector<std::uint64_t> node_labels;
  for (const JsonValue& node : nodes_value->array) {
    std::uint64_t label = 0;
    if (!AsIndex(&node, static_cast<std::uint64_t>(1) << 32, &label)) {
      return Bad("pattern nodes must be 32-bit non-negative integers");
    }
    for (const std::uint64_t prev : node_labels) {
      if (prev == label) return Bad("duplicate pattern node label");
    }
    node_labels.push_back(label);
    pattern.AddNode(static_cast<infer::LabelId>(label));
  }
  if (const JsonValue* edges_value = pattern_value->Find("edges")) {
    if (!edges_value->IsArray()) return Bad("\"edges\" must be an array");
    for (const JsonValue& edge : edges_value->array) {
      std::uint64_t from = 0;
      std::uint64_t to = 0;
      if (!edge.IsArray() || edge.array.size() != 2 ||
          !AsIndex(&edge.array[0], node_labels.size(), &from) ||
          !AsIndex(&edge.array[1], node_labels.size(), &to)) {
        return Bad("each edge must be [from, to] with valid node indices");
      }
      if (from == to) return Bad("self-loop edge");
      pattern.AddEdge(static_cast<unsigned>(from), static_cast<unsigned>(to));
    }
  }

  return WireRequest(
      id, kind, deadline_us * 1000,
      infer::LabeledRimModel(rim::RimModel(rim::Ranking(std::move(order)),
                                           std::move(*insertion)),
                             std::move(labeling)),
      std::move(pattern));
}

StatusOr<WireSweepRequest> SweepRequestFromJson(const JsonValue& root) {
  StatusOr<WireRequest> base = CompositeBaseFromJson(root, "a sweep");
  if (!base.ok()) return base.status();
  const unsigned m = base->model.model().size();

  const JsonValue* params_value = root.Find("params");
  if (params_value == nullptr || !params_value->IsArray() ||
      params_value->array.size() > kMaxWirePoints) {
    return Bad("\"params\" must be a bounded array");
  }
  std::vector<std::vector<double>> params;
  params.reserve(params_value->array.size());
  for (const JsonValue& entry : params_value->array) {
    std::vector<double> point;
    if (entry.IsNumber()) {
      point.push_back(entry.number);
    } else if (entry.IsArray() &&
               (entry.array.size() == 1 || entry.array.size() == m)) {
      for (const JsonValue& phi : entry.array) {
        if (!phi.IsNumber()) {
          return Bad("\"params\" vectors must hold numbers");
        }
        point.push_back(phi.number);
      }
    } else {
      return Bad("each \"params\" entry must be a number or m numbers");
    }
    for (double phi : point) {
      if (!std::isfinite(phi) || !(phi > 0.0 && phi <= 1.0)) {
        return Bad("\"params\" dispersions must be in (0, 1]");
      }
    }
    params.push_back(std::move(point));
  }

  WireRequest& shape = base.value();
  return WireSweepRequest(shape.id, shape.deadline_ns, std::move(shape.model),
                          std::move(shape.pattern), std::move(params));
}

std::string JsonFromWireSweepResponse(const WireSweepResponse& response) {
  std::string out = JsonStatusPrefix(response.id, response.status);
  out += ",\"probabilities\":[";
  for (std::size_t i = 0; i < response.probabilities.size(); ++i) {
    if (i != 0) out += ",";
    out += FormatDouble(response.probabilities[i]);
  }
  out += "]}";
  return out;
}

StatusOr<WireHardRequest> HardRequestFromJson(const JsonValue& root) {
  StatusOr<WireRequest> base = CompositeBaseFromJson(root, "a hard query");
  if (!base.ok()) return base.status();
  double target = 0.0;
  if (const JsonValue* target_value = root.Find("target")) {
    if (!target_value->IsNumber() ||
        !(target_value->number >= 0.0 && target_value->number <= 1.0)) {
      return Bad("\"target\" must be a number in [0, 1]");
    }
    target = target_value->number;
  }
  WireRequest& shape = base.value();
  return WireHardRequest(shape.id, shape.deadline_ns, target,
                         std::move(shape.model), std::move(shape.pattern));
}

std::string JsonFromWireHardResponse(const WireHardResponse& response) {
  std::string out = JsonStatusPrefix(response.id, response.status);
  out += ",\"estimate\":" + FormatDouble(response.estimate);
  out += ",\"std_error\":" + FormatDouble(response.std_error);
  out += ",\"n_samples\":" + std::to_string(response.n_samples);
  out += ",\"target_met\":";
  out += response.target_met ? "true" : "false";
  out += ",\"deadline_limited\":";
  out += response.deadline_limited ? "true" : "false";
  out += "}";
  return out;
}

StatusOr<WireConsensusRequest> ConsensusRequestFromJson(const JsonValue& root) {
  if (!root.IsObject()) return Bad("document must be an object");
  std::uint64_t top_k = 0;
  if (!AsIndex(root.Find("top_k"), kMaxWireItems + 1ull, &top_k) ||
      top_k == 0) {
    return Bad("\"top_k\" must be a positive integer");
  }
  // The shared model rules come from the /query mapper; a missing "pattern"
  // means the empty pattern (a consensus query is about the model alone).
  JsonValue patched = root;
  if (patched.Find("pattern") == nullptr) {
    JsonValue nodes;
    nodes.kind = JsonValue::Kind::kArray;
    JsonValue pattern;
    pattern.kind = JsonValue::Kind::kObject;
    pattern.object.emplace_back("nodes", std::move(nodes));
    patched.object.emplace_back("pattern", std::move(pattern));
  }
  StatusOr<WireRequest> base = CompositeBaseFromJson(patched, "consensus");
  if (!base.ok()) return base.status();
  if (base->pattern.NodeCount() != 0) {
    return Bad("consensus takes no pattern");
  }
  WireRequest& shape = base.value();
  return WireConsensusRequest(shape.id, shape.deadline_ns,
                              static_cast<std::uint32_t>(top_k),
                              std::move(shape.model));
}

std::string JsonFromWireConsensusResponse(
    const WireConsensusResponse& response) {
  std::string out = JsonStatusPrefix(response.id, response.status);
  out += ",\"ranking\":[";
  for (std::size_t i = 0; i < response.ranking.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(response.ranking[i]);
  }
  out += "]";
  out += ",\"mean_footrule\":" + FormatDouble(response.mean_footrule);
  out += ",\"footrule_std_error\":" + FormatDouble(response.footrule_std_error);
  out += ",\"mean_kendall\":" + FormatDouble(response.mean_kendall);
  out += ",\"kendall_std_error\":" + FormatDouble(response.kendall_std_error);
  out += ",\"n_samples\":" + std::to_string(response.n_samples);
  out += "}";
  return out;
}

std::string JsonFromWireResponse(const WireResponse& response) {
  std::string out = JsonStatusPrefix(response.id, response.status);
  out += ",\"probability\":" + FormatDouble(response.probability);
  out += ",\"approximate\":";
  out += response.approximate ? "true" : "false";
  out += ",\"std_error\":" + FormatDouble(response.std_error);
  out += ",\"retry_after_ns\":" + std::to_string(response.retry_after_ns);
  out += ",\"top_matching\":";
  if (response.top_matching.has_value()) {
    out += "[";
    for (std::size_t i = 0; i < response.top_matching->size(); ++i) {
      if (i != 0) out += ",";
      out += std::to_string((*response.top_matching)[i]);
    }
    out += "]";
  } else {
    out += "null";
  }
  out += "}";
  return out;
}

}  // namespace ppref::net
