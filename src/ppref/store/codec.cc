#include "ppref/store/codec.h"

#include <cstring>
#include <utility>
#include <vector>

#include "ppref/store/format.h"

namespace ppref::store {

namespace {

using circuit::Circuit;
using circuit::NodeId;
using circuit::Op;

/// Caps decoded element counts so a corrupt count cannot force a huge
/// allocation before the bounds check catches it: every counted element
/// occupies at least `element_bytes` in the remaining input.
bool CountFits(const ByteReader& reader, std::uint64_t count,
               std::size_t element_bytes) {
  return count <= reader.remaining() / element_bytes;
}

}  // namespace

// -- kCircuit ---------------------------------------------------------------

std::string EncodeCircuitPayload(const Circuit& circuit) {
  std::string out;
  PutU32(out, circuit.items());
  PutU32(out, circuit.root());
  PutU32(out, static_cast<std::uint32_t>(circuit.consts().size()));
  PutU32(out, static_cast<std::uint32_t>(circuit.prefix_steps().size()));
  PutU64(out, circuit.size());
  for (double value : circuit.consts()) PutDouble(out, value);
  for (unsigned step : circuit.prefix_steps()) PutU32(out, step);
  // Pad so the arena sits at a 16-byte offset from the payload start; the
  // segment layer 16-aligns payload starts in the file, so the mapped arena
  // lands aligned in memory.
  const std::size_t misaligned = out.size() % kRecordAlign;
  if (misaligned != 0) out.append(kRecordAlign - misaligned, '\0');
  out.append(reinterpret_cast<const char*>(circuit.arena()),
             circuit.size() * sizeof(Circuit::Node));
  return out;
}

std::optional<Circuit> DecodeCircuitPayload(std::string_view payload,
                                            std::shared_ptr<const void> owner) {
  ByteReader reader(payload);
  const std::uint32_t items = reader.U32();
  const std::uint32_t root = reader.U32();
  const std::uint32_t const_count = reader.U32();
  const std::uint32_t prefix_count = reader.U32();
  const std::uint64_t node_count = reader.U64();
  if (!reader.ok() || !CountFits(reader, const_count, 8)) return std::nullopt;
  std::vector<double> consts(const_count);
  for (std::uint32_t i = 0; i < const_count; ++i) consts[i] = reader.Double();
  if (!CountFits(reader, prefix_count, 4)) return std::nullopt;
  std::vector<unsigned> prefix_steps(prefix_count);
  std::vector<bool> is_prefix_step;
  for (std::uint32_t i = 0; i < prefix_count; ++i) {
    prefix_steps[i] = reader.U32();
    if (prefix_steps[i] >= items) return std::nullopt;
  }
  if (!reader.ok()) return std::nullopt;
  is_prefix_step.assign(items, false);
  for (unsigned step : prefix_steps) is_prefix_step[step] = true;
  const std::size_t consumed = payload.size() - reader.remaining();
  const std::size_t pad =
      consumed % kRecordAlign == 0 ? 0 : kRecordAlign - consumed % kRecordAlign;
  if (reader.Bytes(pad).size() != pad) return std::nullopt;
  // The node arena must account for exactly the rest of the payload. (The
  // count cap forestalls multiplication overflow on a hostile value.)
  if (node_count == 0 ||
      node_count > kMaxPayloadBytes / sizeof(Circuit::Node) ||
      root >= node_count ||
      reader.remaining() != node_count * sizeof(Circuit::Node)) {
    return std::nullopt;
  }
  const std::string_view arena_bytes =
      reader.Bytes(node_count * sizeof(Circuit::Node));

  // Validate the arena before anything evaluates it: each record must name
  // a known op whose operands exist (topologically: strictly before the
  // node for value references). The segment CRC already rules out bit rot;
  // this rules out well-checksummed records from an incompatible writer.
  const auto* nodes =
      reinterpret_cast<const Circuit::Node*>(arena_bytes.data());
  const bool aligned =
      reinterpret_cast<std::uintptr_t>(nodes) % alignof(Circuit::Node) == 0;
  std::vector<Circuit::Node> copied;
  if (!aligned) {
    // A payload not served from a mapped segment (e.g. an in-memory owned
    // copy) may land the arena anywhere; copy it into owned storage.
    copied.resize(node_count);
    std::memcpy(copied.data(), arena_bytes.data(), arena_bytes.size());
    nodes = copied.data();
  }
  for (std::uint64_t i = 0; i < node_count; ++i) {
    const Circuit::Node node = nodes[i];
    if (static_cast<std::uint8_t>(node.op) >
        static_cast<std::uint8_t>(Op::kPrefixDiff)) {
      return std::nullopt;
    }
    switch (node.op) {
      case Op::kConst:
        if (node.a >= const_count) return std::nullopt;
        break;
      case Op::kLeaf:
        if (node.a >= items || node.b > node.a) return std::nullopt;
        break;
      case Op::kAdd:
      case Op::kMul:
        if (node.a >= i || node.b >= i) return std::nullopt;
        break;
      case Op::kMulAdd:
        if (node.a >= i || node.b >= i || node.c >= i) return std::nullopt;
        break;
      case Op::kPrefixDiff:
        if (node.a >= items || !is_prefix_step[node.a] ||
            node.b > node.a + 1 || node.c > node.b) {
          return std::nullopt;
        }
        break;
    }
  }

  if (!aligned) {
    auto holder =
        std::make_shared<std::vector<Circuit::Node>>(std::move(copied));
    const Circuit::Node* data = holder->data();
    return Circuit::FromBorrowedArena(data,
                                      static_cast<std::size_t>(node_count),
                                      std::move(consts),
                                      std::move(prefix_steps),
                                      static_cast<NodeId>(root), items,
                                      std::move(holder));
  }
  return Circuit::FromBorrowedArena(nodes,
                                    static_cast<std::size_t>(node_count),
                                    std::move(consts), std::move(prefix_steps),
                                    static_cast<NodeId>(root), items,
                                    std::move(owner));
}

// -- kResult ----------------------------------------------------------------

std::string EncodeResultPayload(double probability,
                                const std::optional<infer::Matching>& matching) {
  std::string out;
  PutU8(out, matching.has_value() ? 1 : 0);
  PutDouble(out, probability);
  if (matching.has_value()) {
    PutU32(out, static_cast<std::uint32_t>(matching->size()));
    for (rim::ItemId item : *matching) PutU32(out, item);
  }
  return out;
}

std::optional<DecodedResult> DecodeResultPayload(std::string_view payload) {
  ByteReader reader(payload);
  const bool has_matching = reader.U8() != 0;
  DecodedResult result;
  result.probability = reader.Double();
  if (has_matching) {
    const std::uint32_t n = reader.U32();
    if (!reader.ok() || !CountFits(reader, n, 4)) return std::nullopt;
    infer::Matching matching(n);
    for (std::uint32_t i = 0; i < n; ++i) matching[i] = reader.U32();
    result.top_matching = std::move(matching);
  }
  if (!reader.ok() || reader.remaining() != 0) return std::nullopt;
  return result;
}

}  // namespace ppref::store
