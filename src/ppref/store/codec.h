/// \file codec.h
/// \brief Record payload encode/decode for the PPST store.
///
/// Two payload kinds are written (format.h's `RecordKind`), both
/// little-endian with doubles as IEEE-754 bit patterns (common/bytes.h):
///
///   kCircuit  items, root, consts, prefix steps, then the packed 16-byte
///             node arena — zero padding places the arena at a 16-byte
///             offset from the payload start, which the segment layer
///             aligns in the file, so decoding from an mmap'ed record
///             borrows the arena in place (`Circuit::FromBorrowedArena`).
///   kResult   probability bits + optional top matching.
///
/// Compiled plans are not persisted: a DpPlan recompiles from its request
/// in microseconds, so `RecordKind::kPlan` has no codec.
///
/// Every decoder is total: corrupt or truncated payloads return nullopt,
/// never abort — the serving layer treats a failed decode as a store miss
/// (plus a corruption counter), honoring the never-silently-wrong /
/// never-crash recovery contract. The circuit decoder validates operand
/// topology, which the segment CRC cannot, because a record may be
/// well-checksummed yet written by a different build.

#ifndef PPREF_STORE_CODEC_H_
#define PPREF_STORE_CODEC_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "ppref/circuit/circuit.h"
#include "ppref/common/bytes.h"
#include "ppref/infer/matching.h"

namespace ppref::store {

// -- kCircuit ---------------------------------------------------------------

std::string EncodeCircuitPayload(const circuit::Circuit& circuit);

/// Rebuilds a circuit from a record payload. When the payload's node arena
/// is suitably aligned (always true for payloads served out of a mapped
/// segment), the circuit borrows it zero-copy and `owner` keeps the backing
/// bytes alive; otherwise the arena is copied and `owner` is dropped.
/// Validates the arena: known ops, operands strictly before their
/// consumers, leaf/prefix steps in range, const indexes in range.
std::optional<circuit::Circuit> DecodeCircuitPayload(
    std::string_view payload, std::shared_ptr<const void> owner);

// -- kResult ----------------------------------------------------------------

struct DecodedResult {
  double probability = 0.0;
  std::optional<infer::Matching> top_matching;
};

std::string EncodeResultPayload(double probability,
                                const std::optional<infer::Matching>& matching);
std::optional<DecodedResult> DecodeResultPayload(std::string_view payload);

}  // namespace ppref::store

#endif  // PPREF_STORE_CODEC_H_
