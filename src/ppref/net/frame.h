/// \file frame.h
/// \brief `ppref::net` — the length-prefixed binary framing layer.
///
/// Every binary-protocol message is one frame:
///
/// ```
///  offset  size  field
///       0     4  magic      0x46525050 ("PPRF" as little-endian bytes)
///       4     1  version    kWireVersion (1)
///       5     1  type       FrameType
///       6     2  flags      reserved, must be 0
///       8     4  body_len   little-endian byte length of the body
///      12     …  body       type-specific payload (codec.h)
/// ```
///
/// The 12-byte header is fixed for all versions — a future version may
/// change body layouts but never the header, so a peer can always reject a
/// version it does not speak with a clean error instead of desynchronizing.
///
/// `FrameAssembler` is the *only* reader of wire bytes: an incremental,
/// allocation-bounded state machine that accepts arbitrary partial reads
/// (`Feed`) and yields complete frames (`Next`). Its failure contract is the
/// one the fuzz suite pins down: hostile bytes — garbage magic, unknown
/// versions, nonzero flags, body lengths beyond the configured bound,
/// truncation at any offset — produce a sticky `kInvalidArgument` status,
/// never a crash, never a read past the fed bytes, and never an allocation
/// larger than `max_body_bytes` + one header. After an error the stream is
/// unparseable by definition (framing is what delimits messages), so the
/// owner must close the connection.

#ifndef PPREF_NET_FRAME_H_
#define PPREF_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "ppref/common/status.h"

namespace ppref::net {

/// Wire magic: the bytes 'P' 'P' 'R' 'F' on the wire.
inline constexpr std::uint32_t kWireMagic = 0x46525050u;

/// Protocol version this build speaks.
inline constexpr std::uint8_t kWireVersion = 1;

/// Fixed header size, all versions.
inline constexpr std::size_t kFrameHeaderBytes = 12;

/// Default cap on one frame's body. A request carrying a 4096-item model is
/// ~67 MB of insertion rows, far beyond anything the DP could serve; 16 MiB
/// bounds a hostile peer's memory bill per connection.
inline constexpr std::size_t kDefaultMaxBodyBytes = 16u << 20;

enum class FrameType : std::uint8_t {
  kRequest = 1,
  kResponse = 2,
  kPing = 3,
  kPong = 4,
  kSweepRequest = 5,
  kSweepResponse = 6,
  kHardRequest = 7,
  kHardResponse = 8,
  kConsensusRequest = 9,
  kConsensusResponse = 10,
};

/// The response type paired with a request type (kPing → kPong): every
/// request type is odd, and its answer is the next value.
constexpr FrameType PairedResponse(FrameType request) {
  return static_cast<FrameType>(static_cast<std::uint8_t>(request) + 1);
}

/// One complete frame, body owned.
struct Frame {
  FrameType type = FrameType::kRequest;
  std::string body;
};

/// Serializes a frame: header + body.
std::string EncodeFrame(FrameType type, std::string_view body);

/// Incremental frame parser over a byte stream. Not thread-safe; one per
/// connection.
class FrameAssembler {
 public:
  explicit FrameAssembler(std::size_t max_body_bytes = kDefaultMaxBodyBytes)
      : max_body_bytes_(max_body_bytes) {}

  /// Appends stream bytes. Returns (and latches) kInvalidArgument as soon as
  /// the accumulated prefix cannot be a valid frame sequence; OK otherwise.
  /// After an error every further Feed returns the same error and Next
  /// yields nothing.
  Status Feed(const void* data, std::size_t size);

  /// Pops the next complete frame into `out`; false when no complete frame
  /// is buffered (or the stream is in error).
  bool Next(Frame* out);

  /// The latched stream status (OK until the first framing violation).
  const Status& status() const { return status_; }

  /// Bytes buffered and not yet consumed by Next (partial frame).
  std::size_t pending_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::size_t max_body_bytes_;
  std::string buffer_;
  std::size_t consumed_ = 0;
  Status status_;
};

}  // namespace ppref::net

#endif  // PPREF_NET_FRAME_H_
