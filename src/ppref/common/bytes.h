/// \file bytes.h
/// \brief Little-endian byte-level encoding helpers shared by the on-disk
/// store (store/), the wire codec (net/), and tests.
///
/// Writers append to a `std::string`; the reader is a bounds-checked cursor
/// over a `std::string_view` that goes sticky-invalid on the first overrun
/// (mirroring `net::FrameAssembler`'s sticky-error idiom): every accessor
/// after an overrun returns zero and `ok()` stays false, so decode routines
/// can run straight-line and check validity once at the end — no partially
/// trusted values escape, because callers must treat `!ok()` as corruption.
///
/// Doubles travel as their IEEE-754 bit patterns (the `MixDouble` convention
/// of common/hash.h), making every round-trip bit-exact — the store's
/// bit-identity contract rests on this.

#ifndef PPREF_COMMON_BYTES_H_
#define PPREF_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace ppref {

// The loads below are host-order memcpy, and the store's zero-copy circuit
// arena is read in place: both are little-endian only.
static_assert(std::endian::native == std::endian::little,
              "ppref's byte formats assume a little-endian host");

inline void PutU8(std::string& out, std::uint8_t value) {
  out.push_back(static_cast<char>(value));
}

inline void PutU32(std::string& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

inline void PutU64(std::string& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

inline void PutDouble(std::string& out, double value) {
  PutU64(out, std::bit_cast<std::uint64_t>(value));
}

/// Overwrites the u32 at byte offset `at` of `out` (a length known only
/// after what it prefixes is written).
inline void PatchU32(std::string& out, std::size_t at, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out[at + shift / 8] = static_cast<char>((value >> shift) & 0xFF);
  }
}

/// Unaligned little-endian loads from raw buffers (segment scans, wire
/// header peeks).
inline std::uint32_t LoadU32(const char* p) {
  std::uint32_t value = 0;
  std::memcpy(&value, p, sizeof(value));
  return value;
}

inline std::uint64_t LoadU64(const char* p) {
  std::uint64_t value = 0;
  std::memcpy(&value, p, sizeof(value));
  return value;
}

/// Bounds-checked forward cursor; see file comment for the sticky-error
/// contract.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

  std::uint8_t U8() {
    if (!Ensure(1)) return 0;
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }

  std::uint32_t U32() {
    if (!Ensure(4)) return 0;
    const std::uint32_t value = LoadU32(bytes_.data() + pos_);
    pos_ += 4;
    return value;
  }

  std::uint64_t U64() {
    if (!Ensure(8)) return 0;
    const std::uint64_t value = LoadU64(bytes_.data() + pos_);
    pos_ += 8;
    return value;
  }

  double Double() { return std::bit_cast<double>(U64()); }

  /// A view of the next `n` bytes (into the underlying buffer), or empty
  /// with `ok()` false when fewer remain.
  std::string_view Bytes(std::size_t n) {
    if (!Ensure(n)) return {};
    const std::string_view view = bytes_.substr(pos_, n);
    pos_ += n;
    return view;
  }

 private:
  bool Ensure(std::size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace ppref

#endif  // PPREF_COMMON_BYTES_H_
