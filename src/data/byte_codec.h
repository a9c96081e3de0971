#ifndef TCROWD_DATA_BYTE_CODEC_H_
#define TCROWD_DATA_BYTE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/answer.h"
#include "data/table.h"
#include "data/value.h"

namespace tcrowd {

/// The one byte codec behind every durable and on-wire format: segment
/// files, manifest and journal (inference/segment_codec.h), the event log
/// (platform/event_log.h) and TCNP frames (net/protocol.h). Fields are
/// fixed-width little-endian, written with explicit byte shifts (never a
/// memcpy of the host representation), so every format is platform-defined.
/// Doubles travel as their exact IEEE-754 bit pattern, so a decoded value is
/// bit-identical to the encoded one. Each format frames its records as
/// "magic | version | ... | CRC-32 of everything before" on top of this.

// ---------------------------------------------------------------------------
// Writers: each appends one field to `*out`.

inline void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void PutI32(int32_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v), out);
}

inline void PutI64(int64_t v, std::string* out) {
  PutU64(static_cast<uint64_t>(v), out);
}

inline void PutDouble(double v, std::string* out) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

/// u32 length, then the bytes.
inline void PutString(const std::string& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

/// i32 row, then i32 col.
inline void PutCell(CellRef cell, std::string* out) {
  PutI32(cell.row, out);
  PutI32(cell.col, out);
}

/// CRC-32 (IEEE 802.3 polynomial, bit-reflected) of `n` bytes, chainable
/// via `seed` (pass the previous call's return value to continue a stream).
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// Appends the CRC-32 of `(*out)[start, end)`: the trailer of a record that
/// began at offset `start`.
inline void PutCrc32Since(size_t start, std::string* out) {
  PutU32(Crc32(out->data() + start, out->size() - start), out);
}

/// Value kind tags, shared by every format: u8 tag, then an i32 label
/// (categorical), the double's bit pattern (continuous) or nothing
/// (missing). Answers are normally always valid, but the codec round-trips
/// a missing value rather than aborting on one.
inline constexpr uint8_t kValueCategorical = 0;
inline constexpr uint8_t kValueContinuous = 1;
inline constexpr uint8_t kValueMissing = 2;

/// u32 count, then each cell.
void PutCells(const std::vector<CellRef>& cells, std::string* out);
void PutValue(const Value& v, std::string* out);
/// i32 worker, the cell, then the value.
void PutAnswer(const Answer& a, std::string* out);

/// Smallest encodings, for ByteReader::Count.
inline constexpr size_t kMinCellBytes = 2 * 4;
inline constexpr size_t kMinValueBytes = 1;

// ---------------------------------------------------------------------------
// Reader.

/// Bounds-checked sequential reader over a decode buffer. Every getter
/// returns false instead of reading past the end, so decoders never crash
/// on hostile bytes.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : begin_(static_cast<const uint8_t*>(data)), p_(begin_), left_(size) {}

  bool U8(uint8_t* v) {
    if (left_ < 1) return false;
    *v = *p_;
    Skip(1);
    return true;
  }
  bool U32(uint32_t* v) {
    if (left_ < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(p_[i]) << (8 * i);
    Skip(4);
    return true;
  }
  bool U64(uint64_t* v) {
    if (left_ < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(p_[i]) << (8 * i);
    Skip(8);
    return true;
  }
  bool I32(int32_t* v) {
    uint32_t u;
    if (!U32(&u)) return false;
    *v = static_cast<int32_t>(u);
    return true;
  }
  bool I64(int64_t* v) {
    uint64_t u;
    if (!U64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }
  bool Double(double* v) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool Cell(CellRef* cell) { return I32(&cell->row) && I32(&cell->col); }
  /// A PutString field.
  bool String(std::string* out) {
    uint32_t n;
    if (!U32(&n) || left_ < n) return false;
    out->assign(reinterpret_cast<const char*>(p_), n);
    Skip(n);
    return true;
  }

  /// The allocation guard: true when `n` items of at least `min_bytes_each`
  /// bytes can still fit in the unread input. Decoders check a decoded
  /// count with it before reserving anything, so a hostile count cannot
  /// demand a multi-gigabyte buffer.
  bool Count(uint64_t n, size_t min_bytes_each) const {
    return n <= left_ / min_bytes_each;
  }

  bool done() const { return left_ == 0; }
  /// Bytes read so far.
  size_t consumed() const { return static_cast<size_t>(p_ - begin_); }
  /// CRC-32 of every byte read so far: what a record's trailer must hold.
  uint32_t ConsumedCrc32() const { return Crc32(begin_, consumed()); }

 private:
  void Skip(size_t n) {
    p_ += n;
    left_ -= n;
  }

  const uint8_t* begin_;
  const uint8_t* p_;
  size_t left_;
};

/// Reads a PutCells field into `*cells`; the count is checked with
/// ByteReader::Count first.
bool GetCells(ByteReader* r, std::vector<CellRef>* cells);
/// Reads a PutValue field; false on truncation or an unknown kind tag.
bool GetValue(ByteReader* r, Value* v);
/// Reads `count` PutAnswer fields, appending to `*out`; the count is
/// checked with ByteReader::Count first.
bool GetAnswers(ByteReader* r, uint64_t count, std::vector<Answer>* out);

/// Reads a whole file into `*out`: the input of every on-disk decoder
/// (segment files, manifest, journal, event log). IoError when the file
/// cannot be opened or read.
Status ReadFileBytes(const std::string& path, std::string* out);

}  // namespace tcrowd

#endif  // TCROWD_DATA_BYTE_CODEC_H_
