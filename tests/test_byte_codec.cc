// The shared byte codec (data/byte_codec.h) under every format: CRC-32
// known answers, a reader that never reads past the end at any truncation,
// the one ByteReader::Count allocation guard, and bit-exact Value round
// trips (NaN payloads, -0.0, denormals). The exact field layout is pinned
// per format in test_format_pin.cc.

#include "data/byte_codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace tcrowd {
namespace {

double FromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST(Crc32, MatchesKnownVector) {
  // The IEEE CRC-32 check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Chaining via seed equals one pass over the concatenation.
  EXPECT_EQ(Crc32("6789", 4, Crc32("12345", 5)), 0xcbf43926u);
}

// One buffer holding every field kind, and the reads that consume it.
std::string EveryField() {
  std::string out;
  PutU8(7, &out);
  PutU32(0x89abcdefu, &out);
  PutU64(0x0123456789abcdefull, &out);
  PutI32(-5, &out);
  PutI64(-6, &out);
  PutDouble(-0.0, &out);
  PutCell(CellRef{3, 4}, &out);
  PutString("segment-000001.tcs", &out);
  PutValue(Value::Categorical(2), &out);
  PutAnswer(Answer{9, CellRef{1, 2}, Value::Continuous(2.5)}, &out);
  return out;
}

bool ReadEveryField(ByteReader* r) {
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  int64_t i64;
  double d;
  CellRef cell;
  std::string s;
  Value v;
  std::vector<Answer> a;
  return r->U8(&u8) && r->U32(&u32) && r->U64(&u64) && r->I32(&i32) &&
         r->I64(&i64) && r->Double(&d) && r->Cell(&cell) && r->String(&s) &&
         GetValue(r, &v) && GetAnswers(r, 1, &a);
}

TEST(ByteReader, ReadsEveryFieldBackAndEndsExactly) {
  const std::string bytes = EveryField();
  ByteReader r(bytes.data(), bytes.size());
  ASSERT_TRUE(ReadEveryField(&r));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.consumed(), bytes.size());
  uint8_t extra;
  EXPECT_FALSE(r.U8(&extra));
}

TEST(ByteReader, NeverReadsPastTheEndAtAnyTruncation) {
  const std::string bytes = EveryField();
  for (size_t n = 0; n < bytes.size(); ++n) {
    // An exactly-sized heap copy, so a sanitizer build flags any overread.
    std::unique_ptr<char[]> prefix(new char[n == 0 ? 1 : n]);
    std::memcpy(prefix.get(), bytes.data(), n);
    ByteReader r(prefix.get(), n);
    EXPECT_FALSE(ReadEveryField(&r)) << "truncated at " << n;
    EXPECT_LE(r.consumed(), n) << "truncated at " << n;
  }
}

TEST(ByteReader, StringLengthPastTheEndIsRefused) {
  std::string bytes;
  PutU32(0xfffffff0u, &bytes);  // claims ~4 GiB
  bytes += "abc";
  ByteReader r(bytes.data(), bytes.size());
  std::string s;
  EXPECT_FALSE(r.String(&s));
  EXPECT_TRUE(s.empty());
}

TEST(ByteReader, CountRejectsEveryItemCountThatCannotFit) {
  const std::string bytes(26, '\0');
  ByteReader r(bytes.data(), bytes.size());
  EXPECT_TRUE(r.Count(0, 13));
  EXPECT_TRUE(r.Count(2, 13));   // 26 bytes: exactly fits
  EXPECT_FALSE(r.Count(3, 13));  // 39 > 26
  EXPECT_TRUE(r.Count(1, 26));
  EXPECT_FALSE(r.Count(1, 27));  // one byte over
  EXPECT_TRUE(r.Count(26, 1));
  EXPECT_FALSE(r.Count(27, 1));
  // No overflow: a count whose byte total wraps 64 bits is still refused.
  EXPECT_FALSE(r.Count(std::numeric_limits<uint64_t>::max(), 8));
  EXPECT_FALSE(r.Count(uint64_t{1} << 61, 8));

  // The guard tracks what is left unread, not the buffer size.
  uint64_t skip;
  ASSERT_TRUE(r.U64(&skip));
  EXPECT_TRUE(r.Count(1, 18));
  EXPECT_FALSE(r.Count(1, 19));
}

TEST(ByteReader, HostileAnswerCountIsRefusedBeforeAllocation) {
  std::string bytes;
  PutAnswer(Answer{1, CellRef{0, 0}, Value::Categorical(0)}, &bytes);
  ByteReader r(bytes.data(), bytes.size());
  std::vector<Answer> out;
  EXPECT_FALSE(GetAnswers(&r, 2, &out));  // one answer's bytes, count 2
  EXPECT_EQ(out.capacity(), 0u);
  EXPECT_FALSE(GetAnswers(&r, std::numeric_limits<uint64_t>::max(), &out));
  EXPECT_EQ(out.capacity(), 0u);
  ASSERT_TRUE(GetAnswers(&r, 1, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(r.done());
}

TEST(ValueCodec, RoundTripsEveryDoubleBitExactly) {
  const uint64_t kPatterns[] = {
      0x0000000000000000ull,  // +0.0
      0x8000000000000000ull,  // -0.0
      0x0000000000000001ull,  // smallest denormal
      0x000fffffffffffffull,  // largest denormal
      0x800fffffffffffffull,  // negative denormal
      0x7ff0000000000000ull,  // +inf
      0xfff0000000000000ull,  // -inf
      0x7ff8000000000000ull,  // quiet NaN
      0xfff8000000000000ull,  // negative quiet NaN
      0x7ff8dead0000beefull,  // NaN with a payload
      0x7ff0000000000001ull,  // signalling NaN
      0x3ff0000000000001ull,  // 1 + ulp
  };
  for (uint64_t pattern : kPatterns) {
    std::string bytes;
    PutValue(Value::Continuous(FromBits(pattern)), &bytes);
    ASSERT_EQ(bytes.size(), 9u);
    EXPECT_EQ(static_cast<uint8_t>(bytes[0]), kValueContinuous);
    ByteReader r(bytes.data(), bytes.size());
    Value v;
    ASSERT_TRUE(GetValue(&r, &v));
    ASSERT_TRUE(v.is_continuous());
    EXPECT_EQ(Bits(v.number()), pattern) << std::hex << pattern;
    EXPECT_TRUE(r.done());
  }
}

TEST(ValueCodec, RoundTripsLabelsAndMissing) {
  for (int label : {0, 1, std::numeric_limits<int32_t>::max(),
                    std::numeric_limits<int32_t>::min()}) {
    std::string bytes;
    PutValue(Value::Categorical(label), &bytes);
    ByteReader r(bytes.data(), bytes.size());
    Value v;
    ASSERT_TRUE(GetValue(&r, &v));
    ASSERT_TRUE(v.is_categorical());
    EXPECT_EQ(v.label(), label);
  }
  std::string bytes;
  PutValue(Value(), &bytes);
  EXPECT_EQ(bytes, std::string(1, static_cast<char>(kValueMissing)));
  ByteReader r(bytes.data(), bytes.size());
  Value v = Value::Categorical(1);
  ASSERT_TRUE(GetValue(&r, &v));
  EXPECT_FALSE(v.valid());
}

TEST(ValueCodec, UnknownKindTagIsCorrupt) {
  for (uint8_t tag : {uint8_t{3}, uint8_t{0x80}, uint8_t{0xff}}) {
    std::string bytes;
    PutU8(tag, &bytes);
    PutU64(0, &bytes);
    ByteReader r(bytes.data(), bytes.size());
    Value v;
    EXPECT_FALSE(GetValue(&r, &v)) << int(tag);
  }
}

}  // namespace
}  // namespace tcrowd
