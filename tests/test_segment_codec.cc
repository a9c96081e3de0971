#include "inference/segment_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "data/byte_codec.h"
#include "test_helpers.h"

namespace tcrowd {
namespace {

Answer Cat(WorkerId w, int row, int col, int label) {
  return Answer{w, CellRef{row, col}, Value::Categorical(label)};
}

Answer Cont(WorkerId w, int row, int col, double number) {
  return Answer{w, CellRef{row, col}, Value::Continuous(number)};
}

std::vector<Answer> AwkwardAnswers() {
  return {
      Cat(0, 0, 0, 2),
      Cont(1, 3, 1, 0.1),  // not exactly representable
      Cont(2, 1, 1, -0.0),
      Cont(7, 2, 1, std::numeric_limits<double>::denorm_min()),
      Cont(7, 2, 1, -1.7976931348623157e308),
      Cont(3, 0, 1, std::numeric_limits<double>::quiet_NaN()),
      Answer{5, CellRef{4, 0}, Value()},  // missing, defensively encodable
      Cat(100000, 9, 0, 0),
  };
}

TEST(AnswerBlock, RoundTripsBitExactly) {
  std::vector<Answer> in = AwkwardAnswers();
  std::string bytes;
  EncodeAnswerBlock(in.data(), in.size(), &bytes);
  std::vector<Answer> out;
  ASSERT_TRUE(DecodeAnswerBlock(bytes.data(), bytes.size(), &out).ok());
  testing::ExpectSameAnswers(in, out);
}

TEST(AnswerBlock, EmptyBlockRoundTrips) {
  std::string bytes;
  EncodeAnswerBlock(nullptr, 0, &bytes);
  std::vector<Answer> out;
  ASSERT_TRUE(DecodeAnswerBlock(bytes.data(), bytes.size(), &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(AnswerBlock, RefusesWrongMagic) {
  std::vector<Answer> in = {Cat(1, 0, 0, 1)};
  std::string bytes;
  EncodeAnswerBlock(in.data(), in.size(), &bytes);
  bytes[0] ^= 0x40;
  std::vector<Answer> out;
  Status st = DecodeAnswerBlock(bytes.data(), bytes.size(), &out);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(out.empty());
}

TEST(AnswerBlock, RefusesFutureFormatVersion) {
  std::vector<Answer> in = {Cat(1, 0, 0, 1)};
  std::string bytes;
  EncodeAnswerBlock(in.data(), in.size(), &bytes);
  bytes[4] = static_cast<char>(kSegmentCodecVersion + 1);  // version field
  std::vector<Answer> out;
  Status st = DecodeAnswerBlock(bytes.data(), bytes.size(), &out);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("version"), std::string::npos);
}

TEST(AnswerBlock, DetectsPayloadCorruption) {
  std::vector<Answer> in = {Cat(1, 0, 0, 1), Cont(2, 1, 1, 3.5)};
  std::string bytes;
  EncodeAnswerBlock(in.data(), in.size(), &bytes);
  bytes[bytes.size() / 2] ^= 0x01;
  std::vector<Answer> out;
  Status st = DecodeAnswerBlock(bytes.data(), bytes.size(), &out);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_TRUE(out.empty());
}

TEST(AnswerBlock, DetectsTruncation) {
  std::vector<Answer> in = {Cat(1, 0, 0, 1), Cont(2, 1, 1, 3.5)};
  std::string bytes;
  EncodeAnswerBlock(in.data(), in.size(), &bytes);
  for (size_t cut : {size_t{0}, size_t{3}, size_t{12}, bytes.size() - 1}) {
    std::vector<Answer> out;
    EXPECT_FALSE(DecodeAnswerBlock(bytes.data(), cut, &out).ok())
        << "cut at " << cut;
  }
}

TEST(AnswerBlock, CorruptCountCannotDemandHugeAllocation) {
  std::vector<Answer> in = {Cat(1, 0, 0, 1)};
  std::string bytes;
  EncodeAnswerBlock(in.data(), in.size(), &bytes);
  // Count field lives at offset 8; blow it up to ~2^56.
  bytes[8 + 7] = 0x01;
  std::vector<Answer> out;
  EXPECT_FALSE(DecodeAnswerBlock(bytes.data(), bytes.size(), &out).ok());
}

TEST(Manifest, RoundTrips) {
  SnapshotManifest in;
  in.schema_fingerprint = 0x1234abcd5678ef00ull;
  in.segments = {{"seg-000000.bin", 10, 0xdeadbeef},
                 {"seg-000001.bin", 32, 0x12345678}};
  in.sealed_answers = 42;
  std::string bytes;
  EncodeManifest(in, &bytes);
  SnapshotManifest out;
  ASSERT_TRUE(DecodeManifest(bytes.data(), bytes.size(), &out).ok());
  EXPECT_EQ(out.schema_fingerprint, in.schema_fingerprint);
  EXPECT_EQ(out.sealed_answers, in.sealed_answers);
  ASSERT_EQ(out.segments.size(), 2u);
  EXPECT_EQ(out.segments[0].file, "seg-000000.bin");
  EXPECT_EQ(out.segments[1].count, 32u);
  EXPECT_EQ(out.segments[1].crc, 0x12345678u);
}

TEST(Manifest, DetectsTruncationAndCorruption) {
  SnapshotManifest in;
  in.schema_fingerprint = 7;
  in.segments = {{"seg-000000.bin", 5, 1}};
  in.sealed_answers = 5;
  std::string bytes;
  EncodeManifest(in, &bytes);

  SnapshotManifest out;
  EXPECT_EQ(DecodeManifest(bytes.data(), bytes.size() - 3, &out).code(),
            StatusCode::kIoError);
  std::string corrupt = bytes;
  corrupt[10] ^= 0xff;
  EXPECT_EQ(DecodeManifest(corrupt.data(), corrupt.size(), &out).code(),
            StatusCode::kIoError);
}

TEST(Manifest, RefusesFutureFormatVersion) {
  SnapshotManifest in;
  std::string bytes;
  EncodeManifest(in, &bytes);
  bytes[4] = static_cast<char>(kSegmentCodecVersion + 3);
  SnapshotManifest out;
  EXPECT_EQ(DecodeManifest(bytes.data(), bytes.size(), &out).code(),
            StatusCode::kFailedPrecondition);
}

TEST(Journal, RoundTripsMultipleRecords) {
  std::vector<Answer> batch1 = {Cat(1, 0, 0, 1), Cont(2, 1, 1, 0.25)};
  std::vector<Answer> batch2 = AwkwardAnswers();
  std::string bytes;
  EncodeJournalRecord(0, batch1.data(), batch1.size(), &bytes);
  EncodeJournalRecord(batch1.size(), batch2.data(), batch2.size(), &bytes);

  JournalReplay replay;
  ASSERT_TRUE(DecodeJournal(bytes.data(), bytes.size(), &replay).ok());
  EXPECT_FALSE(replay.truncated);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0].base_id, 0u);
  EXPECT_EQ(replay.records[1].base_id, batch1.size());
  testing::ExpectSameAnswers(batch1, replay.records[0].answers);
  testing::ExpectSameAnswers(batch2, replay.records[1].answers);
}

TEST(Journal, TornTailKeepsCleanPrefix) {
  std::vector<Answer> batch1 = {Cat(1, 0, 0, 1)};
  std::vector<Answer> batch2 = {Cont(2, 1, 1, 4.0), Cat(3, 2, 0, 0)};
  std::string bytes;
  EncodeJournalRecord(0, batch1.data(), batch1.size(), &bytes);
  size_t clean = bytes.size();
  EncodeJournalRecord(1, batch2.data(), batch2.size(), &bytes);

  // Chop the second record anywhere: the first must survive untouched.
  for (size_t cut = clean; cut < bytes.size(); cut += 5) {
    JournalReplay replay;
    ASSERT_TRUE(DecodeJournal(bytes.data(), cut, &replay).ok());
    EXPECT_EQ(replay.truncated, cut != clean) << "cut at " << cut;
    ASSERT_EQ(replay.records.size(), 1u) << "cut at " << cut;
    testing::ExpectSameAnswers(batch1, replay.records[0].answers);
  }
}

TEST(Journal, GarbageYieldsEmptyTruncatedReplay) {
  std::string garbage = "this is not a journal";
  JournalReplay replay;
  ASSERT_TRUE(DecodeJournal(garbage.data(), garbage.size(), &replay).ok());
  EXPECT_TRUE(replay.truncated);
  EXPECT_TRUE(replay.records.empty());
}

TEST(Manifest, RetractionTableRoundTrips) {
  SnapshotManifest in;
  in.schema_fingerprint = 0xfeedface12345678ull;
  in.segments = {{"seg-000000.bin", 30, 0xaaaa5555},
                 {"seg-000001.bin", 12, 0x5555aaaa}};
  in.sealed_answers = 42;
  in.retracted_ids = {3, 17, 41};
  std::string bytes;
  EncodeManifest(in, &bytes);
  SnapshotManifest out;
  ASSERT_TRUE(DecodeManifest(bytes.data(), bytes.size(), &out).ok());
  EXPECT_EQ(out.retracted_ids, in.retracted_ids);
  EXPECT_EQ(out.sealed_answers, in.sealed_answers);
}

TEST(Manifest, RejectsSemanticallyInvalidRetractionTable) {
  // A CRC-clean manifest whose retraction table violates the invariants
  // (strictly increasing, below sealed_answers) must refuse: a hostile or
  // buggy writer may produce consistent checksums over nonsense. With one
  // segment the layout is fixed: magic(4) version(4) fingerprint(8)
  // sealed(8) nseg(4) [namelen(4) name(14) count(8) crc(4)] nret(4)
  // ids(8 each) crc(4).
  auto patched = [](uint64_t id0, uint64_t id1) {
    SnapshotManifest valid;
    valid.sealed_answers = 50;
    valid.segments = {{"seg-000000.bin", 50, 0x12345678}};
    valid.retracted_ids = {1, 2};
    std::string b;
    EncodeManifest(valid, &b);
    size_t ids_at = 4 + 4 + 8 + 8 + 4 + (4 + 14 + 8 + 4) + 4;
    std::string ids;
    PutU64(id0, &ids);
    PutU64(id1, &ids);
    b.replace(ids_at, ids.size(), ids);
    b.resize(b.size() - 4);
    PutCrc32Since(0, &b);
    SnapshotManifest out;
    return DecodeManifest(b.data(), b.size(), &out);
  };
  EXPECT_TRUE(patched(1, 2).ok());                       // control
  EXPECT_FALSE(patched(2, 1).ok());                      // not increasing
  EXPECT_FALSE(patched(2, 2).ok());                      // not strict
  EXPECT_FALSE(patched(1, 50).ok());                     // >= sealed_answers
  EXPECT_FALSE(patched(1, ~0ull).ok());                  // way out of range
}

TEST(Journal, RetractionRecordsInterleaveWithBatches) {
  std::vector<Answer> batch = {Cat(1, 0, 0, 1), Cont(2, 1, 1, 0.5)};
  std::string bytes;
  EncodeJournalRecord(0, batch.data(), batch.size(), &bytes);
  EncodeRetractionRecord(1, &bytes);
  EncodeJournalRecord(2, batch.data(), batch.size(), &bytes);
  EncodeRetractionRecord(2, &bytes);
  EncodeRetractionRecord(0, &bytes);

  JournalReplay replay;
  ASSERT_TRUE(DecodeJournal(bytes.data(), bytes.size(), &replay).ok());
  EXPECT_FALSE(replay.truncated);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[1].base_id, 2u);
  // Journal order preserved, no dedup — the consumer owns id resolution.
  EXPECT_EQ(replay.retracted_ids, (std::vector<uint64_t>{1, 2, 0}));
}

// ---------------------------------------------------------------------------
// Fuzz-style decoder hardening via the shared matrix in tests/test_helpers.h
// (the same matrix test_event_log.cc and test_net_protocol.cc run): flip
// every byte position with each mask and truncate at every length. Strict
// decoders must refuse every mutation with a clean Status; the journal (the
// one lenient reader) must always return OK but never fabricate records —
// whatever survives must be a bit-exact prefix of what was written.

TEST(CodecFuzz, AnswerBlockRefusesEveryByteFlipAndTruncation) {
  std::vector<Answer> in = AwkwardAnswers();
  std::string bytes;
  EncodeAnswerBlock(in.data(), in.size(), &bytes);
  testing::RunStrictCodecFuzz(
      bytes,
      [](const char* data, size_t size) {
        std::vector<Answer> out;
        return DecodeAnswerBlock(data, size, &out).ok();
      },
      "answer block");
}

TEST(CodecFuzz, ManifestRefusesEveryByteFlipAndTruncation) {
  SnapshotManifest in;
  in.schema_fingerprint = 0x0123456789abcdefull;
  in.segments = {{"seg-000000.bin", 20, 0xdeadbeef},
                 {"seg-000001.bin", 22, 0xcafef00d}};
  in.sealed_answers = 42;
  in.retracted_ids = {0, 7, 41};
  std::string bytes;
  EncodeManifest(in, &bytes);
  testing::RunStrictCodecFuzz(
      bytes,
      [](const char* data, size_t size) {
        SnapshotManifest out;
        return DecodeManifest(data, size, &out).ok();
      },
      "snapshot manifest");
}

TEST(CodecFuzz, JournalMutationsKeepABitExactCleanPrefix) {
  // Batch records and retraction records interleaved, ending on a batch of
  // awkward values — both record kinds and both positions in the stream get
  // the full matrix. The item layout (record/retraction per boundary) lets
  // the callback check the per-kind split, not just the total.
  std::vector<Answer> batch1 = {Cat(1, 0, 0, 1), Cont(2, 1, 1, 0.25)};
  std::vector<Answer> batch2 = AwkwardAnswers();
  std::string bytes;
  std::vector<size_t> boundaries = {0};
  std::vector<bool> is_record;
  EncodeJournalRecord(0, batch1.data(), batch1.size(), &bytes);
  boundaries.push_back(bytes.size());
  is_record.push_back(true);
  EncodeRetractionRecord(1, &bytes);
  boundaries.push_back(bytes.size());
  is_record.push_back(false);
  EncodeJournalRecord(2, batch2.data(), batch2.size(), &bytes);
  boundaries.push_back(bytes.size());
  is_record.push_back(true);
  EncodeRetractionRecord(5, &bytes);
  boundaries.push_back(bytes.size());
  is_record.push_back(false);

  JournalReplay pristine;
  ASSERT_TRUE(DecodeJournal(bytes.data(), bytes.size(), &pristine).ok());
  ASSERT_EQ(pristine.records.size(), 2u);
  ASSERT_EQ(pristine.retracted_ids.size(), 2u);

  auto decode = [&](const char* data, size_t size,
                    testing::FuzzReplay* fuzz) {
    JournalReplay replay;
    if (!DecodeJournal(data, size, &replay).ok()) return false;
    fuzz->items = replay.records.size() + replay.retracted_ids.size();
    fuzz->truncated = replay.truncated;
    // The split across kinds must match the first `items` of the layout —
    // a replay may not trade a lost record for a fabricated retraction.
    size_t want_records = 0;
    for (size_t k = 0; k < fuzz->items && k < is_record.size(); ++k) {
      if (is_record[k]) ++want_records;
    }
    if (replay.records.size() != want_records) return false;
    // And the surviving items must be bit-exact prefixes of the pristine
    // decode, kind by kind.
    for (size_t k = 0; k < replay.records.size(); ++k) {
      if (replay.records[k].base_id != pristine.records[k].base_id) {
        return false;
      }
      testing::ExpectSameAnswers(pristine.records[k].answers,
                         replay.records[k].answers);
    }
    for (size_t k = 0; k < replay.retracted_ids.size(); ++k) {
      if (replay.retracted_ids[k] != pristine.retracted_ids[k]) return false;
    }
    return true;
  };
  testing::RunCleanPrefixFuzz(bytes, boundaries, decode, "journal");
}

TEST(SchemaFingerprint, SensitiveToEveryShapeDetail) {
  Schema base({Schema::MakeCategorical("color", {"red", "green"}),
               Schema::MakeContinuous("price", 0.0, 10.0)});
  uint64_t fp = SchemaFingerprint(base, 40);

  EXPECT_EQ(SchemaFingerprint(base, 40), fp);  // deterministic
  EXPECT_NE(SchemaFingerprint(base, 41), fp);  // row count
  Schema renamed({Schema::MakeCategorical("colour", {"red", "green"}),
                  Schema::MakeContinuous("price", 0.0, 10.0)});
  EXPECT_NE(SchemaFingerprint(renamed, 40), fp);
  Schema relabeled({Schema::MakeCategorical("color", {"red", "blue"}),
                    Schema::MakeContinuous("price", 0.0, 10.0)});
  EXPECT_NE(SchemaFingerprint(relabeled, 40), fp);
  Schema rebounded({Schema::MakeCategorical("color", {"red", "green"}),
                    Schema::MakeContinuous("price", 0.0, 12.0)});
  EXPECT_NE(SchemaFingerprint(rebounded, 40), fp);
  Schema reordered({Schema::MakeContinuous("price", 0.0, 10.0),
                    Schema::MakeCategorical("color", {"red", "green"})});
  EXPECT_NE(SchemaFingerprint(reordered, 40), fp);
}

}  // namespace
}  // namespace tcrowd
