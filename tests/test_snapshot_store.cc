#include "service/snapshot_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "data/byte_codec.h"

namespace tcrowd::service {
namespace {

namespace fs = std::filesystem;

Schema TestSchema() {
  return Schema({Schema::MakeCategorical("color", {"red", "green", "blue"}),
                 Schema::MakeContinuous("price", 0.0, 10.0)});
}

constexpr int kRows = 20;

Answer Cat(WorkerId w, int row, int label) {
  return Answer{w, CellRef{row, 0}, Value::Categorical(label)};
}

Answer Cont(WorkerId w, int row, double number) {
  return Answer{w, CellRef{row, 1}, Value::Continuous(number)};
}

std::vector<Answer> SomeAnswers(int n, int salt = 0) {
  std::vector<Answer> out;
  for (int k = 0; k < n; ++k) {
    if (k % 2 == 0) {
      out.push_back(Cat(k % 7, (k + salt) % kRows, k % 3));
    } else {
      out.push_back(Cont(k % 7, (k + salt) % kRows, 0.25 * k + salt));
    }
  }
  return out;
}

void ExpectSameAnswers(const std::vector<Answer>& a,
                       const std::vector<Answer>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].worker, b[k].worker) << k;
    EXPECT_EQ(a[k].cell.row, b[k].cell.row) << k;
    EXPECT_EQ(a[k].cell.col, b[k].cell.col) << k;
    EXPECT_TRUE(a[k].value == b[k].value) << k;
  }
}

/// Fresh per-test directory under the gtest temp root.
std::string FreshDir(const char* name) {
  fs::path dir = fs::path(::testing::TempDir()) / "snapshot_store" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

CheckpointArgs Args(const std::string& dir) {
  CheckpointArgs args;
  args.directory = dir;
  args.fsync = false;  // unit tests measure the format, not the disk
  return args;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SnapshotStore, FreshDirectoryOpensEmptyAndInitializesManifest) {
  std::string dir = FreshDir("fresh");
  SnapshotStore store(Args(dir));
  SnapshotStore::RecoveredLog log;
  ASSERT_TRUE(store.Open(TestSchema(), kRows, &log).ok());
  EXPECT_TRUE(log.answers.empty());
  EXPECT_EQ(log.sealed_answers, 0u);
  EXPECT_FALSE(log.journal_truncated);
  EXPECT_TRUE(fs::exists(fs::path(dir) / "MANIFEST"));
}

TEST(SnapshotStore, SealedAndJournaledAnswersRoundTrip) {
  std::string dir = FreshDir("roundtrip");
  std::vector<Answer> seg1 = SomeAnswers(10);
  std::vector<Answer> seg2 = SomeAnswers(6, /*salt=*/3);
  std::vector<Answer> tail = SomeAnswers(4, /*salt=*/9);
  {
    SnapshotStore store(Args(dir));
    SnapshotStore::RecoveredLog log;
    ASSERT_TRUE(store.Open(TestSchema(), kRows, &log).ok());
    ASSERT_TRUE(store.PersistSealed(seg1.data(), seg1.size()).ok());
    ASSERT_TRUE(store.PersistSealed(seg2.data(), seg2.size()).ok());
    ASSERT_TRUE(store.JournalAppend(16, tail.data(), 2).ok());
    ASSERT_TRUE(store.JournalAppend(18, tail.data() + 2, 2).ok());
    EXPECT_EQ(store.durable_sealed(), 16u);
    EXPECT_EQ(store.durable_journaled(), 4u);
    EXPECT_EQ(store.durable_total(), 20u);
  }
  SnapshotStore store(Args(dir));
  SnapshotStore::RecoveredLog log;
  ASSERT_TRUE(store.Open(TestSchema(), kRows, &log).ok());
  EXPECT_EQ(log.sealed_answers, 16u);
  ASSERT_EQ(log.segment_sizes.size(), 2u);
  EXPECT_EQ(log.segment_sizes[0], 10u);
  EXPECT_EQ(log.segment_sizes[1], 6u);
  EXPECT_FALSE(log.journal_truncated);

  std::vector<Answer> expected = seg1;
  expected.insert(expected.end(), seg2.begin(), seg2.end());
  expected.insert(expected.end(), tail.begin(), tail.end());
  ExpectSameAnswers(expected, log.answers);
  // The reopened store continues where the durable log left off.
  EXPECT_EQ(store.durable_total(), 20u);
  EXPECT_EQ(store.durable_journaled(), 4u);
}

TEST(SnapshotStore, PersistSealedResetsJournal) {
  std::string dir = FreshDir("journal_reset");
  std::vector<Answer> answers = SomeAnswers(8);
  SnapshotStore store(Args(dir));
  SnapshotStore::RecoveredLog log;
  ASSERT_TRUE(store.Open(TestSchema(), kRows, &log).ok());
  ASSERT_TRUE(store.JournalAppend(0, answers.data(), answers.size()).ok());
  EXPECT_EQ(store.durable_journaled(), 8u);
  ASSERT_TRUE(store.PersistSealed(answers.data(), answers.size()).ok());
  EXPECT_EQ(store.durable_journaled(), 0u);
  EXPECT_EQ(store.durable_sealed(), 8u);
  EXPECT_EQ(store.durable_total(), 8u);
  EXPECT_EQ(fs::file_size(fs::path(dir) / "journal.bin"), 0u);
}

TEST(SnapshotStore, ReplaySkipsJournalRecordsASegmentAlreadyCovers) {
  // The crash window between manifest publish and journal reset leaves
  // journal records whose answers a segment file already holds; replay
  // must not duplicate them.
  std::string dir = FreshDir("sealed_overlap");
  std::vector<Answer> answers = SomeAnswers(8);
  {
    SnapshotStore store(Args(dir));
    SnapshotStore::RecoveredLog log;
    ASSERT_TRUE(store.Open(TestSchema(), kRows, &log).ok());
    ASSERT_TRUE(store.PersistSealed(answers.data(), answers.size()).ok());
  }
  // Simulate the stale journal the crash would have left behind.
  std::string journal;
  EncodeJournalRecord(4, answers.data() + 4, 4, &journal);  // already sealed
  std::vector<Answer> fresh = SomeAnswers(3, /*salt=*/5);
  EncodeJournalRecord(8, fresh.data(), fresh.size(), &journal);
  WriteFile((fs::path(dir) / "journal.bin").string(), journal);

  SnapshotStore store(Args(dir));
  SnapshotStore::RecoveredLog log;
  ASSERT_TRUE(store.Open(TestSchema(), kRows, &log).ok());
  std::vector<Answer> expected = answers;
  expected.insert(expected.end(), fresh.begin(), fresh.end());
  ExpectSameAnswers(expected, log.answers);
  EXPECT_EQ(store.durable_total(), 11u);
}

TEST(SnapshotStore, TornJournalTailRecoversCleanPrefix) {
  std::string dir = FreshDir("torn_tail");
  std::vector<Answer> answers = SomeAnswers(6);
  {
    SnapshotStore store(Args(dir));
    SnapshotStore::RecoveredLog log;
    ASSERT_TRUE(store.Open(TestSchema(), kRows, &log).ok());
    ASSERT_TRUE(store.JournalAppend(0, answers.data(), 4).ok());
    ASSERT_TRUE(store.JournalAppend(4, answers.data() + 4, 2).ok());
  }
  // Tear the final record mid-write.
  std::string journal_path = (fs::path(dir) / "journal.bin").string();
  std::string bytes = ReadFile(journal_path);
  WriteFile(journal_path, bytes.substr(0, bytes.size() - 7));

  SnapshotStore store(Args(dir));
  SnapshotStore::RecoveredLog log;
  ASSERT_TRUE(store.Open(TestSchema(), kRows, &log).ok());
  EXPECT_TRUE(log.journal_truncated);
  ExpectSameAnswers({answers.begin(), answers.begin() + 4}, log.answers);
  // Open() rewrote the journal clean: a second restart recovers the same
  // prefix with no truncation warning.
  SnapshotStore again(Args(dir));
  SnapshotStore::RecoveredLog log2;
  ASSERT_TRUE(again.Open(TestSchema(), kRows, &log2).ok());
  EXPECT_FALSE(log2.journal_truncated);
  ExpectSameAnswers(log.answers, log2.answers);
}

TEST(SnapshotStore, MissingManifestOverDataIsRefusedNotReinitialized) {
  // Losing ONLY the manifest must not let Open() reinitialize the
  // directory: the segment/journal files are the one copy of the history.
  std::string dir = FreshDir("manifest_missing");
  std::vector<Answer> answers = SomeAnswers(6);
  {
    SnapshotStore store(Args(dir));
    SnapshotStore::RecoveredLog log;
    ASSERT_TRUE(store.Open(TestSchema(), kRows, &log).ok());
    ASSERT_TRUE(store.PersistSealed(answers.data(), answers.size()).ok());
    ASSERT_TRUE(store.JournalAppend(6, answers.data(), 2).ok());
  }
  fs::remove(fs::path(dir) / "MANIFEST");

  SnapshotStore store(Args(dir));
  SnapshotStore::RecoveredLog log;
  Status st = store.Open(TestSchema(), kRows, &log);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // Every data file is still in place, untouched.
  EXPECT_TRUE(fs::exists(fs::path(dir) / "seg-000000.bin"));
  EXPECT_GT(fs::file_size(fs::path(dir) / "journal.bin"), 0u);

  // Same refusal when only a non-empty journal remains.
  std::string dir2 = FreshDir("manifest_missing_journal");
  {
    SnapshotStore s2(Args(dir2));
    SnapshotStore::RecoveredLog l2;
    ASSERT_TRUE(s2.Open(TestSchema(), kRows, &l2).ok());
    ASSERT_TRUE(s2.JournalAppend(0, answers.data(), 3).ok());
  }
  fs::remove(fs::path(dir2) / "MANIFEST");
  SnapshotStore s2(Args(dir2));
  SnapshotStore::RecoveredLog l2;
  EXPECT_EQ(s2.Open(TestSchema(), kRows, &l2).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SnapshotStore, DurableCompactionBoundsSegmentFilesAndKeepsTheLog) {
  std::string dir = FreshDir("durable_compaction");
  CheckpointArgs args = Args(dir);
  args.max_segment_files = 4;
  std::vector<Answer> all = SomeAnswers(60);
  {
    SnapshotStore store(args);
    SnapshotStore::RecoveredLog log;
    ASSERT_TRUE(store.Open(TestSchema(), kRows, &log).ok());
    for (size_t lo = 0; lo < all.size(); lo += 6) {
      ASSERT_TRUE(store.PersistSealed(all.data() + lo, 6).ok());
    }
    EXPECT_EQ(store.durable_sealed(), all.size());
  }
  // 10 seals with a threshold of 4: the file count stayed bounded instead
  // of growing one file per seal.
  int seg_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) == 0) ++seg_files;
  }
  EXPECT_LE(seg_files, 5);

  // The merged log is byte-for-byte the same chronological sequence.
  SnapshotStore store(args);
  SnapshotStore::RecoveredLog log;
  ASSERT_TRUE(store.Open(TestSchema(), kRows, &log).ok());
  ExpectSameAnswers(all, log.answers);
  EXPECT_EQ(log.sealed_answers, all.size());
}

TEST(SnapshotStore, OrphanSegmentFilesAreSweptOnOpen) {
  // A crash between a segment write and its manifest publish leaves an
  // unreferenced file; the next successful Open cleans it up and file
  // names are never reused, so it cannot shadow real data.
  std::string dir = FreshDir("orphans");
  std::vector<Answer> answers = SomeAnswers(5);
  {
    SnapshotStore store(Args(dir));
    SnapshotStore::RecoveredLog log;
    ASSERT_TRUE(store.Open(TestSchema(), kRows, &log).ok());
    ASSERT_TRUE(store.PersistSealed(answers.data(), answers.size()).ok());
  }
  WriteFile((fs::path(dir) / "seg-000099.bin").string(), "torn write");

  SnapshotStore store(Args(dir));
  SnapshotStore::RecoveredLog log;
  ASSERT_TRUE(store.Open(TestSchema(), kRows, &log).ok());
  ExpectSameAnswers(answers, log.answers);
  EXPECT_FALSE(fs::exists(fs::path(dir) / "seg-000099.bin"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "seg-000000.bin"));
  // With the orphan swept, indices continue from the manifest's maximum.
  ASSERT_TRUE(store.PersistSealed(answers.data(), 2).ok());
  EXPECT_TRUE(fs::exists(fs::path(dir) / "seg-000001.bin"));
}

TEST(SnapshotStore, TruncatedManifestFailsLoudly) {
  std::string dir = FreshDir("manifest_trunc");
  std::vector<Answer> answers = SomeAnswers(5);
  {
    SnapshotStore store(Args(dir));
    SnapshotStore::RecoveredLog log;
    ASSERT_TRUE(store.Open(TestSchema(), kRows, &log).ok());
    ASSERT_TRUE(store.PersistSealed(answers.data(), answers.size()).ok());
  }
  std::string manifest_path = (fs::path(dir) / "MANIFEST").string();
  std::string bytes = ReadFile(manifest_path);
  WriteFile(manifest_path, bytes.substr(0, bytes.size() / 2));

  SnapshotStore store(Args(dir));
  SnapshotStore::RecoveredLog log;
  Status st = store.Open(TestSchema(), kRows, &log);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_TRUE(log.answers.empty());
}

TEST(SnapshotStore, CorruptedSegmentFileFailsLoudly) {
  std::string dir = FreshDir("segment_corrupt");
  std::vector<Answer> answers = SomeAnswers(12);
  {
    SnapshotStore store(Args(dir));
    SnapshotStore::RecoveredLog log;
    ASSERT_TRUE(store.Open(TestSchema(), kRows, &log).ok());
    ASSERT_TRUE(store.PersistSealed(answers.data(), answers.size()).ok());
  }
  std::string seg_path = (fs::path(dir) / "seg-000000.bin").string();
  std::string bytes = ReadFile(seg_path);
  bytes[bytes.size() / 2] ^= 0x20;
  WriteFile(seg_path, bytes);

  SnapshotStore store(Args(dir));
  SnapshotStore::RecoveredLog log;
  Status st = store.Open(TestSchema(), kRows, &log);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("seg-000000.bin"), std::string::npos);
}

TEST(SnapshotStore, MissingSegmentFileFailsLoudly) {
  std::string dir = FreshDir("segment_missing");
  std::vector<Answer> answers = SomeAnswers(5);
  {
    SnapshotStore store(Args(dir));
    SnapshotStore::RecoveredLog log;
    ASSERT_TRUE(store.Open(TestSchema(), kRows, &log).ok());
    ASSERT_TRUE(store.PersistSealed(answers.data(), answers.size()).ok());
  }
  fs::remove(fs::path(dir) / "seg-000000.bin");
  SnapshotStore store(Args(dir));
  SnapshotStore::RecoveredLog log;
  EXPECT_EQ(store.Open(TestSchema(), kRows, &log).code(),
            StatusCode::kIoError);
}

TEST(SnapshotStore, FormatVersionMismatchIsRefused) {
  std::string dir = FreshDir("version");
  {
    SnapshotStore store(Args(dir));
    SnapshotStore::RecoveredLog log;
    ASSERT_TRUE(store.Open(TestSchema(), kRows, &log).ok());
  }
  // Patch the manifest's version field (offset 4, little-endian) and redo
  // its trailing CRC so ONLY the version disagrees.
  std::string manifest_path = (fs::path(dir) / "MANIFEST").string();
  std::string bytes = ReadFile(manifest_path);
  bytes[4] = static_cast<char>(kSegmentCodecVersion + 1);
  bytes.resize(bytes.size() - 4);
  PutCrc32Since(0, &bytes);
  WriteFile(manifest_path, bytes);

  SnapshotStore store(Args(dir));
  SnapshotStore::RecoveredLog log;
  Status st = store.Open(TestSchema(), kRows, &log);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("version"), std::string::npos);
}

TEST(SnapshotStore, SchemaMismatchIsRefused) {
  std::string dir = FreshDir("schema_mismatch");
  {
    SnapshotStore store(Args(dir));
    SnapshotStore::RecoveredLog log;
    ASSERT_TRUE(store.Open(TestSchema(), kRows, &log).ok());
  }
  Schema other({Schema::MakeCategorical("color", {"red", "green"})});
  SnapshotStore store(Args(dir));
  SnapshotStore::RecoveredLog log;
  Status st = store.Open(other, kRows, &log);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);

  SnapshotStore rows_store(Args(dir));
  EXPECT_EQ(rows_store.Open(TestSchema(), kRows + 1, &log).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SnapshotStore, WipeDirectoryRemovesOnlyOwnedFiles) {
  std::string dir = FreshDir("wipe");
  std::vector<Answer> answers = SomeAnswers(5);
  {
    SnapshotStore store(Args(dir));
    SnapshotStore::RecoveredLog log;
    ASSERT_TRUE(store.Open(TestSchema(), kRows, &log).ok());
    ASSERT_TRUE(store.PersistSealed(answers.data(), answers.size()).ok());
    ASSERT_TRUE(store.JournalAppend(5, answers.data(), 2).ok());
  }
  WriteFile((fs::path(dir) / "README.txt").string(), "keep me");
  ASSERT_TRUE(SnapshotStore::WipeDirectory(dir).ok());
  EXPECT_FALSE(fs::exists(fs::path(dir) / "MANIFEST"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "journal.bin"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "seg-000000.bin"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "README.txt"));

  // A wiped directory is a fresh store again.
  SnapshotStore store(Args(dir));
  SnapshotStore::RecoveredLog log;
  ASSERT_TRUE(store.Open(TestSchema(), kRows, &log).ok());
  EXPECT_TRUE(log.answers.empty());

  EXPECT_TRUE(SnapshotStore::WipeDirectory(dir + "/does-not-exist").ok());
}

}  // namespace
}  // namespace tcrowd::service
