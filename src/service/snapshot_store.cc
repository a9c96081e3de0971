#include "service/snapshot_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "data/byte_codec.h"
#include "platform/trace.h"

namespace tcrowd::service {

namespace fs = std::filesystem;

namespace {

constexpr const char kManifestName[] = "MANIFEST";
constexpr const char kManifestTmpName[] = "MANIFEST.tmp";
constexpr const char kJournalName[] = "journal.bin";
constexpr const char kJournalTmpName[] = "journal.tmp";

std::string SegmentFileName(size_t index) {
  return StrFormat("seg-%06zu.bin", index);
}

bool IsSegmentFileName(const std::string& name) {
  return name.rfind("seg-", 0) == 0 && name.size() > 8 &&
         name.substr(name.size() - 4) == ".bin";
}

/// Index encoded in a segment file name; 0 for malformed names (safe: the
/// caller only takes a max against real indices).
size_t ParseSegmentIndex(const std::string& name) {
  if (!IsSegmentFileName(name)) return 0;
  return static_cast<size_t>(
      std::strtoull(name.c_str() + 4, nullptr, 10));
}

}  // namespace

SnapshotStore::SnapshotStore(CheckpointArgs args) : args_(std::move(args)) {}

SnapshotStore::~SnapshotStore() {
  if (journal_ != nullptr) std::fclose(journal_);
}

Status SnapshotStore::SyncFile(std::FILE* f, const std::string& what) {
  if (std::fflush(f) != 0) {
    return Status::IoError(StrFormat("flush failed for %s", what.c_str()));
  }
  if (args_.fsync && ::fsync(::fileno(f)) != 0) {
    return Status::IoError(StrFormat("fsync failed for %s: %s", what.c_str(),
                                     std::strerror(errno)));
  }
  return Status::Ok();
}

void SnapshotStore::SyncDirectory() {
  if (!args_.fsync) return;
  int dfd = ::open(args_.directory.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

Status SnapshotStore::WriteFileDurable(const std::string& path,
                                       const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError(
        StrFormat("cannot write %s: %s", path.c_str(), std::strerror(errno)));
  }
  size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  Status st = written == bytes.size()
                  ? SyncFile(f, path)
                  : Status::IoError(StrFormat("short write to %s",
                                              path.c_str()));
  std::fclose(f);
  return st;
}

Status SnapshotStore::WriteManifest() {
  TCROWD_TRACE(kCheckpoint, kInfo, "manifest write",
               manifest_.sealed_answers, manifest_.segments.size());
  std::string bytes;
  EncodeManifest(manifest_, &bytes);
  fs::path dir(args_.directory);
  std::string tmp = (dir / kManifestTmpName).string();
  std::string final_path = (dir / kManifestName).string();

  TCROWD_RETURN_IF_ERROR(WriteFileDurable(tmp, bytes));

  // Atomic publish: readers see either the old or the new manifest, never a
  // torn one. The directory fsync makes the rename itself durable.
  std::error_code ec;
  fs::rename(tmp, final_path, ec);
  if (ec) {
    return Status::IoError(StrFormat("rename %s -> %s failed: %s",
                                     tmp.c_str(), final_path.c_str(),
                                     ec.message().c_str()));
  }
  SyncDirectory();
  return Status::Ok();
}

Status SnapshotStore::PublishJournal(const std::string& bytes) {
  if (journal_ != nullptr) {
    std::fclose(journal_);
    journal_ = nullptr;
  }
  fs::path dir(args_.directory);
  std::string tmp = (dir / kJournalTmpName).string();
  std::string final_path = (dir / kJournalName).string();

  // Same tmp+rename discipline as the manifest: the old journal's bytes
  // stay on disk until the new content is durable, so no crash in this
  // window can lose the tail; the directory fsync also makes journal.bin's
  // directory entry itself durable (including its very first creation).
  TCROWD_RETURN_IF_ERROR(WriteFileDurable(tmp, bytes));
  std::error_code ec;
  fs::rename(tmp, final_path, ec);
  if (ec) {
    return Status::IoError(StrFormat("rename %s -> %s failed: %s",
                                     tmp.c_str(), final_path.c_str(),
                                     ec.message().c_str()));
  }
  SyncDirectory();

  journal_ = std::fopen(final_path.c_str(), "ab");
  if (journal_ == nullptr) {
    return Status::IoError(StrFormat("cannot reopen %s: %s",
                                     final_path.c_str(),
                                     std::strerror(errno)));
  }
  return Status::Ok();
}

Status SnapshotStore::Open(const Schema& schema, int num_rows,
                           RecoveredLog* recovered) {
  TCROWD_CHECK(!opened_);
  TCROWD_CHECK(args_.enabled());
  *recovered = RecoveredLog();

  std::error_code ec;
  fs::create_directories(args_.directory, ec);
  if (ec) {
    return Status::IoError(StrFormat("cannot create snapshot directory %s: %s",
                                     args_.directory.c_str(),
                                     ec.message().c_str()));
  }
  fs::path dir(args_.directory);
  uint64_t fingerprint = SchemaFingerprint(schema, num_rows);
  if (args_.namespace_tag != 0) {
    fingerprint = NamespacedFingerprint(fingerprint, args_.namespace_tag);
  }

  std::string manifest_path = (dir / kManifestName).string();
  if (fs::exists(manifest_path)) {
    std::string bytes;
    TCROWD_RETURN_IF_ERROR(ReadFileBytes(manifest_path, &bytes));
    TCROWD_RETURN_IF_ERROR(
        DecodeManifest(bytes.data(), bytes.size(), &manifest_));
    if (manifest_.schema_fingerprint != fingerprint) {
      return Status::FailedPrecondition(StrFormat(
          "snapshot %s was written for a different schema/table shape "
          "(fingerprint %016llx, serving %016llx)",
          args_.directory.c_str(),
          static_cast<unsigned long long>(manifest_.schema_fingerprint),
          static_cast<unsigned long long>(fingerprint)));
    }
    for (const ManifestSegment& seg : manifest_.segments) {
      next_file_index_ =
          std::max(next_file_index_, ParseSegmentIndex(seg.file) + 1);
    }
  } else {
    // Only a truly empty directory may be initialized. Segment or journal
    // data without a manifest means the manifest was lost, not that this
    // is a fresh store — reinitializing would truncate the journal and
    // eventually bury the old segments, destroying the one copy of the
    // history. Refuse; the operator decides (restore the manifest, or
    // WipeDirectory deliberately).
    std::error_code list_ec;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(args_.directory, list_ec)) {
      std::string name = entry.path().filename().string();
      std::error_code size_ec;
      bool has_data =
          IsSegmentFileName(name) ||
          (name == kJournalName &&
           fs::file_size(entry.path(), size_ec) > 0 && !size_ec);
      if (has_data) {
        return Status::FailedPrecondition(StrFormat(
            "snapshot %s holds answer data (%s) but no MANIFEST; refusing "
            "to reinitialize over it",
            args_.directory.c_str(), name.c_str()));
      }
    }
    if (list_ec) {
      // A listing we could not complete proves nothing about the
      // directory's emptiness; initializing blind could bury real data.
      return Status::IoError(StrFormat("cannot list %s: %s",
                                       args_.directory.c_str(),
                                       list_ec.message().c_str()));
    }
    manifest_ = SnapshotManifest();
    manifest_.schema_fingerprint = fingerprint;
    TCROWD_RETURN_IF_ERROR(WriteManifest());
  }

  // Segment files: every byte is checksum-verified twice over (manifest CRC
  // of the file, frame CRC inside it) before an answer is trusted.
  for (const ManifestSegment& seg : manifest_.segments) {
    std::string path = (dir / seg.file).string();
    std::string bytes;
    TCROWD_RETURN_IF_ERROR(ReadFileBytes(path, &bytes));
    if (Crc32(bytes.data(), bytes.size()) != seg.crc) {
      return Status::IoError(StrFormat(
          "segment %s: file checksum disagrees with manifest", path.c_str()));
    }
    size_t before = recovered->answers.size();
    Status st = DecodeAnswerBlock(bytes.data(), bytes.size(),
                                  &recovered->answers);
    if (!st.ok()) {
      return Status(st.code(),
                    StrFormat("segment %s: %s", path.c_str(),
                              st.message().c_str()));
    }
    size_t count = recovered->answers.size() - before;
    if (count != seg.count) {
      return Status::IoError(StrFormat(
          "segment %s: holds %zu answers, manifest says %llu", path.c_str(),
          count, static_cast<unsigned long long>(seg.count)));
    }
    recovered->segment_sizes.push_back(count);
  }
  recovered->sealed_answers = recovered->answers.size();
  TCROWD_CHECK(recovered->sealed_answers == manifest_.sealed_answers);

  // Journal replay: keep the longest clean prefix of whole records, skip
  // records a durable segment already covers (a crash between manifest
  // publish and journal reset leaves exactly those behind).
  std::string journal_path = (dir / kJournalName).string();
  std::vector<Answer> tail;
  std::vector<uint64_t> journal_retractions;
  if (fs::exists(journal_path)) {
    std::string bytes;
    TCROWD_RETURN_IF_ERROR(ReadFileBytes(journal_path, &bytes));
    JournalReplay replay;
    TCROWD_RETURN_IF_ERROR(DecodeJournal(bytes.data(), bytes.size(), &replay));
    recovered->journal_truncated = replay.truncated;
    uint64_t next = manifest_.sealed_answers;
    for (const JournalRecord& rec : replay.records) {
      uint64_t rec_end = rec.base_id + rec.answers.size();
      if (rec_end <= next) continue;  // fully sealed already
      if (rec.base_id > next) {
        // A gap means lost records; everything after is unanchored.
        recovered->journal_truncated = true;
        break;
      }
      size_t skip = static_cast<size_t>(next - rec.base_id);
      tail.insert(tail.end(), rec.answers.begin() + skip, rec.answers.end());
      next = rec_end;
    }
    recovered->answers.insert(recovered->answers.end(), tail.begin(),
                              tail.end());
    journal_retractions = std::move(replay.retracted_ids);
  }

  // Durable retractions = manifest table ∪ journal records, sorted,
  // deduplicated, and bounded by the recovered log (a retraction naming an
  // answer that never became durable is moot — the answer it killed died
  // with the torn tail).
  std::vector<uint64_t> dead = manifest_.retracted_ids;
  const uint64_t recovered_total = recovered->answers.size();
  for (uint64_t id : journal_retractions) {
    if (id < recovered_total) dead.push_back(id);
  }
  std::sort(dead.begin(), dead.end());
  dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
  recovered->retracted_ids = dead;

  // Republish the journal as one clean record (drops torn tails and sealed
  // leftovers for good) — atomically, so the tail's only durable copy is
  // never mid-air — then keep it open for appends. Journal retractions the
  // manifest has not folded yet must ride along, or a crash before the
  // next seal would resurrect the retracted answers.
  std::string clean;
  if (!tail.empty()) {
    EncodeJournalRecord(manifest_.sealed_answers, tail.data(), tail.size(),
                        &clean);
  }
  journal_retracted_.clear();
  for (uint64_t id : dead) {
    if (!std::binary_search(manifest_.retracted_ids.begin(),
                            manifest_.retracted_ids.end(), id)) {
      EncodeRetractionRecord(id, &clean);
      journal_retracted_.push_back(id);
    }
  }
  TCROWD_RETURN_IF_ERROR(PublishJournal(clean));
  journaled_ = tail.size();
  SweepOrphanSegments();
  opened_ = true;
  return Status::Ok();
}

void SnapshotStore::SweepOrphanSegments() {
  // Leftovers of writes that crashed before their manifest publish
  // (persist or durable compaction). Only after a fully successful load —
  // a failed Open must leave every byte in place as evidence.
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(args_.directory, ec)) {
    std::string name = entry.path().filename().string();
    if (!IsSegmentFileName(name)) continue;
    bool referenced = false;
    for (const ManifestSegment& seg : manifest_.segments) {
      if (seg.file == name) {
        referenced = true;
        break;
      }
    }
    if (!referenced) {
      std::error_code rm_ec;
      fs::remove(entry.path(), rm_ec);
    }
  }
}

Status SnapshotStore::WriteSegmentFile(const Answer* answers, size_t n) {
  // Fresh name every time: no write ever lands on a file a published
  // manifest might still reference, so a crash mid-write can only leave an
  // unreferenced orphan (swept at the next Open).
  std::string name = SegmentFileName(next_file_index_++);
  std::string path = (fs::path(args_.directory) / name).string();
  TCROWD_TRACE(kCheckpoint, kInfo, "segment write", n, next_file_index_ - 1);

  std::string bytes;
  EncodeAnswerBlock(answers, n, &bytes);
  TCROWD_RETURN_IF_ERROR(WriteFileDurable(path, bytes));

  ManifestSegment seg;
  seg.file = std::move(name);
  seg.count = n;
  seg.crc = Crc32(bytes.data(), bytes.size());
  manifest_.segments.push_back(std::move(seg));
  return Status::Ok();
}

Status SnapshotStore::CompactSegments() {
  // Re-read and re-verify every durable segment, merge into one answer
  // block, publish a single-entry manifest, then drop the replaced files.
  // O(sealed answers) — amortized O(1) per answer under the geometric
  // growth the max_segment_files threshold induces. Failures leave the
  // old manifest (and files) fully valid.
  TCROWD_TRACE(kCheckpoint, kInfo, "durable compaction",
               manifest_.segments.size(), manifest_.sealed_answers);
  std::vector<Answer> merged;
  merged.reserve(manifest_.sealed_answers);
  fs::path dir(args_.directory);
  for (const ManifestSegment& seg : manifest_.segments) {
    std::string path = (dir / seg.file).string();
    std::string bytes;
    TCROWD_RETURN_IF_ERROR(ReadFileBytes(path, &bytes));
    if (Crc32(bytes.data(), bytes.size()) != seg.crc) {
      return Status::IoError(StrFormat(
          "segment %s: file checksum disagrees with manifest", path.c_str()));
    }
    TCROWD_RETURN_IF_ERROR(
        DecodeAnswerBlock(bytes.data(), bytes.size(), &merged));
  }

  std::vector<ManifestSegment> replaced;
  replaced.swap(manifest_.segments);
  Status st = WriteSegmentFile(merged.data(), merged.size());
  if (st.ok()) st = WriteManifest();
  if (!st.ok()) {
    manifest_.segments = std::move(replaced);  // old manifest still reigns
    return st;
  }
  for (const ManifestSegment& seg : replaced) {
    std::error_code rm_ec;
    fs::remove(dir / seg.file, rm_ec);  // best effort; orphans swept later
  }
  return Status::Ok();
}

Status SnapshotStore::PersistSealed(const Answer* answers, size_t n) {
  TCROWD_CHECK(opened_);
  if (n == 0) return Status::Ok();
  size_t segments_before = manifest_.segments.size();
  std::vector<uint64_t> retracted_before = manifest_.retracted_ids;
  Status st = WriteSegmentFile(answers, n);
  if (!st.ok()) {
    manifest_.segments.resize(segments_before);
    return st;
  }
  manifest_.sealed_answers += n;
  // Fold journal retractions whose target is now segment-durable into the
  // manifest's retraction table (sorted, deduplicated); any others stay
  // journal-resident until their answer seals.
  std::vector<uint64_t> still_journaled;
  for (uint64_t id : journal_retracted_) {
    if (id < manifest_.sealed_answers) {
      manifest_.retracted_ids.push_back(id);
    } else {
      still_journaled.push_back(id);
    }
  }
  std::sort(manifest_.retracted_ids.begin(), manifest_.retracted_ids.end());
  manifest_.retracted_ids.erase(std::unique(manifest_.retracted_ids.begin(),
                                            manifest_.retracted_ids.end()),
                                manifest_.retracted_ids.end());
  st = WriteManifest();
  if (!st.ok()) {
    // Roll the in-memory manifest back so a retry re-writes the slice.
    manifest_.segments.resize(segments_before);
    manifest_.sealed_answers -= n;
    manifest_.retracted_ids = std::move(retracted_before);
    return st;
  }
  // Only after the manifest durably lists the segment: anything the journal
  // held is covered now, so dropping it cannot lose answers. Not-yet-folded
  // retractions (if any) are re-journaled into the fresh file.
  std::string clean;
  for (uint64_t id : still_journaled) EncodeRetractionRecord(id, &clean);
  TCROWD_RETURN_IF_ERROR(PublishJournal(clean));
  journal_retracted_ = std::move(still_journaled);
  journaled_ = 0;
  if (args_.max_segment_files > 0 &&
      static_cast<int>(manifest_.segments.size()) > args_.max_segment_files) {
    TCROWD_RETURN_IF_ERROR(CompactSegments());
  }
  return Status::Ok();
}

Status SnapshotStore::JournalAppend(uint64_t base_id, const Answer* answers,
                                    size_t n) {
  TCROWD_CHECK(journal_ != nullptr);
  if (n == 0) return Status::Ok();
  TCROWD_TRACE(kCheckpoint, kDebug, "journal append", base_id, n);
  std::string bytes;
  EncodeJournalRecord(base_id, answers, n, &bytes);
  if (std::fwrite(bytes.data(), 1, bytes.size(), journal_) != bytes.size()) {
    return Status::IoError("short write to snapshot journal");
  }
  TCROWD_RETURN_IF_ERROR(SyncFile(journal_, "snapshot journal"));
  journaled_ += n;
  return Status::Ok();
}

Status SnapshotStore::JournalRetract(uint64_t log_id) {
  TCROWD_CHECK(journal_ != nullptr);
  std::string bytes;
  EncodeRetractionRecord(log_id, &bytes);
  if (std::fwrite(bytes.data(), 1, bytes.size(), journal_) != bytes.size()) {
    return Status::IoError("short write to snapshot journal");
  }
  TCROWD_RETURN_IF_ERROR(SyncFile(journal_, "snapshot journal"));
  journal_retracted_.push_back(log_id);
  return Status::Ok();
}

Status SnapshotStore::WipeDirectory(const std::string& directory) {
  std::error_code ec;
  if (!fs::exists(directory, ec)) return Status::Ok();
  for (const fs::directory_entry& entry : fs::directory_iterator(directory, ec)) {
    std::string name = entry.path().filename().string();
    bool owned = name == kManifestName || name == kManifestTmpName ||
                 name == kJournalName || name == kJournalTmpName ||
                 IsSegmentFileName(name);
    if (!owned) continue;
    std::error_code rm_ec;
    fs::remove(entry.path(), rm_ec);
    if (rm_ec) {
      return Status::IoError(StrFormat("cannot remove %s: %s",
                                       entry.path().string().c_str(),
                                       rm_ec.message().c_str()));
    }
  }
  if (ec) {
    return Status::IoError(StrFormat("cannot list %s: %s", directory.c_str(),
                                     ec.message().c_str()));
  }
  return Status::Ok();
}

}  // namespace tcrowd::service
