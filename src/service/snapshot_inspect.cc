#include "service/snapshot_inspect.h"

#include "common/string_util.h"
#include "data/answer.h"
#include "data/byte_codec.h"
#include "inference/segment_codec.h"

namespace tcrowd::service {
namespace {

void InspectSegment(const std::string& directory,
                    const ManifestSegment& entry, SegmentInspection* out) {
  out->file = entry.file;
  out->manifest_count = entry.count;
  std::string bytes;
  Status st = ReadFileBytes(directory + "/" + entry.file, &bytes);
  if (!st.ok()) {
    out->problem = st.ToString();
    return;
  }
  out->bytes = bytes.size();
  out->crc_ok = Crc32(bytes.data(), bytes.size()) == entry.crc;
  std::vector<Answer> answers;
  st = DecodeAnswerBlock(bytes.data(), bytes.size(), &answers);
  out->decodes = st.ok();
  out->decoded_count = answers.size();
  if (!out->crc_ok) {
    out->problem = "file CRC disagrees with manifest";
  } else if (!out->decodes) {
    out->problem = st.ToString();
  } else if (out->decoded_count != entry.count) {
    out->problem = StrFormat("manifest promises %llu answers, file holds %llu",
                             static_cast<unsigned long long>(entry.count),
                             static_cast<unsigned long long>(answers.size()));
  }
}

}  // namespace

bool SnapshotInspection::healthy() const {
  if (!manifest_ok) return false;
  for (const SegmentInspection& seg : segments) {
    if (!seg.problem.empty()) return false;
  }
  return !journal_truncated;
}

Status InspectSnapshot(const std::string& directory,
                       SnapshotInspection* out) {
  *out = SnapshotInspection{};
  out->directory = directory;
  out->codec_version = kSegmentCodecVersion;

  std::string bytes;
  Status st = ReadFileBytes(directory + "/MANIFEST", &bytes);
  if (!st.ok()) {
    return Status::NotFound(
        StrFormat("%s does not look like a snapshot directory: %s",
                  directory.c_str(), st.ToString().c_str()));
  }

  SnapshotManifest manifest;
  st = DecodeManifest(bytes.data(), bytes.size(), &manifest);
  out->manifest_ok = st.ok();
  if (!st.ok()) {
    out->manifest_problem = st.ToString();
  } else {
    out->schema_fingerprint = manifest.schema_fingerprint;
    out->sealed_answers = manifest.sealed_answers;
    out->manifest_retractions = manifest.retracted_ids;
    out->segments.reserve(manifest.segments.size());
    for (const ManifestSegment& entry : manifest.segments) {
      SegmentInspection seg;
      InspectSegment(directory, entry, &seg);
      out->segments.push_back(std::move(seg));
    }
  }

  // The journal tail is optional (a snapshot sealed at exit has none) and
  // its decoder is lenient by contract.
  if (ReadFileBytes(directory + "/journal.bin", &bytes).ok()) {
    out->journal_present = true;
    out->journal_bytes = bytes.size();
    JournalReplay replay;
    DecodeJournal(bytes.data(), bytes.size(), &replay);
    out->journal_truncated = replay.truncated;
    out->journal_records = replay.records.size();
    for (const JournalRecord& rec : replay.records) {
      out->journal_answers += rec.answers.size();
    }
    out->journal_retractions = replay.retracted_ids;
  }
  return Status::Ok();
}

std::string FormatInspection(const SnapshotInspection& inspection) {
  std::string out =
      StrFormat("snapshot %s\n", inspection.directory.c_str());
  if (!inspection.manifest_ok) {
    out += StrFormat("  MANIFEST: UNREADABLE (%s)\n",
                     inspection.manifest_problem.c_str());
  } else {
    out += StrFormat(
        "  MANIFEST: codec v%u, schema fingerprint %016llx, "
        "%llu sealed answers, %zu segment(s)\n",
        inspection.codec_version,
        static_cast<unsigned long long>(inspection.schema_fingerprint),
        static_cast<unsigned long long>(inspection.sealed_answers),
        inspection.segments.size());
  }
  for (const SegmentInspection& seg : inspection.segments) {
    if (seg.problem.empty()) {
      out += StrFormat("  %-16s %8llu answers  %8llu bytes  crc OK\n",
                       seg.file.c_str(),
                       static_cast<unsigned long long>(seg.decoded_count),
                       static_cast<unsigned long long>(seg.bytes));
    } else {
      out += StrFormat("  %-16s DAMAGED: %s\n", seg.file.c_str(),
                       seg.problem.c_str());
    }
  }
  if (inspection.journal_present) {
    out += StrFormat(
        "  journal.bin: %llu record(s), %llu answer(s), %llu "
        "retraction(s), %llu bytes%s\n",
        static_cast<unsigned long long>(inspection.journal_records),
        static_cast<unsigned long long>(inspection.journal_answers),
        static_cast<unsigned long long>(inspection.journal_retractions.size()),
        static_cast<unsigned long long>(inspection.journal_bytes),
        inspection.journal_truncated ? "  (TORN TAIL dropped)" : "");
  } else {
    out += "  journal.bin: absent\n";
  }
  const size_t retractions = inspection.manifest_retractions.size() +
                             inspection.journal_retractions.size();
  out += StrFormat(
      "  retraction table: %zu folded in manifest, %zu journal-only\n",
      inspection.manifest_retractions.size(),
      inspection.journal_retractions.size());
  if (retractions > 0) {
    out += "    ids:";
    size_t shown = 0;
    for (uint64_t id : inspection.manifest_retractions) {
      if (shown++ >= 16) break;
      out += StrFormat(" %llu", static_cast<unsigned long long>(id));
    }
    for (uint64_t id : inspection.journal_retractions) {
      if (shown >= 16) break;
      ++shown;
      out += StrFormat(" %llu*", static_cast<unsigned long long>(id));
    }
    if (shown >= 16 && retractions > 16) {
      out += StrFormat(" ... (%zu total; * = journal-only)", retractions);
    } else if (!inspection.journal_retractions.empty()) {
      out += "  (* = journal-only)";
    }
    out += "\n";
  }
  out += StrFormat("  verdict: %s\n",
                   inspection.healthy() ? "HEALTHY" : "DAMAGED");
  return out;
}

}  // namespace tcrowd::service
