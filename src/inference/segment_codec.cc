#include "inference/segment_codec.h"

#include <cstring>

#include "common/string_util.h"
#include "data/byte_codec.h"

namespace tcrowd {
namespace {

// Frame magics ("TCSG" / "TCMF" / "TCJR" / "TCJX" in LE byte order on
// disk). "TCJX" tags the journal's retraction record; a distinct magic (not
// a flag inside the batch record) keeps version-1 readers refusing loudly
// instead of misparsing.
constexpr uint32_t kAnswerBlockMagic = 0x47534354;
constexpr uint32_t kManifestMagic = 0x464d4354;
constexpr uint32_t kJournalMagic = 0x524a4354;
constexpr uint32_t kJournalRetractMagic = 0x584a4354;

/// Reads a strict decoder's CRC-32 trailer: it must be the record's last
/// four bytes and match everything before it.
Status ReadTrailer(ByteReader* r, const char* record) {
  const uint32_t crc = r->ConsumedCrc32();
  uint32_t stored;
  if (!r->U32(&stored) || !r->done()) {
    return Status::IoError(StrFormat("%s: bad framing length", record));
  }
  if (stored != crc) {
    return Status::IoError(StrFormat("%s: checksum mismatch", record));
  }
  return Status::Ok();
}

}  // namespace

uint64_t SchemaFingerprint(const Schema& schema, int num_rows) {
  // FNV-1a over an unambiguous serialization of the table shape.
  uint64_t h = 14695981039346656037ull;
  auto mix_bytes = [&h](const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  auto mix_u64 = [&](uint64_t v) { mix_bytes(&v, sizeof(v)); };
  auto mix_str = [&](const std::string& s) {
    mix_u64(s.size());
    mix_bytes(s.data(), s.size());
  };
  mix_u64(static_cast<uint64_t>(num_rows));
  mix_u64(static_cast<uint64_t>(schema.num_columns()));
  for (const ColumnSpec& col : schema.columns()) {
    mix_str(col.name);
    mix_u64(col.type == ColumnType::kContinuous ? 1 : 0);
    mix_u64(static_cast<uint64_t>(col.labels.size()));
    for (const std::string& label : col.labels) mix_str(label);
    uint64_t bits;
    std::memcpy(&bits, &col.min_value, sizeof(bits));
    mix_u64(bits);
    std::memcpy(&bits, &col.max_value, sizeof(bits));
    mix_u64(bits);
  }
  return h;
}

uint64_t NamespacedFingerprint(uint64_t fingerprint, uint64_t tag) {
  uint64_t h = fingerprint;
  for (int i = 0; i < 8; ++i) {
    h ^= (tag >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

void EncodeAnswerBlock(const Answer* answers, size_t n, std::string* out) {
  size_t start = out->size();
  PutU32(kAnswerBlockMagic, out);
  PutU32(kSegmentCodecVersion, out);
  PutU64(n, out);
  for (size_t k = 0; k < n; ++k) PutAnswer(answers[k], out);
  PutCrc32Since(start, out);
}

Status DecodeAnswerBlock(const void* data, size_t size,
                         std::vector<Answer>* out) {
  ByteReader r(data, size);
  uint32_t magic, version;
  uint64_t count;
  if (!r.U32(&magic) || !r.U32(&version) || !r.U64(&count)) {
    return Status::IoError("answer block: truncated header");
  }
  if (magic != kAnswerBlockMagic) {
    return Status::FailedPrecondition(
        "answer block: bad magic (not a segment file)");
  }
  if (version != kSegmentCodecVersion) {
    return Status::FailedPrecondition(StrFormat(
        "answer block: format version %u, this build reads only version %u",
        version, kSegmentCodecVersion));
  }
  std::vector<Answer> decoded;
  if (!GetAnswers(&r, count, &decoded)) {
    return Status::IoError("answer block: truncated or corrupt payload");
  }
  Status trailer = ReadTrailer(&r, "answer block");
  if (!trailer.ok()) return trailer;
  out->insert(out->end(), decoded.begin(), decoded.end());
  return Status::Ok();
}

void EncodeManifest(const SnapshotManifest& manifest, std::string* out) {
  size_t start = out->size();
  PutU32(kManifestMagic, out);
  PutU32(kSegmentCodecVersion, out);
  PutU64(manifest.schema_fingerprint, out);
  PutU64(manifest.sealed_answers, out);
  PutU32(static_cast<uint32_t>(manifest.segments.size()), out);
  for (const ManifestSegment& seg : manifest.segments) {
    PutString(seg.file, out);
    PutU64(seg.count, out);
    PutU32(seg.crc, out);
  }
  PutU32(static_cast<uint32_t>(manifest.retracted_ids.size()), out);
  for (uint64_t id : manifest.retracted_ids) PutU64(id, out);
  PutCrc32Since(start, out);
}

Status DecodeManifest(const void* data, size_t size, SnapshotManifest* out) {
  ByteReader r(data, size);
  uint32_t magic, version;
  if (!r.U32(&magic) || !r.U32(&version)) {
    return Status::IoError("manifest: truncated header");
  }
  if (magic != kManifestMagic) {
    return Status::FailedPrecondition(
        "manifest: bad magic (not a snapshot manifest)");
  }
  if (version != kSegmentCodecVersion) {
    return Status::FailedPrecondition(StrFormat(
        "manifest: format version %u, this build reads only version %u",
        version, kSegmentCodecVersion));
  }
  SnapshotManifest decoded;
  uint32_t num_segments;
  if (!r.U64(&decoded.schema_fingerprint) ||
      !r.U64(&decoded.sealed_answers) || !r.U32(&num_segments)) {
    return Status::IoError("manifest: truncated header");
  }
  uint64_t total = 0;
  for (uint32_t s = 0; s < num_segments; ++s) {
    ManifestSegment seg;
    if (!r.String(&seg.file) || !r.U64(&seg.count) || !r.U32(&seg.crc)) {
      return Status::IoError("manifest: truncated segment table");
    }
    total += seg.count;
    decoded.segments.push_back(std::move(seg));
  }
  uint32_t num_retracted;
  if (!r.U32(&num_retracted)) {
    return Status::IoError("manifest: truncated retraction table");
  }
  if (!r.Count(num_retracted, 8)) {
    return Status::IoError("manifest: retraction count exceeds payload");
  }
  decoded.retracted_ids.reserve(num_retracted);
  for (uint32_t k = 0; k < num_retracted; ++k) {
    uint64_t id;
    if (!r.U64(&id)) {
      return Status::IoError("manifest: truncated retraction table");
    }
    decoded.retracted_ids.push_back(id);
  }
  Status trailer = ReadTrailer(&r, "manifest");
  if (!trailer.ok()) return trailer;
  if (total != decoded.sealed_answers) {
    return Status::IoError(
        StrFormat("manifest: segment counts sum to %llu, header says %llu",
                  static_cast<unsigned long long>(total),
                  static_cast<unsigned long long>(decoded.sealed_answers)));
  }
  for (size_t k = 0; k < decoded.retracted_ids.size(); ++k) {
    uint64_t id = decoded.retracted_ids[k];
    if (id >= decoded.sealed_answers ||
        (k > 0 && id <= decoded.retracted_ids[k - 1])) {
      return Status::IoError(
          "manifest: retraction table not strictly increasing below "
          "sealed_answers");
    }
  }
  *out = std::move(decoded);
  return Status::Ok();
}

void EncodeJournalRecord(uint64_t base_id, const Answer* answers, size_t n,
                         std::string* out) {
  size_t start = out->size();
  PutU32(kJournalMagic, out);
  PutU32(kSegmentCodecVersion, out);
  PutU64(base_id, out);
  PutU64(n, out);
  for (size_t k = 0; k < n; ++k) PutAnswer(answers[k], out);
  PutCrc32Since(start, out);
}

void EncodeRetractionRecord(uint64_t log_id, std::string* out) {
  size_t start = out->size();
  PutU32(kJournalRetractMagic, out);
  PutU32(kSegmentCodecVersion, out);
  PutU64(log_id, out);
  PutCrc32Since(start, out);
}

Status DecodeJournal(const void* data, size_t size, JournalReplay* out) {
  const uint8_t* base = static_cast<const uint8_t*>(data);
  size_t offset = 0;
  out->records.clear();
  out->retracted_ids.clear();
  out->truncated = false;
  while (offset < size) {
    ByteReader r(base + offset, size - offset);
    uint32_t magic, version;
    if (!r.U32(&magic) || !r.U32(&version) ||
        version != kSegmentCodecVersion) {
      out->truncated = true;
      return Status::Ok();
    }
    bool is_retraction = magic == kJournalRetractMagic;
    JournalRecord rec;
    uint64_t retracted_id = 0;
    if (is_retraction) {
      if (!r.U64(&retracted_id)) {
        out->truncated = true;
        return Status::Ok();
      }
    } else {
      uint64_t count;
      if (magic != kJournalMagic || !r.U64(&rec.base_id) || !r.U64(&count) ||
          !GetAnswers(&r, count, &rec.answers)) {
        out->truncated = true;
        return Status::Ok();
      }
    }
    const uint32_t crc = r.ConsumedCrc32();
    uint32_t stored;
    if (!r.U32(&stored) || stored != crc) {
      out->truncated = true;
      return Status::Ok();
    }
    if (is_retraction) {
      out->retracted_ids.push_back(retracted_id);
    } else {
      out->records.push_back(std::move(rec));
    }
    offset += r.consumed();
  }
  return Status::Ok();
}

}  // namespace tcrowd
