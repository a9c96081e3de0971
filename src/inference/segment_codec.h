#ifndef TCROWD_INFERENCE_SEGMENT_CODEC_H_
#define TCROWD_INFERENCE_SEGMENT_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/answer.h"
#include "data/byte_codec.h"
#include "data/schema.h"

namespace tcrowd {

/// Binary on-disk codec for the durable answer log (see
/// docs/PERSISTENCE.md). Four framed record kinds share one discipline —
/// little-endian fixed-width fields (data/byte_codec.h, which also supplies
/// Crc32), an explicit format version, and a trailing CRC-32 over
/// everything before it:
///
///  - **answer block**: the chronological slice of the log one sealed
///    segment file holds (`EncodeAnswerBlock`/`DecodeAnswerBlock`);
///  - **manifest**: the snapshot directory's table of contents — schema
///    fingerprint, table shape, the ordered list of segment files with
///    their sizes and checksums, and the sorted log ids of every folded
///    retraction (`EncodeManifest`/`DecodeManifest`);
///  - **journal record**: one ingest batch appended between seals, tagged
///    with the global id of its first answer so replay after a crash can
///    skip batches an already-durable segment covers
///    (`EncodeJournalRecord`/`DecodeJournal`);
///  - **retraction record**: a single retracted answer's log id, appended
///    to the journal in arrival order so a retraction accepted between two
///    seals survives a crash (`EncodeRetractionRecord`; replayed by
///    `DecodeJournal` into `JournalReplay::retracted_ids`).
///
/// Continuous values are stored as raw IEEE-754 bit patterns, so a decoded
/// log is bit-identical to the encoded one — the foundation of the
/// restore-then-Finalize == uninterrupted-run guarantee.
///
/// Error contract: decoders never crash on hostile bytes. A wrong magic or
/// version yields FailedPrecondition (refusal — the file is not ours / not
/// this format revision), a short buffer or CRC mismatch yields IoError
/// (corruption). The journal decoder is the one lenient reader: a torn or
/// corrupt record ends replay at the last whole record (prefix recovery,
/// reported via `truncated`), because a crash mid-append is its normal case.

/// Current revision of all record formats. Bump on any layout change;
/// decoders refuse other revisions rather than guessing. Version 2 added
/// the manifest's retraction table and the journal retraction record.
inline constexpr uint32_t kSegmentCodecVersion = 2;

/// Order-sensitive FNV-1a fingerprint of the table shape a snapshot was
/// written under: number of rows plus every column's name, type, label set,
/// and domain bounds. Restore refuses a snapshot whose fingerprint does not
/// match the serving schema — recovering answers into a reshaped table
/// would silently misattribute them.
uint64_t SchemaFingerprint(const Schema& schema, int num_rows);

/// Folds an owner-scoped namespace tag into a schema fingerprint (FNV-1a
/// continuation over the tag's little-endian bytes). In a multi-shard layout
/// every shard's table slice can have an identical shape, so the shape
/// fingerprint alone cannot tell shard 0's snapshot directory from shard
/// 1's; SnapshotStore::Open applies this when CheckpointArgs::namespace_tag
/// is non-zero, making restore refuse a directory written by any other
/// shard. Tag 0 is reserved for "no namespace" (single-engine layouts keep
/// their historical fingerprints).
uint64_t NamespacedFingerprint(uint64_t fingerprint, uint64_t tag);

// ---------------------------------------------------------------------------
// Answer blocks (segment file payload).

/// Appends the framed encoding of `answers[0, n)` to `*out`.
void EncodeAnswerBlock(const Answer* answers, size_t n, std::string* out);

/// Decodes one answer block occupying exactly `size` bytes. On success the
/// decoded answers are appended to `*out`.
Status DecodeAnswerBlock(const void* data, size_t size,
                         std::vector<Answer>* out);

// ---------------------------------------------------------------------------
// Manifest.

/// One durable segment file, as listed by the manifest.
struct ManifestSegment {
  std::string file;    ///< file name relative to the snapshot directory
  uint64_t count = 0;  ///< answers in the file
  uint32_t crc = 0;    ///< CRC-32 of the file's full byte contents
};

/// The snapshot directory's table of contents. `sealed_answers` must equal
/// the sum of the segment counts (validated on decode). `retracted_ids`
/// holds the log ids of every retraction folded in from the journal at
/// seal time; encode requires — and decode enforces — that the list is
/// strictly increasing with every id below `sealed_answers` (a retraction
/// is folded only once the answer it kills is segment-durable).
struct SnapshotManifest {
  uint64_t schema_fingerprint = 0;
  uint64_t sealed_answers = 0;
  std::vector<ManifestSegment> segments;
  std::vector<uint64_t> retracted_ids;
};

void EncodeManifest(const SnapshotManifest& manifest, std::string* out);
Status DecodeManifest(const void* data, size_t size, SnapshotManifest* out);

// ---------------------------------------------------------------------------
// Journal.

/// Appends one framed journal record to `*out`: `base_id` is the global
/// chronological id of `answers[0]`.
void EncodeJournalRecord(uint64_t base_id, const Answer* answers, size_t n,
                         std::string* out);

/// Appends one framed retraction record to `*out`: `log_id` is the global
/// chronological id of the answer being retracted. Retraction records
/// interleave with batch records in arrival order.
void EncodeRetractionRecord(uint64_t log_id, std::string* out);

/// One replayed journal record.
struct JournalRecord {
  uint64_t base_id = 0;
  std::vector<Answer> answers;
};

/// Result of replaying a journal file end to end.
struct JournalReplay {
  std::vector<JournalRecord> records;
  /// Log ids named by retraction records, in journal order (not deduped —
  /// the consumer owns id resolution).
  std::vector<uint64_t> retracted_ids;
  /// True when trailing bytes were dropped (torn final append, or any
  /// corruption — replay keeps the longest clean prefix of whole records).
  bool truncated = false;
};

/// Replays a journal byte stream. Always returns OK: the journal's whole
/// purpose is surviving a crash mid-write, so a bad tail is data, not an
/// error (see JournalReplay::truncated).
Status DecodeJournal(const void* data, size_t size, JournalReplay* out);

}  // namespace tcrowd

#endif  // TCROWD_INFERENCE_SEGMENT_CODEC_H_
