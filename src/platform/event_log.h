#ifndef TCROWD_PLATFORM_EVENT_LOG_H_
#define TCROWD_PLATFORM_EVENT_LOG_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/answer.h"
#include "data/table.h"

namespace tcrowd {

/// Deterministic event log for record/replay (see docs/OBSERVABILITY.md).
/// Shares the segment_codec framing discipline and byte codec
/// (data/byte_codec.h): every event is one frame — little-endian magic
/// ("TCEV") + version + type byte + payload + trailing CRC-32 over
/// everything before it. The reader is lenient like the
/// journal's: a torn or corrupt frame ends decoding at the last whole
/// event (prefix recovery), because a crash mid-record is a supported case.
///
/// The log captures every nondeterministic decision the service made —
/// granted leases, session ids, acceptance statuses, expiry sweeps — so a
/// single-threaded replay driver re-driving CrowdService from the log
/// reproduces the recorded Finalize() truth state bit-identically,
/// regardless of the original run's async refresh timing.

inline constexpr uint32_t kEventLogVersion = 1;

enum class EventType : uint8_t {
  kRunStart = 0,         ///< seed, world recipe, schema, restored answers
  kSessionStart = 1,     ///< session id + worker
  kLeases = 2,           ///< cells granted to a session by the router
  kAnswerBatch = 3,      ///< submitted values + per-item acceptance status
  kRetract = 4,          ///< worker/cell retraction + status
  kSessionEnd = 5,       ///< explicit EndSession
  kSessionsExpired = 6,  ///< lease-timeout sweep victims
  kSeal = 7,             ///< engine sealed the tail (informational)
  kFinalize = 8,         ///< truth-state digest of Finalize()
};

const char* EventTypeName(EventType type);

/// One submitted answer inside a kAnswerBatch event: the value the driver
/// offered and the StatusCode the service returned (kOk = accepted).
struct AnswerEventItem {
  CellRef cell{0, 0};
  Value value;
  uint8_t status_code = 0;
};

/// One decoded event. Which fields are meaningful depends on `type`; unused
/// fields stay default-initialized (and encode to nothing).
struct RecordedEvent {
  EventType type = EventType::kRunStart;

  // kRunStart
  uint64_t seed = 0;
  std::string policy;           ///< assignment policy name
  std::string world;            ///< free-form world rebuild recipe
  uint64_t schema_fingerprint = 0;
  uint32_t num_rows = 0;
  std::vector<Answer> restored;  ///< checkpoint-recovered bootstrap answers

  // session-scoped events
  uint64_t session = 0;
  int32_t worker = 0;                  // kSessionStart, kRetract
  std::vector<CellRef> cells;          // kLeases
  std::vector<AnswerEventItem> items;  // kAnswerBatch
  uint8_t status_code = 0;             // kRetract
  std::vector<uint64_t> expired;       // kSessionsExpired

  uint64_t sealed_total = 0;  // kSeal
  uint64_t digest = 0;        // kFinalize
  uint64_t answer_count = 0;  // kFinalize
};

/// Appends the framed encoding of one event to `*out`.
void EncodeEvent(const RecordedEvent& event, std::string* out);

/// Result of decoding an event-log byte stream end to end.
struct EventLogReplay {
  std::vector<RecordedEvent> events;
  /// True when trailing bytes were dropped (torn final frame or any
  /// corruption — decode keeps the longest clean prefix of whole events).
  bool truncated = false;
};

/// Decodes an event-log byte stream. Always returns OK; see
/// EventLogReplay::truncated for the lenient-tail contract.
Status DecodeEventLog(const void* data, size_t size, EventLogReplay* out);

/// Reads and decodes an event-log file.
Status ReadEventLogFile(const std::string& path, EventLogReplay* out);

/// Order-sensitive FNV-1a digest over a truth table's exact cell bit
/// patterns (kind tag + label / IEEE-754 bits per cell). Two tables digest
/// equal iff they are bit-identical — the zero-tolerance comparator behind
/// the replay assertion.
uint64_t TruthDigest(const Table& table);

/// Thread-safe append-only writer for the event log. The service calls the
/// Record* hooks while holding its own mutex, so the log order equals the
/// service's serialization order — the property replay depends on. Engine
/// refresh threads may record seals concurrently; the recorder serializes
/// on its own mutex.
class EventRecorder {
 public:
  /// Creates/truncates `path`. IoError when the file cannot be opened.
  static StatusOr<std::unique_ptr<EventRecorder>> Open(
      const std::string& path);

  ~EventRecorder();
  EventRecorder(const EventRecorder&) = delete;
  EventRecorder& operator=(const EventRecorder&) = delete;

  /// Run identity the service cannot know (CLI seed, policy/world names);
  /// set before the service constructor records kRunStart.
  void SetRunInfo(uint64_t seed, std::string policy, std::string world);

  void RecordRunStart(uint64_t schema_fingerprint, uint32_t num_rows,
                      const std::vector<Answer>& restored);
  void RecordSessionStart(uint64_t session, int32_t worker);
  void RecordLeases(uint64_t session, const std::vector<CellRef>& cells);
  void RecordAnswerBatch(uint64_t session,
                         const std::vector<AnswerEventItem>& items);
  void RecordRetract(int32_t worker, CellRef cell, uint8_t status_code);
  void RecordSessionEnd(uint64_t session);
  void RecordSessionsExpired(const std::vector<uint64_t>& sessions);
  void RecordSeal(uint64_t sealed_total);
  void RecordFinalize(uint64_t digest, uint64_t answer_count);

  /// Flushes and closes the file. Idempotent; the destructor calls it.
  Status Close();

  const std::string& path() const { return path_; }

 private:
  EventRecorder(std::string path, std::FILE* file);
  void Append(const RecordedEvent& event);

  std::string path_;
  std::mutex mu_;
  std::FILE* file_;
  uint64_t seed_ = 0;
  std::string policy_;
  std::string world_;
};

}  // namespace tcrowd

#endif  // TCROWD_PLATFORM_EVENT_LOG_H_
