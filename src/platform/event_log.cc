#include "platform/event_log.h"

#include <cstring>
#include <utility>

#include "common/logging.h"
#include "data/byte_codec.h"

namespace tcrowd {
namespace {

// Frame magic ("TCEV" in LE byte order on disk), deliberately distinct from
// every segment_codec magic so a misfiled event log is refused loudly by
// the snapshot readers and vice versa.
constexpr uint32_t kEventMagic = 0x56454354;

bool GetEventPayload(ByteReader* r, EventType type, RecordedEvent* e) {
  e->type = type;
  switch (type) {
    case EventType::kRunStart: {
      uint64_t count;
      return r->U64(&e->seed) && r->String(&e->policy) &&
             r->String(&e->world) && r->U64(&e->schema_fingerprint) &&
             r->U32(&e->num_rows) && r->U64(&count) &&
             GetAnswers(r, count, &e->restored);
    }
    case EventType::kSessionStart:
      return r->U64(&e->session) && r->I32(&e->worker);
    case EventType::kLeases:
      return r->U64(&e->session) && GetCells(r, &e->cells);
    case EventType::kAnswerBatch: {
      uint32_t count;
      if (!r->U64(&e->session) || !r->U32(&count) ||
          !r->Count(count, kMinCellBytes + kMinValueBytes + 1)) {
        return false;
      }
      e->items.resize(count);
      for (AnswerEventItem& item : e->items) {
        if (!r->Cell(&item.cell) || !GetValue(r, &item.value) ||
            !r->U8(&item.status_code)) {
          return false;
        }
      }
      return true;
    }
    case EventType::kRetract:
      e->cells.resize(1);
      return r->I32(&e->worker) && r->Cell(&e->cells[0]) &&
             r->U8(&e->status_code);
    case EventType::kSessionEnd:
      return r->U64(&e->session);
    case EventType::kSessionsExpired: {
      uint32_t count;
      if (!r->U32(&count) || !r->Count(count, 8)) return false;
      e->expired.resize(count);
      for (uint64_t& id : e->expired) {
        if (!r->U64(&id)) return false;
      }
      return true;
    }
    case EventType::kSeal:
      return r->U64(&e->sealed_total);
    case EventType::kFinalize:
      return r->U64(&e->digest) && r->U64(&e->answer_count);
  }
  return false;  // unknown type tag: corrupt
}

}  // namespace

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kRunStart: return "run-start";
    case EventType::kSessionStart: return "session-start";
    case EventType::kLeases: return "leases";
    case EventType::kAnswerBatch: return "answer-batch";
    case EventType::kRetract: return "retract";
    case EventType::kSessionEnd: return "session-end";
    case EventType::kSessionsExpired: return "sessions-expired";
    case EventType::kSeal: return "seal";
    case EventType::kFinalize: return "finalize";
  }
  return "?";
}

void EncodeEvent(const RecordedEvent& event, std::string* out) {
  size_t start = out->size();
  PutU32(kEventMagic, out);
  PutU32(kEventLogVersion, out);
  PutU8(static_cast<uint8_t>(event.type), out);
  switch (event.type) {
    case EventType::kRunStart:
      PutU64(event.seed, out);
      PutString(event.policy, out);
      PutString(event.world, out);
      PutU64(event.schema_fingerprint, out);
      PutU32(event.num_rows, out);
      PutU64(event.restored.size(), out);
      for (const Answer& a : event.restored) PutAnswer(a, out);
      break;
    case EventType::kSessionStart:
      PutU64(event.session, out);
      PutI32(event.worker, out);
      break;
    case EventType::kLeases:
      PutU64(event.session, out);
      PutCells(event.cells, out);
      break;
    case EventType::kAnswerBatch:
      PutU64(event.session, out);
      PutU32(static_cast<uint32_t>(event.items.size()), out);
      for (const AnswerEventItem& item : event.items) {
        PutCell(item.cell, out);
        PutValue(item.value, out);
        PutU8(item.status_code, out);
      }
      break;
    case EventType::kRetract:
      PutI32(event.worker, out);
      PutCell(event.cells.empty() ? CellRef{0, 0} : event.cells[0], out);
      PutU8(event.status_code, out);
      break;
    case EventType::kSessionEnd:
      PutU64(event.session, out);
      break;
    case EventType::kSessionsExpired:
      PutU32(static_cast<uint32_t>(event.expired.size()), out);
      for (uint64_t id : event.expired) PutU64(id, out);
      break;
    case EventType::kSeal:
      PutU64(event.sealed_total, out);
      break;
    case EventType::kFinalize:
      PutU64(event.digest, out);
      PutU64(event.answer_count, out);
      break;
  }
  PutCrc32Since(start, out);
}

Status DecodeEventLog(const void* data, size_t size, EventLogReplay* out) {
  const uint8_t* base = static_cast<const uint8_t*>(data);
  size_t offset = 0;
  out->events.clear();
  out->truncated = false;
  while (offset < size) {
    ByteReader r(base + offset, size - offset);
    uint32_t magic, version;
    uint8_t type;
    if (!r.U32(&magic) || magic != kEventMagic || !r.U32(&version) ||
        version != kEventLogVersion || !r.U8(&type) ||
        type > static_cast<uint8_t>(EventType::kFinalize)) {
      out->truncated = true;
      return Status::Ok();
    }
    RecordedEvent event;
    if (!GetEventPayload(&r, static_cast<EventType>(type), &event)) {
      out->truncated = true;
      return Status::Ok();
    }
    const uint32_t crc = r.ConsumedCrc32();
    uint32_t stored;
    if (!r.U32(&stored) || stored != crc) {
      out->truncated = true;
      return Status::Ok();
    }
    out->events.push_back(std::move(event));
    offset += r.consumed();
  }
  return Status::Ok();
}

Status ReadEventLogFile(const std::string& path, EventLogReplay* out) {
  std::string bytes;
  Status st = ReadFileBytes(path, &bytes);
  if (!st.ok()) return st;
  return DecodeEventLog(bytes.data(), bytes.size(), out);
}

uint64_t TruthDigest(const Table& table) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<uint64_t>(table.num_rows()));
  mix(static_cast<uint64_t>(table.num_columns()));
  for (int i = 0; i < table.num_rows(); ++i) {
    for (int j = 0; j < table.num_columns(); ++j) {
      const Value& v = table.at(i, j);
      if (v.is_categorical()) {
        mix(kValueCategorical);
        mix(static_cast<uint64_t>(static_cast<int64_t>(v.label())));
      } else if (v.is_continuous()) {
        uint64_t bits;
        double d = v.number();
        std::memcpy(&bits, &d, sizeof(bits));
        mix(kValueContinuous);
        mix(bits);
      } else {
        mix(kValueMissing);
      }
    }
  }
  return h;
}

// ------------------------------------------------------------- recorder --

StatusOr<std::unique_ptr<EventRecorder>> EventRecorder::Open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open event log " + path + " for writing");
  }
  return std::unique_ptr<EventRecorder>(new EventRecorder(path, f));
}

EventRecorder::EventRecorder(std::string path, std::FILE* file)
    : path_(std::move(path)), file_(file) {}

EventRecorder::~EventRecorder() { Close(); }

void EventRecorder::SetRunInfo(uint64_t seed, std::string policy,
                               std::string world) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
  policy_ = std::move(policy);
  world_ = std::move(world);
}

void EventRecorder::Append(const RecordedEvent& event) {
  std::string frame;
  EncodeEvent(event, &frame);
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  // Write + flush as one critical section: frames never interleave, and a
  // hard crash loses at most the libc buffer's tail — which the lenient
  // decoder recovers from by construction.
  std::fwrite(frame.data(), 1, frame.size(), file_);
  std::fflush(file_);
}

void EventRecorder::RecordRunStart(uint64_t schema_fingerprint,
                                   uint32_t num_rows,
                                   const std::vector<Answer>& restored) {
  RecordedEvent e;
  e.type = EventType::kRunStart;
  {
    std::lock_guard<std::mutex> lock(mu_);
    e.seed = seed_;
    e.policy = policy_;
    e.world = world_;
  }
  e.schema_fingerprint = schema_fingerprint;
  e.num_rows = num_rows;
  e.restored = restored;
  Append(e);
}

void EventRecorder::RecordSessionStart(uint64_t session, int32_t worker) {
  RecordedEvent e;
  e.type = EventType::kSessionStart;
  e.session = session;
  e.worker = worker;
  Append(e);
}

void EventRecorder::RecordLeases(uint64_t session,
                                 const std::vector<CellRef>& cells) {
  if (cells.empty()) return;  // nothing granted, nothing to replay
  RecordedEvent e;
  e.type = EventType::kLeases;
  e.session = session;
  e.cells = cells;
  Append(e);
}

void EventRecorder::RecordAnswerBatch(
    uint64_t session, const std::vector<AnswerEventItem>& items) {
  if (items.empty()) return;
  RecordedEvent e;
  e.type = EventType::kAnswerBatch;
  e.session = session;
  e.items = items;
  Append(e);
}

void EventRecorder::RecordRetract(int32_t worker, CellRef cell,
                                  uint8_t status_code) {
  RecordedEvent e;
  e.type = EventType::kRetract;
  e.worker = worker;
  e.cells.push_back(cell);
  e.status_code = status_code;
  Append(e);
}

void EventRecorder::RecordSessionEnd(uint64_t session) {
  RecordedEvent e;
  e.type = EventType::kSessionEnd;
  e.session = session;
  Append(e);
}

void EventRecorder::RecordSessionsExpired(
    const std::vector<uint64_t>& sessions) {
  if (sessions.empty()) return;
  RecordedEvent e;
  e.type = EventType::kSessionsExpired;
  e.expired = sessions;
  Append(e);
}

void EventRecorder::RecordSeal(uint64_t sealed_total) {
  RecordedEvent e;
  e.type = EventType::kSeal;
  e.sealed_total = sealed_total;
  Append(e);
}

void EventRecorder::RecordFinalize(uint64_t digest, uint64_t answer_count) {
  RecordedEvent e;
  e.type = EventType::kFinalize;
  e.digest = digest;
  e.answer_count = answer_count;
  Append(e);
}

Status EventRecorder::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::Ok();
  const bool flushed = std::fflush(file_) == 0;
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  if (!flushed || !closed) {
    return Status::IoError("event log " + path_ + " close failed");
  }
  return Status::Ok();
}

}  // namespace tcrowd
