#include "net/protocol.h"

#include "data/byte_codec.h"

namespace tcrowd::net {
namespace {

// 0x08/0x88: a retired v2 message kind. Reserved, never reused: frames
// carrying it are corrupt "unknown message type" (docs/PROTOCOL.md).
constexpr uint8_t kReservedKind = 0x08;

// Smallest possible per-item encodings, for the ByteReader::Count guard.
constexpr size_t kMinSubmitItemBytes = kMinCellBytes + kMinValueBytes;
constexpr size_t kMinColumnBytes = 1 + 4;  // type + label_count

/// Appends the frame envelope around an encoded payload. Messages that
/// exist in v1 always ship as v1 frames (byte-identical to pre-negotiation
/// builds); only kinds or fields introduced later ride a higher version.
void PutFrame(MsgType type, const std::string& payload, std::string* out,
              uint8_t version = static_cast<uint8_t>(kProtocolVersion)) {
  size_t start = out->size();
  PutU32(kFrameMagic, out);
  PutU8(version, out);
  PutU8(static_cast<uint8_t>(type), out);
  PutString(payload, out);
  PutCrc32Since(start, out);
}

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("net frame payload: ") + what);
}

/// The payload of a status-only response: one WireStatus byte.
std::string StatusPayload(WireStatus status) {
  return std::string(1, static_cast<char>(status));
}

/// Decodes a StatusPayload.
Status DecodeStatusOnly(const void* data, size_t size, const char* what,
                        WireStatus* status) {
  ByteReader r(data, size);
  uint8_t byte;
  if (!r.U8(&byte) || !r.done()) return Malformed(what);
  *status = static_cast<WireStatus>(byte);
  return Status::Ok();
}

/// Decodes a request whose payload must be empty.
Status DecodeEmpty(size_t size, const char* what) {
  return size == 0 ? Status::Ok() : Malformed(what);
}

/// Parses one frame at `data` (size bytes available). Shared by the strict
/// connection decoder and the lenient stream decoder; the caller maps the
/// verdicts onto its own error policy.
enum class ParseVerdict { kFrame, kNeedMore, kCorrupt };

ParseVerdict ParseFrame(const uint8_t* data, size_t size, size_t max_payload,
                        Frame* out, size_t* consumed, std::string* error) {
  if (size < kFrameHeaderBytes) return ParseVerdict::kNeedMore;
  ByteReader header(data, size);
  uint32_t magic, payload_len;
  uint8_t version, type;
  header.U32(&magic);
  header.U8(&version);
  header.U8(&type);
  header.U32(&payload_len);
  if (magic != kFrameMagic) {
    if (error != nullptr) *error = "bad frame magic";
    return ParseVerdict::kCorrupt;
  }
  if (version < kProtocolVersionMin || version > kProtocolVersionMax) {
    if (error != nullptr) *error = "unknown protocol version";
    return ParseVerdict::kCorrupt;
  }
  // The hostile-length allocation guard: refuse before touching payload
  // bytes, so a corrupt length can neither allocate nor stall the stream.
  if (payload_len > max_payload) {
    if (error != nullptr) *error = "hostile frame length";
    return ParseVerdict::kCorrupt;
  }
  if (!IsKnownMsgType(type)) {
    if (error != nullptr) *error = "unknown message type";
    return ParseVerdict::kCorrupt;
  }
  if (version < MinProtocolVersionForMsgType(type)) {
    // A v3-only kind in an older frame: the sender never negotiated the
    // version that defines the message, so the stream is not trustworthy.
    if (error != nullptr) *error = "message kind not in frame's version";
    return ParseVerdict::kCorrupt;
  }
  size_t total = kFrameHeaderBytes + payload_len + kFrameTrailerBytes;
  if (size < total) return ParseVerdict::kNeedMore;
  ByteReader trailer(data + kFrameHeaderBytes + payload_len,
                     kFrameTrailerBytes);
  uint32_t crc;
  trailer.U32(&crc);
  if (crc != Crc32(data, kFrameHeaderBytes + payload_len)) {
    if (error != nullptr) *error = "frame CRC mismatch";
    return ParseVerdict::kCorrupt;
  }
  out->type = static_cast<MsgType>(type);
  out->version = version;
  out->payload.assign(reinterpret_cast<const char*>(data) +
                          kFrameHeaderBytes,
                      payload_len);
  *consumed = total;
  return ParseVerdict::kFrame;
}

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "Hello";
    case MsgType::kLease: return "Lease";
    case MsgType::kSubmitBatch: return "SubmitBatch";
    case MsgType::kRetract: return "Retract";
    case MsgType::kBye: return "Bye";
    case MsgType::kFinalize: return "Finalize";
    case MsgType::kStats: return "Stats";
    case MsgType::kLogGather: return "LogGather";
    case MsgType::kApplyLeases: return "ApplyLeases";
    case MsgType::kHelloResp: return "HelloResp";
    case MsgType::kLeaseResp: return "LeaseResp";
    case MsgType::kSubmitBatchResp: return "SubmitBatchResp";
    case MsgType::kRetractResp: return "RetractResp";
    case MsgType::kByeResp: return "ByeResp";
    case MsgType::kFinalizeResp: return "FinalizeResp";
    case MsgType::kStatsResp: return "StatsResp";
    case MsgType::kLogGatherResp: return "LogGatherResp";
    case MsgType::kApplyLeasesResp: return "ApplyLeasesResp";
  }
  return "unknown";
}

bool IsKnownMsgType(uint8_t type) {
  uint8_t base = type & 0x7f;
  return base >= static_cast<uint8_t>(MsgType::kHello) &&
         base <= static_cast<uint8_t>(MsgType::kApplyLeases) &&
         base != kReservedKind;
}

uint8_t MinProtocolVersionForMsgType(uint8_t type) {
  uint8_t base = type & 0x7f;
  return base >= static_cast<uint8_t>(MsgType::kLogGather) ? 3 : 1;
}

bool NegotiateProtocolVersion(uint8_t client_min, uint8_t client_max,
                              uint8_t server_min, uint8_t server_max,
                              uint8_t* negotiated) {
  if (client_min > client_max || server_min > server_max) return false;
  uint8_t lo = client_min > server_min ? client_min : server_min;
  uint8_t hi = client_max < server_max ? client_max : server_max;
  if (lo > hi) return false;
  *negotiated = hi;
  return true;
}

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk: return "OK";
    case WireStatus::kRetryLater: return "RETRY_LATER";
    case WireStatus::kInvalidArgument: return "INVALID_ARGUMENT";
    case WireStatus::kNotFound: return "NOT_FOUND";
    case WireStatus::kOutOfRange: return "OUT_OF_RANGE";
    case WireStatus::kFailedPrecondition: return "FAILED_PRECONDITION";
    case WireStatus::kInternal: return "INTERNAL";
    case WireStatus::kShuttingDown: return "SHUTTING_DOWN";
  }
  return "unknown";
}

WireStatus WireStatusFromCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return WireStatus::kOk;
    case StatusCode::kInvalidArgument: return WireStatus::kInvalidArgument;
    case StatusCode::kNotFound: return WireStatus::kNotFound;
    case StatusCode::kOutOfRange: return WireStatus::kOutOfRange;
    case StatusCode::kFailedPrecondition:
      return WireStatus::kFailedPrecondition;
    case StatusCode::kInternal: return WireStatus::kInternal;
    case StatusCode::kIoError: return WireStatus::kInternal;
  }
  return WireStatus::kInternal;
}

// ---------------------------------------------------------------------------
// Encoders.

void EncodeHelloRequest(const HelloRequest& msg, std::string* out) {
  std::string payload;
  PutI32(msg.worker, &payload);
  if (msg.max_version >= 2) {
    // Extended v2 Hello: the client's version range rides after the worker
    // id. A v1-only client keeps the legacy 4-byte payload (and v1 frame)
    // above, byte-identical to pre-negotiation builds.
    PutU8(msg.min_version, &payload);
    PutU8(msg.max_version, &payload);
    PutFrame(MsgType::kHello, payload, out, 2);
    return;
  }
  PutFrame(MsgType::kHello, payload, out);
}

void EncodeHelloResponse(const HelloResponse& msg, std::string* out) {
  std::string payload;
  PutU8(static_cast<uint8_t>(msg.status), &payload);
  PutU64(msg.session, &payload);
  PutU64(msg.schema_fingerprint, &payload);
  PutU32(msg.num_rows, &payload);
  PutU32(static_cast<uint32_t>(msg.columns.size()), &payload);
  for (const WireColumn& col : msg.columns) {
    PutU8(col.categorical, &payload);
    PutU32(col.label_count, &payload);
  }
  if (msg.negotiated_version >= 2) {
    PutU8(msg.negotiated_version, &payload);
    PutFrame(MsgType::kHelloResp, payload, out, 2);
    return;
  }
  PutFrame(MsgType::kHelloResp, payload, out);
}

void EncodeLeaseRequest(const LeaseRequest& msg, std::string* out) {
  std::string payload;
  PutU64(msg.session, &payload);
  PutU32(msg.max_tasks, &payload);
  PutFrame(MsgType::kLease, payload, out);
}

void EncodeLeaseResponse(const LeaseResponse& msg, std::string* out) {
  std::string payload;
  PutU8(static_cast<uint8_t>(msg.status), &payload);
  PutU8(msg.drained, &payload);
  PutCells(msg.cells, &payload);
  PutFrame(MsgType::kLeaseResp, payload, out);
}

void EncodeSubmitBatchRequest(const SubmitBatchRequest& msg,
                              std::string* out) {
  std::string payload;
  PutU64(msg.session, &payload);
  PutU32(static_cast<uint32_t>(msg.items.size()), &payload);
  for (const auto& [cell, value] : msg.items) {
    PutCell(cell, &payload);
    PutValue(value, &payload);
  }
  PutFrame(MsgType::kSubmitBatch, payload, out);
}

void EncodeSubmitBatchResponse(const SubmitBatchResponse& msg,
                               std::string* out) {
  std::string payload;
  PutU8(static_cast<uint8_t>(msg.status), &payload);
  PutU32(static_cast<uint32_t>(msg.item_status.size()), &payload);
  for (uint8_t st : msg.item_status) PutU8(st, &payload);
  PutFrame(MsgType::kSubmitBatchResp, payload, out);
}

void EncodeRetractRequest(const RetractRequest& msg, std::string* out) {
  std::string payload;
  PutI32(msg.worker, &payload);
  PutCell(msg.cell, &payload);
  PutFrame(MsgType::kRetract, payload, out);
}

void EncodeRetractResponse(const RetractResponse& msg, std::string* out) {
  PutFrame(MsgType::kRetractResp, StatusPayload(msg.status), out);
}

void EncodeByeRequest(const ByeRequest& msg, std::string* out) {
  std::string payload;
  PutU64(msg.session, &payload);
  PutFrame(MsgType::kBye, payload, out);
}

void EncodeByeResponse(const ByeResponse& msg, std::string* out) {
  PutFrame(MsgType::kByeResp, StatusPayload(msg.status), out);
}

void EncodeFinalizeRequest(const FinalizeRequest&, std::string* out) {
  PutFrame(MsgType::kFinalize, std::string(), out);
}

void EncodeFinalizeResponse(const FinalizeResponse& msg, std::string* out) {
  std::string payload;
  PutU8(static_cast<uint8_t>(msg.status), &payload);
  PutU64(msg.digest, &payload);
  PutU64(msg.answer_count, &payload);
  PutFrame(MsgType::kFinalizeResp, payload, out);
}

void EncodeStatsRequest(const StatsRequest&, std::string* out) {
  PutFrame(MsgType::kStats, std::string(), out);
}

void EncodeStatsResponse(const StatsResponse& msg, std::string* out) {
  std::string payload;
  PutU8(static_cast<uint8_t>(msg.status), &payload);
  PutU32(msg.tasks_open, &payload);
  PutU32(msg.tasks_assigned, &payload);
  PutU32(msg.tasks_answered, &payload);
  PutU32(msg.tasks_finalized, &payload);
  PutU64(msg.sessions_started, &payload);
  PutU64(msg.sessions_active, &payload);
  PutU64(msg.sessions_expired, &payload);
  PutU64(msg.answers_accepted, &payload);
  PutU64(msg.answers_rejected, &payload);
  PutU64(msg.answers_retracted, &payload);
  PutU64(msg.answers_restored, &payload);
  PutU64(msg.assignments, &payload);
  PutI64(msg.budget_spent, &payload);
  PutI64(msg.budget_remaining, &payload);
  PutU32(msg.engine_refreshes, &payload);
  PutU8(msg.drained, &payload);
  PutU64(msg.connections_accepted, &payload);
  PutU64(msg.connections_open, &payload);
  PutU64(msg.frames_processed, &payload);
  PutU64(msg.retry_later_total, &payload);
  PutU64(msg.write_queue_peak, &payload);
  PutU64(msg.http_requests, &payload);
  PutU64(msg.frame_errors, &payload);
  PutU64(msg.inflight_answers, &payload);
  PutU64(msg.inflight_budget, &payload);
  PutFrame(MsgType::kStatsResp, payload, out);
}

void EncodeLogGatherRequest(const LogGatherRequest&, std::string* out) {
  PutFrame(MsgType::kLogGather, std::string(), out, 3);
}

void EncodeLogGatherResponse(const LogGatherResponse& msg,
                             std::string* out) {
  std::string payload;
  PutU8(static_cast<uint8_t>(msg.status), &payload);
  PutU64(msg.answer_count, &payload);
  PutString(msg.block, &payload);
  PutFrame(MsgType::kLogGatherResp, payload, out, 3);
}

void EncodeApplyLeasesRequest(const ApplyLeasesRequest& msg,
                              std::string* out) {
  std::string payload;
  PutU64(msg.session, &payload);
  PutCells(msg.cells, &payload);
  PutFrame(MsgType::kApplyLeases, payload, out, 3);
}

void EncodeApplyLeasesResponse(const ApplyLeasesResponse& msg,
                               std::string* out) {
  PutFrame(MsgType::kApplyLeasesResp, StatusPayload(msg.status), out, 3);
}

// ---------------------------------------------------------------------------
// Payload decoders.

Status DecodeHelloRequest(const void* data, size_t size, HelloRequest* out) {
  ByteReader r(data, size);
  if (!r.I32(&out->worker)) return Malformed("Hello");
  if (r.done()) {
    // Legacy v1 Hello: no range on the wire means the client speaks
    // exactly version 1.
    out->min_version = 1;
    out->max_version = 1;
    return Status::Ok();
  }
  if (!r.U8(&out->min_version) || !r.U8(&out->max_version) || !r.done()) {
    return Malformed("Hello version range");
  }
  return Status::Ok();
}

Status DecodeHelloResponse(const void* data, size_t size,
                           HelloResponse* out) {
  ByteReader r(data, size);
  uint8_t status;
  uint32_t count;
  if (!r.U8(&status) || !r.U64(&out->session) ||
      !r.U64(&out->schema_fingerprint) || !r.U32(&out->num_rows) ||
      !r.U32(&count)) {
    return Malformed("HelloResp");
  }
  if (!r.Count(count, kMinColumnBytes)) {
    return Malformed("HelloResp column count exceeds payload");
  }
  out->status = static_cast<WireStatus>(status);
  out->columns.clear();
  out->columns.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WireColumn col;
    if (!r.U8(&col.categorical) || !r.U32(&col.label_count)) {
      return Malformed("HelloResp column");
    }
    out->columns.push_back(col);
  }
  if (r.done()) {
    out->negotiated_version = 1;  // legacy v1 response
    return Status::Ok();
  }
  if (!r.U8(&out->negotiated_version) || !r.done()) {
    return Malformed("HelloResp trailing bytes");
  }
  return Status::Ok();
}

Status DecodeLeaseRequest(const void* data, size_t size, LeaseRequest* out) {
  ByteReader r(data, size);
  if (!r.U64(&out->session) || !r.U32(&out->max_tasks) || !r.done()) {
    return Malformed("Lease");
  }
  return Status::Ok();
}

Status DecodeLeaseResponse(const void* data, size_t size,
                           LeaseResponse* out) {
  ByteReader r(data, size);
  uint8_t status;
  if (!r.U8(&status) || !r.U8(&out->drained) || !GetCells(&r, &out->cells)) {
    return Malformed("LeaseResp cells");
  }
  out->status = static_cast<WireStatus>(status);
  if (!r.done()) return Malformed("LeaseResp trailing bytes");
  return Status::Ok();
}

Status DecodeSubmitBatchRequest(const void* data, size_t size,
                                SubmitBatchRequest* out) {
  ByteReader r(data, size);
  uint32_t count;
  if (!r.U64(&out->session) || !r.U32(&count)) {
    return Malformed("SubmitBatch");
  }
  if (!r.Count(count, kMinSubmitItemBytes)) {
    return Malformed("SubmitBatch item count exceeds payload");
  }
  out->items.resize(count);
  for (auto& [cell, value] : out->items) {
    if (!r.Cell(&cell) || !GetValue(&r, &value)) {
      return Malformed("SubmitBatch item");
    }
  }
  if (!r.done()) return Malformed("SubmitBatch trailing bytes");
  return Status::Ok();
}

Status DecodeSubmitBatchResponse(const void* data, size_t size,
                                 SubmitBatchResponse* out) {
  ByteReader r(data, size);
  uint8_t status;
  uint32_t count;
  if (!r.U8(&status) || !r.U32(&count)) return Malformed("SubmitBatchResp");
  if (!r.Count(count, 1)) {
    return Malformed("SubmitBatchResp status count exceeds payload");
  }
  out->status = static_cast<WireStatus>(status);
  out->item_status.resize(count);
  for (uint8_t& st : out->item_status) {
    if (!r.U8(&st)) return Malformed("SubmitBatchResp status");
  }
  if (!r.done()) return Malformed("SubmitBatchResp trailing bytes");
  return Status::Ok();
}

Status DecodeRetractRequest(const void* data, size_t size,
                            RetractRequest* out) {
  ByteReader r(data, size);
  if (!r.I32(&out->worker) || !r.Cell(&out->cell) || !r.done()) {
    return Malformed("Retract");
  }
  return Status::Ok();
}

Status DecodeRetractResponse(const void* data, size_t size,
                             RetractResponse* out) {
  return DecodeStatusOnly(data, size, "RetractResp", &out->status);
}

Status DecodeByeRequest(const void* data, size_t size, ByeRequest* out) {
  ByteReader r(data, size);
  if (!r.U64(&out->session) || !r.done()) return Malformed("Bye");
  return Status::Ok();
}

Status DecodeByeResponse(const void* data, size_t size, ByeResponse* out) {
  return DecodeStatusOnly(data, size, "ByeResp", &out->status);
}

Status DecodeFinalizeRequest(const void*, size_t size, FinalizeRequest*) {
  return DecodeEmpty(size, "Finalize trailing bytes");
}

Status DecodeFinalizeResponse(const void* data, size_t size,
                              FinalizeResponse* out) {
  ByteReader r(data, size);
  uint8_t status;
  if (!r.U8(&status) || !r.U64(&out->digest) || !r.U64(&out->answer_count) ||
      !r.done()) {
    return Malformed("FinalizeResp");
  }
  out->status = static_cast<WireStatus>(status);
  return Status::Ok();
}

Status DecodeStatsRequest(const void*, size_t size, StatsRequest*) {
  return DecodeEmpty(size, "Stats trailing bytes");
}

Status DecodeStatsResponse(const void* data, size_t size,
                           StatsResponse* out) {
  ByteReader r(data, size);
  uint8_t status;
  if (!r.U8(&status) || !r.U32(&out->tasks_open) ||
      !r.U32(&out->tasks_assigned) || !r.U32(&out->tasks_answered) ||
      !r.U32(&out->tasks_finalized) || !r.U64(&out->sessions_started) ||
      !r.U64(&out->sessions_active) || !r.U64(&out->sessions_expired) ||
      !r.U64(&out->answers_accepted) || !r.U64(&out->answers_rejected) ||
      !r.U64(&out->answers_retracted) || !r.U64(&out->answers_restored) ||
      !r.U64(&out->assignments) || !r.I64(&out->budget_spent) ||
      !r.I64(&out->budget_remaining) || !r.U32(&out->engine_refreshes) ||
      !r.U8(&out->drained) || !r.U64(&out->connections_accepted) ||
      !r.U64(&out->connections_open) || !r.U64(&out->frames_processed) ||
      !r.U64(&out->retry_later_total) || !r.U64(&out->write_queue_peak) ||
      !r.U64(&out->http_requests) || !r.U64(&out->frame_errors) ||
      !r.U64(&out->inflight_answers) || !r.U64(&out->inflight_budget) ||
      !r.done()) {
    return Malformed("StatsResp");
  }
  out->status = static_cast<WireStatus>(status);
  return Status::Ok();
}

Status DecodeLogGatherRequest(const void*, size_t size, LogGatherRequest*) {
  return DecodeEmpty(size, "LogGather trailing bytes");
}

Status DecodeLogGatherResponse(const void* data, size_t size,
                               LogGatherResponse* out) {
  ByteReader r(data, size);
  uint8_t status;
  if (!r.U8(&status) || !r.U64(&out->answer_count) ||
      !r.String(&out->block)) {
    return Malformed("LogGatherResp");
  }
  out->status = static_cast<WireStatus>(status);
  if (!r.done()) return Malformed("LogGatherResp trailing bytes");
  return Status::Ok();
}

Status DecodeApplyLeasesRequest(const void* data, size_t size,
                                ApplyLeasesRequest* out) {
  ByteReader r(data, size);
  if (!r.U64(&out->session) || !GetCells(&r, &out->cells)) {
    return Malformed("ApplyLeases cells");
  }
  if (!r.done()) return Malformed("ApplyLeases trailing bytes");
  return Status::Ok();
}

Status DecodeApplyLeasesResponse(const void* data, size_t size,
                                 ApplyLeasesResponse* out) {
  return DecodeStatusOnly(data, size, "ApplyLeasesResp", &out->status);
}

// ---------------------------------------------------------------------------
// Framing.

void FrameDecoder::Feed(const void* data, size_t n) {
  // Compact lazily: only when the dead prefix dominates, so steady-state
  // feeding is append-only.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(static_cast<const char*>(data), n);
}

FrameDecoder::Result FrameDecoder::Next(Frame* out, std::string* error) {
  const uint8_t* base =
      reinterpret_cast<const uint8_t*>(buffer_.data()) + consumed_;
  size_t avail = buffer_.size() - consumed_;
  size_t consumed = 0;
  switch (ParseFrame(base, avail, max_payload_, out, &consumed, error)) {
    case ParseVerdict::kFrame:
      consumed_ += consumed;
      return Result::kFrame;
    case ParseVerdict::kNeedMore:
      return Result::kNeedMore;
    case ParseVerdict::kCorrupt:
      return Result::kCorrupt;
  }
  return Result::kCorrupt;
}

Status DecodeFrameStream(const void* data, size_t size,
                         FrameStreamReplay* out, size_t max_payload) {
  out->frames.clear();
  out->truncated = false;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t left = size;
  while (left > 0) {
    Frame frame;
    size_t consumed = 0;
    ParseVerdict verdict =
        ParseFrame(p, left, max_payload, &frame, &consumed, nullptr);
    if (verdict != ParseVerdict::kFrame) {
      // Torn tail or corruption: keep the clean prefix, drop the rest. A
      // framed stream cannot be resynchronized past a bad frame.
      out->truncated = true;
      break;
    }
    out->frames.push_back(std::move(frame));
    p += consumed;
    left -= consumed;
  }
  return Status::Ok();
}

}  // namespace tcrowd::net
