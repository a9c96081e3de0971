#ifndef TCROWD_NET_PROTOCOL_H_
#define TCROWD_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/table.h"
#include "data/value.h"

namespace tcrowd::net {

/// Wire protocol of the tcrowd_serverd front-end (docs/PROTOCOL.md). One
/// frame per message, sharing the segment_codec/event_log framing
/// discipline and byte codec (data/byte_codec.h) — little-endian
/// fixed-width fields, magic ("TCNP"), an explicit version, a length
/// prefix, and a trailing CRC-32 over everything before it:
///
///   u32 magic "TCNP" | u8 version | u8 type | u32 payload_len |
///   payload bytes    | u32 crc
///
/// Error contract (the house rule): decoders never crash on hostile bytes.
/// The connection decoder (FrameDecoder) treats a bad magic, an unknown
/// version, a hostile length, or a CRC mismatch as connection-fatal — a
/// byte stream that has lost framing cannot be resynchronized, so the
/// server drops the connection. The one-shot stream decoder
/// (DecodeFrameStream) is the lenient test/forensics reader: corruption or
/// a torn tail ends decoding at the last whole frame (bit-exact clean
/// prefix, reported via `truncated`), exactly like the journal reader.
/// Payload lengths are bounded by kMaxFramePayload BEFORE any allocation,
/// so a corrupt length field cannot demand a multi-gigabyte buffer.

/// The baseline frame version every peer speaks; v1 messages are emitted
/// in v1 frames forever, so a pre-negotiation peer sees byte-identical
/// traffic.
inline constexpr uint32_t kProtocolVersion = 1;
/// Version range this build understands. Version 2 added Hello min/max
/// version negotiation; version 3 added the router-to-shard-daemon kinds
/// LogGather and ApplyLeases (multi-process deployment, docs/SHARDING.md).
/// A frame whose version is outside [min, max] — or a message kind wrapped
/// in a frame older than the version that defines it — is
/// connection-fatal.
inline constexpr uint8_t kProtocolVersionMin = 1;
inline constexpr uint8_t kProtocolVersionMax = 3;
/// "TCNP" in little-endian byte order on the wire.
inline constexpr uint32_t kFrameMagic = 0x504e4354;
/// Upper bound on one frame's payload; both sides refuse bigger frames.
inline constexpr size_t kMaxFramePayload = 1u << 20;
/// Bytes before the payload (magic + version + type + payload length).
inline constexpr size_t kFrameHeaderBytes = 10;
/// Trailing CRC-32.
inline constexpr size_t kFrameTrailerBytes = 4;

/// Request/response vocabulary. A response type is its request type | 0x80.
/// 0x08/0x88 belong to a retired v2 kind: reserved, never reused, and
/// decoded as an unknown message type (docs/PROTOCOL.md).
enum class MsgType : uint8_t {
  kHello = 0x01,        ///< open a worker session
  kLease = 0x02,        ///< lease up to k tasks onto a session
  kSubmitBatch = 0x03,  ///< submit a page of answers for leased cells
  kRetract = 0x04,      ///< retract a worker's newest answer on a cell
  kBye = 0x05,          ///< close a session (releases unanswered leases)
  kFinalize = 0x06,     ///< run the final batch-converged fit
  kStats = 0x07,        ///< service + network stats snapshot
  kLogGather = 0x09,    ///< v3: gather the ordered live answer log
  kApplyLeases = 0x0a,  ///< v3: book recorded leases onto a session

  kHelloResp = 0x81,
  kLeaseResp = 0x82,
  kSubmitBatchResp = 0x83,
  kRetractResp = 0x84,
  kByeResp = 0x85,
  kFinalizeResp = 0x86,
  kStatsResp = 0x87,
  kLogGatherResp = 0x89,
  kApplyLeasesResp = 0x8a,
};

const char* MsgTypeName(MsgType type);
bool IsKnownMsgType(uint8_t type);
/// Lowest frame version a message kind may travel in: 3 for
/// LogGather/ApplyLeases, 1 for everything else. A newer-only kind inside
/// an older frame is a framing violation (the sender never negotiated the
/// version that defines the message).
uint8_t MinProtocolVersionForMsgType(uint8_t type);

/// Computes the version both ranges can speak: the highest version inside
/// the intersection of [client_min, client_max] and [server_min,
/// server_max]. False (and *negotiated untouched) when the ranges are
/// disjoint or either range is inverted. Hello carries the client range;
/// HelloResponse pins the server's pick for the connection's lifetime.
bool NegotiateProtocolVersion(uint8_t client_min, uint8_t client_max,
                              uint8_t server_min, uint8_t server_max,
                              uint8_t* negotiated);

/// Response status on the wire. kRetryLater is the backpressure verdict: the
/// request was shed BEFORE touching the service (nothing was booked) and the
/// client should back off and resend the identical request.
enum class WireStatus : uint8_t {
  kOk = 0,
  kRetryLater = 1,
  kInvalidArgument = 2,
  kNotFound = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kInternal = 6,
  kShuttingDown = 7,
};

const char* WireStatusName(WireStatus status);
/// Maps a service StatusCode onto the wire (kOk..kInternal; RETRY_LATER and
/// SHUTTING_DOWN are server-side verdicts with no StatusCode equivalent).
WireStatus WireStatusFromCode(StatusCode code);

// ---------------------------------------------------------------------------
// Message payloads. Fields are fixed-width little-endian; Values travel as a
// kind tag + exact IEEE-754 bit pattern (continuous) or label index
// (categorical), so an answer decodes bit-identical to what was sent.

struct HelloRequest {
  int32_t worker = 0;
  /// Version range the client can speak. The defaults encode as the legacy
  /// 4-byte v1 Hello (byte-identical to pre-negotiation builds); max >= 2
  /// encodes the extended v2 Hello carrying the range.
  uint8_t min_version = 1;
  uint8_t max_version = 1;
};

/// Per-column schema summary so a remote client can produce valid answers
/// without a local copy of the table.
struct WireColumn {
  uint8_t categorical = 0;  ///< 1 = categorical, 0 = continuous
  uint32_t label_count = 0;  ///< labels of a categorical column, else 0
};

struct HelloResponse {
  WireStatus status = WireStatus::kOk;
  uint64_t session = 0;
  /// SchemaFingerprint(schema, num_rows) of the serving table; a client
  /// driving from a locally rebuilt world refuses a mismatched server.
  uint64_t schema_fingerprint = 0;
  uint32_t num_rows = 0;
  std::vector<WireColumn> columns;
  /// Version the server picked for this connection (>= 2 appends it to the
  /// response; 1 encodes the legacy byte-identical v1 response). A v1
  /// client never sees the field and keeps speaking v1.
  uint8_t negotiated_version = 1;
};

struct LeaseRequest {
  uint64_t session = 0;
  uint32_t max_tasks = 0;
};

struct LeaseResponse {
  WireStatus status = WireStatus::kOk;
  /// True when no further assignment can ever happen (budget exhausted or
  /// every task finalized) — the remote driver's stop signal.
  uint8_t drained = 0;
  std::vector<CellRef> cells;
};

struct SubmitBatchRequest {
  uint64_t session = 0;
  std::vector<std::pair<CellRef, Value>> items;
};

struct SubmitBatchResponse {
  /// kOk: the batch reached the service; per-item verdicts below.
  /// kRetryLater: the WHOLE batch was shed by admission control — nothing
  /// was booked, resend the identical batch after backing off.
  WireStatus status = WireStatus::kOk;
  /// One StatusCode per submitted item, aligned with the request (empty
  /// when the batch was shed).
  std::vector<uint8_t> item_status;
};

struct RetractRequest {
  int32_t worker = 0;
  CellRef cell{0, 0};
};

struct RetractResponse {
  WireStatus status = WireStatus::kOk;
};

struct ByeRequest {
  uint64_t session = 0;
};

struct ByeResponse {
  WireStatus status = WireStatus::kOk;
};

struct FinalizeRequest {};

struct FinalizeResponse {
  WireStatus status = WireStatus::kOk;
  /// TruthDigest of the finalized table — the bit-exact comparator behind
  /// the socket-vs-in-process identity guarantee.
  uint64_t digest = 0;
  uint64_t answer_count = 0;
};

struct StatsRequest {};

struct StatsResponse {
  WireStatus status = WireStatus::kOk;
  // Service ledger (CrowdService::Stats).
  uint32_t tasks_open = 0;
  uint32_t tasks_assigned = 0;
  uint32_t tasks_answered = 0;
  uint32_t tasks_finalized = 0;
  uint64_t sessions_started = 0;
  uint64_t sessions_active = 0;
  uint64_t sessions_expired = 0;
  uint64_t answers_accepted = 0;
  uint64_t answers_rejected = 0;
  uint64_t answers_retracted = 0;
  uint64_t answers_restored = 0;
  uint64_t assignments = 0;
  int64_t budget_spent = 0;
  int64_t budget_remaining = 0;
  uint32_t engine_refreshes = 0;
  uint8_t drained = 0;
  // Network front-end counters (Server::net_stats).
  uint64_t connections_accepted = 0;
  uint64_t connections_open = 0;
  uint64_t frames_processed = 0;
  uint64_t retry_later_total = 0;
  uint64_t write_queue_peak = 0;
  uint64_t http_requests = 0;
  uint64_t frame_errors = 0;
  /// Engine answers absorbed since the last refresh — the admission
  /// control meter (shed when this exceeds the in-flight budget).
  uint64_t inflight_answers = 0;
  uint64_t inflight_budget = 0;
};

/// v3: ask a shard daemon for its ordered live answer log — the router's
/// Finalize seam (docs/SHARDING.md). The response carries the engine's
/// answers in arrival order as ONE segment_codec answer block with the
/// daemon's LOCAL row coordinates; the router pairs them positionally with
/// its global arrival-seq ledger, exactly as it snapshots an in-process
/// shard.
struct LogGatherRequest {};

struct LogGatherResponse {
  WireStatus status = WireStatus::kOk;
  /// Answers in `block` (kOutOfRange with an empty block when the log no
  /// longer fits one frame — kMaxFramePayload bounds a gather to ~40k
  /// answers; chunked gathers are future work).
  uint64_t answer_count = 0;
  /// EncodeAnswerBlock bytes holding answer_count answers (local rows,
  /// arrival order).
  std::string block;
};

/// v3: book previously recorded lease decisions onto a session — the wire
/// form of ServingBackend::ApplyRecordedLeases, used by deterministic
/// replay drivers against a remote shard.
struct ApplyLeasesRequest {
  uint64_t session = 0;
  std::vector<CellRef> cells;
};

struct ApplyLeasesResponse {
  WireStatus status = WireStatus::kOk;
};

// ---------------------------------------------------------------------------
// Frame encoders. Each appends one complete frame (header + payload + CRC)
// to `*out`; requests from the client, responses from the server.

void EncodeHelloRequest(const HelloRequest& msg, std::string* out);
void EncodeHelloResponse(const HelloResponse& msg, std::string* out);
void EncodeLeaseRequest(const LeaseRequest& msg, std::string* out);
void EncodeLeaseResponse(const LeaseResponse& msg, std::string* out);
void EncodeSubmitBatchRequest(const SubmitBatchRequest& msg,
                              std::string* out);
void EncodeSubmitBatchResponse(const SubmitBatchResponse& msg,
                               std::string* out);
void EncodeRetractRequest(const RetractRequest& msg, std::string* out);
void EncodeRetractResponse(const RetractResponse& msg, std::string* out);
void EncodeByeRequest(const ByeRequest& msg, std::string* out);
void EncodeByeResponse(const ByeResponse& msg, std::string* out);
void EncodeFinalizeRequest(const FinalizeRequest& msg, std::string* out);
void EncodeFinalizeResponse(const FinalizeResponse& msg, std::string* out);
void EncodeStatsRequest(const StatsRequest& msg, std::string* out);
void EncodeStatsResponse(const StatsResponse& msg, std::string* out);
/// LogGather/ApplyLeases frames always travel as protocol v3 (the kinds do
/// not exist earlier); send them only after Hello negotiated version >= 3.
void EncodeLogGatherRequest(const LogGatherRequest& msg, std::string* out);
void EncodeLogGatherResponse(const LogGatherResponse& msg, std::string* out);
void EncodeApplyLeasesRequest(const ApplyLeasesRequest& msg,
                              std::string* out);
void EncodeApplyLeasesResponse(const ApplyLeasesResponse& msg,
                               std::string* out);

// ---------------------------------------------------------------------------
// Payload decoders. `data/size` is one frame's payload (the FrameDecoder
// already verified magic/version/CRC). InvalidArgument on a payload that
// does not parse as the named message; never crashes on hostile bytes.

Status DecodeHelloRequest(const void* data, size_t size, HelloRequest* out);
Status DecodeHelloResponse(const void* data, size_t size,
                           HelloResponse* out);
Status DecodeLeaseRequest(const void* data, size_t size, LeaseRequest* out);
Status DecodeLeaseResponse(const void* data, size_t size,
                           LeaseResponse* out);
Status DecodeSubmitBatchRequest(const void* data, size_t size,
                                SubmitBatchRequest* out);
Status DecodeSubmitBatchResponse(const void* data, size_t size,
                                 SubmitBatchResponse* out);
Status DecodeRetractRequest(const void* data, size_t size,
                            RetractRequest* out);
Status DecodeRetractResponse(const void* data, size_t size,
                             RetractResponse* out);
Status DecodeByeRequest(const void* data, size_t size, ByeRequest* out);
Status DecodeByeResponse(const void* data, size_t size, ByeResponse* out);
Status DecodeFinalizeRequest(const void* data, size_t size,
                             FinalizeRequest* out);
Status DecodeFinalizeResponse(const void* data, size_t size,
                              FinalizeResponse* out);
Status DecodeStatsRequest(const void* data, size_t size, StatsRequest* out);
Status DecodeStatsResponse(const void* data, size_t size,
                           StatsResponse* out);
Status DecodeLogGatherRequest(const void* data, size_t size,
                              LogGatherRequest* out);
Status DecodeLogGatherResponse(const void* data, size_t size,
                               LogGatherResponse* out);
Status DecodeApplyLeasesRequest(const void* data, size_t size,
                                ApplyLeasesRequest* out);
Status DecodeApplyLeasesResponse(const void* data, size_t size,
                                 ApplyLeasesResponse* out);

// ---------------------------------------------------------------------------
// Framing.

/// One decoded frame: the type byte plus the raw payload bytes (decode the
/// payload with the matching Decode*() above).
struct Frame {
  MsgType type = MsgType::kHello;
  /// Frame version as it appeared on the wire (within [kProtocolVersionMin,
  /// kProtocolVersionMax], or the frame would have been corrupt).
  uint8_t version = static_cast<uint8_t>(kProtocolVersion);
  std::string payload;
};

/// Incremental frame extractor over a TCP byte stream. Feed() appends
/// arriving bytes; Next() peels whole frames off the front. Strict by
/// design: any framing violation (wrong magic, unknown version, hostile
/// length, CRC mismatch, unknown type) is kCorrupt and the connection must
/// be dropped — there is no way to resynchronize a framed stream that has
/// lost its framing.
class FrameDecoder {
 public:
  enum class Result {
    kFrame,     ///< *out holds the next whole frame
    kNeedMore,  ///< clean prefix so far; feed more bytes
    kCorrupt,   ///< framing violated; drop the connection
  };

  explicit FrameDecoder(size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void Feed(const void* data, size_t n);
  Result Next(Frame* out, std::string* error);
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  size_t max_payload_ = kMaxFramePayload;
  std::string buffer_;
  size_t consumed_ = 0;  ///< bytes of buffer_ already peeled off
};

/// Result of decoding a captured byte stream end to end (tests, captures).
struct FrameStreamReplay {
  std::vector<Frame> frames;
  /// True when trailing bytes were dropped — a torn final frame or any
  /// corruption; decode keeps the longest clean prefix of whole frames.
  bool truncated = false;
};

/// Lenient one-shot decoder over a captured stream: always returns OK, keeps
/// the bit-exact clean prefix (see FrameStreamReplay::truncated). Same
/// hostile-length guard as the connection decoder.
Status DecodeFrameStream(const void* data, size_t size,
                         FrameStreamReplay* out,
                         size_t max_payload = kMaxFramePayload);

}  // namespace tcrowd::net

#endif  // TCROWD_NET_PROTOCOL_H_
