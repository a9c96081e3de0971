// Hostile-bytes discipline for the TCNP wire protocol (docs/PROTOCOL.md),
// mirroring test_segment_codec.cc: every message kind must round-trip
// bit-exactly, and NO mutation of the byte stream — every single-byte flip,
// every truncation point, hostile lengths, hostile counts — may crash a
// decoder or corrupt the clean prefix of frames before the damage.

#include "net/protocol.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "data/answer.h"
#include "data/byte_codec.h"
#include "inference/segment_codec.h"
#include "test_helpers.h"

namespace tcrowd::net {
namespace {

// -------------------------------------------------------------------------
// One representative frame per message kind, with awkward payloads: NaN,
// -0.0, denormals, missing values, extreme row indices, INT32_MIN workers.

HelloRequest MakeHelloRequest() { return HelloRequest{-123456}; }

HelloResponse MakeHelloResponse() {
  HelloResponse msg;
  msg.status = WireStatus::kOk;
  msg.session = 0xdeadbeefcafef00dull;
  msg.schema_fingerprint = 0x0123456789abcdefull;
  msg.num_rows = 4096;
  msg.columns = {WireColumn{1, 7}, WireColumn{0, 0}, WireColumn{1, 2}};
  return msg;
}

LeaseRequest MakeLeaseRequest() {
  return LeaseRequest{0x1122334455667788ull, 65536};
}

LeaseResponse MakeLeaseResponse() {
  LeaseResponse msg;
  msg.status = WireStatus::kOk;
  msg.drained = 1;
  msg.cells = {CellRef{0, 0}, CellRef{2147483647, 2147483647}, CellRef{5, 2}};
  return msg;
}

SubmitBatchRequest MakeSubmitBatchRequest() {
  SubmitBatchRequest msg;
  msg.session = 42;
  msg.items.emplace_back(CellRef{1, 2}, Value::Categorical(3));
  msg.items.emplace_back(
      CellRef{3, 0},
      Value::Continuous(std::numeric_limits<double>::quiet_NaN()));
  msg.items.emplace_back(CellRef{0, 1}, Value::Continuous(-0.0));
  msg.items.emplace_back(
      CellRef{7, 4},
      Value::Continuous(std::numeric_limits<double>::denorm_min()));
  msg.items.emplace_back(CellRef{9, 9}, Value());  // missing
  return msg;
}

SubmitBatchResponse MakeSubmitBatchResponse() {
  SubmitBatchResponse msg;
  msg.status = WireStatus::kOk;
  msg.item_status = {0, 2, 6, 0};
  return msg;
}

RetractRequest MakeRetractRequest() {
  return RetractRequest{-2147483647 - 1, CellRef{3, 1}};
}

RetractResponse MakeRetractResponse() {
  return RetractResponse{WireStatus::kNotFound};
}

ByeRequest MakeByeRequest() { return ByeRequest{0xffffffffffffffffull}; }
ByeResponse MakeByeResponse() { return ByeResponse{WireStatus::kOk}; }

FinalizeResponse MakeFinalizeResponse() {
  FinalizeResponse msg;
  msg.status = WireStatus::kOk;
  msg.digest = 0x40bd47ff76f76a01ull;
  msg.answer_count = 108;
  return msg;
}

StatsResponse MakeStatsResponse() {
  StatsResponse msg;
  msg.status = WireStatus::kRetryLater;
  msg.tasks_open = 1;
  msg.tasks_assigned = 2;
  msg.tasks_answered = 3;
  msg.tasks_finalized = 4;
  msg.sessions_started = 5;
  msg.sessions_active = 6;
  msg.sessions_expired = 7;
  msg.answers_accepted = 8;
  msg.answers_rejected = 9;
  msg.answers_retracted = 10;
  msg.answers_restored = 11;
  msg.assignments = 12;
  msg.budget_spent = -13;
  msg.budget_remaining = 14;
  msg.engine_refreshes = 15;
  msg.drained = 1;
  msg.connections_accepted = 16;
  msg.connections_open = 17;
  msg.frames_processed = 18;
  msg.retry_later_total = 19;
  msg.write_queue_peak = 20;
  msg.http_requests = 21;
  msg.frame_errors = 22;
  msg.inflight_answers = 23;
  msg.inflight_budget = 24;
  return msg;
}

HelloRequest MakeHelloRequestV2() {
  HelloRequest msg;
  msg.worker = -123456;
  msg.min_version = kProtocolVersionMin;
  msg.max_version = kProtocolVersionMax;
  return msg;
}

HelloResponse MakeHelloResponseV2() {
  HelloResponse msg = MakeHelloResponse();
  msg.negotiated_version = 2;
  return msg;
}

LogGatherResponse MakeLogGatherResponse() {
  LogGatherResponse msg;
  msg.status = WireStatus::kOk;
  std::vector<Answer> answers = {
      Answer{-2147483647 - 1, CellRef{0, 0}, Value::Categorical(1)},
      Answer{99, CellRef{2147483647, 0},
             Value::Continuous(std::numeric_limits<double>::denorm_min())},
      Answer{5, CellRef{1, 3}, Value()},  // missing
  };
  msg.answer_count = answers.size();
  EncodeAnswerBlock(answers.data(), answers.size(), &msg.block);
  return msg;
}

ApplyLeasesRequest MakeApplyLeasesRequest() {
  ApplyLeasesRequest msg;
  msg.session = 0xabad1deaabad1deaull;
  msg.cells = {CellRef{0, 0}, CellRef{2147483647, 2147483647}, CellRef{4, 1}};
  return msg;
}

ApplyLeasesResponse MakeApplyLeasesResponse() {
  return ApplyLeasesResponse{WireStatus::kNotFound};
}

/// Every frame kind once, each encoded as one complete frame — v1, v2, and
/// v3 frames interleaved, the coexistence every decoder must handle on one
/// stream.
std::vector<std::string> AllFrames() {
  std::vector<std::string> frames(20);
  EncodeHelloRequest(MakeHelloRequest(), &frames[0]);
  EncodeHelloResponse(MakeHelloResponse(), &frames[1]);
  EncodeLeaseRequest(MakeLeaseRequest(), &frames[2]);
  EncodeLeaseResponse(MakeLeaseResponse(), &frames[3]);
  EncodeSubmitBatchRequest(MakeSubmitBatchRequest(), &frames[4]);
  EncodeSubmitBatchResponse(MakeSubmitBatchResponse(), &frames[5]);
  EncodeRetractRequest(MakeRetractRequest(), &frames[6]);
  EncodeRetractResponse(MakeRetractResponse(), &frames[7]);
  EncodeByeRequest(MakeByeRequest(), &frames[8]);
  EncodeByeResponse(MakeByeResponse(), &frames[9]);
  EncodeFinalizeRequest(FinalizeRequest{}, &frames[10]);
  EncodeFinalizeResponse(MakeFinalizeResponse(), &frames[11]);
  EncodeStatsRequest(StatsRequest{}, &frames[12]);
  EncodeStatsResponse(MakeStatsResponse(), &frames[13]);
  // Protocol v2: the version-negotiating Hello forms.
  EncodeHelloRequest(MakeHelloRequestV2(), &frames[14]);
  EncodeHelloResponse(MakeHelloResponseV2(), &frames[15]);
  // Protocol v3: the router/shard-daemon pair (docs/SHARDING.md).
  EncodeLogGatherRequest(LogGatherRequest{}, &frames[16]);
  EncodeLogGatherResponse(MakeLogGatherResponse(), &frames[17]);
  EncodeApplyLeasesRequest(MakeApplyLeasesRequest(), &frames[18]);
  EncodeApplyLeasesResponse(MakeApplyLeasesResponse(), &frames[19]);
  return frames;
}

// -------------------------------------------------------------------------
// Round trips: every message kind decodes back bit-exactly through the
// frame envelope.

template <typename Msg>
Msg DecodeOneFrame(const std::string& frame, MsgType want_type,
                   Status (*decode)(const void*, size_t, Msg*)) {
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  Frame out;
  std::string error;
  EXPECT_EQ(decoder.Next(&out, &error), FrameDecoder::Result::kFrame)
      << error;
  EXPECT_EQ(out.type, want_type);
  Msg msg;
  Status st = decode(out.payload.data(), out.payload.size(), &msg);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(decoder.Next(&out, &error), FrameDecoder::Result::kNeedMore);
  return msg;
}

TEST(NetProtocol, HelloRoundTrips) {
  std::string frame;
  EncodeHelloRequest(MakeHelloRequest(), &frame);
  HelloRequest req =
      DecodeOneFrame(frame, MsgType::kHello, DecodeHelloRequest);
  EXPECT_EQ(req.worker, MakeHelloRequest().worker);

  frame.clear();
  EncodeHelloResponse(MakeHelloResponse(), &frame);
  HelloResponse resp =
      DecodeOneFrame(frame, MsgType::kHelloResp, DecodeHelloResponse);
  HelloResponse want = MakeHelloResponse();
  EXPECT_EQ(resp.status, want.status);
  EXPECT_EQ(resp.session, want.session);
  EXPECT_EQ(resp.schema_fingerprint, want.schema_fingerprint);
  EXPECT_EQ(resp.num_rows, want.num_rows);
  ASSERT_EQ(resp.columns.size(), want.columns.size());
  for (size_t i = 0; i < want.columns.size(); ++i) {
    EXPECT_EQ(resp.columns[i].categorical, want.columns[i].categorical);
    EXPECT_EQ(resp.columns[i].label_count, want.columns[i].label_count);
  }
}

TEST(NetProtocol, LeaseRoundTrips) {
  std::string frame;
  EncodeLeaseRequest(MakeLeaseRequest(), &frame);
  LeaseRequest req =
      DecodeOneFrame(frame, MsgType::kLease, DecodeLeaseRequest);
  EXPECT_EQ(req.session, MakeLeaseRequest().session);
  EXPECT_EQ(req.max_tasks, MakeLeaseRequest().max_tasks);

  frame.clear();
  EncodeLeaseResponse(MakeLeaseResponse(), &frame);
  LeaseResponse resp =
      DecodeOneFrame(frame, MsgType::kLeaseResp, DecodeLeaseResponse);
  LeaseResponse want = MakeLeaseResponse();
  EXPECT_EQ(resp.status, want.status);
  EXPECT_EQ(resp.drained, want.drained);
  ASSERT_EQ(resp.cells.size(), want.cells.size());
  for (size_t i = 0; i < want.cells.size(); ++i) {
    EXPECT_EQ(resp.cells[i].row, want.cells[i].row);
    EXPECT_EQ(resp.cells[i].col, want.cells[i].col);
  }
}

TEST(NetProtocol, SubmitBatchRoundTripsBitExactly) {
  std::string frame;
  EncodeSubmitBatchRequest(MakeSubmitBatchRequest(), &frame);
  SubmitBatchRequest req = DecodeOneFrame(frame, MsgType::kSubmitBatch,
                                          DecodeSubmitBatchRequest);
  SubmitBatchRequest want = MakeSubmitBatchRequest();
  EXPECT_EQ(req.session, want.session);
  ASSERT_EQ(req.items.size(), want.items.size());
  for (size_t i = 0; i < want.items.size(); ++i) {
    EXPECT_EQ(req.items[i].first.row, want.items[i].first.row);
    EXPECT_EQ(req.items[i].first.col, want.items[i].first.col);
    tcrowd::testing::ExpectSameValue(req.items[i].second,
                                     want.items[i].second);
  }

  frame.clear();
  EncodeSubmitBatchResponse(MakeSubmitBatchResponse(), &frame);
  SubmitBatchResponse resp = DecodeOneFrame(frame, MsgType::kSubmitBatchResp,
                                            DecodeSubmitBatchResponse);
  EXPECT_EQ(resp.status, MakeSubmitBatchResponse().status);
  EXPECT_EQ(resp.item_status, MakeSubmitBatchResponse().item_status);
}

TEST(NetProtocol, RetractByeFinalizeStatsRoundTrip) {
  std::string frame;
  EncodeRetractRequest(MakeRetractRequest(), &frame);
  RetractRequest retract =
      DecodeOneFrame(frame, MsgType::kRetract, DecodeRetractRequest);
  EXPECT_EQ(retract.worker, MakeRetractRequest().worker);
  EXPECT_EQ(retract.cell.row, MakeRetractRequest().cell.row);
  EXPECT_EQ(retract.cell.col, MakeRetractRequest().cell.col);

  frame.clear();
  EncodeRetractResponse(MakeRetractResponse(), &frame);
  EXPECT_EQ(DecodeOneFrame(frame, MsgType::kRetractResp,
                           DecodeRetractResponse)
                .status,
            MakeRetractResponse().status);

  frame.clear();
  EncodeByeRequest(MakeByeRequest(), &frame);
  EXPECT_EQ(DecodeOneFrame(frame, MsgType::kBye, DecodeByeRequest).session,
            MakeByeRequest().session);

  frame.clear();
  EncodeByeResponse(MakeByeResponse(), &frame);
  EXPECT_EQ(
      DecodeOneFrame(frame, MsgType::kByeResp, DecodeByeResponse).status,
      MakeByeResponse().status);

  frame.clear();
  EncodeFinalizeRequest(FinalizeRequest{}, &frame);
  DecodeOneFrame(frame, MsgType::kFinalize, DecodeFinalizeRequest);

  frame.clear();
  EncodeFinalizeResponse(MakeFinalizeResponse(), &frame);
  FinalizeResponse fin = DecodeOneFrame(frame, MsgType::kFinalizeResp,
                                        DecodeFinalizeResponse);
  EXPECT_EQ(fin.status, MakeFinalizeResponse().status);
  EXPECT_EQ(fin.digest, MakeFinalizeResponse().digest);
  EXPECT_EQ(fin.answer_count, MakeFinalizeResponse().answer_count);

  frame.clear();
  EncodeStatsRequest(StatsRequest{}, &frame);
  DecodeOneFrame(frame, MsgType::kStats, DecodeStatsRequest);

  frame.clear();
  EncodeStatsResponse(MakeStatsResponse(), &frame);
  StatsResponse stats =
      DecodeOneFrame(frame, MsgType::kStatsResp, DecodeStatsResponse);
  StatsResponse want = MakeStatsResponse();
  EXPECT_EQ(stats.status, want.status);
  EXPECT_EQ(stats.tasks_finalized, want.tasks_finalized);
  EXPECT_EQ(stats.answers_accepted, want.answers_accepted);
  EXPECT_EQ(stats.budget_spent, want.budget_spent);
  EXPECT_EQ(stats.budget_remaining, want.budget_remaining);
  EXPECT_EQ(stats.drained, want.drained);
  EXPECT_EQ(stats.frames_processed, want.frames_processed);
  EXPECT_EQ(stats.retry_later_total, want.retry_later_total);
  EXPECT_EQ(stats.inflight_answers, want.inflight_answers);
  EXPECT_EQ(stats.inflight_budget, want.inflight_budget);
}

// -------------------------------------------------------------------------
// Streaming: the connection decoder must peel identical frames no matter
// how the bytes are chunked.

TEST(FrameDecoder, ByteAtATimeFeedingYieldsIdenticalFrames) {
  std::vector<std::string> frames = AllFrames();
  std::string stream;
  for (const std::string& f : frames) stream += f;

  FrameDecoder decoder;
  std::vector<Frame> got;
  Frame out;
  std::string error;
  for (char byte : stream) {
    decoder.Feed(&byte, 1);
    while (decoder.Next(&out, &error) == FrameDecoder::Result::kFrame) {
      got.push_back(out);
    }
  }
  ASSERT_EQ(got.size(), frames.size());

  // Against one-shot decode of the whole stream.
  FrameStreamReplay replay;
  ASSERT_TRUE(DecodeFrameStream(stream.data(), stream.size(), &replay).ok());
  EXPECT_FALSE(replay.truncated);
  ASSERT_EQ(replay.frames.size(), got.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].type, replay.frames[i].type) << "frame " << i;
    EXPECT_EQ(got[i].payload, replay.frames[i].payload) << "frame " << i;
  }
}

// -------------------------------------------------------------------------
// The shared fuzz matrix (tests/test_helpers.h): every byte flipped with
// each of {0x01, 0x80, 0xff} and truncation at every length over a stream
// holding every frame kind — v1, v2 and v3 frames interleaved.
// CRC-32 detects any single-byte corruption, so the decode must recover
// EXACTLY the frames before the damaged one — bit-identical — and report
// truncation. Never crash. The strict connection decoder must peel the same
// prefix, then report corrupt-or-starved for a flip and plain kNeedMore for
// a torn tail.

TEST(FrameFuzz, EveryByteFlipAndTruncationKeepsBitExactCleanPrefix) {
  std::vector<std::string> frames = AllFrames();
  std::string stream;
  std::vector<size_t> boundaries = {0};
  for (const std::string& f : frames) {
    stream += f;
    boundaries.push_back(stream.size());
  }
  FrameStreamReplay clean;
  ASSERT_TRUE(DecodeFrameStream(stream.data(), stream.size(), &clean).ok());
  ASSERT_EQ(clean.frames.size(), frames.size());
  ASSERT_FALSE(clean.truncated);

  auto decode = [&](const char* data, size_t size,
                    tcrowd::testing::FuzzReplay* fuzz) {
    // Lenient one-shot decoder: bit-exact clean prefix.
    FrameStreamReplay replay;
    if (!DecodeFrameStream(data, size, &replay).ok()) return false;
    fuzz->items = replay.frames.size();
    fuzz->truncated = replay.truncated;
    for (size_t k = 0; k < replay.frames.size(); ++k) {
      if (k >= clean.frames.size()) return false;
      EXPECT_EQ(replay.frames[k].type, clean.frames[k].type) << "frame " << k;
      EXPECT_EQ(replay.frames[k].version, clean.frames[k].version)
          << "frame " << k;
      if (replay.frames[k].payload != clean.frames[k].payload) return false;
    }

    // Strict connection decoder: same prefix. A truncation (the mutated
    // bytes are a strict prefix of the pristine stream) must end in
    // kNeedMore — a torn tail is never corruption; a flip ends in
    // corrupt-or-starved (a flipped length can also look torn).
    const bool is_truncation =
        size < stream.size() && std::memcmp(data, stream.data(), size) == 0;
    FrameDecoder decoder;
    decoder.Feed(data, size);
    Frame out;
    std::string error;
    size_t peeled = 0;
    FrameDecoder::Result result;
    while ((result = decoder.Next(&out, &error)) ==
           FrameDecoder::Result::kFrame) {
      if (peeled >= fuzz->items) return false;
      if (out.payload != clean.frames[peeled].payload) return false;
      ++peeled;
    }
    EXPECT_EQ(peeled, fuzz->items);
    if (is_truncation) {
      EXPECT_EQ(result, FrameDecoder::Result::kNeedMore);
    } else {
      EXPECT_NE(result, FrameDecoder::Result::kFrame);
    }
    return true;
  };
  tcrowd::testing::RunCleanPrefixFuzz(stream, boundaries, decode,
                                      "TCNP frame stream");
}

// -------------------------------------------------------------------------
// Hostile lengths and counts: refused before any allocation.

std::string HostileLengthHeader(uint32_t payload_len) {
  std::string evil;
  PutU32(kFrameMagic, &evil);
  PutU8(static_cast<uint8_t>(kProtocolVersion), &evil);
  PutU8(static_cast<uint8_t>(MsgType::kHello), &evil);
  PutU32(payload_len, &evil);
  return evil;
}

TEST(FrameFuzz, HostileLengthRejectedBeforeAllocation) {
  for (uint32_t len : {0xffffffffu, 0x7fffffffu,
                       static_cast<uint32_t>(kMaxFramePayload) + 1}) {
    std::string evil = HostileLengthHeader(len);
    FrameDecoder decoder;
    decoder.Feed(evil.data(), evil.size());
    Frame out;
    std::string error;
    EXPECT_EQ(decoder.Next(&out, &error), FrameDecoder::Result::kCorrupt)
        << "len " << len;
    EXPECT_NE(error.find("hostile"), std::string::npos) << error;

    FrameStreamReplay replay;
    ASSERT_TRUE(DecodeFrameStream(evil.data(), evil.size(), &replay).ok());
    EXPECT_TRUE(replay.frames.empty());
    EXPECT_TRUE(replay.truncated);
  }
  // The boundary itself is NOT hostile: a header claiming exactly
  // kMaxFramePayload just waits for that many bytes.
  std::string limit =
      HostileLengthHeader(static_cast<uint32_t>(kMaxFramePayload));
  FrameDecoder decoder;
  decoder.Feed(limit.data(), limit.size());
  Frame out;
  std::string error;
  EXPECT_EQ(decoder.Next(&out, &error), FrameDecoder::Result::kNeedMore);
}

TEST(FrameFuzz, CustomPayloadCapAppliesToWellFormedFrames) {
  // A well-formed frame bigger than a decoder's own cap is corrupt to THAT
  // decoder — the cap guards allocation, not just absurd lengths.
  std::string frame;
  EncodeSubmitBatchRequest(MakeSubmitBatchRequest(), &frame);
  ASSERT_GT(frame.size(), kFrameHeaderBytes + 16 + kFrameTrailerBytes);
  FrameDecoder tiny(/*max_payload=*/16);
  tiny.Feed(frame.data(), frame.size());
  Frame out;
  std::string error;
  EXPECT_EQ(tiny.Next(&out, &error), FrameDecoder::Result::kCorrupt);

  FrameStreamReplay replay;
  ASSERT_TRUE(DecodeFrameStream(frame.data(), frame.size(), &replay,
                                /*max_payload=*/16)
                  .ok());
  EXPECT_TRUE(replay.frames.empty());
  EXPECT_TRUE(replay.truncated);
}

TEST(FrameFuzz, UnknownMessageTypeIsCorrupt) {
  // 0x7f was never assigned; 0x08/0x88 are the reserved kind bytes of a
  // retired v2 message, refused in every frame version.
  for (uint8_t type : {0x7f, 0x08, 0x88}) {
    for (uint8_t version = kProtocolVersionMin;
         version <= kProtocolVersionMax; ++version) {
      std::string evil;
      PutU32(kFrameMagic, &evil);
      PutU8(version, &evil);
      PutU8(type, &evil);
      PutU32(0, &evil);
      PutU32(0, &evil);  // CRC (never reached: type is checked first)
      FrameDecoder decoder;
      decoder.Feed(evil.data(), evil.size());
      Frame out;
      std::string error;
      EXPECT_EQ(decoder.Next(&out, &error), FrameDecoder::Result::kCorrupt)
          << int(type) << " v" << int(version);
      EXPECT_NE(error.find("unknown message type"), std::string::npos)
          << error;
    }
  }
}

TEST(PayloadDecoders, HostileCountsRejectedBeforeAllocation) {
  // Each count-prefixed message: a count that cannot possibly fit in the
  // remaining bytes must be refused before reserve() ever sees it.
  {
    std::string payload;
    PutU8(0, &payload);                 // status
    PutU64(1, &payload);                // session
    PutU64(2, &payload);                // fingerprint
    PutU32(3, &payload);                // num_rows
    PutU32(0x7fffffffu, &payload);      // column count
    HelloResponse out;
    Status st = DecodeHelloResponse(payload.data(), payload.size(), &out);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(out.columns.empty());
  }
  {
    std::string payload;
    PutU8(0, &payload);                 // status
    PutU8(0, &payload);                 // drained
    PutU32(0xffffffffu, &payload);      // cell count
    LeaseResponse out;
    Status st = DecodeLeaseResponse(payload.data(), payload.size(), &out);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(out.cells.empty());
  }
  {
    std::string payload;
    PutU64(1, &payload);                // session
    PutU32(0xfffffff0u, &payload);      // item count
    SubmitBatchRequest out;
    Status st =
        DecodeSubmitBatchRequest(payload.data(), payload.size(), &out);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(out.items.empty());
  }
  {
    std::string payload;
    PutU8(0, &payload);                 // status
    PutU32(0x40000000u, &payload);      // verdict count
    SubmitBatchResponse out;
    Status st =
        DecodeSubmitBatchResponse(payload.data(), payload.size(), &out);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(out.item_status.empty());
  }
}

TEST(PayloadDecoders, UnknownValueKindIsMalformed) {
  std::string payload;
  PutU64(1, &payload);   // session
  PutU32(1, &payload);   // one item
  PutU32(0, &payload);   // row
  PutU32(0, &payload);   // col
  PutU8(3, &payload);    // no such value kind
  SubmitBatchRequest out;
  Status st = DecodeSubmitBatchRequest(payload.data(), payload.size(), &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(PayloadDecoders, TrailingBytesAreMalformed) {
  // A payload with junk after the message must be refused, for every fixed
  // -size message — extra bytes mean a framing bug somewhere.
  std::string frame;
  EncodeByeRequest(MakeByeRequest(), &frame);
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  Frame out;
  std::string error;
  ASSERT_EQ(decoder.Next(&out, &error), FrameDecoder::Result::kFrame);
  std::string padded = out.payload + std::string(1, '\0');
  ByeRequest msg;
  EXPECT_EQ(DecodeByeRequest(padded.data(), padded.size(), &msg).code(),
            StatusCode::kInvalidArgument);
}

TEST(NetProtocol, WireStatusMappingCoversEveryStatusCode) {
  EXPECT_EQ(WireStatusFromCode(StatusCode::kOk), WireStatus::kOk);
  EXPECT_EQ(WireStatusFromCode(StatusCode::kInvalidArgument),
            WireStatus::kInvalidArgument);
  EXPECT_EQ(WireStatusFromCode(StatusCode::kNotFound), WireStatus::kNotFound);
  EXPECT_EQ(WireStatusFromCode(StatusCode::kOutOfRange),
            WireStatus::kOutOfRange);
  EXPECT_EQ(WireStatusFromCode(StatusCode::kFailedPrecondition),
            WireStatus::kFailedPrecondition);
  EXPECT_EQ(WireStatusFromCode(StatusCode::kInternal), WireStatus::kInternal);
  EXPECT_EQ(WireStatusFromCode(StatusCode::kIoError), WireStatus::kInternal);
}

TEST(NetProtocol, MsgTypeNamesAndRanges) {
  for (uint8_t t = 0x01; t <= 0x0a; ++t) {
    if (t == 0x08) continue;  // reserved: a retired v2 kind
    EXPECT_TRUE(IsKnownMsgType(t));
    EXPECT_TRUE(IsKnownMsgType(t | 0x80));
    EXPECT_STRNE(MsgTypeName(static_cast<MsgType>(t)), "unknown");
    EXPECT_STRNE(MsgTypeName(static_cast<MsgType>(t | 0x80)), "unknown");
  }
  EXPECT_FALSE(IsKnownMsgType(0x00));
  EXPECT_FALSE(IsKnownMsgType(0x08));
  EXPECT_FALSE(IsKnownMsgType(0x88));
  EXPECT_FALSE(IsKnownMsgType(0x0b));
  EXPECT_FALSE(IsKnownMsgType(0x80));
  EXPECT_FALSE(IsKnownMsgType(0x8b));
  EXPECT_FALSE(IsKnownMsgType(0xff));

  // The router/shard-daemon vocabulary (log-gather, apply-leases) is
  // v3-only; the rest is v1.
  for (uint8_t t = 0x01; t <= 0x07; ++t) {
    EXPECT_EQ(MinProtocolVersionForMsgType(t), 1) << int(t);
    EXPECT_EQ(MinProtocolVersionForMsgType(t | 0x80), 1) << int(t);
  }
  EXPECT_EQ(MinProtocolVersionForMsgType(0x09), 3);
  EXPECT_EQ(MinProtocolVersionForMsgType(0x89), 3);
  EXPECT_EQ(MinProtocolVersionForMsgType(0x0a), 3);
  EXPECT_EQ(MinProtocolVersionForMsgType(0x8a), 3);
}

// -------------------------------------------------------------------------
// Protocol v2: version negotiation. The compatibility contract — a
// negotiating peer coexists with v1 clients on the same listener — is
// pinned here.

TEST(Negotiation, VersionRangeConstantsArePinned) {
  // v1 must stay in the supported range forever: pre-negotiation clients
  // send byte-identical v1 traffic and must keep working.
  EXPECT_EQ(kProtocolVersion, 1u);
  EXPECT_EQ(kProtocolVersionMin, 1);
  EXPECT_EQ(kProtocolVersionMax, 3);
  EXPECT_LE(kProtocolVersionMin, static_cast<uint8_t>(kProtocolVersion));
  EXPECT_GE(kProtocolVersionMax, static_cast<uint8_t>(kProtocolVersion));
}

TEST(Negotiation, MatrixPicksHighestCommonVersion) {
  struct Case {
    uint8_t cmin, cmax, smin, smax;
    bool ok;
    uint8_t want;
  };
  const Case kCases[] = {
      // Legacy v1 client against a v2 server — the coexistence case.
      {1, 1, 1, 2, true, 1},
      // v2 client against a v2 server: both ends prefer the highest.
      {1, 2, 1, 2, true, 2},
      // v2 client against a legacy v1 server falls back to v1.
      {1, 2, 1, 1, true, 1},
      // Exact single-version overlap.
      {2, 2, 1, 2, true, 2},
      {1, 1, 1, 1, true, 1},
      // Future-proofing: a wider client range still lands on server max.
      {1, 9, 1, 2, true, 2},
      {3, 9, 1, 9, true, 9},
      // Disjoint ranges: no version both sides speak.
      {3, 9, 1, 2, false, 0},
      {1, 1, 2, 2, false, 0},
      // Inverted (hostile) ranges are refused outright.
      {2, 1, 1, 2, false, 0},
      {1, 2, 2, 1, false, 0},
  };
  for (const Case& c : kCases) {
    uint8_t negotiated = 0xee;
    bool ok = NegotiateProtocolVersion(c.cmin, c.cmax, c.smin, c.smax,
                                       &negotiated);
    EXPECT_EQ(ok, c.ok) << "[" << int(c.cmin) << "," << int(c.cmax)
                        << "] x [" << int(c.smin) << "," << int(c.smax)
                        << "]";
    if (c.ok) {
      EXPECT_EQ(negotiated, c.want)
          << "[" << int(c.cmin) << "," << int(c.cmax) << "] x ["
          << int(c.smin) << "," << int(c.smax) << "]";
    } else {
      EXPECT_EQ(negotiated, 0xee) << "negotiated clobbered on failure";
    }
  }
}

TEST(Negotiation, LegacyHelloEncodingIsByteIdenticalAndDecodesAsV1) {
  // The default-constructed request IS the pre-negotiation wire form:
  // a v1 frame holding exactly the 4-byte worker id.
  std::string frame;
  EncodeHelloRequest(MakeHelloRequest(), &frame);
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  Frame out;
  std::string error;
  ASSERT_EQ(decoder.Next(&out, &error), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.version, 1);
  EXPECT_EQ(out.payload.size(), 4u);

  HelloRequest req;
  ASSERT_TRUE(
      DecodeHelloRequest(out.payload.data(), out.payload.size(), &req).ok());
  EXPECT_EQ(req.worker, MakeHelloRequest().worker);
  EXPECT_EQ(req.min_version, 1);
  EXPECT_EQ(req.max_version, 1);

  // Same for the legacy response: no trailing negotiated byte on the wire,
  // and the decode reports version 1.
  frame.clear();
  EncodeHelloResponse(MakeHelloResponse(), &frame);
  HelloResponse resp =
      DecodeOneFrame(frame, MsgType::kHelloResp, DecodeHelloResponse);
  EXPECT_EQ(resp.negotiated_version, 1);
}

TEST(Negotiation, V2HelloRoundTripsTheVersionRange) {
  std::string frame;
  EncodeHelloRequest(MakeHelloRequestV2(), &frame);
  HelloRequest req =
      DecodeOneFrame(frame, MsgType::kHello, DecodeHelloRequest);
  EXPECT_EQ(req.worker, MakeHelloRequestV2().worker);
  EXPECT_EQ(req.min_version, kProtocolVersionMin);
  EXPECT_EQ(req.max_version, kProtocolVersionMax);

  frame.clear();
  EncodeHelloResponse(MakeHelloResponseV2(), &frame);
  HelloResponse resp =
      DecodeOneFrame(frame, MsgType::kHelloResp, DecodeHelloResponse);
  HelloResponse want = MakeHelloResponseV2();
  EXPECT_EQ(resp.status, want.status);
  EXPECT_EQ(resp.session, want.session);
  EXPECT_EQ(resp.negotiated_version, 2);
  ASSERT_EQ(resp.columns.size(), want.columns.size());
}

// -------------------------------------------------------------------------
// Protocol v3: the router/shard-daemon vocabulary (docs/SHARDING.md) —
// kLogGather ships a shard's whole live answer log, kApplyLeases replays a
// router-recorded lease set onto a shard sub-session.

TEST(RouterProtocol, LogGatherRoundTripsBitExactly) {
  std::string frame;
  EncodeLogGatherRequest(LogGatherRequest{}, &frame);
  {
    FrameDecoder decoder;
    decoder.Feed(frame.data(), frame.size());
    Frame out;
    std::string error;
    ASSERT_EQ(decoder.Next(&out, &error), FrameDecoder::Result::kFrame)
        << error;
    EXPECT_EQ(out.type, MsgType::kLogGather);
    EXPECT_EQ(out.version, 3);  // the kind only exists in v3 frames
    LogGatherRequest req;
    EXPECT_TRUE(
        DecodeLogGatherRequest(out.payload.data(), out.payload.size(), &req)
            .ok());
  }

  frame.clear();
  EncodeLogGatherResponse(MakeLogGatherResponse(), &frame);
  LogGatherResponse resp = DecodeOneFrame(frame, MsgType::kLogGatherResp,
                                          DecodeLogGatherResponse);
  LogGatherResponse want = MakeLogGatherResponse();
  EXPECT_EQ(resp.status, want.status);
  EXPECT_EQ(resp.answer_count, want.answer_count);
  ASSERT_EQ(resp.block, want.block);  // byte-identical segment block

  // And the block decodes back to the awkward answers bit-exactly.
  std::vector<Answer> answers;
  ASSERT_TRUE(
      DecodeAnswerBlock(resp.block.data(), resp.block.size(), &answers).ok());
  ASSERT_EQ(answers.size(), resp.answer_count);
  EXPECT_EQ(answers[0].worker, -2147483647 - 1);
  EXPECT_EQ(answers[1].cell.row, 2147483647);
  EXPECT_TRUE(tcrowd::testing::SameBits(
      answers[1].value.number(), std::numeric_limits<double>::denorm_min()));
  EXPECT_FALSE(answers[2].value.valid());
}

TEST(RouterProtocol, ApplyLeasesRoundTripsBitExactly) {
  std::string frame;
  EncodeApplyLeasesRequest(MakeApplyLeasesRequest(), &frame);
  ApplyLeasesRequest req = DecodeOneFrame(frame, MsgType::kApplyLeases,
                                          DecodeApplyLeasesRequest);
  ApplyLeasesRequest want = MakeApplyLeasesRequest();
  EXPECT_EQ(req.session, want.session);
  ASSERT_EQ(req.cells.size(), want.cells.size());
  for (size_t i = 0; i < want.cells.size(); ++i) {
    EXPECT_EQ(req.cells[i].row, want.cells[i].row);
    EXPECT_EQ(req.cells[i].col, want.cells[i].col);
  }

  frame.clear();
  EncodeApplyLeasesResponse(MakeApplyLeasesResponse(), &frame);
  ApplyLeasesResponse resp = DecodeOneFrame(frame, MsgType::kApplyLeasesResp,
                                            DecodeApplyLeasesResponse);
  EXPECT_EQ(resp.status, MakeApplyLeasesResponse().status);
}

TEST(RouterProtocol, HostileCountsRejectedBeforeAllocation) {
  {
    std::string payload;
    PutU64(1, &payload);            // session
    PutU32(0x40000000u, &payload);  // cell count demanding ~8 GiB
    ApplyLeasesRequest out;
    Status st =
        DecodeApplyLeasesRequest(payload.data(), payload.size(), &out);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(out.cells.empty());
  }
  {
    std::string payload;
    PutU8(0, &payload);             // status
    PutU64(3, &payload);            // answer_count
    PutU32(0x7fffffffu, &payload);  // block length past the payload end
    LogGatherResponse out;
    Status st = DecodeLogGatherResponse(payload.data(), payload.size(), &out);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(out.block.empty());
  }
}

TEST(RouterProtocol, V3OnlyKindInV2FrameIsCorrupt) {
  // Hand-craft a kLogGather frame whose version byte claims v2: the kind
  // does not exist before v3, so both decoders must refuse it — a peer
  // that negotiated only v2 can never smuggle the router vocabulary.
  std::string frame;
  EncodeLogGatherRequest(LogGatherRequest{}, &frame);
  ASSERT_EQ(static_cast<uint8_t>(frame[4]), 3);  // version byte
  // Rewriting the version invalidates the CRC, so recompute the whole
  // frame by hand: header with version 2, same payload, fresh CRC.
  const char* payload = frame.data() + kFrameHeaderBytes;
  size_t payload_len = frame.size() - kFrameHeaderBytes - kFrameTrailerBytes;
  std::string evil;
  PutU32(kFrameMagic, &evil);
  PutU8(2, &evil);  // v2 frame...
  PutU8(static_cast<uint8_t>(MsgType::kLogGather), &evil);  // ...v3 kind
  PutU32(static_cast<uint32_t>(payload_len), &evil);
  evil.append(payload, payload_len);
  PutU32(Crc32(evil.data(), evil.size()), &evil);

  FrameDecoder decoder;
  decoder.Feed(evil.data(), evil.size());
  Frame out;
  std::string error;
  EXPECT_EQ(decoder.Next(&out, &error), FrameDecoder::Result::kCorrupt);
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  FrameStreamReplay replay;
  ASSERT_TRUE(DecodeFrameStream(evil.data(), evil.size(), &replay).ok());
  EXPECT_TRUE(replay.frames.empty());
  EXPECT_TRUE(replay.truncated);
}

}  // namespace
}  // namespace tcrowd::net
