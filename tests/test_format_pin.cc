// Byte-exact format pins for every durable and on-wire encoding: one answer
// block, manifest, journal batch and TCJX retraction record
// (docs/PERSISTENCE.md), one event of every EventType (docs/OBSERVABILITY.md)
// and one frame of every TCNP message kind (docs/PROTOCOL.md), each built
// from a fixed corpus. Round-trip tests cannot see a format that drifts on
// the encode and decode side at once; these pins can. A pin changes only
// together with a format version bump.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "data/answer.h"
#include "inference/segment_codec.h"
#include "net/protocol.h"
#include "platform/event_log.h"

namespace tcrowd {
namespace {

// Short encodings are pinned as full hex; longer ones as length plus a
// 64-bit FNV-1a of the bytes. (A CRC-32 of a whole record is useless here:
// every record ends in its own CRC, so the CRC of the record is the
// constant CRC-32 residue.)
std::string Pin(const std::string& bytes) {
  std::string out;
  char buf[48];
  if (bytes.size() <= 64) {
    for (unsigned char c : bytes) {
      std::snprintf(buf, sizeof(buf), "%02x", c);
      out += buf;
    }
    return out;
  }
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  std::snprintf(buf, sizeof(buf), "len=%zu fnv=%016llx", bytes.size(),
                static_cast<unsigned long long>(h));
  return buf;
}

// The fixed corpus: every value kind, a negative worker, a negative zero, a
// denormal and a large row index.
std::vector<Answer> Corpus() {
  return {
      Answer{7, CellRef{0, 1}, Value::Categorical(2)},
      Answer{-3, CellRef{123456, 0}, Value::Continuous(-0.0)},
      Answer{42, CellRef{5, 3},
             Value::Continuous(std::numeric_limits<double>::denorm_min())},
      Answer{0, CellRef{9, 2}, Value()},
      Answer{1, CellRef{2, 0}, Value::Continuous(3.25)},
  };
}

TEST(FormatPin, SegmentCodecRecords) {
  const std::vector<Answer> answers = Corpus();

  std::string block;
  EncodeAnswerBlock(answers.data(), answers.size(), &block);
  EXPECT_EQ(Pin(block), "len=113 fnv=e230c8c9a230aea9");

  SnapshotManifest manifest;
  manifest.schema_fingerprint = 0x0123456789abcdefull;
  manifest.sealed_answers = 12;
  manifest.segments = {{"seg-000000.tcs", 5, 0xdeadbeef},
                       {"seg-000001.tcs", 7, 0x01020304}};
  manifest.retracted_ids = {1, 6, 11};
  std::string encoded_manifest;
  EncodeManifest(manifest, &encoded_manifest);
  EXPECT_EQ(Pin(encoded_manifest), "len=120 fnv=c0d31ed3a0ae5ccb");

  std::string journal;
  EncodeJournalRecord(40, answers.data(), 3, &journal);
  EXPECT_EQ(Pin(journal), "len=87 fnv=4f1066fa852672cc");

  std::string retraction;
  EncodeRetractionRecord(0x1122334455667788ull, &retraction);
  EXPECT_EQ(Pin(retraction), "54434a580200000088776655443322111ca77f7f");
}

TEST(FormatPin, OneEventOfEveryType) {
  const std::vector<Answer> answers = Corpus();
  std::vector<RecordedEvent> events(9);
  events[0].type = EventType::kRunStart;
  events[0].seed = 99;
  events[0].policy = "looping";
  events[0].world = "rows=12 cols=3";
  events[0].schema_fingerprint = 0xfedcba9876543210ull;
  events[0].num_rows = 12;
  events[0].restored = {answers[0], answers[1]};
  events[1].type = EventType::kSessionStart;
  events[1].session = 17;
  events[1].worker = -5;
  events[2].type = EventType::kLeases;
  events[2].session = 17;
  events[2].cells = {CellRef{1, 2}, CellRef{3, 0}};
  events[3].type = EventType::kAnswerBatch;
  events[3].session = 17;
  events[3].items = {{CellRef{1, 2}, Value::Categorical(1), 0},
                     {CellRef{3, 0}, Value::Continuous(-0.0), 2},
                     {CellRef{4, 1}, Value(), 5}};
  events[4].type = EventType::kRetract;
  events[4].worker = 8;
  events[4].cells = {CellRef{6, 1}};
  events[4].status_code = 3;
  events[5].type = EventType::kSessionEnd;
  events[5].session = 17;
  events[6].type = EventType::kSessionsExpired;
  events[6].expired = {2, 3, 900};
  events[7].type = EventType::kSeal;
  events[7].sealed_total = 4096;
  events[8].type = EventType::kFinalize;
  events[8].digest = 0xa5a5a5a55a5a5a5aull;
  events[8].answer_count = 321;

  const std::vector<std::string> want = {
      "len=108 fnv=012964070891659a",
      "5443455601000000011100000000000000fbffffff7f862d03",
      "5443455601000000021100000000000000020000000100000002000000030000000000"
      "00005445c30b",
      "len=67 fnv=a3870cc54fede0c8",
      "544345560100000004080000000600000001000000035bc3a4be",
      "54434556010000000511000000000000005180e3f6",
      "5443455601000000060300000002000000000000000300000000000000840300000000"
      "00004e9be154",
      "5443455601000000070010000000000000ac05da0f",
      "5443455601000000085a5a5a5aa5a5a5a54101000000000000c1b705a8",
  };
  for (size_t k = 0; k < events.size(); ++k) {
    std::string bytes;
    EncodeEvent(events[k], &bytes);
    EXPECT_EQ(Pin(bytes), want[k]) << EventTypeName(events[k].type);
  }
}

TEST(FormatPin, OneFrameOfEveryMessageKind) {
  using namespace net;
  std::vector<std::pair<std::string, std::string>> frames;  // name, bytes
  auto add = [&frames](const char* name, auto encode) {
    frames.emplace_back(name, std::string());
    encode(&frames.back().second);
  };

  add("Hello v1",
      [](std::string* out) { EncodeHelloRequest(HelloRequest{-9}, out); });
  add("Hello v2 range", [](std::string* out) {
    EncodeHelloRequest(HelloRequest{-9, 1, 2}, out);
  });
  add("Hello v3 range", [](std::string* out) {
    EncodeHelloRequest(HelloRequest{12, 2, 3}, out);
  });
  HelloResponse hello;
  hello.status = WireStatus::kOk;
  hello.session = 77;
  hello.schema_fingerprint = 0x0badf00d12345678ull;
  hello.num_rows = 30;
  hello.columns = {{1, 4}, {0, 0}};
  for (const char* name : {"HelloResp v1", "HelloResp v2", "HelloResp v3"}) {
    add(name, [&hello](std::string* out) { EncodeHelloResponse(hello, out); });
    ++hello.negotiated_version;
  }
  add("Lease", [](std::string* out) {
    EncodeLeaseRequest(LeaseRequest{77, 4}, out);
  });
  add("LeaseResp", [](std::string* out) {
    LeaseResponse msg;
    msg.status = WireStatus::kRetryLater;
    msg.drained = 1;
    msg.cells = {CellRef{1, 2}, CellRef{-1, 7}};
    EncodeLeaseResponse(msg, out);
  });
  add("SubmitBatch", [](std::string* out) {
    SubmitBatchRequest msg;
    msg.session = 77;
    msg.items = {{CellRef{1, 2}, Value::Categorical(3)},
                 {CellRef{2, 0}, Value::Continuous(-0.0)},
                 {CellRef{4, 1}, Value()}};
    EncodeSubmitBatchRequest(msg, out);
  });
  add("SubmitBatchResp", [](std::string* out) {
    SubmitBatchResponse msg;
    msg.status = WireStatus::kOk;
    msg.item_status = {0, 2, 5};
    EncodeSubmitBatchResponse(msg, out);
  });
  add("Retract", [](std::string* out) {
    EncodeRetractRequest(RetractRequest{-4, CellRef{8, 1}}, out);
  });
  add("RetractResp", [](std::string* out) {
    EncodeRetractResponse(RetractResponse{WireStatus::kNotFound}, out);
  });
  add("Bye", [](std::string* out) { EncodeByeRequest(ByeRequest{77}, out); });
  add("ByeResp", [](std::string* out) {
    EncodeByeResponse(ByeResponse{WireStatus::kOk}, out);
  });
  add("Finalize", [](std::string* out) {
    EncodeFinalizeRequest(FinalizeRequest{}, out);
  });
  add("FinalizeResp", [](std::string* out) {
    FinalizeResponse msg;
    msg.status = WireStatus::kOk;
    msg.digest = 0x1234567890abcdefull;
    msg.answer_count = 555;
    EncodeFinalizeResponse(msg, out);
  });
  add("Stats",
      [](std::string* out) { EncodeStatsRequest(StatsRequest{}, out); });
  add("StatsResp", [](std::string* out) {
    StatsResponse msg;
    msg.status = WireStatus::kOk;
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
    EncodeStatsResponse(msg, out);
  });
  add("LogGather", [](std::string* out) {
    EncodeLogGatherRequest(LogGatherRequest{}, out);
  });
  add("LogGatherResp", [](std::string* out) {
    const std::vector<Answer> answers = Corpus();
    LogGatherResponse msg;
    msg.status = WireStatus::kOk;
    msg.answer_count = answers.size();
    EncodeAnswerBlock(answers.data(), answers.size(), &msg.block);
    EncodeLogGatherResponse(msg, out);
  });
  add("ApplyLeases", [](std::string* out) {
    ApplyLeasesRequest msg;
    msg.session = 77;
    msg.cells = {CellRef{0, 0}, CellRef{29, 2}};
    EncodeApplyLeasesRequest(msg, out);
  });
  add("ApplyLeasesResp", [](std::string* out) {
    EncodeApplyLeasesResponse(ApplyLeasesResponse{WireStatus::kInternal},
                              out);
  });

  const std::vector<std::string> want = {
      "54434e50010104000000f7ffffff65004b29",  // Hello v1
      "54434e50020106000000f7ffffff0102f6f62ddd",  // Hello v2 range
      "54434e500201060000000c0000000203e989ab54",  // Hello v3 range
      "54434e50018123000000004d00000000000000785634120df0ad0b1e00000002000000"
      "01040000000000000000864c13b6",  // HelloResp v1
      "54434e50028124000000004d00000000000000785634120df0ad0b1e00000002000000"
      "0104000000000000000002dcc367fa",  // HelloResp v2
      "54434e50028124000000004d00000000000000785634120df0ad0b1e00000002000000"
      "01040000000000000000034af3608d",  // HelloResp v3
      "54434e5001020c0000004d0000000000000004000000806c66d7",  // Lease
      "54434e500182160000000101020000000100000002000000ffffffff070000001f1172"
      "95",  // LeaseResp
      "len=65 fnv=c4c31192c8da17cd",  // SubmitBatch
      "54434e500183080000000003000000000205e1bc3383",  // SubmitBatchResp
      "54434e5001040c000000fcffffff0800000001000000716d11c9",  // Retract
      "54434e5001840100000003caad2412",  // RetractResp
      "54434e500105080000004d00000000000000871d9042",  // Bye
      "54434e5001850100000000d52f7140",  // ByeResp
      "54434e50010600000000eb6eb4ef",  // Finalize
      // FinalizeResp
      "54434e5001861100000000efcdab90785634122b020000000000008c24fc82",
      "54434e500107000000005b47d4d2",  // Stats
      "len=188 fnv=acf45af3659a96f7",  // StatsResp
      "54434e5003090000000031582c20",  // LogGather
      "len=140 fnv=8d8c4a91f59b610d",  // LogGatherResp
      "54434e50030a1c0000004d000000000000000200000000000000000000001d00000002"
      "000000ffa62de6",  // ApplyLeases
      "54434e50038a01000000061c29dbcf",  // ApplyLeasesResp
  };
  ASSERT_EQ(frames.size(), want.size());
  for (size_t k = 0; k < frames.size(); ++k) {
    EXPECT_EQ(Pin(frames[k].second), want[k]) << frames[k].first;
  }
}

}  // namespace
}  // namespace tcrowd
