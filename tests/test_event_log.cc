// The deterministic event-log codec (docs/OBSERVABILITY.md): bit-exact
// round trips for every event type, the lenient prefix-recovery contract on
// torn/corrupt tails (same hardening harness as test_segment_codec.cc:
// every-byte-flip, every-truncation), count sanity bounds, the recorder's
// file lifecycle, and the TruthDigest zero-tolerance comparator.

#include "platform/event_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "data/schema.h"
#include "data/table.h"
#include "test_helpers.h"

namespace tcrowd {
namespace {

/// One of every event type, with awkward payloads (NaN, -0.0, denormals,
/// empty strings, missing values) — the full vocabulary in one log.
std::vector<RecordedEvent> FullVocabulary() {
  std::vector<RecordedEvent> events;

  RecordedEvent run;
  run.type = EventType::kRunStart;
  run.seed = 0xdeadbeefcafef00dull;
  run.policy = "structure";
  run.world = "rows=12 cols=3 ratio=0.5 workers=8";
  run.schema_fingerprint = 0x0123456789abcdefull;
  run.num_rows = 12;
  run.restored = {
      Answer{3, CellRef{0, 1}, Value::Categorical(2)},
      Answer{5, CellRef{2, 0},
             Value::Continuous(std::numeric_limits<double>::quiet_NaN())},
      Answer{7, CellRef{1, 1}, Value::Continuous(-0.0)},
      Answer{9, CellRef{3, 2},
             Value::Continuous(std::numeric_limits<double>::denorm_min())},
      Answer{11, CellRef{4, 0}, Value()},
  };
  events.push_back(run);

  RecordedEvent start;
  start.type = EventType::kSessionStart;
  start.session = 42;
  start.worker = -7;
  events.push_back(start);

  RecordedEvent leases;
  leases.type = EventType::kLeases;
  leases.session = 42;
  leases.cells = {CellRef{0, 0}, CellRef{11, 2}, CellRef{5, 1}};
  events.push_back(leases);

  RecordedEvent batch;
  batch.type = EventType::kAnswerBatch;
  batch.session = 42;
  batch.items = {
      {CellRef{0, 0}, Value::Categorical(1), 0},
      {CellRef{11, 2}, Value::Continuous(0.1), 0},
      {CellRef{9, 9}, Value::Categorical(0), 2},  // rejected: NotFound
      {CellRef{5, 1}, Value(), 1},                // rejected: InvalidArgument
  };
  events.push_back(batch);

  RecordedEvent retract;
  retract.type = EventType::kRetract;
  retract.worker = 3;
  retract.cells = {CellRef{0, 1}};
  retract.status_code = 0;
  events.push_back(retract);

  RecordedEvent end;
  end.type = EventType::kSessionEnd;
  end.session = 42;
  events.push_back(end);

  RecordedEvent expired;
  expired.type = EventType::kSessionsExpired;
  expired.expired = {1, 2, 40};
  events.push_back(expired);

  RecordedEvent seal;
  seal.type = EventType::kSeal;
  seal.sealed_total = 128;
  events.push_back(seal);

  RecordedEvent fin;
  fin.type = EventType::kFinalize;
  fin.digest = 0xfeedface01234567ull;
  fin.answer_count = 107;
  events.push_back(fin);

  return events;
}

std::string EncodeAll(const std::vector<RecordedEvent>& events) {
  std::string bytes;
  for (const RecordedEvent& e : events) EncodeEvent(e, &bytes);
  return bytes;
}

void ExpectEventsEqual(const RecordedEvent& a, const RecordedEvent& b) {
  ASSERT_EQ(a.type, b.type);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.world, b.world);
  EXPECT_EQ(a.schema_fingerprint, b.schema_fingerprint);
  EXPECT_EQ(a.num_rows, b.num_rows);
  testing::ExpectSameAnswers(a.restored, b.restored);
  EXPECT_EQ(a.session, b.session);
  EXPECT_EQ(a.worker, b.worker);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (size_t k = 0; k < a.cells.size(); ++k) {
    EXPECT_EQ(a.cells[k].row, b.cells[k].row);
    EXPECT_EQ(a.cells[k].col, b.cells[k].col);
  }
  ASSERT_EQ(a.items.size(), b.items.size());
  for (size_t k = 0; k < a.items.size(); ++k) {
    EXPECT_EQ(a.items[k].cell.row, b.items[k].cell.row);
    EXPECT_EQ(a.items[k].cell.col, b.items[k].cell.col);
    EXPECT_EQ(a.items[k].status_code, b.items[k].status_code);
    testing::ExpectSameValue(a.items[k].value, b.items[k].value);
  }
  EXPECT_EQ(a.status_code, b.status_code);
  EXPECT_EQ(a.expired, b.expired);
  EXPECT_EQ(a.sealed_total, b.sealed_total);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.answer_count, b.answer_count);
}

TEST(EventLog, FullVocabularyRoundTripsBitExactly) {
  std::vector<RecordedEvent> in = FullVocabulary();
  std::string bytes = EncodeAll(in);
  EventLogReplay out;
  ASSERT_TRUE(DecodeEventLog(bytes.data(), bytes.size(), &out).ok());
  EXPECT_FALSE(out.truncated);
  ASSERT_EQ(out.events.size(), in.size());
  for (size_t k = 0; k < in.size(); ++k) {
    SCOPED_TRACE(EventTypeName(in[k].type));
    ExpectEventsEqual(in[k], out.events[k]);
  }
}

TEST(EventLog, EmptyLogDecodesClean) {
  EventLogReplay out;
  ASSERT_TRUE(DecodeEventLog("", 0, &out).ok());
  EXPECT_FALSE(out.truncated);
  EXPECT_TRUE(out.events.empty());
}

TEST(EventLog, GarbageYieldsEmptyTruncatedReplay) {
  std::string garbage = "this is not an event log at all";
  EventLogReplay out;
  ASSERT_TRUE(DecodeEventLog(garbage.data(), garbage.size(), &out).ok());
  EXPECT_TRUE(out.truncated);
  EXPECT_TRUE(out.events.empty());
}

TEST(EventLog, RefusesFutureFormatVersion) {
  std::vector<RecordedEvent> in = FullVocabulary();
  std::string bytes = EncodeAll(in);
  bytes[4] = static_cast<char>(kEventLogVersion + 1);  // version field
  EventLogReplay out;
  ASSERT_TRUE(DecodeEventLog(bytes.data(), bytes.size(), &out).ok());
  EXPECT_TRUE(out.truncated);
  EXPECT_TRUE(out.events.empty());
}

// Every byte is CRC-covered within its frame, so every flip must kill that
// frame — never a silently different decode — and keep the clean prefix;
// a cut keeps exactly the events wholly before it. The shared matrix in
// tests/test_helpers.h drives both (same masks and cut points as
// test_segment_codec.cc and test_net_protocol.cc).
TEST(EventLogFuzz, EveryByteFlipAndTruncationKeepsACleanPrefix) {
  std::vector<RecordedEvent> in = FullVocabulary();
  std::vector<size_t> boundaries = {0};
  std::string bytes;
  for (const RecordedEvent& e : in) {
    EncodeEvent(e, &bytes);
    boundaries.push_back(bytes.size());
  }

  auto decode = [&](const char* data, size_t size,
                    tcrowd::testing::FuzzReplay* fuzz) {
    EventLogReplay out;
    if (!DecodeEventLog(data, size, &out).ok()) return false;
    fuzz->items = out.events.size();
    fuzz->truncated = out.truncated;
    if (out.events.size() > in.size()) return false;
    for (size_t k = 0; k < out.events.size(); ++k) {
      ExpectEventsEqual(in[k], out.events[k]);
    }
    return true;
  };
  tcrowd::testing::RunCleanPrefixFuzz(bytes, boundaries, decode,
                                      "event log");
}

TEST(EventLogFuzz, CorruptCountCannotDemandHugeAllocation) {
  RecordedEvent leases;
  leases.type = EventType::kLeases;
  leases.session = 1;
  leases.cells = {CellRef{0, 0}};
  std::string bytes;
  EncodeEvent(leases, &bytes);
  // Count field: magic(4) version(4) type(1) session(8) -> offset 17.
  bytes[17] = static_cast<char>(0xff);
  bytes[18] = static_cast<char>(0xff);
  bytes[19] = static_cast<char>(0xff);
  bytes[20] = static_cast<char>(0x7f);
  EventLogReplay out;
  ASSERT_TRUE(DecodeEventLog(bytes.data(), bytes.size(), &out).ok());
  EXPECT_TRUE(out.truncated);
  EXPECT_TRUE(out.events.empty());
}

TEST(EventRecorder, WritesAReadableLogAndCloseIsIdempotent) {
  std::string path = ::testing::TempDir() + "/recorder_test.events";
  auto recorder = EventRecorder::Open(path);
  ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
  (*recorder)->SetRunInfo(99, "looping", "rows=4 cols=2");
  (*recorder)->RecordRunStart(0xabc, 4, {});
  (*recorder)->RecordSessionStart(1, 7);
  (*recorder)->RecordLeases(1, {CellRef{0, 0}});
  (*recorder)->RecordLeases(1, {});  // empty grants are elided
  (*recorder)->RecordAnswerBatch(1, {{CellRef{0, 0},
                                      Value::Categorical(1), 0}});
  (*recorder)->RecordSessionEnd(1);
  (*recorder)->RecordFinalize(0x123, 1);
  ASSERT_TRUE((*recorder)->Close().ok());
  ASSERT_TRUE((*recorder)->Close().ok());  // idempotent
  (*recorder)->RecordSeal(5);              // after close: dropped, no crash

  EventLogReplay log;
  ASSERT_TRUE(ReadEventLogFile(path, &log).ok());
  EXPECT_FALSE(log.truncated);
  ASSERT_EQ(log.events.size(), 6u);
  EXPECT_EQ(log.events[0].type, EventType::kRunStart);
  EXPECT_EQ(log.events[0].seed, 99u);
  EXPECT_EQ(log.events[0].policy, "looping");
  EXPECT_EQ(log.events[0].world, "rows=4 cols=2");
  EXPECT_EQ(log.events[1].type, EventType::kSessionStart);
  EXPECT_EQ(log.events[2].type, EventType::kLeases);
  EXPECT_EQ(log.events[3].type, EventType::kAnswerBatch);
  EXPECT_EQ(log.events[4].type, EventType::kSessionEnd);
  EXPECT_EQ(log.events[5].type, EventType::kFinalize);
  std::remove(path.c_str());
}

TEST(TruthDigest, BitSensitiveAndOrderSensitive) {
  Schema schema({Schema::MakeCategorical("c", {"a", "b"}),
                 Schema::MakeContinuous("x", 0.0, 10.0)});
  Table t1(schema, 2);
  t1.Set(0, 0, Value::Categorical(1));
  t1.Set(0, 1, Value::Continuous(0.5));
  t1.Set(1, 0, Value::Categorical(0));

  Table same(schema, 2);
  same.Set(0, 0, Value::Categorical(1));
  same.Set(0, 1, Value::Continuous(0.5));
  same.Set(1, 0, Value::Categorical(0));
  EXPECT_EQ(TruthDigest(t1), TruthDigest(same));

  Table label_off(schema, 2);
  label_off.Set(0, 0, Value::Categorical(0));
  label_off.Set(0, 1, Value::Continuous(0.5));
  label_off.Set(1, 0, Value::Categorical(0));
  EXPECT_NE(TruthDigest(t1), TruthDigest(label_off));

  // One ULP difference in a continuous estimate must change the digest —
  // zero tolerance is the contract.
  Table ulp(schema, 2);
  ulp.Set(0, 0, Value::Categorical(1));
  ulp.Set(0, 1, Value::Continuous(
                    std::nextafter(0.5, 1.0)));
  ulp.Set(1, 0, Value::Categorical(0));
  EXPECT_NE(TruthDigest(t1), TruthDigest(ulp));

  // Missing vs present differs.
  Table missing(schema, 2);
  missing.Set(0, 0, Value::Categorical(1));
  missing.Set(1, 0, Value::Categorical(0));
  EXPECT_NE(TruthDigest(t1), TruthDigest(missing));

  // -0.0 and +0.0 compare equal as doubles but not as bit patterns.
  Table zpos(schema, 1), zneg(schema, 1);
  zpos.Set(0, 1, Value::Continuous(0.0));
  zneg.Set(0, 1, Value::Continuous(-0.0));
  EXPECT_NE(TruthDigest(zpos), TruthDigest(zneg));
}

}  // namespace
}  // namespace tcrowd
