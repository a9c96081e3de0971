// Backpressure contract of the socket front-end (docs/PROTOCOL.md), against
// a live Server: admission control sheds SubmitBatch with RETRY_LATER past
// the in-flight budget and books NOTHING; a slow-reading connection's write
// queue is bounded by the high watermark (reads pause instead of the queue
// growing); and a flooding connection can neither grow the queue without
// bound nor starve a slow client's Finalize. Raw frames (no client-side
// retry) so the RETRY_LATER verdicts themselves are observable.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "assignment/policies.h"
#include "inference/tcrowd_model.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket_util.h"
#include "service/crowd_service.h"
#include "test_helpers.h"

namespace tcrowd::net {
namespace {

using tcrowd::testing::SimWorld;

constexpr uint64_t kSeed = 23;

sim::TableGeneratorOptions SmallTable() {
  sim::TableGeneratorOptions opt;
  opt.num_rows = 12;
  opt.num_cols = 3;
  opt.categorical_ratio = 0.5;
  return opt;
}

sim::CrowdOptions SmallCrowd() {
  sim::CrowdOptions opt = SimWorld::DefaultCrowd();
  opt.num_workers = 8;
  return opt;
}

/// Serving config where the admission-control meter is fully observable:
/// every submitted answer is absorbed synchronously (ingest batch of 1) and
/// no refresh ever runs (thresholds out of reach), so answers_since_refresh
/// counts up monotonically and the shed point is deterministic.
service::ServiceConfig NoRefreshConfig() {
  service::ServiceConfig config;
  config.target_answers_per_task = 3;
  config.inference.method = "tcrowd";
  config.inference.tcrowd_options = TCrowdOptions::Fast();
  config.inference.staleness_threshold = 1000;
  config.inference.min_answers_for_fit = 1000;
  config.inference.ingest_batch_size = 1;
  config.inference.num_shards = 2;
  config.router.seed = kSeed + 2;
  return config;
}

class ServerHarness {
 public:
  ServerHarness(ServerOptions options, service::ServiceConfig config)
      : world_(kSeed, /*answers_per_task=*/0, SmallTable(), SmallCrowd()),
        svc_(world_.world.schema, world_.world.truth.num_rows(),
             std::make_unique<LoopingPolicy>(), config),
        server_(&svc_, options) {
    Status st = server_.Listen("127.0.0.1", 0);
    EXPECT_TRUE(st.ok()) << st.ToString();
    thread_ = std::thread([this] { run_status_ = server_.Run(); });
  }

  ~ServerHarness() {
    server_.Stop();
    thread_.join();
    EXPECT_TRUE(run_status_.ok()) << run_status_.ToString();
  }

  uint16_t port() const { return server_.port(); }
  Server& server() { return server_; }

 private:
  SimWorld world_;
  service::CrowdService svc_;
  Server server_;
  std::thread thread_;
  Status run_status_;
};

/// Raw framed connection with NO retry policy — sheds come back as the
/// RETRY_LATER verdicts they are.
class RawClient {
 public:
  Status Connect(uint16_t port) {
    return ConnectTcp("127.0.0.1", port, &fd_);
  }
  Status Send(const std::string& bytes) {
    return WriteAll(fd_.get(), bytes.data(), bytes.size());
  }
  Status ReadFrame(Frame* out) {
    std::string error;
    while (true) {
      switch (decoder_.Next(out, &error)) {
        case FrameDecoder::Result::kFrame:
          return Status::Ok();
        case FrameDecoder::Result::kCorrupt:
          return Status::IoError("corrupt response stream: " + error);
        case FrameDecoder::Result::kNeedMore:
          break;
      }
      char buf[4096];
      size_t n = 0;
      Status st = ReadSome(fd_.get(), buf, sizeof(buf), &n);
      if (!st.ok()) return st;
      if (n == 0) return Status::IoError("connection closed by server");
      decoder_.Feed(buf, n);
    }
  }
  Status Call(const std::string& frame, Frame* out) {
    Status st = Send(frame);
    if (!st.ok()) return st;
    return ReadFrame(out);
  }

 private:
  OwnedFd fd_;
  FrameDecoder decoder_;
};

// -------------------------------------------------------------------------
// Admission control: RETRY_LATER past the budget, nothing booked.

TEST(NetBackpressure, SubmitsPastBudgetAreShedAndBookNothing) {
  ServerOptions options;
  options.inflight_budget = 3;
  ServerHarness harness(options, NoRefreshConfig());
  EXPECT_EQ(harness.server().inflight_budget(), 3);

  RawClient client;
  ASSERT_TRUE(client.Connect(harness.port()).ok());

  std::string frame;
  Frame reply;
  EncodeHelloRequest(HelloRequest{0}, &frame);
  ASSERT_TRUE(client.Call(frame, &reply).ok());
  ASSERT_EQ(reply.type, MsgType::kHelloResp);
  HelloResponse hello;
  ASSERT_TRUE(
      DecodeHelloResponse(reply.payload.data(), reply.payload.size(), &hello)
          .ok());

  frame.clear();
  EncodeLeaseRequest(LeaseRequest{hello.session, 6}, &frame);
  ASSERT_TRUE(client.Call(frame, &reply).ok());
  ASSERT_EQ(reply.type, MsgType::kLeaseResp);
  LeaseResponse lease;
  ASSERT_TRUE(
      DecodeLeaseResponse(reply.payload.data(), reply.payload.size(), &lease)
          .ok());
  ASSERT_EQ(lease.cells.size(), 6u);

  // Six 1-answer batches: the first three land (meter 1, 2, 3), then the
  // meter sits AT the budget with no refresh coming — every further batch
  // must be shed, with an empty verdict list (nothing reached the service).
  int accepted = 0, shed = 0;
  for (const CellRef& cell : lease.cells) {
    SubmitBatchRequest submit;
    submit.session = hello.session;
    Value value = hello.columns[static_cast<size_t>(cell.col)].categorical
                      ? Value::Categorical(0)
                      : Value::Continuous(0.5);
    submit.items.emplace_back(cell, value);
    frame.clear();
    EncodeSubmitBatchRequest(submit, &frame);
    ASSERT_TRUE(client.Call(frame, &reply).ok());
    ASSERT_EQ(reply.type, MsgType::kSubmitBatchResp);
    SubmitBatchResponse verdicts;
    ASSERT_TRUE(DecodeSubmitBatchResponse(reply.payload.data(),
                                          reply.payload.size(), &verdicts)
                    .ok());
    if (verdicts.status == WireStatus::kOk) {
      ASSERT_EQ(verdicts.item_status.size(), 1u);
      EXPECT_EQ(verdicts.item_status[0],
                static_cast<uint8_t>(WireStatus::kOk));
      ++accepted;
    } else {
      EXPECT_EQ(verdicts.status, WireStatus::kRetryLater);
      EXPECT_TRUE(verdicts.item_status.empty());
      ++shed;
      EXPECT_EQ(accepted, 3);  // shedding starts exactly at the budget
    }
  }
  EXPECT_EQ(accepted, 3);
  EXPECT_EQ(shed, 3);

  frame.clear();
  EncodeStatsRequest(StatsRequest{}, &frame);
  ASSERT_TRUE(client.Call(frame, &reply).ok());
  StatsResponse stats;
  ASSERT_TRUE(
      DecodeStatsResponse(reply.payload.data(), reply.payload.size(), &stats)
          .ok());
  EXPECT_EQ(stats.answers_accepted, 3u);  // the shed batches booked nothing
  EXPECT_EQ(stats.inflight_answers, 3u);
  EXPECT_EQ(stats.inflight_budget, 3u);
  EXPECT_EQ(stats.retry_later_total, 3u);
}

TEST(NetBackpressure, NegativeBudgetDisablesShedding) {
  ServerOptions options;
  options.inflight_budget = -1;
  ServerHarness harness(options, NoRefreshConfig());

  RawClient client;
  ASSERT_TRUE(client.Connect(harness.port()).ok());
  std::string frame;
  Frame reply;
  EncodeHelloRequest(HelloRequest{0}, &frame);
  ASSERT_TRUE(client.Call(frame, &reply).ok());
  HelloResponse hello;
  ASSERT_TRUE(
      DecodeHelloResponse(reply.payload.data(), reply.payload.size(), &hello)
          .ok());
  frame.clear();
  EncodeLeaseRequest(LeaseRequest{hello.session, 6}, &frame);
  ASSERT_TRUE(client.Call(frame, &reply).ok());
  LeaseResponse lease;
  ASSERT_TRUE(
      DecodeLeaseResponse(reply.payload.data(), reply.payload.size(), &lease)
          .ok());

  for (const CellRef& cell : lease.cells) {
    SubmitBatchRequest submit;
    submit.session = hello.session;
    Value value = hello.columns[static_cast<size_t>(cell.col)].categorical
                      ? Value::Categorical(0)
                      : Value::Continuous(0.5);
    submit.items.emplace_back(cell, value);
    frame.clear();
    EncodeSubmitBatchRequest(submit, &frame);
    ASSERT_TRUE(client.Call(frame, &reply).ok());
    SubmitBatchResponse verdicts;
    ASSERT_TRUE(DecodeSubmitBatchResponse(reply.payload.data(),
                                          reply.payload.size(), &verdicts)
                    .ok());
    EXPECT_EQ(verdicts.status, WireStatus::kOk);
  }
  NetStats stats = harness.server().net_stats();
  EXPECT_EQ(stats.retry_later_total, 0u);
}

// -------------------------------------------------------------------------
// Flow control: slow reader + flooder against one live server. The slow
// connection's queued responses are bounded by the high watermark, and the
// flood cannot starve the slow client's Finalize.

TEST(NetBackpressure, SlowReaderBoundedAndFloodCannotStarve) {
  constexpr int kRequestsPerConn = 3500;
  constexpr size_t kQueueHigh = 2048;

  ServerOptions options;
  options.write_queue_high = kQueueHigh;
  options.inflight_budget = -1;  // isolate flow control from admission
  ServerHarness harness(options, NoRefreshConfig());

  // Put a few answers on the books so the closing Finalize has data.
  Client ctrl;
  ASSERT_TRUE(ctrl.Connect("127.0.0.1", harness.port()).ok());
  HelloResponse hello;
  ASSERT_TRUE(ctrl.Hello(HelloRequest{0}, &hello).ok());
  LeaseResponse lease;
  ASSERT_TRUE(ctrl.Lease(LeaseRequest{hello.session, 4}, &lease).ok());
  SubmitBatchRequest submit;
  submit.session = hello.session;
  for (const CellRef& cell : lease.cells) {
    Value value = hello.columns[static_cast<size_t>(cell.col)].categorical
                      ? Value::Categorical(0)
                      : Value::Continuous(0.5);
    submit.items.emplace_back(cell, value);
  }
  SubmitBatchResponse verdicts;
  ASSERT_TRUE(ctrl.SubmitBatch(submit, &verdicts).ok());
  ByeResponse bye;
  ASSERT_TRUE(ctrl.Bye(ByeRequest{hello.session}, &bye).ok());

  // The slow reader: a torrent of Stats requests capped by one Finalize,
  // reading NOTHING yet. Its responses vastly exceed the write-queue high
  // watermark, so the server must pause reading it instead of buffering
  // ~660 KB of responses.
  std::string stats_frame;
  EncodeStatsRequest(StatsRequest{}, &stats_frame);
  std::string slow_burst;
  for (int i = 0; i < kRequestsPerConn; ++i) slow_burst += stats_frame;
  std::string finalize_frame;
  EncodeFinalizeRequest(FinalizeRequest{}, &finalize_frame);
  slow_burst += finalize_frame;

  RawClient slow;
  ASSERT_TRUE(slow.Connect(harness.port()).ok());
  ASSERT_TRUE(slow.Send(slow_burst).ok());

  // The flooder: the same torrent, and it NEVER reads until the slow
  // client is fully served.
  std::string flood_burst;
  for (int i = 0; i < kRequestsPerConn; ++i) flood_burst += stats_frame;
  RawClient flood;
  ASSERT_TRUE(flood.Connect(harness.port()).ok());
  ASSERT_TRUE(flood.Send(flood_burst).ok());

  // The server stays responsive to a third connection mid-flood.
  StatsResponse mid;
  ASSERT_TRUE(ctrl.Stats(StatsRequest{}, &mid).ok());
  EXPECT_EQ(mid.status, WireStatus::kOk);

  // Drain the slow client FIRST, while the flood's requests are still
  // pending and its responses unread: every one of its Stats responses
  // arrives, then the Finalize — the fairness cap kept it served.
  Frame reply;
  for (int i = 0; i < kRequestsPerConn; ++i) {
    ASSERT_TRUE(slow.ReadFrame(&reply).ok()) << "slow response " << i;
    ASSERT_EQ(reply.type, MsgType::kStatsResp) << "slow response " << i;
  }
  ASSERT_TRUE(slow.ReadFrame(&reply).ok());
  ASSERT_EQ(reply.type, MsgType::kFinalizeResp);
  FinalizeResponse finalize;
  ASSERT_TRUE(DecodeFinalizeResponse(reply.payload.data(),
                                     reply.payload.size(), &finalize)
                  .ok());
  EXPECT_EQ(finalize.status, WireStatus::kOk);
  EXPECT_EQ(finalize.answer_count, submit.items.size());

  // Now the flood gets its bytes too — nothing was dropped, just deferred.
  for (int i = 0; i < kRequestsPerConn; ++i) {
    ASSERT_TRUE(flood.ReadFrame(&reply).ok()) << "flood response " << i;
    ASSERT_EQ(reply.type, MsgType::kStatsResp) << "flood response " << i;
  }

  // The bounded-queue guarantee: the peak stayed within one fairness
  // round of the watermark instead of holding whole bursts in memory.
  NetStats net = harness.server().net_stats();
  EXPECT_GT(net.write_queue_peak, 0u);
  EXPECT_LE(net.write_queue_peak, kQueueHigh + 4096u);
  EXPECT_GE(net.frames_processed,
            static_cast<uint64_t>(2 * kRequestsPerConn));
}

}  // namespace
}  // namespace tcrowd::net
