// The socket front-end end to end, against a live Server (its epoll event
// loop) on a loopback listener: the headline acceptance criterion is that a
// run driven over real sockets (4 concurrent connections) finalizes to a
// truth digest bit-identical to the same scenario replayed in-process.
// Also: session lifecycle over the wire, the GET /metrics HTTP variant, and
// the rule that hostile bytes drop one connection without taking the server
// down.

#include "net/server.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "assignment/policies.h"
#include "inference/segment_codec.h"
#include "inference/tcrowd_model.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/socket_util.h"
#include "platform/event_log.h"
#include "service/crowd_service.h"
#include "simulation/load_generator.h"
#include "test_helpers.h"

namespace tcrowd::net {
namespace {

using tcrowd::testing::SimWorld;

constexpr uint64_t kSeed = 17;

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

service::ServiceConfig NetConfig() {
  service::ServiceConfig config;
  config.target_answers_per_task = 3;
  config.inference.method = "tcrowd";
  config.inference.tcrowd_options = TCrowdOptions::Fast();
  config.inference.staleness_threshold = 24;
  config.inference.num_shards = 2;
  config.router.seed = kSeed + 2;
  return config;
}

sim::LoadGeneratorOptions LoadOptions() {
  sim::LoadGeneratorOptions load;
  load.max_arrivals = 100000;
  load.tasks_per_request = 2;
  load.batch_size = 2;
  load.abandon_prob = 0.1;  // lease release + backfill over the wire too
  load.seed = kSeed + 3;
  return load;
}

/// A live Server over its own world + service, running on a background
/// thread until the harness goes out of scope.
class ServerHarness {
 public:
  explicit ServerHarness(ServerOptions options,
                         service::ServiceConfig config = NetConfig())
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
  service::CrowdService& service() { return svc_; }
  sim::CrowdSimulator& crowd() { return world_.crowd; }
  const Schema& schema() const { return world_.world.schema; }
  int num_rows() const { return world_.world.truth.num_rows(); }

 private:
  SimWorld world_;
  service::CrowdService svc_;
  Server server_;
  std::thread thread_;
  Status run_status_;
};

/// The same scenario replayed entirely in-process; the digest every socket
/// run must reproduce bit-exactly.
uint64_t InProcessDigest(int64_t* answers_out) {
  SimWorld world(kSeed, /*answers_per_task=*/0, SmallTable(), SmallCrowd());
  service::CrowdService svc(world.world.schema, world.world.truth.num_rows(),
                            std::make_unique<LoopingPolicy>(), NetConfig());
  sim::LoadGenerator generator(&world.crowd, &svc, LoadOptions());
  sim::LoadReport report = generator.Run();
  EXPECT_TRUE(svc.Drained());
  EXPECT_EQ(report.rejected, 0);
  *answers_out = report.answers;
  InferenceResult result = svc.Finalize();
  return TruthDigest(result.estimated_truth);
}

TEST(NetServer, SocketDigestMatchesInProcess) {
  int64_t in_process_answers = 0;
  const uint64_t in_process_digest = InProcessDigest(&in_process_answers);
  ASSERT_GT(in_process_answers, 0);

  ServerHarness harness(ServerOptions{});

  sim::LoadGeneratorOptions load = LoadOptions();
  load.connect = "127.0.0.1:" + std::to_string(harness.port());
  load.num_connections = 4;
  sim::LoadGenerator generator(&harness.crowd(), nullptr, load);
  sim::LoadReport report = generator.Run();
  ASSERT_TRUE(report.socket_status.ok()) << report.socket_status.ToString();
  EXPECT_EQ(report.answers, in_process_answers);
  EXPECT_EQ(report.rejected, 0);
  EXPECT_EQ(report.final_stats.answers_accepted, in_process_answers);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  FinalizeResponse finalize;
  ASSERT_TRUE(client.Finalize(FinalizeRequest{}, &finalize).ok());
  EXPECT_EQ(finalize.status, WireStatus::kOk);
  EXPECT_EQ(finalize.digest, in_process_digest);
  EXPECT_EQ(finalize.answer_count,
            static_cast<uint64_t>(in_process_answers));
}

TEST(NetServer, TinyBudgetShedsAreAbsorbedWithoutChangingTheDigest) {
  // With the in-flight budget pinned at the staleness threshold, admission
  // control sheds whenever the async EM refresh lags ingest — and because a
  // shed books nothing and the client resends the identical batch, the
  // accepted history (and digest) must STILL match the in-process run.
  int64_t in_process_answers = 0;
  const uint64_t in_process_digest = InProcessDigest(&in_process_answers);

  ServerOptions options;
  options.inflight_budget = NetConfig().inference.staleness_threshold;
  ServerHarness harness(options);

  sim::LoadGeneratorOptions load = LoadOptions();
  load.connect = "127.0.0.1:" + std::to_string(harness.port());
  load.num_connections = 4;
  sim::LoadGenerator generator(&harness.crowd(), nullptr, load);
  sim::LoadReport report = generator.Run();
  ASSERT_TRUE(report.socket_status.ok()) << report.socket_status.ToString();
  EXPECT_EQ(report.answers, in_process_answers);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  FinalizeResponse finalize;
  ASSERT_TRUE(client.Finalize(FinalizeRequest{}, &finalize).ok());
  EXPECT_EQ(finalize.digest, in_process_digest);
}

TEST(NetServer, SessionLifecycleOverTheWire) {
  ServerHarness harness(ServerOptions{});
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());

  HelloResponse hello;
  ASSERT_TRUE(client.Hello(HelloRequest{0}, &hello).ok());
  EXPECT_EQ(hello.status, WireStatus::kOk);
  EXPECT_EQ(hello.schema_fingerprint,
            SchemaFingerprint(harness.schema(), harness.num_rows()));
  EXPECT_EQ(hello.num_rows, static_cast<uint32_t>(harness.num_rows()));
  ASSERT_EQ(hello.columns.size(),
            static_cast<size_t>(harness.schema().num_columns()));
  for (size_t j = 0; j < hello.columns.size(); ++j) {
    const ColumnSpec& col = harness.schema().columns()[j];
    EXPECT_EQ(hello.columns[j].categorical,
              col.type == ColumnType::kCategorical ? 1 : 0);
    EXPECT_EQ(hello.columns[j].label_count,
              static_cast<uint32_t>(col.num_labels()));
  }

  LeaseResponse lease;
  ASSERT_TRUE(client.Lease(LeaseRequest{hello.session, 4}, &lease).ok());
  EXPECT_EQ(lease.status, WireStatus::kOk);
  ASSERT_FALSE(lease.cells.empty());
  EXPECT_EQ(lease.drained, 0);

  SubmitBatchRequest submit;
  submit.session = hello.session;
  for (const CellRef& cell : lease.cells) {
    Value value = hello.columns[static_cast<size_t>(cell.col)].categorical
                      ? Value::Categorical(0)
                      : Value::Continuous(0.25);
    submit.items.emplace_back(cell, value);
  }
  SubmitBatchResponse verdicts;
  ASSERT_TRUE(client.SubmitBatch(submit, &verdicts).ok());
  EXPECT_EQ(verdicts.status, WireStatus::kOk);
  ASSERT_EQ(verdicts.item_status.size(), submit.items.size());
  for (uint8_t code : verdicts.item_status) {
    EXPECT_EQ(code, static_cast<uint8_t>(WireStatus::kOk));
  }

  RetractResponse retract;
  ASSERT_TRUE(
      client.Retract(RetractRequest{0, lease.cells[0]}, &retract).ok());
  EXPECT_EQ(retract.status, WireStatus::kOk);

  ByeResponse bye;
  ASSERT_TRUE(client.Bye(ByeRequest{hello.session}, &bye).ok());
  EXPECT_EQ(bye.status, WireStatus::kOk);

  // A second session gets a fresh id.
  HelloResponse hello2;
  ASSERT_TRUE(client.Hello(HelloRequest{1}, &hello2).ok());
  EXPECT_NE(hello2.session, hello.session);

  StatsResponse stats;
  ASSERT_TRUE(client.Stats(StatsRequest{}, &stats).ok());
  EXPECT_EQ(stats.status, WireStatus::kOk);
  // The retraction took one answer back off the live ledger.
  EXPECT_EQ(stats.answers_accepted, submit.items.size() - 1);
  EXPECT_EQ(stats.answers_retracted, 1u);
  EXPECT_EQ(stats.sessions_started, 2u);
  // Everything before the in-flight Stats request itself.
  EXPECT_GE(stats.frames_processed, 6u);
  EXPECT_GE(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.inflight_budget,
            static_cast<uint64_t>(harness.server().inflight_budget()));
}

TEST(NetServer, SubmitToUnknownSessionIsRejectedPerItem) {
  ServerHarness harness(ServerOptions{});
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  SubmitBatchRequest submit;
  submit.session = 0xfeedfacecafebeefull;
  submit.items.emplace_back(CellRef{0, 0}, Value::Categorical(0));
  SubmitBatchResponse verdicts;
  ASSERT_TRUE(client.SubmitBatch(submit, &verdicts).ok());
  EXPECT_EQ(verdicts.status, WireStatus::kOk);  // the batch itself arrived
  ASSERT_EQ(verdicts.item_status.size(), 1u);
  EXPECT_NE(verdicts.item_status[0], static_cast<uint8_t>(WireStatus::kOk));

  StatsResponse stats;
  ASSERT_TRUE(client.Stats(StatsRequest{}, &stats).ok());
  EXPECT_EQ(stats.answers_accepted, 0u);
}

// -------------------------------------------------------------------------
// Hostile bytes over a live connection: one connection dies, the server
// (and its other clients) keep going.

TEST(NetServer, CorruptFramesDropTheConnectionNotTheServer) {
  ServerHarness harness(ServerOptions{});

  // Valid magic followed by a bogus version byte: sniffed as the frame
  // protocol, then rejected by the strict decoder.
  OwnedFd evil;
  ASSERT_TRUE(ConnectTcp("127.0.0.1", harness.port(), &evil).ok());
  const char bytes[] = "TCNP\x7fgarbage-after-the-magic";
  ASSERT_TRUE(WriteAll(evil.get(), bytes, sizeof(bytes) - 1).ok());
  // The server must close this connection (EOF on our side), not crash.
  char buf[256];
  size_t n = 0;
  while (true) {
    Status st = ReadSome(evil.get(), buf, sizeof(buf), &n);
    if (!st.ok() || n == 0) break;
  }

  // A hostile length header on a fresh connection dies the same way.
  OwnedFd hostile;
  ASSERT_TRUE(ConnectTcp("127.0.0.1", harness.port(), &hostile).ok());
  std::string header("TCNP", 4);
  header.push_back(1);     // version
  header.push_back(1);     // Hello
  header.append(4, '\xff');  // payload_len = 0xffffffff
  ASSERT_TRUE(WriteAll(hostile.get(), header.data(), header.size()).ok());
  while (true) {
    Status st = ReadSome(hostile.get(), buf, sizeof(buf), &n);
    if (!st.ok() || n == 0) break;
  }

  // The server is still serving protocol clients afterwards.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  StatsResponse stats;
  ASSERT_TRUE(client.Stats(StatsRequest{}, &stats).ok());
  EXPECT_EQ(stats.status, WireStatus::kOk);
  EXPECT_GE(stats.frame_errors, 2u);
}

// -------------------------------------------------------------------------
// The HTTP variant on the same listener.

std::string HttpGet(uint16_t port, const std::string& path) {
  OwnedFd fd;
  Status st = ConnectTcp("127.0.0.1", port, &fd);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::string request = "GET " + path +
                        " HTTP/1.1\r\nHost: localhost\r\n"
                        "Connection: close\r\n\r\n";
  st = WriteAll(fd.get(), request.data(), request.size());
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::string response;
  char buf[4096];
  size_t n = 0;
  while (ReadSome(fd.get(), buf, sizeof(buf), &n).ok() && n > 0) {
    response.append(buf, n);
  }
  return response;
}

TEST(NetServer, HttpMetricsReturnsPrometheusText) {
  ServerHarness harness(ServerOptions{});
  // Put one session's worth of traffic on the books first.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  HelloResponse hello;
  ASSERT_TRUE(client.Hello(HelloRequest{2}, &hello).ok());

  std::string response = HttpGet(harness.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
  EXPECT_NE(response.find("text/plain"), std::string::npos);
  // Service registry counters AND the net front-end counters, in
  // Prometheus exposition format.
  EXPECT_NE(response.find("tcrowd_net_connections_accepted"),
            std::string::npos)
      << response;
  EXPECT_NE(response.find("tcrowd_net_frames_processed"), std::string::npos);
  EXPECT_NE(response.find("tcrowd_net_retry_later_total"),
            std::string::npos);

  NetStats stats = harness.server().net_stats();
  EXPECT_GE(stats.http_requests, 1u);
}

TEST(NetServer, HttpUnknownPathIs404AndConnectionCloses) {
  ServerHarness harness(ServerOptions{});
  std::string response = HttpGet(harness.port(), "/nope");
  EXPECT_NE(response.find("404"), std::string::npos) << response;

  // The listener still answers metrics afterwards.
  std::string metrics = HttpGet(harness.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
}

}  // namespace
}  // namespace tcrowd::net
