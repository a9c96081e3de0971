// The multi-process shard topology (docs/SHARDING.md, process topology):
// a ShardRouter whose shards are RemoteShardBackends talking TCNP over real
// loopback sockets to shard daemons — each daemon here is the exact
// in-process miniature of `tcrowd_serverd --shard-index`: a CrowdService
// over DeriveShardServiceConfig behind a net::Server event loop on its own
// thread, killable and restartable so the drills are deterministic.
//
// Covered: the merged-Finalize digest over sockets is bit-identical to a
// single in-process run (swept over 1/2/4 shard daemons, retractions
// included); a daemon dying mid-lease fast-fails with the CrashShard
// semantics; a daemon restarted from its own snapshot directory rejoins
// through auto_restore on the next touch; and the fingerprint handshake
// refuses a daemon serving the wrong sub-table.

#include "service/shard_backend.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "assignment/policies.h"
#include "inference/segment_codec.h"
#include "net/server.h"
#include "platform/event_log.h"
#include "service/crowd_service.h"
#include "service/shard_router.h"
#include "test_helpers.h"

namespace tcrowd::service {
namespace {

namespace fs = std::filesystem;

using tcrowd::testing::SimWorld;

std::string FreshDir(const char* name) {
  fs::path dir = fs::path(::testing::TempDir()) / "remote_shard" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Same deterministic template as tests/test_shard_router.cc: refreshes
/// suppressed, inline ingestion, the scripts own acceptance — so the
/// socket topology is held to the identical digest as the in-process one.
ServiceConfig BaseConfig(const std::string& checkpoint_dir = "") {
  ServiceConfig config;
  config.target_answers_per_task = 1000;
  config.inference.method = "tcrowd";
  config.inference.tcrowd_options = TCrowdOptions::Fast();
  config.inference.staleness_threshold = 1 << 20;
  config.inference.async_refresh = false;
  config.inference.min_answers_for_fit = 8;
  config.inference.ingest_batch_size = 1;
  config.inference.checkpoint.directory = checkpoint_dir;
  config.inference.checkpoint.fsync = false;
  config.router.refresh_every_answers = 1 << 20;
  return config;
}

/// One shard daemon in miniature: the shard's CrowdService (derived config,
/// own snapshot sub-directory) behind a real net::Server on a loopback
/// kernel-assigned port, the event loop on its own thread.
class ShardDaemon {
 public:
  ShardDaemon(const Schema& schema, int num_rows, ServiceConfig base,
              const ShardRange& range, int num_shards, int shard)
      : schema_(schema),
        num_rows_(num_rows),
        base_(std::move(base)),
        range_(range),
        num_shards_(num_shards),
        shard_(shard) {
    Start();
  }
  ~ShardDaemon() { Kill(); }

  /// Process death in miniature: stop the event loop, drop the service.
  /// The shard's snapshot directory (when the base config has one)
  /// survives on disk — that is the whole point of the restart drill.
  void Kill() {
    if (server_ != nullptr) server_->Stop();
    if (thread_.joinable()) thread_.join();
    if (server_ != nullptr) {
      EXPECT_TRUE(run_status_.ok()) << run_status_.ToString();
    }
    server_.reset();
    service_.reset();
  }

  /// Daemon restart: a fresh process image restores the journal from its
  /// own checkpoint directory and listens on a NEW kernel-assigned port
  /// (the router's backend factory reads port() at reconnect time).
  void Restart() {
    Kill();
    Start();
  }

  uint16_t port() const { return port_; }
  /// Reaching "inside the process" — only for assertions about restore.
  CrowdService* service() { return service_.get(); }

 private:
  void Start() {
    service_ = std::make_unique<CrowdService>(
        schema_, range_.num_rows(), std::make_unique<LoopingPolicy>(),
        DeriveShardServiceConfig(base_, schema_, num_rows_, range_,
                                 num_shards_, shard_));
    net::ServerOptions options;
    options.inflight_budget = -1;  // never shed: the scripts own pacing
    server_ = std::make_unique<net::Server>(service_.get(), options);
    Status listen = server_->Listen("127.0.0.1", 0);
    ASSERT_TRUE(listen.ok()) << listen.ToString();
    port_ = server_->port();
    thread_ = std::thread([this] { run_status_ = server_->Run(); });
  }

  const Schema schema_;
  const int num_rows_;
  const ServiceConfig base_;
  const ShardRange range_;
  const int num_shards_;
  const int shard_;

  std::unique_ptr<CrowdService> service_;
  std::unique_ptr<net::Server> server_;
  std::thread thread_;
  Status run_status_;
  uint16_t port_ = 0;
};

/// The router process in miniature: N shard daemons plus a ShardRouter
/// whose backend factory dials them over loopback — `tcrowd_serverd
/// --router --connect-shard=...` without the fork/exec.
class RemoteTopology {
 public:
  RemoteTopology(const Schema& schema, int num_rows, int num_shards,
                 const std::string& checkpoint_root = "",
                 bool auto_restore = false) {
    ServiceConfig base = BaseConfig(checkpoint_root);
    std::vector<ShardRange> ranges = PartitionRows(num_rows, num_shards);
    for (int i = 0; i < num_shards; ++i) {
      daemons_.push_back(std::make_unique<ShardDaemon>(
          schema, num_rows, base, ranges[i], num_shards, i));
    }
    std::vector<uint64_t> fingerprints;
    for (int i = 0; i < num_shards; ++i) {
      fingerprints.push_back(SchemaFingerprint(schema, ranges[i].num_rows()));
    }
    ShardRouterConfig config;
    config.num_shards = num_shards;
    config.base = std::move(base);
    config.auto_restore = auto_restore;
    config.backend_factory = [this, fingerprints](int shard) {
      RemoteShardBackend::Options options;
      options.port = daemons_[shard]->port();
      options.expected_fingerprint = fingerprints[shard];
      // Fail fast when a daemon is genuinely down: the drills probe downed
      // shards on purpose, and every probe pays the connect budget.
      options.connect_attempts = 3;
      options.connect_retry_millis = 10;
      return std::make_unique<RemoteShardBackend>(options);
    };
    router_ =
        std::make_unique<ShardRouter>(schema, num_rows, std::move(config));
  }

  ShardRouter& router() { return *router_; }
  ShardDaemon& daemon(int i) { return *daemons_[i]; }

 private:
  std::vector<std::unique_ptr<ShardDaemon>> daemons_;
  std::unique_ptr<ShardRouter> router_;
};

/// Same replay seam as tests/test_shard_router.cc: every topology accepts
/// the identical history in the identical order. Over a RemoteTopology the
/// lease leg rides kApplyLeases and the submit leg kSubmitBatch.
class ScriptDriver {
 public:
  explicit ScriptDriver(ServingBackend* backend) : backend_(backend) {}

  Status Feed(const Answer& answer) {
    ServingBackend::SessionId session = Session(answer.worker);
    Status lease = backend_->ApplyRecordedLeases(session, {answer.cell});
    if (lease.code() == StatusCode::kNotFound) {
      sessions_.erase(answer.worker);
      session = Session(answer.worker);
      lease = backend_->ApplyRecordedLeases(session, {answer.cell});
    }
    if (!lease.ok()) return lease;
    return backend_->SubmitAnswer(session, answer.cell, answer.value);
  }

  void FeedAllOk(const std::vector<Answer>& answers) {
    for (size_t k = 0; k < answers.size(); ++k) {
      ASSERT_TRUE(Feed(answers[k]).ok()) << "answer " << k;
    }
  }

 private:
  ServingBackend::SessionId Session(WorkerId worker) {
    auto it = sessions_.find(worker);
    if (it != sessions_.end()) return it->second;
    ServingBackend::SessionId id = backend_->StartSession(worker);
    sessions_[worker] = id;
    return id;
  }

  ServingBackend* backend_;
  std::map<WorkerId, ServingBackend::SessionId> sessions_;
};

// ---------------------------------------------------------------------------
// The tentpole guarantee, now over real sockets: N shard daemons behind a
// router produce the bit-identical Finalize digest to ONE in-process
// CrowdService fed the same accepted history — retractions included.

TEST(RemoteShard, MergedFinalizeOverSocketsMatchesInProcess) {
  SimWorld world(7, /*answers_per_task=*/3);
  const std::vector<Answer>& all = world.answers.answers();
  const Schema& schema = world.world.schema;
  int rows = world.world.truth.num_rows();

  std::vector<Answer> retractions = {all[3], all[all.size() / 2 + 5],
                                     all[all.size() - 7]};
  auto run = [&](ServingBackend* backend) -> uint64_t {
    ScriptDriver driver(backend);
    driver.FeedAllOk(all);
    for (const Answer& gone : retractions) {
      EXPECT_TRUE(backend->RetractAnswer(gone.worker, gone.cell).ok());
    }
    return TruthDigest(backend->Finalize().estimated_truth);
  };

  CrowdService single(schema, rows, std::make_unique<LoopingPolicy>(),
                      BaseConfig());
  uint64_t want = run(&single);
  int64_t want_accepted = single.Stats().answers_accepted;

  for (int shards : {1, 2, 4}) {
    SCOPED_TRACE("shard daemons " + std::to_string(shards));
    RemoteTopology topology(schema, rows, shards);
    EXPECT_EQ(run(&topology.router()), want);
    ServiceStats stats = topology.router().Stats();
    EXPECT_EQ(stats.answers_accepted, want_accepted);
    EXPECT_EQ(stats.answers_retracted,
              static_cast<int64_t>(retractions.size()));
  }
}

// ---------------------------------------------------------------------------
// A daemon dying mid-lease: the transport error surfaces once, every later
// touch fast-fails with FailedPrecondition (the CrashShard semantics), the
// surviving daemon keeps serving, and a manual RestoreShard against the
// restarted daemon brings the shard back.

TEST(RemoteShard, DaemonDeathMidLeaseFastFailsUntilRestore) {
  SimWorld world(13, /*answers_per_task=*/2);
  const Schema& schema = world.world.schema;
  int rows = world.world.truth.num_rows();
  std::string dir = FreshDir("mid_lease");
  RemoteTopology topology(schema, rows, /*num_shards=*/2, dir);
  ShardRouter& router = topology.router();

  // One session holding leases on both shards.
  ShardRouter::SessionId session = router.StartSession(1);
  CellRef on_victim{0, 0};
  CellRef on_survivor{rows - 1, 0};
  ASSERT_TRUE(
      router.ApplyRecordedLeases(session, {on_victim, on_survivor}).ok());

  topology.daemon(0).Kill();

  // The first touch rides the dead connection and surfaces the transport
  // error; nothing was booked, and the backend is now marked down.
  Value value = schema.column(0).type == ColumnType::kCategorical
                    ? Value::Categorical(0)
                    : Value::Continuous(1.0);
  EXPECT_FALSE(router.SubmitAnswer(session, on_victim, value).ok());

  // Every later touch fast-fails without a round-trip, exactly like the
  // in-process CrashShard drill.
  EXPECT_EQ(router.SubmitAnswer(session, on_victim, value).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(router.ApplyRecordedLeases(session, {on_victim}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(router.RetractAnswer(1, on_victim).code(),
            StatusCode::kFailedPrecondition);

  // The surviving daemon never blinked.
  Value survivor_value =
      schema.column(0).type == ColumnType::kCategorical
          ? Value::Categorical(0)
          : Value::Continuous(1.0);
  EXPECT_TRUE(router.SubmitAnswer(session, on_survivor, survivor_value).ok());

  // Restart the daemon from its snapshot directory and re-attach. The
  // restarted daemon has no memory of the lease (leases are router state),
  // so the session re-books it through the replay seam before answering.
  topology.daemon(0).Restart();
  Status restore = router.RestoreShard(0);
  ASSERT_TRUE(restore.ok()) << restore.ToString();
  EXPECT_EQ(router.RestoreShard(0).code(), StatusCode::kFailedPrecondition)
      << "restore of an up shard must refuse";
  ASSERT_TRUE(router.ApplyRecordedLeases(session, {on_victim}).ok());
  EXPECT_TRUE(router.SubmitAnswer(session, on_victim, value).ok());
  EXPECT_EQ(router.num_answers(), 2u);
}

// ---------------------------------------------------------------------------
// The restart drill: a daemon dies mid-run, restarts from its OWN snapshot
// directory on a fresh port, and auto_restore re-attaches it on the next
// touch — no router restart, and the merged digest still matches the run
// that never crashed.

TEST(RemoteShard, DaemonRestartsFromSnapshotAndRejoins) {
  const int kVictim = 1;
  const int kShards = 4;
  SimWorld world(21, /*answers_per_task=*/3);
  const std::vector<Answer>& all = world.answers.answers();
  const Schema& schema = world.world.schema;
  int rows = world.world.truth.num_rows();

  std::string dir = FreshDir("restart_drill");
  RemoteTopology topology(schema, rows, kShards, dir, /*auto_restore=*/true);
  ShardRouter& router = topology.router();
  ASSERT_TRUE(router.checkpoint_status().ok());

  // Script phases exactly like the in-process crash drill: A hits every
  // shard; B holds only answers the victim does NOT own (the downtime
  // window); C is everything else. The retraction targets a survivor-owned
  // answer so both runs retract at the same point in the history.
  auto owner = [&](const Answer& a) { return router.ShardForRow(a.cell.row); };
  size_t third = all.size() / 3;
  std::vector<Answer> a_phase(all.begin(), all.begin() + third);
  std::vector<Answer> b_phase, c_phase;
  for (size_t k = third; k < 2 * third; ++k) {
    (owner(all[k]) == kVictim ? c_phase : b_phase).push_back(all[k]);
  }
  c_phase.insert(c_phase.end(), all.begin() + 2 * third, all.end());
  Answer retracted = a_phase[0];
  for (const Answer& a : a_phase) {
    if (owner(a) != kVictim) {
      retracted = a;
      break;
    }
  }
  ASSERT_NE(owner(retracted), kVictim);
  int64_t victim_answers_in_a = 0;
  for (const Answer& a : a_phase) {
    if (owner(a) == kVictim) ++victim_answers_in_a;
  }
  ASSERT_GT(victim_answers_in_a, 0) << "drill needs answers on the victim";

  // Reference: one in-process engine fed the same phases in the same order.
  CrowdService reference(schema, rows, std::make_unique<LoopingPolicy>(),
                         BaseConfig());
  ScriptDriver ref_driver(&reference);
  ref_driver.FeedAllOk(a_phase);
  ref_driver.FeedAllOk(b_phase);
  ASSERT_TRUE(reference.RetractAnswer(retracted.worker, retracted.cell).ok());
  ref_driver.FeedAllOk(c_phase);
  uint64_t want = TruthDigest(reference.Finalize().estimated_truth);

  // The drill: the victim daemon dies after phase A...
  ScriptDriver driver(&router);
  driver.FeedAllOk(a_phase);
  topology.daemon(kVictim).Kill();

  // ...a request routed to it fails (the auto-restore attempt cannot
  // reconnect while the process is gone) and is NOT part of the history...
  CellRef down_cell{router.range(kVictim).row_begin, 0};
  ShardRouter::SessionId probe = router.StartSession(999);
  EXPECT_FALSE(router.ApplyRecordedLeases(probe, {down_cell}).ok());
  ASSERT_TRUE(router.EndSession(probe).ok());

  // ...the survivors accept phase B and the retraction undisturbed...
  driver.FeedAllOk(b_phase);
  ASSERT_TRUE(router.RetractAnswer(retracted.worker, retracted.cell).ok());

  // ...then the daemon restarts from its own snapshot directory on a NEW
  // kernel-assigned port. No RestoreShard call: the next touch re-runs the
  // backend factory, reconnects, verifies the fingerprint, and checks the
  // restored log against the router's arrival ledger.
  topology.daemon(kVictim).Restart();
  driver.FeedAllOk(c_phase);
  EXPECT_GT(topology.daemon(kVictim).service()->Stats().answers_restored, 0)
      << "the restarted daemon must have restored its journal from disk";

  EXPECT_EQ(TruthDigest(router.Finalize().estimated_truth), want);
  EXPECT_EQ(router.Stats().answers_accepted,
            reference.Stats().answers_accepted);
}

// ---------------------------------------------------------------------------
// The attach handshake refuses a daemon serving the wrong sub-table: the
// backend comes up down() with the mismatch in checkpoint_status, before
// the router trusts it with traffic.

TEST(RemoteShard, FingerprintMismatchRefusesTheDaemon) {
  SimWorld world(31, /*answers_per_task=*/0);
  const Schema& schema = world.world.schema;
  int rows = world.world.truth.num_rows();
  std::vector<ShardRange> ranges = PartitionRows(rows, 2);
  ShardDaemon daemon(schema, rows, BaseConfig(), ranges[0], 2, 0);

  RemoteShardBackend::Options options;
  options.port = daemon.port();
  options.expected_fingerprint =
      SchemaFingerprint(schema, ranges[0].num_rows()) ^ 0xdead;
  RemoteShardBackend backend(options);
  EXPECT_TRUE(backend.down());
  EXPECT_EQ(backend.checkpoint_status().code(),
            StatusCode::kFailedPrecondition);

  // The right fingerprint attaches cleanly and the log gather round-trips.
  options.expected_fingerprint ^= 0xdead;
  RemoteShardBackend good(options);
  EXPECT_FALSE(good.down());
  std::vector<Answer> log;
  ASSERT_TRUE(good.GatherLog(&log).ok());
  EXPECT_TRUE(log.empty());
}

}  // namespace
}  // namespace tcrowd::service
