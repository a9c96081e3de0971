#ifndef TCROWD_SERVICE_SHARD_BACKEND_H_
#define TCROWD_SERVICE_SHARD_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/answer.h"
#include "net/client.h"
#include "service/crowd_service.h"

namespace tcrowd::service {

struct ShardRange;

/// One shard of the partitioned serving tier, as the ShardRouter sees it —
/// the seam that lets a shard live in-process (LocalShardBackend) or in its
/// own `tcrowd_serverd` daemon on the far end of a TCNP connection
/// (RemoteShardBackend) without the router caring which.
///
/// Do not conflate this with ServingBackend (crowd_service.h): that is the
/// NORTH-facing façade drivers talk down into a whole serving topology;
/// ShardBackend is the SOUTH-facing per-shard seam the router talks down
/// into ONE shard. Consequences of the split:
///
///  - Coordinates: every CellRef here is in the shard's LOCAL row space
///    [0, range.num_rows()); the router owns the global<->local remap.
///  - Thread-safety: a ShardBackend is NOT thread-safe — the router
///    serializes all calls under its own mutex. (A LocalShardBackend's
///    CrowdService happens to lock internally; a RemoteShardBackend's
///    net::Client allows one in-flight request and must never be shared.)
///  - Blocking: calls may block on real I/O (a remote shard's round-trip,
///    including the client's RETRY_LATER backoff loop), so the router's
///    mutex hold times are bounded by the backend's timeouts, not by
///    in-process work.
///  - Failure: a backend that loses its shard (process crash, dead
///    connection) turns down() on and fast-fails every subsequent call
///    with FailedPrecondition, matching the in-process CrashShard
///    semantics; the router decides whether to rebuild it (RestoreShard /
///    auto_restore).
class ShardBackend {
 public:
  using SessionId = ServingBackend::SessionId;

  virtual ~ShardBackend() = default;

  /// Opens a sub-session for `worker` on the shard; -1 when the shard is
  /// unreachable (the router leaves the slot closed and retries via
  /// restore).
  virtual SessionId StartSession(WorkerId worker) = 0;
  /// Leases up to `k` tasks (LOCAL rows); empty on failure.
  virtual std::vector<CellRef> RequestTasks(SessionId session, int k) = 0;
  virtual std::vector<Status> SubmitAnswerBatch(
      SessionId session,
      const std::vector<std::pair<CellRef, Value>>& items) = 0;
  virtual Status RetractAnswer(WorkerId worker, CellRef cell) = 0;
  virtual Status ApplyRecordedLeases(SessionId session,
                                     const std::vector<CellRef>& cells) = 0;
  virtual Status EndSession(SessionId session) = 0;
  virtual bool Drained() = 0;
  virtual ServiceStats Stats() = 0;
  /// Persistence health — for a remote shard this is the backend's own
  /// connection health (the daemon refuses to start on a bad checkpoint).
  virtual Status checkpoint_status() = 0;
  virtual int64_t answers_since_refresh() = 0;
  virtual void RequestRefresh() = 0;
  virtual uint64_t num_answers() = 0;
  /// The shard's ordered live answer log (LOCAL rows, arrival order) — the
  /// merged-Finalize gather seam and the restore-agreement check.
  virtual Status GatherLog(std::vector<Answer>* out) = 0;
  /// True once the shard is unreachable; every call fast-fails until the
  /// router rebuilds the backend.
  virtual bool down() const = 0;
  /// The in-process service when there is one (LocalShardBackend); null
  /// for a remote shard. Test/introspection seam only.
  virtual CrowdService* local_service() { return nullptr; }
};

/// Derives shard `shard`'s ServiceConfig from the router-level template:
/// lease expiry moves to the router (sub-timeout 0), recorders stay
/// router-level (null), router seeds de-correlate per shard, checkpoint
/// directories get the "/shard-NNN" suffix plus the partition-layout
/// namespace tag, and an explicit answer budget splits proportionally to
/// cells owned. Shared by ShardRouter's in-process construction and
/// `tcrowd_serverd --shard-index` so a shard daemon derives the
/// bit-identical config the router would have built in-process.
ServiceConfig DeriveShardServiceConfig(const ServiceConfig& base,
                                       const Schema& schema, int num_rows,
                                       const ShardRange& range,
                                       int num_shards, int shard);

/// Maps a wire verdict back onto the service Status vocabulary (the
/// reverse of WireStatusFromCode; kRetryLater/kShuttingDown — verdicts with
/// no StatusCode equivalent — surface as FailedPrecondition).
Status StatusFromWire(net::WireStatus status, const char* what);

/// The service ledger carried by a Stats response, back in ServiceStats
/// form (the network-only fields are dropped).
ServiceStats ServiceStatsFromWire(const net::StatsResponse& resp);

/// Today's zero-copy topology: the shard is a CrowdService owned by this
/// backend in the router's process.
class LocalShardBackend : public ShardBackend {
 public:
  LocalShardBackend(const Schema& schema, int num_rows,
                    std::unique_ptr<AssignmentPolicy> policy,
                    ServiceConfig config)
      : service_(schema, num_rows, std::move(policy), std::move(config)) {}

  SessionId StartSession(WorkerId worker) override {
    return service_.StartSession(worker);
  }
  std::vector<CellRef> RequestTasks(SessionId session, int k) override {
    return service_.RequestTasks(session, k);
  }
  std::vector<Status> SubmitAnswerBatch(
      SessionId session,
      const std::vector<std::pair<CellRef, Value>>& items) override {
    return service_.SubmitAnswerBatch(session, items);
  }
  Status RetractAnswer(WorkerId worker, CellRef cell) override {
    return service_.RetractAnswer(worker, cell);
  }
  Status ApplyRecordedLeases(SessionId session,
                             const std::vector<CellRef>& cells) override {
    return service_.ApplyRecordedLeases(session, cells);
  }
  Status EndSession(SessionId session) override {
    return service_.EndSession(session);
  }
  bool Drained() override { return service_.Drained(); }
  ServiceStats Stats() override { return service_.Stats(); }
  Status checkpoint_status() override { return service_.checkpoint_status(); }
  int64_t answers_since_refresh() override {
    return service_.answers_since_refresh();
  }
  void RequestRefresh() override { service_.RequestRefresh(); }
  uint64_t num_answers() override { return service_.num_answers(); }
  Status GatherLog(std::vector<Answer>* out) override {
    *out = service_.GatherAnswerLog();
    return Status::Ok();
  }
  bool down() const override { return false; }
  CrowdService* local_service() override { return &service_; }

 private:
  CrowdService service_;
};

/// A shard living in its own `tcrowd_serverd` process: every call is a
/// blocking TCNP round-trip over one net::Client connection
/// (docs/SHARDING.md, process topology). Construction connects (with
/// bounded retries, since the daemon may still be starting), negotiates
/// protocol version >= 3, and verifies the daemon serves the expected
/// sub-table; any of those failing leaves the backend down() with the
/// error in checkpoint_status().
///
/// Failure semantics: a transport error (dead connection, broken framing)
/// marks the backend down and every later call fast-fails with
/// FailedPrecondition — the remote mirror of CrashShard. One caveat the
/// router's ledger-agreement restore check guards: an answer batch whose
/// connection died between write and response may have been booked by the
/// daemon without the router stamping it; such a torn batch surfaces as a
/// restore-time "disagrees with the router ledger" error rather than a
/// silent digest divergence.
class RemoteShardBackend : public ShardBackend {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    /// SchemaFingerprint(schema, range.num_rows()) of the SUB-table the
    /// daemon must be serving; 0 skips the check.
    uint64_t expected_fingerprint = 0;
    /// Connect retry budget: the daemon may still be binding its listener.
    int connect_attempts = 20;
    int connect_retry_millis = 100;
    net::Client::Options client;
  };

  explicit RemoteShardBackend(Options options);

  SessionId StartSession(WorkerId worker) override;
  std::vector<CellRef> RequestTasks(SessionId session, int k) override;
  std::vector<Status> SubmitAnswerBatch(
      SessionId session,
      const std::vector<std::pair<CellRef, Value>>& items) override;
  Status RetractAnswer(WorkerId worker, CellRef cell) override;
  Status ApplyRecordedLeases(SessionId session,
                             const std::vector<CellRef>& cells) override;
  Status EndSession(SessionId session) override;
  bool Drained() override;
  ServiceStats Stats() override;
  Status checkpoint_status() override { return health_; }
  int64_t answers_since_refresh() override;
  void RequestRefresh() override {}  // the daemon meters its own admission
  uint64_t num_answers() override;
  Status GatherLog(std::vector<Answer>* out) override;
  bool down() const override { return !health_.ok(); }

 private:
  /// Gate shared by every call: FailedPrecondition once down.
  Status CheckUp() const;
  /// Folds a call verdict into the health state: a dead connection (the
  /// client closes its fd on any transport/framing error) marks the
  /// backend down; clean application-level errors do not.
  Status Track(Status st);
  Status FetchStats(net::StatsResponse* resp);

  Options options_;
  net::Client client_;
  Status health_;
};

}  // namespace tcrowd::service

#endif  // TCROWD_SERVICE_SHARD_BACKEND_H_
