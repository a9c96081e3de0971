#ifndef TCROWD_SIMULATION_LOAD_GENERATOR_H_
#define TCROWD_SIMULATION_LOAD_GENERATOR_H_

#include <cstdint>
#include <string>

#include "net/client.h"
#include "service/crowd_service.h"
#include "simulation/crowd_simulator.h"

namespace tcrowd::sim {

/// Knobs of the replay driver.
struct LoadGeneratorOptions {
  /// Upper bound on worker-arrival events (sessions opened). The run also
  /// stops as soon as the service reports itself drained.
  int max_arrivals = 1000000;
  /// Tasks requested per arriving worker (paper Section 5.3 batches).
  int tasks_per_request = 1;
  /// Probability a session walks away without answering its leases — the
  /// abandonment that exercises lease release + backfill.
  double abandon_prob = 0.0;
  /// Batch replay mode: > 1 submits a session's answers through
  /// CrowdService::SubmitAnswerBatch in pages of this size (one service
  /// lock + one engine ingest pass per page); <= 1 replays per answer via
  /// SubmitAnswer.
  int batch_size = 1;
  /// Kill/restart replay mode: > 0 stops the run once this many answers
  /// were accepted, leaving the service mid-flight — the harness for
  /// simulated crashes (`serve-sim --crash-after=N`). A restarted service
  /// gets a FRESH generator that drives the remainder. <= 0 runs to drain
  /// as usual.
  int64_t stop_after_answers = 0;
  /// Every arrival's session stream is derived from (seed, arrival index),
  /// and answers come from the simulator's order-independent AnswerWith()
  /// path, so the replayed history (and the finalized truths) is a pure
  /// function of the options.
  uint64_t seed = 7;
  /// Socket-driving mode: non-empty ("HOST:PORT") drives a remote
  /// tcrowd_serverd over the binary protocol (docs/PROTOCOL.md) instead of
  /// calling the service in-process. The arrival pattern is the in-process
  /// one — whole arrivals serialized in index order, streams derived from
  /// (seed, arrival index) — round-robined across `num_connections` open
  /// connections, so the server-observed call sequence (and therefore its
  /// event log) is a pure function of the options. RETRY_LATER sheds are
  /// absorbed by the client's identical resends and never change the
  /// accepted history.
  std::string connect;
  /// Concurrent protocol connections in socket mode.
  int num_connections = 4;
};

/// What a replay run produced, next to the service's own metrics registry.
struct LoadReport {
  int64_t arrivals = 0;
  int64_t assignments = 0;
  int64_t answers = 0;
  int64_t rejected = 0;
  int64_t abandoned_sessions = 0;
  /// SubmitAnswerBatch calls issued (0 in per-answer replay mode).
  int64_t batches = 0;
  /// True when the run hit stop_after_answers instead of draining.
  bool stopped_early = false;
  double wall_seconds = 0.0;
  /// Answer-event throughput of the whole run.
  double answers_per_second = 0.0;
  /// Socket mode only: RETRY_LATER verdicts absorbed by batch resends.
  int64_t retries = 0;
  /// Socket mode only: first transport/protocol error that ended the run
  /// early (OK after a clean run and always in in-process mode).
  Status socket_status;
  service::ServiceStats final_stats;
};

/// Replays a CrowdSimulator worker-arrival stream against a ServingBackend
/// (single-engine CrowdService or multi-shard ShardRouter alike): one
/// thread runs the arrivals in index order, and every arrival opens a
/// session, leases tasks, answers them from the simulator's generative
/// model (or abandons), and closes the session. This is the harness that
/// pushes hundreds of thousands of answer events through the online stack.
class LoadGenerator {
 public:
  /// Both pointers are unowned and must outlive Run(). In socket mode
  /// (options.connect non-empty) `svc` may be null — the service lives in
  /// the remote server process and the report's final_stats come from its
  /// Stats response.
  LoadGenerator(CrowdSimulator* crowd, service::ServingBackend* svc,
                LoadGeneratorOptions options);

  /// Drives the service until it drains or max_arrivals is hit. May be
  /// called once per generator.
  LoadReport Run();

 private:
  /// The socket-mode driver: the in-process arrivals, round-robin over
  /// options_.num_connections protocol connections.
  void RunSocket(LoadReport* report);
  /// One whole in-process arrival, driven by the stream derived from
  /// (seed, arrival index). Returns false when the run is over (arrival
  /// budget exhausted, service drained or stop_after_answers reached).
  bool RunArrival(LoadReport* report);
  /// True once the accepted-answer total hit stop_after_answers.
  bool StopRequested(const LoadReport& report) const {
    return options_.stop_after_answers > 0 &&
           report.answers >= options_.stop_after_answers;
  }

  CrowdSimulator* const crowd_;
  service::ServingBackend* const service_;
  LoadGeneratorOptions options_;

  int64_t arrivals_issued_ = 0;
};

}  // namespace tcrowd::sim

#endif  // TCROWD_SIMULATION_LOAD_GENERATOR_H_
