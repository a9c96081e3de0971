// tcrowd — command-line front end of the T-Crowd library.
//
// Subcommands:
//   simulate  Synthesize a crowdsourced dataset (one of the paper's dataset
//             stand-ins, or a custom table) and write it to a directory as
//             schema.csv / truth.csv / answers.csv.
//   infer     Load a dataset directory, run one truth-inference method, and
//             write the estimated table (plus metrics when ground truth is
//             present).
//   eval      Run ALL truth-inference methods on a dataset directory and
//             print a Table-7-style comparison.
//   assign    Simulate the online assignment loop (paper Algorithm 2) on a
//             synthesized world with a chosen policy, and print the
//             error-rate/MNAD series as the budget is spent.
//   serve-sim Stand up the online CrowdService and replay a simulated
//             worker-arrival stream against it with the load generator;
//             prints service throughput/latency metrics and the final
//             inference quality. --record captures a deterministic event
//             log, --metrics-out exports live Prometheus text metrics,
//             --report-json writes the run report machine-readably.
//   replay    Re-drive a CrowdService from an event log recorded with
//             serve-sim --record and assert the replayed Finalize() truth
//             state is bit-identical to the recorded digest.
//   inspect   Print the structural health of a snapshot directory:
//             manifest version/fingerprint, per-segment answer counts and
//             CRC status, journal tail, retraction table.
//
// Examples:
//   tcrowd simulate --dataset=restaurant --seed=7 --out=/tmp/restaurant
//   tcrowd simulate --rows=100 --cols=8 --ratio=0.5 --out=/tmp/custom
//   tcrowd infer --data=/tmp/restaurant --method=tcrowd --out=/tmp/est.csv
//   tcrowd eval --data=/tmp/restaurant

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "assignment/policies.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "inference/catd.h"
#include "inference/crh.h"
#include "inference/dawid_skene.h"
#include "inference/glad.h"
#include "inference/gtm.h"
#include "inference/majority_voting.h"
#include "inference/median_inference.h"
#include "inference/tcrowd_model.h"
#include "inference/zencrowd.h"
#include "net/client.h"
#include "net/socket_util.h"
#include "platform/event_log.h"
#include "platform/experiment.h"
#include "platform/metrics.h"
#include "platform/metrics_exporter.h"
#include "platform/report.h"
#include "platform/trace.h"
#include "serving_options.h"
#include "service/crowd_service.h"
#include "service/shard_router.h"
#include "service/replay.h"
#include "service/snapshot_inspect.h"
#include "service/snapshot_store.h"
#include "simulation/report_json.h"
#include "simulation/dataset_synthesizer.h"
#include "simulation/load_generator.h"
#include "simulation/scenario.h"
#include "simulation/table_generator.h"

namespace tcrowd {
namespace {

int Usage() {
  std::fprintf(stderr, R"(usage: tcrowd <command> [flags]

commands:
  simulate   --out=DIR [--dataset=celebrity|restaurant|emotion]
             [--rows=N --cols=M --ratio=R --difficulty=D --workers=W]
             [--answers-per-task=K] [--seed=S]
  infer      --data=DIR --method=NAME [--out=FILE.csv]
  eval       --data=DIR
  assign     --dataset=celebrity|restaurant|emotion
             [--policy=structure|inherent|entropy|random|looping|cdas|askit]
             [--budget=B] [--seed=S] [--tasks-per-worker=K]
  serve-sim  [--dataset=celebrity|restaurant|emotion]
             [--rows=N --cols=M --ratio=R --workers=W]
             [--policy=NAME] [--engine=METHOD] [--target=K]
             [--arrivals=N] [--tasks-per-worker=K] [--staleness=N]
             [--batch-size=N] [--threads=T] [--abandon=P]
             [--shards=N] (multi-shard serving tier, docs/SHARDING.md;
             plain load runs only — not --scenario/--record/--crash-after)
             [--checkpoint-dir=DIR] [--crash-after=N] [--seed=S]
             [--scenario=NAME] [--checkpoints=N] [--curve-csv=FILE.csv]
             [--record=FILE] [--metrics-out=FILE]
             [--metrics-interval-ms=N] [--report-json=FILE]
             [--trace=debug|info|warn|off]
  replay     <event-log> [--threads=T] [--trace=debug|info|warn|off]
  inspect    <snapshot-dir>
  client     --connect=HOST:PORT [--drive] [--finalize] [--stats]
             [--metrics] [--connections=N] [--arrivals=N]
             [--tasks-per-worker=K] [--batch-size=N] [--abandon=P]
             [--dataset=...|--rows=N --cols=M --ratio=R --workers=W]
             [--seed=S]

serve-sim durability: --checkpoint-dir=DIR persists the answer log (and
restores it at startup). --crash-after=N runs a crash drill: serve until N
answers were accepted, tear the service down mid-flight, restart it from
the checkpoint, and drive the remainder to completion.

serve-sim observability (docs/OBSERVABILITY.md): --record=FILE writes the
deterministic event log (a crash drill records phase 1 to FILE.crash, the
post-restart run to FILE); `replay` re-drives it and exits non-zero on any
divergence. Replay fits at the recorded --threads; its own --threads sizes
only the service pool. --metrics-out=FILE re-exports Prometheus text metrics every
--metrics-interval-ms (default 1000) and at exit. --trace tunes the
always-on trace ring (debug enables per-answer events).

client (docs/PROTOCOL.md): drives a live tcrowd_serverd over the TCNP
binary protocol. --drive rebuilds the server's world locally (pass the SAME
world flags and --seed the server was started with) and replays the
deterministic load-generator arrival stream over --connections concurrent
connections; --finalize requests the final fit and prints the truth digest;
--stats prints the service + network ledger; --metrics fetches GET /metrics
over the same listener and prints the Prometheus text.

serve-sim scenarios: --scenario=NAME replays a named adversarial/dynamic
scenario (hostile worker behaviors + shaped arrivals + retraction pressure,
see docs/SCENARIOS.md) instead of the plain load generator, recording a
TCrowd-vs-MajorityVoting quality-vs-budget curve at --checkpoints evenly
spaced budget marks (--curve-csv writes it as CSV). --scenario=list prints
the catalog. Replays are deterministic: one driver loop runs the
arrivals in order, so the same flags give the same history.

methods: tcrowd, tc-onlycate, tc-onlycont, mv, median, ds, zencrowd, glad,
         gtm, crh, catd
)");
  return 2;
}

std::unique_ptr<TruthInference> MakeMethod(const std::string& name,
                                           const Schema& schema) {
  if (name == "tcrowd") return std::make_unique<TCrowdModel>();
  if (name == "tc-onlycate") {
    return std::make_unique<TCrowdModel>(TCrowdModel::OnlyCategorical(schema));
  }
  if (name == "tc-onlycont") {
    return std::make_unique<TCrowdModel>(TCrowdModel::OnlyContinuous(schema));
  }
  if (name == "mv") return std::make_unique<MajorityVoting>();
  if (name == "median") return std::make_unique<MedianInference>();
  if (name == "ds") return std::make_unique<DawidSkene>();
  if (name == "zencrowd") return std::make_unique<ZenCrowd>();
  if (name == "glad") return std::make_unique<Glad>();
  if (name == "gtm") return std::make_unique<Gtm>();
  if (name == "crh") return std::make_unique<Crh>();
  if (name == "catd") return std::make_unique<Catd>();
  return nullptr;
}

/// Writes an estimated table as CSV: header of column names, then one row
/// per entity; missing estimates are empty fields.
Status WriteEstimates(const Schema& schema, const Table& estimate,
                      const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> header;
  for (const ColumnSpec& col : schema.columns()) header.push_back(col.name);
  rows.push_back(std::move(header));
  for (int i = 0; i < estimate.num_rows(); ++i) {
    std::vector<std::string> row;
    for (int j = 0; j < schema.num_columns(); ++j) {
      const Value& v = estimate.at(i, j);
      if (!v.valid()) {
        row.push_back("");
      } else if (v.is_categorical()) {
        row.push_back(schema.column(j).labels[v.label()]);
      } else {
        row.push_back(StrFormat("%.6g", v.number()));
      }
    }
    rows.push_back(std::move(row));
  }
  return csv::WriteFile(path, rows);
}

/// Refuses flags the command never read and values that did not parse.
/// Every command calls it after reading its flags, before any work.
bool FlagsValid(const FlagParser& flags, const char* command) {
  Status st = flags.Validate();
  if (st.ok()) return true;
  std::fprintf(stderr, "%s: %s\n", command, st.message().c_str());
  return false;
}

bool TruthIsKnown(const Table& truth) {
  for (int i = 0; i < truth.num_rows(); ++i) {
    for (int j = 0; j < truth.num_columns(); ++j) {
      if (truth.at(i, j).valid()) return true;
    }
  }
  return false;
}

int CmdSimulate(const FlagParser& flags) {
  std::string out = flags.GetString("out");
  if (out.empty()) {
    std::fprintf(stderr, "simulate: --out=DIR is required\n");
    return 2;
  }
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  int apt = static_cast<int>(flags.GetInt("answers-per-task", -1));

  // A paper dataset fixes the table; the custom-table flags apply only
  // without one.
  const bool paper = flags.Has("dataset");
  sim::PaperDataset pd = sim::PaperDataset::kRestaurant;
  sim::TableGeneratorOptions topt;
  sim::CrowdOptions copt;
  if (paper) {
    std::string which = flags.GetString("dataset");
    if (which == "celebrity") {
      pd = sim::PaperDataset::kCelebrity;
    } else if (which == "restaurant") {
      pd = sim::PaperDataset::kRestaurant;
    } else if (which == "emotion") {
      pd = sim::PaperDataset::kEmotion;
    } else {
      std::fprintf(stderr, "simulate: unknown --dataset=%s\n", which.c_str());
      return 2;
    }
  } else {
    topt.num_rows = static_cast<int>(flags.GetInt("rows", 100));
    topt.num_cols = static_cast<int>(flags.GetInt("cols", 8));
    topt.categorical_ratio = flags.GetDouble("ratio", 0.5);
    topt.mean_difficulty = flags.GetDouble("difficulty", 1.0);
    copt.num_workers = static_cast<int>(flags.GetInt("workers", 50));
  }
  if (!FlagsValid(flags, "simulate")) return 2;

  Dataset dataset;
  if (paper) {
    sim::SynthesizerOptions opt;
    opt.seed = seed;
    opt.answers_per_task = apt;
    dataset = std::move(sim::SynthesizeDataset(pd, opt).dataset);
  } else {
    Rng rng(seed);
    sim::GeneratedTable table = sim::GenerateTable(topt, &rng);
    dataset = std::move(
        sim::SynthesizeFromTable(std::move(table), copt,
                                 apt > 0 ? apt : 5, seed + 1, "custom")
            .dataset);
  }

  Status st = SaveDataset(dataset, out);
  if (!st.ok()) {
    std::fprintf(stderr, "simulate: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %d rows x %d columns, %zu answers from %zu "
              "workers\n",
              out.c_str(), dataset.num_rows(), dataset.num_cols(),
              dataset.answers.size(), dataset.answers.Workers().size());
  return 0;
}

int CmdInfer(const FlagParser& flags) {
  std::string dir = flags.GetString("data");
  std::string method_name = flags.GetString("method", "tcrowd");
  std::string out = flags.GetString("out");
  if (!FlagsValid(flags, "infer")) return 2;
  if (dir.empty()) {
    std::fprintf(stderr, "infer: --data=DIR is required\n");
    return 2;
  }
  auto dataset = LoadDataset(dir);
  if (!dataset.ok()) {
    std::fprintf(stderr, "infer: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  auto method = MakeMethod(method_name, dataset->schema);
  if (method == nullptr) {
    std::fprintf(stderr, "infer: unknown --method=%s\n", method_name.c_str());
    return 2;
  }
  InferenceResult result = method->Infer(dataset->schema, dataset->answers);
  std::printf("%s on %s: %zu answers, %d iterations\n",
              method->name().c_str(), dir.c_str(), dataset->answers.size(),
              result.iterations);
  if (TruthIsKnown(dataset->truth)) {
    std::printf("error rate = %.4f   MNAD = %.4f\n",
                Metrics::ErrorRate(dataset->truth, result.estimated_truth),
                Metrics::Mnad(dataset->truth, result.estimated_truth));
  }
  if (!out.empty()) {
    Status st = WriteEstimates(dataset->schema, result.estimated_truth, out);
    if (!st.ok()) {
      std::fprintf(stderr, "infer: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("estimates written to %s\n", out.c_str());
  }
  return 0;
}

int CmdEval(const FlagParser& flags) {
  std::string dir = flags.GetString("data");
  if (!FlagsValid(flags, "eval")) return 2;
  if (dir.empty()) {
    std::fprintf(stderr, "eval: --data=DIR is required\n");
    return 2;
  }
  auto dataset = LoadDataset(dir);
  if (!dataset.ok()) {
    std::fprintf(stderr, "eval: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  if (!TruthIsKnown(dataset->truth)) {
    std::fprintf(stderr, "eval: dataset has no ground truth to score "
                         "against\n");
    return 1;
  }
  Report report({"method", "error_rate", "mnad"});
  for (const char* name :
       {"tcrowd", "crh", "catd", "mv", "ds", "glad", "zencrowd",
        "tc-onlycate", "median", "gtm", "tc-onlycont"}) {
    auto method = MakeMethod(name, dataset->schema);
    InferenceResult result =
        method->Infer(dataset->schema, dataset->answers);
    bool has_cat_estimates = false, has_cont_estimates = false;
    for (int i = 0; i < dataset->truth.num_rows(); ++i) {
      for (int j = 0; j < dataset->schema.num_columns(); ++j) {
        const Value& v = result.estimated_truth.at(i, j);
        if (!v.valid()) continue;
        (v.is_categorical() ? has_cat_estimates : has_cont_estimates) = true;
      }
    }
    report.AddRow(
        method->name(),
        {has_cat_estimates
             ? Metrics::ErrorRate(dataset->truth, result.estimated_truth)
             : -1.0,
         has_cont_estimates
             ? Metrics::Mnad(dataset->truth, result.estimated_truth)
             : -1.0});
  }
  report.Print();
  return 0;
}

std::unique_ptr<AssignmentPolicy> MakePolicy(const std::string& name,
                                             uint64_t seed) {
  // One policy table for every serving entry point (serving_options.cc).
  return tools::MakeServingPolicy(name, seed);
}

int CmdAssign(const FlagParser& flags) {
  std::string which = flags.GetString("dataset", "restaurant");
  sim::PaperDataset pd;
  if (which == "celebrity") {
    pd = sim::PaperDataset::kCelebrity;
  } else if (which == "restaurant") {
    pd = sim::PaperDataset::kRestaurant;
  } else if (which == "emotion") {
    pd = sim::PaperDataset::kEmotion;
  } else {
    std::fprintf(stderr, "assign: unknown --dataset=%s\n", which.c_str());
    return 2;
  }
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  std::string policy_name = flags.GetString("policy", "structure");
  auto policy = MakePolicy(policy_name, seed);
  if (policy == nullptr) {
    std::fprintf(stderr, "assign: unknown --policy=%s\n",
                 policy_name.c_str());
    return 2;
  }

  EndToEndConfig cfg;
  cfg.initial_answers_per_task = 2;
  cfg.max_answers_per_task =
      flags.GetDouble("budget", sim::PaperAnswersPerTask(pd));
  cfg.record_every = 0.5;
  cfg.refresh_every_answers = 60;
  cfg.tasks_per_worker =
      static_cast<int>(flags.GetInt("tasks-per-worker", 1));
  if (!FlagsValid(flags, "assign")) return 2;

  sim::SynthesizerOptions opt;
  opt.seed = seed;
  opt.answers_per_task = 0;
  auto world = sim::SynthesizeDataset(pd, opt);

  TCrowdModel inference(TCrowdOptions::Fast());
  EndToEndResult result =
      RunEndToEnd(world.dataset.schema, world.dataset.truth,
                  world.crowd.get(), policy.get(), inference, cfg);

  std::printf("%s on %s (budget %.1f answers/task, %d answers total)\n",
              policy->name().c_str(), sim::PaperDatasetName(pd),
              cfg.max_answers_per_task, result.total_answers);
  Report report({"answers_per_task", "error_rate", "mnad"});
  for (const SeriesPoint& p : result.points) {
    report.AddRow({StrFormat("%.2f", p.answers_per_task),
                   StrFormat("%.4f", p.error_rate),
                   StrFormat("%.4f", p.mnad)});
  }
  report.Print();
  return 0;
}

/// Applies --trace=debug|info|warn|off to the global trace filter. True
/// when the flag is absent or valid.
bool ApplyTraceFlag(const FlagParser& flags) {
  std::string name = flags.GetString("trace");
  if (name.empty()) return true;
  trace::Level level;
  bool off = false;
  if (!trace::ParseLevel(name, &level, &off)) {
    std::fprintf(stderr, "unknown --trace=%s (debug|info|warn|off)\n",
                 name.c_str());
    return false;
  }
  if (off) {
    trace::Disable();
  } else {
    trace::SetMinLevel(level);
  }
  return true;
}

int CmdServeSim(const FlagParser& flags) {
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  if (!ApplyTraceFlag(flags)) return 2;

  // Scenario mode: a named adversarial/dynamic scenario replaces the plain
  // load generator (docs/SCENARIOS.md).
  bool scenario_mode = flags.Has("scenario");
  sim::ScenarioSpec scenario;
  if (scenario_mode) {
    std::string name = flags.GetString("scenario");
    if (name == "list") {
      for (const std::string& s : sim::ScenarioNames()) {
        sim::ScenarioSpec spec;
        sim::FindScenario(s, &spec);
        std::printf("%-18s %s\n", s.c_str(), spec.description.c_str());
      }
      return 0;
    }
    if (!sim::FindScenario(name, &scenario)) {
      std::fprintf(stderr, "serve-sim: unknown --scenario=%s; have:",
                   name.c_str());
      for (const std::string& s : sim::ScenarioNames()) {
        std::fprintf(stderr, " %s", s.c_str());
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
  }

  // Shared serving flags (tools/serving_options.h): world shape, policy,
  // engine knobs — one parse used by serve-sim, tcrowd_serverd, and the
  // router alike, so every entry point derives the identical world.
  tools::ServingOptions sopt;
  Status sost = tools::ParseServingOptions(flags, &sopt);
  if (!sost.ok()) {
    std::fprintf(stderr, "serve-sim: %s\n", sost.message().c_str());
    return 2;
  }

  const std::string& checkpoint_dir = sopt.checkpoint_dir;
  int64_t crash_after = flags.GetInt("crash-after", 0);
  if (crash_after > 0 && checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "serve-sim: --crash-after requires --checkpoint-dir\n");
    return 2;
  }
  int num_shards = static_cast<int>(flags.GetInt("shards", 1));
  if (num_shards < 1) {
    std::fprintf(stderr, "serve-sim: --shards must be >= 1\n");
    return 2;
  }
  if (num_shards > 1 &&
      (scenario_mode || crash_after > 0 || flags.Has("record"))) {
    // Scenario replay, record/replay, and the single-process crash drill
    // are single-shard features; the sharded crash drill lives in
    // tests/test_shard_router.cc.
    std::fprintf(stderr,
                 "serve-sim: --shards>1 supports plain load runs only "
                 "(not --scenario/--record/--crash-after)\n");
    return 2;
  }

  const std::string record_path = flags.GetString("record");

  sim::LoadGeneratorOptions load;
  load.max_arrivals = static_cast<int>(flags.GetInt("arrivals", 1000000));
  load.tasks_per_request =
      static_cast<int>(flags.GetInt("tasks-per-worker", 1));
  load.abandon_prob = flags.GetDouble("abandon", 0.0);
  // Batch replay: page answers through SubmitAnswerBatch instead of one
  // SubmitAnswer per answer (see docs/DATA_LIFECYCLE.md).
  load.batch_size = static_cast<int>(flags.GetInt("batch-size", 1));
  load.seed = seed + 3;

  sim::ScenarioOptions scenario_opt;
  scenario_opt.checkpoints = static_cast<int>(flags.GetInt("checkpoints", 8));
  scenario_opt.tasks_per_request =
      static_cast<int>(flags.GetInt("tasks-per-worker", 6));
  scenario_opt.max_arrivals = flags.GetInt("arrivals", 1000000);
  scenario_opt.seed = seed + 3;
  const std::string curve_csv = flags.GetString("curve-csv");

  const std::string metrics_out = flags.GetString("metrics-out");
  const auto metrics_interval =
      std::chrono::milliseconds(flags.GetInt("metrics-interval-ms", 1000));
  const std::string report_json_path = flags.GetString("report-json");
  if (!FlagsValid(flags, "serve-sim")) return 2;

  // World: one of the paper's dataset stand-ins, or a custom table. The
  // answer set starts EMPTY — every answer flows through the service.
  sim::SynthesizedWorld world = tools::BuildServingWorld(sopt);
  const std::string& world_name = world.dataset.name;

  const std::string& policy_name = sopt.policy;
  auto policy = MakePolicy(policy_name, seed);

  service::ServiceConfig config = tools::MakeServingConfig(sopt);
  if (MakeMethod(config.inference.method, world.dataset.schema) == nullptr) {
    std::fprintf(stderr, "serve-sim: unknown --engine=%s\n",
                 config.inference.method.c_str());
    return 2;
  }

  // World recipe carried in the event log's kRunStart header: everything
  // `tcrowd replay` needs to rebuild this world and service config.
  std::string recipe = tools::ServingRecipe(sopt);

  if (crash_after > 0) {
    // Crash drill (docs/PERSISTENCE.md): phase 1 serves until crash_after
    // answers were accepted, then the service is torn down mid-flight — no
    // Finalize, sessions left open — exactly what a kill -9 leaves behind.
    // Start from a clean slate so the drill is reproducible.
    Status st = service::SnapshotStore::WipeDirectory(checkpoint_dir);
    if (!st.ok()) {
      std::fprintf(stderr, "serve-sim: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("-- phase 1: serving until simulated crash (%lld answers), "
                "checkpointing to %s --\n",
                static_cast<long long>(crash_after), checkpoint_dir.c_str());
    {
      // The phase-1 event log gets its own file: the crash tears the
      // service down without Finalize, so the log ends at the crash point
      // — replay drives it through that point and stops, the recorded
      // shape of an interrupted run.
      std::unique_ptr<EventRecorder> crash_recorder;
      service::ServiceConfig phase1_config = config;
      if (!record_path.empty()) {
        auto opened = EventRecorder::Open(record_path + ".crash");
        if (!opened.ok()) {
          std::fprintf(stderr, "serve-sim: %s\n",
                       opened.status().ToString().c_str());
          return 1;
        }
        crash_recorder = std::move(*opened);
        crash_recorder->SetRunInfo(seed, policy_name, recipe);
        phase1_config.recorder = crash_recorder.get();
      }
      service::CrowdService svc(world.dataset.schema,
                                world.dataset.num_rows(),
                                MakePolicy(policy_name, seed),
                                phase1_config);
      if (scenario_mode) {
        sim::ScenarioOptions phase1 = scenario_opt;
        phase1.stop_after_answers = crash_after;
        sim::ScenarioRunner runner(scenario, world.crowd.get(), &svc,
                                   phase1);
        sim::ScenarioReport r = runner.Run();
        std::printf("crashed after %lld accepted answers, %lld retracted "
                    "(%s)\n",
                    static_cast<long long>(r.answers_accepted),
                    static_cast<long long>(r.answers_retracted),
                    r.stopped_early ? "mid-flight" : "drained first");
      } else {
        sim::LoadGeneratorOptions phase1 = load;
        phase1.stop_after_answers = crash_after;
        sim::LoadGenerator generator(world.crowd.get(), &svc, phase1);
        sim::LoadReport r = generator.Run();
        std::printf("crashed after %lld accepted answers (%s)\n",
                    static_cast<long long>(r.answers),
                    r.stopped_early ? "mid-flight" : "drained first");
      }
    }
    if (!record_path.empty()) {
      std::printf("crash-phase event log written to %s.crash\n",
                  record_path.c_str());
    }
    std::printf("-- phase 2: restarting from %s --\n", checkpoint_dir.c_str());
  }

  // Declared before the service so it outlives it: the engine may still
  // record seal events while the service drains in its destructor.
  std::unique_ptr<EventRecorder> recorder;
  if (!record_path.empty()) {
    auto opened = EventRecorder::Open(record_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "serve-sim: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    recorder = std::move(*opened);
    recorder->SetRunInfo(seed, policy_name, recipe);
    config.recorder = recorder.get();
  }

  auto restart_begin = std::chrono::steady_clock::now();
  // svc stays non-null only in the single-shard topology (the scenario
  // runner needs the concrete service); everything else drives `backend`.
  std::unique_ptr<service::ServingBackend> backend;
  service::CrowdService* svc = nullptr;
  if (num_shards > 1) {
    if (num_shards > world.dataset.num_rows()) {
      std::fprintf(stderr,
                   "serve-sim: --shards=%d exceeds the table's %d rows\n",
                   num_shards, world.dataset.num_rows());
      return 2;
    }
    service::ShardRouterConfig router_config;
    router_config.num_shards = num_shards;
    router_config.base = config;
    router_config.policy_factory = [policy_name, seed](int shard) {
      return MakePolicy(policy_name, seed + static_cast<uint64_t>(shard));
    };
    backend = std::make_unique<service::ShardRouter>(
        world.dataset.schema, world.dataset.num_rows(),
        std::move(router_config));
  } else {
    auto single = std::make_unique<service::CrowdService>(
        world.dataset.schema, world.dataset.num_rows(), std::move(policy),
        config);
    svc = single.get();
    backend = std::move(single);
  }
  std::chrono::duration<double> recovery =
      std::chrono::steady_clock::now() - restart_begin;
  if (!checkpoint_dir.empty()) {
    Status st = backend->checkpoint_status();
    if (!st.ok()) {
      std::fprintf(stderr, "serve-sim: checkpoint restore failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("checkpoint %s: restored %lld answers in %.3fs\n",
                checkpoint_dir.c_str(),
                static_cast<long long>(backend->Stats().answers_restored),
                recovery.count());
  }

  // Live Prometheus-text metrics exposition. Declared after the service:
  // destroyed first on every exit path, so the final at-exit export always
  // runs against a live registry.
  std::unique_ptr<MetricsExporter> exporter;
  if (!metrics_out.empty()) {
    exporter = std::make_unique<MetricsExporter>(&backend->metrics(),
                                                 metrics_out, metrics_interval);
  }

  // Shared run epilogue: publish the machine-readable report, close the
  // event log, and write the final metrics exposition.
  auto epilogue = [&](const std::string& report_json) -> int {
    if (!report_json_path.empty()) {
      Status st = sim::WriteReportJson(report_json_path, report_json);
      if (!st.ok()) {
        std::fprintf(stderr, "serve-sim: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("report written to %s\n", report_json_path.c_str());
    }
    if (recorder != nullptr) {
      Status st = recorder->Close();
      if (!st.ok()) {
        std::fprintf(stderr, "serve-sim: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("event log written to %s\n", record_path.c_str());
    }
    if (exporter != nullptr) {
      Status st = exporter->Stop();
      if (!st.ok()) {
        std::fprintf(stderr, "serve-sim: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("metrics written to %s\n", metrics_out.c_str());
    }
    return 0;
  };

  std::printf("serving %s (%d rows x %d cols) with %s policy + %s engine, "
              "target %d answers/task\n",
              world_name.c_str(), world.dataset.num_rows(),
              world.dataset.num_cols(), policy_name.c_str(),
              config.inference.method.c_str(),
              config.target_answers_per_task);

  if (scenario_mode) {
    std::printf("scenario %s: %s\n", scenario.name.c_str(),
                scenario.description.c_str());
    sim::ScenarioRunner runner(scenario, world.crowd.get(), svc,
                               scenario_opt);
    sim::ScenarioReport report = runner.Run();

    std::printf("\n-- scenario report --\n");
    std::printf("arrivals=%lld accepted=%lld retracted=%lld "
                "retraction_misses=%lld rejected=%lld\n",
                static_cast<long long>(report.arrivals),
                static_cast<long long>(report.answers_accepted),
                static_cast<long long>(report.answers_retracted),
                static_cast<long long>(report.retraction_misses),
                static_cast<long long>(report.rejected));

    std::printf("\n-- quality vs budget (TCrowd vs MajorityVoting) --\n");
    Report curve({"budget", "tcrowd_err", "tcrowd_mnad", "mv_err",
                  "mv_mnad"});
    for (const sim::QualityPoint& p : report.curve) {
      curve.AddRow({StrFormat("%lld", static_cast<long long>(p.budget)),
                    StrFormat("%.4f", p.tcrowd_error_rate),
                    StrFormat("%.4f", p.tcrowd_mnad),
                    StrFormat("%.4f", p.mv_error_rate),
                    StrFormat("%.4f", p.mv_mnad)});
    }
    curve.Print();

    if (!curve_csv.empty()) {
      std::string csv = sim::FormatQualityCurveCsv(report);
      std::FILE* f = std::fopen(curve_csv.c_str(), "w");
      if (f == nullptr || std::fwrite(csv.data(), 1, csv.size(), f) !=
                              csv.size()) {
        std::fprintf(stderr, "serve-sim: cannot write %s\n",
                     curve_csv.c_str());
        if (f != nullptr) std::fclose(f);
        return 1;
      }
      std::fclose(f);
      std::printf("curve written to %s\n", curve_csv.c_str());
    }

    const service::ServiceStats& stats = report.final_stats;
    std::printf("\n-- task states --\n");
    std::printf("open=%d assigned=%d answered=%d finalized=%d  "
                "budget spent=%lld remaining=%lld  refreshes=%d "
                "retracted=%lld\n",
                stats.tasks_open, stats.tasks_assigned, stats.tasks_answered,
                stats.tasks_finalized,
                static_cast<long long>(stats.budget_spent),
                static_cast<long long>(stats.budget_remaining),
                stats.engine_refreshes,
                static_cast<long long>(stats.answers_retracted));

    InferenceResult final_result = backend->Finalize();
    double err = NAN, mnad = NAN;
    if (TruthIsKnown(world.dataset.truth)) {
      err = Metrics::ErrorRate(world.dataset.truth,
                               final_result.estimated_truth);
      mnad = Metrics::Mnad(world.dataset.truth, final_result.estimated_truth);
      std::printf("\n-- final inference (%s) --\n",
                  config.inference.method.c_str());
      std::printf("error rate = %.4f   MNAD = %.4f\n", err, mnad);
    }
    return epilogue(sim::FormatScenarioReportJson(report, err, mnad));
  }

  sim::LoadGenerator generator(world.crowd.get(), backend.get(), load);
  sim::LoadReport report = generator.Run();

  std::printf("\n-- load report --\n");
  std::printf("arrivals=%lld assignments=%lld answers=%lld rejected=%lld "
              "abandoned=%lld batches=%lld\n",
              static_cast<long long>(report.arrivals),
              static_cast<long long>(report.assignments),
              static_cast<long long>(report.answers),
              static_cast<long long>(report.rejected),
              static_cast<long long>(report.abandoned_sessions),
              static_cast<long long>(report.batches));
  std::printf("wall=%.3fs throughput=%.0f answers/s\n", report.wall_seconds,
              report.answers_per_second);

  const service::ServiceStats& stats = report.final_stats;
  std::printf("\n-- task states --\n");
  std::printf("open=%d assigned=%d answered=%d finalized=%d  "
              "budget spent=%lld remaining=%lld  refreshes=%d\n",
              stats.tasks_open, stats.tasks_assigned, stats.tasks_answered,
              stats.tasks_finalized,
              static_cast<long long>(stats.budget_spent),
              static_cast<long long>(stats.budget_remaining),
              stats.engine_refreshes);

  std::printf("\n-- service metrics --\n%s",
              backend->metrics().ToString().c_str());

  InferenceResult final_result = backend->Finalize();
  double err = NAN, mnad = NAN;
  if (TruthIsKnown(world.dataset.truth)) {
    err = Metrics::ErrorRate(world.dataset.truth,
                             final_result.estimated_truth);
    mnad = Metrics::Mnad(world.dataset.truth, final_result.estimated_truth);
    std::printf("\n-- final inference (%s) --\n",
                config.inference.method.c_str());
    std::printf("error rate = %.4f   MNAD = %.4f\n", err, mnad);
  }
  return epilogue(sim::FormatLoadReportJson(report, err, mnad));
}

int CmdReplay(const FlagParser& flags) {
  if (!ApplyTraceFlag(flags)) return 2;
  std::string path = flags.positional().empty() ? flags.GetString("log")
                                                : flags.positional()[0];
  const bool threads_given = flags.Has("threads");
  const int threads = static_cast<int>(flags.GetInt("threads", 2));
  if (!FlagsValid(flags, "replay")) return 2;
  if (path.empty()) {
    std::fprintf(stderr, "replay: usage: tcrowd replay <event-log>\n");
    return 2;
  }
  EventLogReplay log;
  Status st = ReadEventLogFile(path, &log);
  if (!st.ok()) {
    std::fprintf(stderr, "replay: %s\n", st.ToString().c_str());
    return 1;
  }
  const RecordedEvent* run = service::FindRunStart(log);
  if (run == nullptr) {
    std::fprintf(stderr,
                 "replay: %s has no run-start header (empty or not an "
                 "event log)\n",
                 path.c_str());
    return 1;
  }

  // The kRunStart header's world recipe ("key=value key=value ...") is the
  // blueprint: rebuild the world and service config it names, then re-drive
  // the service from the log.
  std::map<std::string, std::string> recipe;
  for (const std::string& token : Split(run->world, ' ')) {
    size_t eq = token.find('=');
    if (eq != std::string::npos && eq > 0) {
      recipe[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  auto recipe_get = [&recipe](const char* key, const std::string& fallback) {
    auto it = recipe.find(key);
    return it == recipe.end() ? fallback : it->second;
  };
  const uint64_t seed = run->seed;

  bool bad_dataset = false;
  sim::SynthesizedWorld world = [&]() -> sim::SynthesizedWorld {
    if (recipe.count("dataset") != 0) {
      const std::string which = recipe["dataset"];
      sim::PaperDataset pd = sim::PaperDataset::kRestaurant;
      if (which == "celebrity") {
        pd = sim::PaperDataset::kCelebrity;
      } else if (which == "restaurant") {
        pd = sim::PaperDataset::kRestaurant;
      } else if (which == "emotion") {
        pd = sim::PaperDataset::kEmotion;
      } else {
        bad_dataset = true;
      }
      sim::SynthesizerOptions opt;
      opt.seed = seed;
      opt.answers_per_task = 0;
      return sim::SynthesizeDataset(pd, opt);
    }
    sim::TableGeneratorOptions topt;
    topt.num_rows = std::atoi(recipe_get("rows", "60").c_str());
    topt.num_cols = std::atoi(recipe_get("cols", "5").c_str());
    topt.categorical_ratio = std::atof(recipe_get("ratio", "0.5").c_str());
    sim::CrowdOptions copt;
    copt.num_workers = std::atoi(recipe_get("workers", "40").c_str());
    Rng rng(seed);
    sim::GeneratedTable table = sim::GenerateTable(topt, &rng);
    return sim::SynthesizeFromTable(std::move(table), copt, 0, seed + 1,
                                    "custom");
  }();
  if (bad_dataset) {
    std::fprintf(stderr, "replay: unknown dataset in recorded recipe: %s\n",
                 run->world.c_str());
    return 1;
  }

  service::ServiceConfig config;
  config.target_answers_per_task =
      std::atoi(recipe_get("target", "4").c_str());
  // The EM runs at the recorded shard count: sharded passes agree only to
  // reduction order, so above EmExecutor::kMinItemsForSharding answers the
  // Finalize digest depends on it. --threads overrides only the service
  // pool — replay determinism must not depend on it (leases come from the
  // log, not the router), and the determinism tests drive exactly this
  // override.
  const int recorded_threads = std::atoi(recipe_get("threads", "2").c_str());
  config.num_threads = threads_given ? threads : recorded_threads;
  config.inference.method = recipe_get("engine", "tcrowd");
  config.inference.staleness_threshold =
      std::atoi(recipe_get("staleness", "64").c_str());
  config.inference.num_shards = recorded_threads;
  config.router.seed = seed + 2;

  const std::string policy_name =
      run->policy.empty() ? "looping" : run->policy;
  auto policy = MakePolicy(policy_name, seed);
  if (policy == nullptr) {
    std::fprintf(stderr, "replay: unknown recorded policy %s\n",
                 policy_name.c_str());
    return 1;
  }

  std::printf("replaying %s: %zu events (%s), world %s, policy %s, "
              "seed %llu\n",
              path.c_str(), log.events.size(),
              log.truncated ? "TORN TAIL dropped" : "clean",
              run->world.c_str(), policy_name.c_str(),
              static_cast<unsigned long long>(seed));

  service::CrowdService svc(world.dataset.schema, world.dataset.num_rows(),
                            std::move(policy), config);
  service::ReplayReport report;
  st = service::ReplayEvents(log, &svc, &report);
  if (!st.ok()) {
    std::fprintf(stderr, "replay: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("applied %llu events: %llu sessions, %llu leases, "
              "%llu/%llu answers accepted, %llu retractions, "
              "%llu restored bootstrapped\n",
              static_cast<unsigned long long>(report.events_applied),
              static_cast<unsigned long long>(report.sessions_replayed),
              static_cast<unsigned long long>(report.leases_replayed),
              static_cast<unsigned long long>(report.answers_accepted),
              static_cast<unsigned long long>(report.answers_offered),
              static_cast<unsigned long long>(report.retractions_replayed),
              static_cast<unsigned long long>(report.restored_bootstrapped));
  if (report.status_divergences > 0) {
    std::printf("status divergences: %llu (first: %s)\n",
                static_cast<unsigned long long>(report.status_divergences),
                report.first_divergence.c_str());
  }
  if (report.reached_finalize) {
    std::printf("finalize: recorded digest %016llx (%llu answers), "
                "replayed %016llx (%llu answers)\n",
                static_cast<unsigned long long>(report.recorded_digest),
                static_cast<unsigned long long>(report.recorded_answer_count),
                static_cast<unsigned long long>(report.replayed_digest),
                static_cast<unsigned long long>(report.replayed_answer_count));
  } else {
    std::printf("crash capture: no finalize event — replayed through the "
                "crash point\n");
  }
  std::printf("replay verdict: %s\n",
              report.ok() ? "FAITHFUL (bit-identical)" : "DIVERGED");
  return report.ok() ? 0 : 1;
}

int CmdClient(const FlagParser& flags) {
  std::string connect = flags.GetString("connect");
  if (connect.empty()) {
    std::fprintf(stderr, "client: --connect=HOST:PORT is required\n");
    return 2;
  }
  std::string host;
  uint16_t port = 0;
  Status st = net::ParseHostPort(connect, &host, &port);
  if (!st.ok()) {
    std::fprintf(stderr, "client: %s\n", st.ToString().c_str());
    return 2;
  }
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  bool drive = flags.GetBool("drive", false);
  bool finalize = flags.GetBool("finalize", false);
  bool stats_wanted = flags.GetBool("stats", false);
  bool metrics = flags.GetBool("metrics", false);
  if (!drive && !finalize && !metrics) stats_wanted = true;

  // The world and load flags apply to --drive only.
  tools::ServingOptions sopt;
  sim::LoadGeneratorOptions load;
  if (drive) {
    st = tools::ParseServingOptions(flags, &sopt);
    if (!st.ok()) {
      std::fprintf(stderr, "client: %s\n", st.message().c_str());
      return 2;
    }
    load.connect = connect;
    load.num_connections =
        static_cast<int>(flags.GetInt("connections", 4));
    load.max_arrivals = static_cast<int>(flags.GetInt("arrivals", 1000000));
    load.tasks_per_request =
        static_cast<int>(flags.GetInt("tasks-per-worker", 1));
    load.batch_size = static_cast<int>(flags.GetInt("batch-size", 1));
    load.abandon_prob = flags.GetDouble("abandon", 0.0);
    load.seed = seed + 3;  // serve-sim's derivation: same stream, same world
  }
  if (!FlagsValid(flags, "client")) return 2;

  if (drive) {
    // Rebuild the server's world locally (same flags + seed derivation as
    // tcrowd_serverd, via the shared serving options); the Hello
    // schema-fingerprint handshake catches a mismatch before any answer is
    // submitted.
    sim::SynthesizedWorld world = tools::BuildServingWorld(sopt);
    sim::LoadGenerator generator(world.crowd.get(), nullptr, load);
    sim::LoadReport report = generator.Run();
    if (!report.socket_status.ok()) {
      std::fprintf(stderr, "client: drive failed: %s\n",
                   report.socket_status.ToString().c_str());
      return 1;
    }
    std::printf("drove %lld arrivals over %d connections: "
                "assignments=%lld answers=%lld rejected=%lld "
                "batches=%lld retries=%lld\n",
                static_cast<long long>(report.arrivals),
                load.num_connections,
                static_cast<long long>(report.assignments),
                static_cast<long long>(report.answers),
                static_cast<long long>(report.rejected),
                static_cast<long long>(report.batches),
                static_cast<long long>(report.retries));
    std::printf("wall=%.3fs throughput=%.0f answers/s\n",
                report.wall_seconds, report.answers_per_second);
  }

  if (finalize) {
    net::Client client;
    st = client.Connect(host, port);
    if (!st.ok()) {
      std::fprintf(stderr, "client: %s\n", st.ToString().c_str());
      return 1;
    }
    net::FinalizeResponse resp;
    st = client.Finalize(net::FinalizeRequest{}, &resp);
    if (!st.ok()) {
      std::fprintf(stderr, "client: finalize failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("finalize: digest %016llx over %llu answers (%s)\n",
                static_cast<unsigned long long>(resp.digest),
                static_cast<unsigned long long>(resp.answer_count),
                net::WireStatusName(resp.status));
  }

  if (stats_wanted) {
    net::Client client;
    st = client.Connect(host, port);
    if (!st.ok()) {
      std::fprintf(stderr, "client: %s\n", st.ToString().c_str());
      return 1;
    }
    net::StatsResponse s;
    st = client.Stats(net::StatsRequest{}, &s);
    if (!st.ok()) {
      std::fprintf(stderr, "client: stats failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("tasks open=%u assigned=%u answered=%u finalized=%u "
                "drained=%s\n",
                s.tasks_open, s.tasks_assigned, s.tasks_answered,
                s.tasks_finalized, s.drained != 0 ? "yes" : "no");
    std::printf("sessions started=%llu active=%llu expired=%llu\n",
                static_cast<unsigned long long>(s.sessions_started),
                static_cast<unsigned long long>(s.sessions_active),
                static_cast<unsigned long long>(s.sessions_expired));
    std::printf("answers accepted=%llu rejected=%llu retracted=%llu  "
                "budget spent=%lld remaining=%lld  refreshes=%u\n",
                static_cast<unsigned long long>(s.answers_accepted),
                static_cast<unsigned long long>(s.answers_rejected),
                static_cast<unsigned long long>(s.answers_retracted),
                static_cast<long long>(s.budget_spent),
                static_cast<long long>(s.budget_remaining),
                s.engine_refreshes);
    std::printf("net connections=%llu open=%llu frames=%llu "
                "retry_later=%llu write_queue_peak=%llu http=%llu "
                "frame_errors=%llu inflight=%llu/%llu\n",
                static_cast<unsigned long long>(s.connections_accepted),
                static_cast<unsigned long long>(s.connections_open),
                static_cast<unsigned long long>(s.frames_processed),
                static_cast<unsigned long long>(s.retry_later_total),
                static_cast<unsigned long long>(s.write_queue_peak),
                static_cast<unsigned long long>(s.http_requests),
                static_cast<unsigned long long>(s.frame_errors),
                static_cast<unsigned long long>(s.inflight_answers),
                static_cast<unsigned long long>(s.inflight_budget));
  }

  if (metrics) {
    // The HTTP variant rides the same listener: sniffed by first bytes.
    net::OwnedFd fd;
    st = net::ConnectTcp(host, port, &fd);
    if (!st.ok()) {
      std::fprintf(stderr, "client: %s\n", st.ToString().c_str());
      return 1;
    }
    const std::string request =
        "GET /metrics HTTP/1.1\r\nHost: tcrowd\r\nConnection: close\r\n\r\n";
    st = net::WriteAll(fd.get(), request.data(), request.size());
    if (!st.ok()) {
      std::fprintf(stderr, "client: %s\n", st.ToString().c_str());
      return 1;
    }
    std::string response;
    char buf[4096];
    for (;;) {
      size_t n = 0;
      st = net::ReadSome(fd.get(), buf, sizeof(buf), &n);
      if (!st.ok()) {
        std::fprintf(stderr, "client: %s\n", st.ToString().c_str());
        return 1;
      }
      if (n == 0) break;
      response.append(buf, n);
    }
    size_t body = response.find("\r\n\r\n");
    if (body == std::string::npos ||
        response.rfind("HTTP/1.1 200", 0) != 0) {
      std::fprintf(stderr, "client: metrics scrape failed:\n%s\n",
                   response.c_str());
      return 1;
    }
    std::printf("%s", response.substr(body + 4).c_str());
  }
  return 0;
}

int CmdInspect(const FlagParser& flags) {
  std::string dir = flags.positional().empty() ? flags.GetString("dir")
                                               : flags.positional()[0];
  if (!FlagsValid(flags, "inspect")) return 2;
  if (dir.empty()) {
    std::fprintf(stderr, "inspect: usage: tcrowd inspect <snapshot-dir>\n");
    return 2;
  }
  service::SnapshotInspection inspection;
  Status st = service::InspectSnapshot(dir, &inspection);
  if (!st.ok()) {
    std::fprintf(stderr, "inspect: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("%s", service::FormatInspection(inspection).c_str());
  return inspection.healthy() ? 0 : 1;
}

int Main(int argc, const char* const* argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  FlagParser flags;
  Status st = flags.Parse(argc - 2, argv + 2);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  // Crash diagnostics are always armed: a fatal signal dumps every
  // thread's trace ring to stderr (and $TCROWD_CRASH_DUMP_DIR when set)
  // before the process dies.
  trace::InstallCrashHandler();
  if (command == "simulate") return CmdSimulate(flags);
  if (command == "infer") return CmdInfer(flags);
  if (command == "eval") return CmdEval(flags);
  if (command == "assign") return CmdAssign(flags);
  if (command == "serve-sim") return CmdServeSim(flags);
  if (command == "replay") return CmdReplay(flags);
  if (command == "inspect") return CmdInspect(flags);
  if (command == "client") return CmdClient(flags);
  return Usage();
}

}  // namespace
}  // namespace tcrowd

int main(int argc, char** argv) { return tcrowd::Main(argc, argv); }
