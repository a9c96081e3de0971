// tcrowd_serverd — the socket front-end of the T-Crowd service
// (docs/PROTOCOL.md), in one of three roles (docs/SHARDING.md):
//
//   default             one CrowdService (or an in-process ShardRouter with
//                       --shards=N) over a synthesized world, serving TCNP
//                       on one listening socket.
//   --shard-index=I     one SHARD DAEMON: serves sub-table I of the world
//     --shard-count=N   partitioned N ways, exactly the sub-service an
//                       in-process router would have built (same config
//                       derivation, same checkpoint layout), so a router
//                       process can adopt it transparently.
//   --router            the ROUTER: a ShardRouter whose shards live in
//     --connect-shard=  other processes, one RemoteShardBackend per
//     HOST:PORT,...     HOST:PORT, speaking TCNP to the shard daemons.
//                       Crashed daemons fail fast per shard; a restarted
//                       daemon is re-adopted on the next request that
//                       touches it (auto-restore).
//
// All roles share one event loop: single-threaded epoll (Linux only)
// multiplexing any number of client connections, with admission control
// tied to EM refresh staleness and bounded per-connection write queues. The
// same listener answers `GET /metrics` with Prometheus text.
//
// Drive it with `tcrowd client --connect=HOST:PORT ...` or
// `tcrowd serve-sim`-style load via the load generator's socket mode.
// SIGTERM/SIGINT stop the loop cleanly: connections close, the event log
// (--record) is sealed, and the process exits 0.
//
// Example (two shard daemons + router):
//   tcrowd_serverd --shard-index=0 --shard-count=2 --rows=20 --cols=4
//     --workers=10 --seed=7 --listen=127.0.0.1:7701
//   tcrowd_serverd --shard-index=1 --shard-count=2 --rows=20 --cols=4
//     --workers=10 --seed=7 --listen=127.0.0.1:7702
//   tcrowd_serverd --router --connect-shard=127.0.0.1:7701,127.0.0.1:7702
//     --rows=20 --cols=4 --workers=10 --seed=7 --listen=127.0.0.1:7711

#include <signal.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/string_util.h"
#include "inference/segment_codec.h"
#include "net/server.h"
#include "net/socket_util.h"
#include "platform/event_log.h"
#include "platform/trace.h"
#include "serving_options.h"
#include "service/crowd_service.h"
#include "service/shard_backend.h"
#include "service/shard_router.h"

namespace tcrowd {
namespace {

net::Server* g_server = nullptr;

void HandleStopSignal(int) {
  // Only the async-signal-safe self-pipe write happens in here.
  if (g_server != nullptr) g_server->Stop();
}

int Usage() {
  std::fprintf(stderr, R"(usage: tcrowd_serverd [flags]

  --listen=HOST:PORT  bind address (default 127.0.0.1:0 = kernel-assigned;
                      the bound port is printed on stdout)
  --dataset=celebrity|restaurant|emotion
                      serve a paper dataset stand-in world, or:
  --rows=N --cols=M --ratio=R --workers=W   a custom synthesized world
  --policy=NAME --engine=METHOD --target=K --staleness=N --threads=T
  --shards=N          partition the table across N engine shards behind an
                      in-process ShardRouter (docs/SHARDING.md)
  --shard-index=I --shard-count=N
                      serve ONE shard (sub-table I of N) as its own daemon;
                      pair with a --router process
  --router --connect-shard=HOST:PORT,HOST:PORT,...
                      serve the router over remote shard daemons (one
                      address per shard, in shard order)
  --seed=S            world + service seeds (same derivation as serve-sim)
  --record=FILE       deterministic event log (replayable via tcrowd replay;
                      single-shard only)
  --checkpoint-dir=DIR durable answer log (shard daemons append /shard-NNN)
  --inflight-budget=N admission-control budget (0 = 8 * staleness, the
                      net::kInflightBudgetFactor; -1 = never shed; router
                      mode defaults to -1, the shard daemons meter their
                      own admission)
  --trace=debug|info|warn|off
)");
  return 2;
}

int Main(int argc, const char* const* argv) {
  FlagParser flags;
  Status st = flags.Parse(argc - 1, argv + 1);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return Usage();
  }
  if (flags.GetBool("help", false)) return Usage();
  std::string trace_flag = flags.GetString("trace");
  if (!trace_flag.empty()) {
    trace::Level level;
    bool off = false;
    if (!trace::ParseLevel(trace_flag, &level, &off)) return Usage();
    if (off) {
      trace::Disable();
    } else {
      trace::SetMinLevel(level);
    }
  }
  trace::InstallCrashHandler();

  tools::ServingOptions opt;
  st = tools::ParseServingOptions(flags, &opt);
  if (!st.ok()) {
    std::fprintf(stderr, "tcrowd_serverd: %s\n", st.message().c_str());
    return 2;
  }
  uint64_t seed = opt.seed;
  const std::string& policy_name = opt.policy;

  // World: identical construction (and seed derivation) to serve-sim, so a
  // client — or a router and its shard daemons — rebuilding the world from
  // the same flags gets the same schema fingerprint and generative model.
  sim::SynthesizedWorld world = tools::BuildServingWorld(opt);
  service::ServiceConfig config = tools::MakeServingConfig(opt);

  // Role selection.
  bool router_mode = flags.GetBool("router", false);
  bool shard_mode = flags.Has("shard-index") || flags.Has("shard-count");
  int num_shards = static_cast<int>(flags.GetInt("shards", 1));
  if (num_shards < 1) {
    std::fprintf(stderr, "tcrowd_serverd: --shards must be >= 1\n");
    return 2;
  }
  if ((router_mode && shard_mode) ||
      ((router_mode || shard_mode) && num_shards > 1)) {
    std::fprintf(stderr,
                 "tcrowd_serverd: --router, --shard-index, and --shards are "
                 "mutually exclusive roles\n");
    return 2;
  }

  std::vector<std::pair<std::string, uint16_t>> shard_addrs;
  if (router_mode) {
    for (const std::string& addr :
         Split(flags.GetString("connect-shard"), ',')) {
      std::string host;
      uint16_t port = 0;
      st = net::ParseHostPort(addr, &host, &port);
      if (!st.ok()) {
        std::fprintf(stderr, "tcrowd_serverd: --connect-shard: %s\n",
                     st.ToString().c_str());
        return 2;
      }
      shard_addrs.push_back({host.empty() ? "127.0.0.1" : host, port});
    }
    if (shard_addrs.empty()) {
      std::fprintf(stderr,
                   "tcrowd_serverd: --router requires "
                   "--connect-shard=HOST:PORT[,HOST:PORT...]\n");
      return 2;
    }
    num_shards = static_cast<int>(shard_addrs.size());
  }

  int shard_index = static_cast<int>(flags.GetInt("shard-index", 0));
  int shard_count = static_cast<int>(flags.GetInt("shard-count", 1));
  if (shard_mode &&
      (shard_count < 1 || shard_index < 0 || shard_index >= shard_count)) {
    std::fprintf(stderr,
                 "tcrowd_serverd: need 0 <= --shard-index < --shard-count\n");
    return 2;
  }

  // World recipe in the event log header — same format as serve-sim, so
  // `tcrowd replay` rebuilds this world without knowing who recorded it.
  std::string recipe = tools::ServingRecipe(opt);

  std::unique_ptr<EventRecorder> recorder;
  const std::string record_path = flags.GetString("record");
  if (!record_path.empty()) {
    if (num_shards > 1 || shard_mode) {
      // The deterministic event order lives above the shards; recording a
      // sharded run would interleave N engines' seals meaninglessly.
      std::fprintf(stderr,
                   "tcrowd_serverd: --record is single-shard only "
                   "(drop --shards/--router/--shard-index)\n");
      return 2;
    }
    auto opened = EventRecorder::Open(record_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "tcrowd_serverd: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    recorder = std::move(*opened);
    recorder->SetRunInfo(seed, policy_name, recipe);
    config.recorder = recorder.get();
  }

  int partitions = shard_mode ? shard_count : num_shards;
  if (partitions > world.dataset.num_rows()) {
    std::fprintf(stderr,
                 "tcrowd_serverd: %d shards exceed the table's %d rows\n",
                 partitions, world.dataset.num_rows());
    return 2;
  }

  std::unique_ptr<service::ServingBackend> backend;
  if (shard_mode && shard_count > 1) {
    // One shard daemon: the exact sub-service an in-process router would
    // have built — same config derivation, same /shard-NNN checkpoint
    // layout — serving its sub-table in LOCAL row space.
    std::vector<service::ShardRange> ranges =
        service::PartitionRows(world.dataset.num_rows(), shard_count);
    const service::ShardRange& range = ranges[shard_index];
    backend = std::make_unique<service::CrowdService>(
        world.dataset.schema, range.num_rows(),
        tools::MakeServingPolicy(policy_name,
                                 seed + static_cast<uint64_t>(shard_index)),
        service::DeriveShardServiceConfig(config, world.dataset.schema,
                                          world.dataset.num_rows(), range,
                                          shard_count, shard_index));
  } else if (router_mode) {
    std::vector<service::ShardRange> ranges =
        service::PartitionRows(world.dataset.num_rows(), num_shards);
    service::ShardRouterConfig router_config;
    router_config.num_shards = num_shards;
    router_config.base = config;
    // A request touching a downed shard first re-runs this factory —
    // reconnect + ledger agreement — so a restarted daemon rejoins without
    // restarting the router.
    router_config.auto_restore = true;
    router_config.backend_factory =
        [&world, shard_addrs, ranges](int shard) {
          service::RemoteShardBackend::Options ropt;
          ropt.host = shard_addrs[static_cast<size_t>(shard)].first;
          ropt.port = shard_addrs[static_cast<size_t>(shard)].second;
          ropt.expected_fingerprint = SchemaFingerprint(
              world.dataset.schema, ranges[static_cast<size_t>(shard)]
                                        .num_rows());
          return std::make_unique<service::RemoteShardBackend>(ropt);
        };
    backend = std::make_unique<service::ShardRouter>(
        world.dataset.schema, world.dataset.num_rows(),
        std::move(router_config));
  } else if (num_shards > 1) {
    service::ShardRouterConfig router_config;
    router_config.num_shards = num_shards;
    router_config.base = config;
    router_config.policy_factory = [policy_name, seed](int shard) {
      return tools::MakeServingPolicy(policy_name,
                                      seed + static_cast<uint64_t>(shard));
    };
    backend = std::make_unique<service::ShardRouter>(
        world.dataset.schema, world.dataset.num_rows(),
        std::move(router_config));
  } else {
    backend = std::make_unique<service::CrowdService>(
        world.dataset.schema, world.dataset.num_rows(),
        tools::MakeServingPolicy(policy_name, seed), config);
  }
  if (!config.inference.checkpoint.directory.empty() || router_mode) {
    Status ck = backend->checkpoint_status();
    if (!ck.ok()) {
      std::fprintf(stderr, "tcrowd_serverd: %s failed: %s\n",
                   router_mode ? "shard attach" : "checkpoint restore",
                   ck.ToString().c_str());
      return 1;
    }
  }

  net::ServerOptions server_opt;
  // Router role: the shard daemons meter their own admission; shedding at
  // the router too would double-count the same in-flight answers.
  server_opt.inflight_budget =
      flags.GetInt("inflight-budget", router_mode ? -1 : 0);

  std::string host;
  uint16_t port = 0;
  st = net::ParseHostPort(flags.GetString("listen", "127.0.0.1:0"), &host,
                          &port);
  if (!st.ok()) {
    std::fprintf(stderr, "tcrowd_serverd: %s\n", st.ToString().c_str());
    return 2;
  }

  net::Server server(backend.get(), server_opt);
  st = server.Listen(host, port);
  if (!st.ok()) {
    std::fprintf(stderr, "tcrowd_serverd: %s\n", st.ToString().c_str());
    return 1;
  }

  g_server = &server;
  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_handler = HandleStopSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  // Scripts scrape this line for the kernel-assigned port — keep the format
  // stable and flush before blocking in the event loop.
  std::printf("tcrowd_serverd listening on %s:%u (budget %lld)\n",
              host.empty() ? "127.0.0.1" : host.c_str(), server.port(),
              static_cast<long long>(server.inflight_budget()));
  if (shard_mode && shard_count > 1) {
    std::printf("world %s: shard %d/%d (%d of %d rows), policy %s, "
                "engine %s\n",
                world.dataset.name.c_str(), shard_index, shard_count,
                backend->num_rows(), world.dataset.num_rows(),
                policy_name.c_str(), config.inference.method.c_str());
  } else if (router_mode) {
    std::printf("world %s: %d rows x %d cols, router over %d shard "
                "daemons, engine %s\n",
                world.dataset.name.c_str(), world.dataset.num_rows(),
                world.dataset.num_cols(), num_shards,
                config.inference.method.c_str());
  } else {
    std::printf("world %s: %d rows x %d cols, policy %s, engine %s, "
                "shards %d\n",
                world.dataset.name.c_str(), world.dataset.num_rows(),
                world.dataset.num_cols(), policy_name.c_str(),
                config.inference.method.c_str(), num_shards);
  }
  std::fflush(stdout);

  st = server.Run();
  g_server = nullptr;
  if (!st.ok()) {
    std::fprintf(stderr, "tcrowd_serverd: event loop failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }

  net::NetStats stats = server.net_stats();
  std::printf("shutdown: %llu connections served, %llu frames, "
              "%llu RETRY_LATER, %llu HTTP requests, %llu frame errors\n",
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.frames_processed),
              static_cast<unsigned long long>(stats.retry_later_total),
              static_cast<unsigned long long>(stats.http_requests),
              static_cast<unsigned long long>(stats.frame_errors));
  if (recorder != nullptr) {
    st = recorder->Close();
    if (!st.ok()) {
      std::fprintf(stderr, "tcrowd_serverd: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("event log written to %s\n", record_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace tcrowd

int main(int argc, char** argv) { return tcrowd::Main(argc, argv); }
