// Shared flag vocabulary of the serving entry points.
//
// `tcrowd serve-sim`, `tcrowd_serverd` (shard daemon and router modes
// included), and any future serving tool must all derive the SAME world and
// service configuration from the SAME flags — the schema fingerprint, the
// generative model, and every seed derivation (world = seed, crowd =
// seed + 1, router = seed + 2, load = seed + 3, per-shard policy =
// seed + shard) have to line up or two processes built from identical flags
// would disagree about the table they serve. This module is that single
// source of truth; the entry points keep only their mode-specific flags.

#ifndef TCROWD_TOOLS_SERVING_OPTIONS_H_
#define TCROWD_TOOLS_SERVING_OPTIONS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "assignment/policy.h"
#include "common/flags.h"
#include "common/status.h"
#include "service/crowd_service.h"
#include "simulation/dataset_synthesizer.h"

namespace tcrowd::tools {

/// The parsed shared flags: world shape + service knobs. Field defaults are
/// the flag defaults (identical across every entry point).
struct ServingOptions {
  uint64_t seed = 42;

  // World: a paper dataset stand-in (--dataset) or a custom synthesized
  // table (--rows/--cols/--ratio/--workers).
  bool use_dataset = false;
  sim::PaperDataset dataset = sim::PaperDataset::kRestaurant;
  std::string dataset_name;
  int rows = 60;
  int cols = 5;
  double ratio = 0.5;
  int workers = 40;

  // Service.
  std::string policy = "structure";
  std::string engine = "tcrowd";
  int target = 4;
  /// --threads: InferenceArgs::num_shards, each engine's EM shard count (no
  /// EM threads at 1) and the serving stack's only thread setting.
  int threads = 2;
  int staleness = 64;
  std::string checkpoint_dir;
};

/// Parses the shared world/service flags (--seed --dataset --rows --cols
/// --ratio --workers --policy --engine --target --threads --staleness
/// --checkpoint-dir). InvalidArgument on an unknown --dataset or --policy;
/// the caller prefixes its program name when printing.
Status ParseServingOptions(const FlagParser& flags, ServingOptions* out);

/// Synthesizes the world the options describe. Identical construction (and
/// seed derivation) across entry points, so a client rebuilding the world
/// from the same flags gets the same schema fingerprint and generative
/// model. Returns by copy elision end to end — a SynthesizedWorld must not
/// be moved (its crowd points back into its own dataset).
sim::SynthesizedWorld BuildServingWorld(const ServingOptions& opt);

/// The shared assignment-policy factory (docs/ASSIGNMENT.md names). Null on
/// an unknown name. Sharded topologies de-correlate per shard by passing
/// `seed + shard`.
std::unique_ptr<AssignmentPolicy> MakeServingPolicy(const std::string& name,
                                                    uint64_t seed);

/// Assembles the ServiceConfig the options describe (recorders unset;
/// router.seed = seed + 2).
service::ServiceConfig MakeServingConfig(const ServingOptions& opt);

/// The world recipe carried in event-log headers — what `tcrowd replay`
/// needs to rebuild this world without knowing who recorded it.
std::string ServingRecipe(const ServingOptions& opt);

}  // namespace tcrowd::tools

#endif  // TCROWD_TOOLS_SERVING_OPTIONS_H_
