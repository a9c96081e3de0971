#include "serving_options.h"

#include <utility>

#include "assignment/policies.h"
#include "common/string_util.h"
#include "inference/tcrowd_model.h"
#include "simulation/table_generator.h"

namespace tcrowd::tools {

Status ParseServingOptions(const FlagParser& flags, ServingOptions* out) {
  ServingOptions opt;
  opt.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  if (flags.Has("dataset")) {
    opt.use_dataset = true;
    opt.dataset_name = flags.GetString("dataset");
    if (opt.dataset_name == "celebrity") {
      opt.dataset = sim::PaperDataset::kCelebrity;
    } else if (opt.dataset_name == "restaurant") {
      opt.dataset = sim::PaperDataset::kRestaurant;
    } else if (opt.dataset_name == "emotion") {
      opt.dataset = sim::PaperDataset::kEmotion;
    } else {
      return Status::InvalidArgument("unknown --dataset=" + opt.dataset_name);
    }
  }
  opt.rows = static_cast<int>(flags.GetInt("rows", 60));
  opt.cols = static_cast<int>(flags.GetInt("cols", 5));
  opt.ratio = flags.GetDouble("ratio", 0.5);
  opt.workers = static_cast<int>(flags.GetInt("workers", 40));
  opt.policy = flags.GetString("policy", "structure");
  if (MakeServingPolicy(opt.policy, 0) == nullptr) {
    return Status::InvalidArgument("unknown --policy=" + opt.policy);
  }
  opt.engine = flags.GetString("engine", "tcrowd");
  opt.target = static_cast<int>(flags.GetInt("target", 4));
  opt.threads = static_cast<int>(flags.GetInt("threads", 2));
  opt.staleness = static_cast<int>(flags.GetInt("staleness", 64));
  opt.checkpoint_dir = flags.GetString("checkpoint-dir");
  *out = std::move(opt);
  return Status::Ok();
}

sim::SynthesizedWorld BuildServingWorld(const ServingOptions& opt) {
  // Every return below is a prvalue of the result type, so the world is
  // constructed in the caller's storage with no move in between.
  if (opt.use_dataset) {
    sim::SynthesizerOptions sopt;
    sopt.seed = opt.seed;
    sopt.answers_per_task = 0;
    return sim::SynthesizeDataset(opt.dataset, sopt);
  }
  sim::TableGeneratorOptions topt;
  topt.num_rows = opt.rows;
  topt.num_cols = opt.cols;
  topt.categorical_ratio = opt.ratio;
  sim::CrowdOptions copt;
  copt.num_workers = opt.workers;
  Rng rng(opt.seed);
  sim::GeneratedTable table = sim::GenerateTable(topt, &rng);
  return sim::SynthesizeFromTable(std::move(table), copt, 0, opt.seed + 1,
                                  "custom");
}

std::unique_ptr<AssignmentPolicy> MakeServingPolicy(const std::string& name,
                                                    uint64_t seed) {
  if (name == "structure") {
    return std::make_unique<StructureAwarePolicy>(TCrowdOptions::Fast());
  }
  if (name == "inherent") {
    return std::make_unique<InherentGainPolicy>(TCrowdOptions::Fast());
  }
  if (name == "entropy") {
    return std::make_unique<EntropyPolicy>(TCrowdOptions::Fast());
  }
  if (name == "random") return std::make_unique<RandomPolicy>(seed);
  if (name == "looping") return std::make_unique<LoopingPolicy>();
  if (name == "cdas") return std::make_unique<CdasPolicy>(seed);
  if (name == "askit") return std::make_unique<AskItPolicy>();
  return nullptr;
}

service::ServiceConfig MakeServingConfig(const ServingOptions& opt) {
  service::ServiceConfig config;
  config.target_answers_per_task = opt.target;
  config.inference.method = opt.engine;
  config.inference.staleness_threshold = opt.staleness;
  config.inference.num_shards = opt.threads;
  config.inference.checkpoint.directory = opt.checkpoint_dir;
  config.router.seed = opt.seed + 2;
  return config;
}

std::string ServingRecipe(const ServingOptions& opt) {
  std::string recipe;
  if (opt.use_dataset) {
    recipe = StrFormat("dataset=%s", opt.dataset_name.c_str());
  } else {
    recipe = StrFormat("rows=%d cols=%d ratio=%g workers=%d", opt.rows,
                       opt.cols, opt.ratio, opt.workers);
  }
  recipe += StrFormat(" engine=%s target=%d staleness=%d threads=%d",
                      opt.engine.c_str(), opt.target, opt.staleness,
                      opt.threads);
  return recipe;
}

}  // namespace tcrowd::tools
