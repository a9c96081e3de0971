#include "inference/em_executor.h"

#include <algorithm>

namespace tcrowd {

EmExecutor::EmExecutor(int num_shards)
    : num_shards_(std::max(1, num_shards)) {
  if (num_shards_ > 1) {
    pool_ = std::make_unique<ThreadPool>(static_cast<size_t>(num_shards_));
  }
}

EmExecutor::~EmExecutor() = default;

void EmExecutor::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (pool_ == nullptr) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool_->ParallelFor(n, fn);
}

double EmExecutor::AccumulateSharded(
    size_t n, size_t grad_size,
    const std::function<void(size_t lo, size_t hi, double* grad,
                             double* value)>& body,
    std::vector<double>* grad) {
  size_t shards = static_cast<size_t>(num_shards_);
  if (pool_ == nullptr || n < kMinItemsForSharding) shards = 1;
  shards = std::min(shards, std::max<size_t>(n, 1));
  if (shards <= 1) {
    double value = 0.0;
    body(0, n, grad->data(), &value);
    return value;
  }

  if (scratch_.size() < shards) scratch_.resize(shards);
  // Whole cache lines per shard, so the padding never shares a line either.
  constexpr size_t kLineDoubles = kCacheLine / sizeof(double);
  const size_t padded = (grad_size + kLineDoubles - 1) / kLineDoubles *
                        kLineDoubles;
  size_t per_shard = (n + shards - 1) / shards;
  pool_->ParallelFor(shards, [&](size_t s) {
    ShardScratch& sc = scratch_[s];
    if (sc.grad.size() < padded) sc.grad.resize(padded);
    std::fill(sc.grad.begin(), sc.grad.begin() + grad_size, 0.0);
    sc.value = 0.0;
    size_t lo = s * per_shard;
    size_t hi = std::min(n, lo + per_shard);
    if (lo < hi) body(lo, hi, sc.grad.data(), &sc.value);
  });

  // Pairwise reduction tree: after the pass with stride k, shard s holds the
  // sum of shards [s, s + 2k) for every s that is a multiple of 2k. The
  // merge order depends only on the shard count, so results are
  // bit-reproducible run to run.
  for (size_t stride = 1; stride < shards; stride *= 2) {
    std::vector<size_t> roots;
    for (size_t s = 0; s + stride < shards; s += 2 * stride) {
      roots.push_back(s);
    }
    pool_->ParallelFor(roots.size(), [&](size_t r) {
      ShardScratch& dst = scratch_[roots[r]];
      const ShardScratch& src = scratch_[roots[r] + stride];
      double* a = dst.grad.data();
      const double* b = src.grad.data();
      for (size_t k = 0; k < grad_size; ++k) a[k] += b[k];
      dst.value += src.value;
    });
  }

  const double* root = scratch_[0].grad.data();
  double* out = grad->data();
  for (size_t k = 0; k < grad_size; ++k) out[k] += root[k];
  return scratch_[0].value;
}

}  // namespace tcrowd
