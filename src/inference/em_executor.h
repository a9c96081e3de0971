#ifndef TCROWD_INFERENCE_EM_EXECUTOR_H_
#define TCROWD_INFERENCE_EM_EXECUTOR_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "common/thread_pool.h"

namespace tcrowd {

/// Persistent sharded execution substrate for the T-Crowd EM.
///
/// Before this class existed, every TCrowdModel::Fit spawned (and joined)
/// its own ThreadPool, and the M-step merged per-slice gradient buffers
/// serially — so an online service refreshing its model dozens of times per
/// second paid thread start-up and a serial reduction on every refresh. An
/// EmExecutor instead:
///
///  - owns one long-lived common::ThreadPool, reused across fits (the
///    service's IncrementalInferenceEngine keeps a single executor for its
///    whole lifetime);
///  - partitions the item space (tuples for the E-step, answers for the
///    M-step) into `num_shards` contiguous shards once per call shape;
///  - keeps per-shard accumulator scratch alive across iterations and
///    fits, so the gradient buffers are allocated once, not once per
///    objective evaluation;
///  - merges shard results with a pairwise reduction tree instead of a
///    serial merge.
///
/// Determinism: every partition and the reduction tree are pure functions
/// of (item count, shard count), so results are bit-reproducible for a
/// fixed shard count. With one shard all work runs on the caller's thread
/// in plain item order — bit-identical to the historical serial EM. Across
/// different shard counts results agree only to floating-point reduction
/// order.
///
/// Ownership: the executor owns its thread pool (created lazily — a
/// 1-shard executor never spawns threads). It holds no reference to any
/// model or answer data between calls.
///
/// Thread-safety: an EmExecutor serializes nothing internally; it is meant
/// to be driven by ONE fit at a time. Concurrent Fit calls must use
/// separate executors (the engine guarantees this by coalescing refreshes).
class EmExecutor {
 public:
  /// Answer counts below this run the sharded accumulation serially even
  /// when the executor has threads: slicing a tiny problem costs more in
  /// synchronization than it wins (value inherited from the historical
  /// in-model threshold, so threaded fits stay bit-compatible with it).
  static constexpr size_t kMinItemsForSharding = 2048;

  /// `num_shards` <= 1 yields a serial executor with no threads. Blocks
  /// until the pool's workers have started (ThreadPool semantics).
  explicit EmExecutor(int num_shards);
  /// Joins the pool. Must not run concurrently with ParallelFor /
  /// AccumulateSharded.
  ~EmExecutor();

  EmExecutor(const EmExecutor&) = delete;
  EmExecutor& operator=(const EmExecutor&) = delete;

  int num_shards() const { return num_shards_; }

  /// Runs fn(i) for every i in [0, n), block-partitioned across the pool
  /// (shard count capped at n, so shards never outnumber items). Serial on
  /// the caller's thread for a 1-shard executor. Blocks until every index
  /// ran; rethrows the first exception a shard threw.
  ///
  /// Intended for the E-step: iterations must write to disjoint state (per
  /// row), in which case the result is independent of the partition.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Sharded accumulation with a deterministic pairwise reduction tree.
  ///
  /// `body(lo, hi, grad, value)` must accumulate (+=) the contribution of
  /// items [lo, hi) into grad[0..grad_size) and *value. The item space is
  /// split into contiguous shards; each shard accumulates into its own
  /// persistent scratch buffer; buffers are then merged pairwise
  /// (scratch[s] += scratch[s + stride], doubling stride) and the root is
  /// added into `*grad` / returned.
  ///
  /// Runs serially (body called once on [0, n) accumulating directly into
  /// `*grad`) when the executor has one shard OR n < kMinItemsForSharding.
  /// `*grad` must be pre-sized to grad_size (its existing contents are kept
  /// and added to). Blocks; rethrows the first shard exception.
  double AccumulateSharded(
      size_t n, size_t grad_size,
      const std::function<void(size_t lo, size_t hi, double* grad,
                               double* value)>& body,
      std::vector<double>* grad);

 private:
  static constexpr size_t kCacheLine = 64;

  /// Allocates on cache-line boundaries, so a shard's gradient head never
  /// shares a line with another allocation.
  template <typename T>
  struct CacheLineAllocator {
    using value_type = T;
    CacheLineAllocator() = default;
    template <typename U>
    CacheLineAllocator(const CacheLineAllocator<U>&) {}
    T* allocate(size_t n) {
      return static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t{kCacheLine}));
    }
    void deallocate(T* p, size_t) {
      ::operator delete(p, std::align_val_t{kCacheLine});
    }
    bool operator==(const CacheLineAllocator&) const { return true; }
    bool operator!=(const CacheLineAllocator&) const { return false; }
  };

  /// One shard's accumulator. The body adds into `value` and the gradient
  /// on every item, so each shard's slot sits alone on its cache line and
  /// its gradient is line-aligned and padded to whole lines: no two shards
  /// ever write the same line (false sharing made 4 threads slower than 1).
  struct alignas(kCacheLine) ShardScratch {
    double value = 0.0;
    std::vector<double, CacheLineAllocator<double>> grad;
  };

  const int num_shards_;
  std::unique_ptr<ThreadPool> pool_;  // null for a serial executor

  /// Per-shard scratch, alive across calls ("keep the accumulator scratch
  /// across iterations"): gradients are resized only when grad_size grows.
  std::vector<ShardScratch> scratch_;
};

}  // namespace tcrowd

#endif  // TCROWD_INFERENCE_EM_EXECUTOR_H_
