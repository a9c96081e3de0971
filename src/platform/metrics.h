#ifndef TCROWD_PLATFORM_METRICS_H_
#define TCROWD_PLATFORM_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/schema.h"
#include "data/table.h"

namespace tcrowd {

/// The paper's two effectiveness measures (Section 6.2, from CRH [18]).
struct Metrics {
  /// Fraction of categorical cells whose estimate mismatches the ground
  /// truth. Cells with a missing estimate count as errors (the method
  /// failed to produce a value); cells with missing ground truth are
  /// skipped. NaN-free: returns 0 when no categorical cells are evaluable.
  static double ErrorRate(const Table& truth, const Table& estimate);
  /// Same, restricted to the given columns.
  static double ErrorRate(const Table& truth, const Table& estimate,
                          const std::vector<int>& columns);

  /// Mean Normalized Absolute Distance: per continuous column, the RMSE
  /// between estimate and ground truth divided by the column's ground-truth
  /// standard deviation; averaged over continuous columns. Cells with a
  /// missing estimate or truth are skipped.
  static double Mnad(const Table& truth, const Table& estimate);
  static double Mnad(const Table& truth, const Table& estimate,
                     const std::vector<int>& columns);
};

/// Monotonic event counter. Thread-safe and lock-free; the service layer
/// bumps these on every request, answer, and refresh.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Instantaneous level (queue depth, live sessions, segment count).
/// Thread-safe and lock-free, like Counter, but settable both ways.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Streaming latency summary in microseconds: count / mean / max plus
/// power-of-two buckets for approximate percentiles. Thread-safe.
class LatencyStats {
 public:
  /// Buckets cover [2^k, 2^(k+1)) microseconds for k in [0, kNumBuckets-2];
  /// sub-microsecond samples land in bucket 0, the last bucket is open.
  static constexpr int kNumBuckets = 24;

  /// Consistent copy of the internals, for exporters and tests.
  struct Snapshot {
    int64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
    std::array<int64_t, kNumBuckets> buckets{};
  };

  void Record(double micros);

  int64_t count() const;
  double mean_micros() const;
  double max_micros() const;
  /// Approximate quantile (q in [0,1]) read off the bucket histogram: the
  /// upper edge of the bucket holding the q-quantile sample, clamped to the
  /// observed max (which also bounds the otherwise-open last bucket).
  /// Returns 0 when no samples were recorded.
  double ApproxPercentile(double q) const;

  Snapshot GetSnapshot() const;

 private:
  mutable std::mutex mu_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
  std::array<int64_t, kNumBuckets> buckets_{};
};

/// Named counters + latency summaries the service exports. Metric objects
/// are created on first use and live as long as the registry; references
/// handed out stay valid, so hot paths look the handle up once.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyStats& latency(const std::string& name);

  /// Snapshot of every counter value, sorted by name.
  std::vector<std::pair<std::string, int64_t>> CounterValues() const;
  /// Snapshot of every gauge value, sorted by name.
  std::vector<std::pair<std::string, int64_t>> GaugeValues() const;

  /// Human-readable dump: one `name = value` line per counter and gauge,
  /// then one `name: count/mean/p50/p95/max` line per latency series.
  std::string ToString() const;

  /// Prometheus text exposition (version 0.0.4): counters as `<name>_total`,
  /// gauges as-is, latency series as summaries with `quantile` labels for
  /// p50/p90/p99 plus `_sum`/`_count`. Dots in metric names become
  /// underscores and everything is prefixed `tcrowd_`.
  std::string FormatPrometheus() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyStats>> latencies_;
};

/// RAII timer recording the scope's wall time into a LatencyStats.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(LatencyStats* stats)
      : stats_(stats), start_(std::chrono::steady_clock::now()) {}
  ~ScopedLatencyTimer() {
    std::chrono::duration<double, std::micro> elapsed =
        std::chrono::steady_clock::now() - start_;
    stats_->Record(elapsed.count());
  }

  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  LatencyStats* stats_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace tcrowd

#endif  // TCROWD_PLATFORM_METRICS_H_
