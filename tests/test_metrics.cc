#include "platform/metrics.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>

#include "math/statistics.h"

namespace tcrowd {
namespace {

Schema MixedSchema() {
  return Schema({Schema::MakeCategorical("c", {"a", "b", "c"}),
                 Schema::MakeContinuous("x", 0.0, 10.0)});
}

TEST(Metrics, PerfectEstimateScoresZero) {
  Schema s = MixedSchema();
  Table truth(s, 2), est(s, 2);
  for (int i = 0; i < 2; ++i) {
    truth.Set(i, 0, Value::Categorical(i));
    est.Set(i, 0, Value::Categorical(i));
    truth.Set(i, 1, Value::Continuous(3.0 * i + 1));
    est.Set(i, 1, Value::Continuous(3.0 * i + 1));
  }
  EXPECT_DOUBLE_EQ(Metrics::ErrorRate(truth, est), 0.0);
  EXPECT_DOUBLE_EQ(Metrics::Mnad(truth, est), 0.0);
}

TEST(Metrics, ErrorRateCountsMismatches) {
  Schema s = MixedSchema();
  Table truth(s, 4), est(s, 4);
  for (int i = 0; i < 4; ++i) {
    truth.Set(i, 0, Value::Categorical(0));
    est.Set(i, 0, Value::Categorical(i < 1 ? 1 : 0));  // 1 of 4 wrong
  }
  EXPECT_DOUBLE_EQ(Metrics::ErrorRate(truth, est), 0.25);
}

TEST(Metrics, ErrorRateIgnoresContinuousColumns) {
  Schema s = MixedSchema();
  Table truth(s, 1), est(s, 1);
  truth.Set(0, 0, Value::Categorical(1));
  est.Set(0, 0, Value::Categorical(1));
  truth.Set(0, 1, Value::Continuous(5.0));
  est.Set(0, 1, Value::Continuous(-100.0));  // must not affect error rate
  EXPECT_DOUBLE_EQ(Metrics::ErrorRate(truth, est), 0.0);
}

TEST(Metrics, MissingEstimateCountsAsError) {
  Schema s = MixedSchema();
  Table truth(s, 2), est(s, 2);
  truth.Set(0, 0, Value::Categorical(0));
  truth.Set(1, 0, Value::Categorical(1));
  est.Set(0, 0, Value::Categorical(0));
  // est(1,0) missing.
  EXPECT_DOUBLE_EQ(Metrics::ErrorRate(truth, est), 0.5);
}

TEST(Metrics, MissingTruthIsSkipped) {
  Schema s = MixedSchema();
  Table truth(s, 2), est(s, 2);
  truth.Set(0, 0, Value::Categorical(0));
  est.Set(0, 0, Value::Categorical(1));
  // truth(1,0) missing: only one evaluable cell -> error rate 1.
  EXPECT_DOUBLE_EQ(Metrics::ErrorRate(truth, est), 1.0);
}

TEST(Metrics, MnadNormalizesByTruthStdDev) {
  Schema s({Schema::MakeContinuous("x", 0.0, 100.0)});
  Table truth(s, 3), est(s, 3);
  // truth: 0, 10, 20 (stddev = sqrt(200/3)); estimate off by +5 each.
  for (int i = 0; i < 3; ++i) {
    truth.Set(i, 0, Value::Continuous(10.0 * i));
    est.Set(i, 0, Value::Continuous(10.0 * i + 5.0));
  }
  double sd = math::StdDev({0.0, 10.0, 20.0});
  EXPECT_NEAR(Metrics::Mnad(truth, est), 5.0 / sd, 1e-12);
}

TEST(Metrics, MnadAveragesOverColumns) {
  Schema s({Schema::MakeContinuous("x", 0.0, 10.0),
            Schema::MakeContinuous("y", 0.0, 10.0)});
  Table truth(s, 2), est(s, 2);
  truth.Set(0, 0, Value::Continuous(0.0));
  truth.Set(1, 0, Value::Continuous(2.0));
  est.Set(0, 0, Value::Continuous(0.0));
  est.Set(1, 0, Value::Continuous(2.0));  // column x perfect
  truth.Set(0, 1, Value::Continuous(0.0));
  truth.Set(1, 1, Value::Continuous(2.0));
  est.Set(0, 1, Value::Continuous(1.0));
  est.Set(1, 1, Value::Continuous(3.0));  // column y off by 1 (sd = 1)
  EXPECT_NEAR(Metrics::Mnad(truth, est), 0.5 * (0.0 + 1.0), 1e-12);
}

TEST(Metrics, ScaleInvarianceOfMnad) {
  Schema small({Schema::MakeContinuous("x", 0.0, 1.0)});
  Schema big({Schema::MakeContinuous("x", 0.0, 1000.0)});
  Table t1(small, 3), e1(small, 3), t2(big, 3), e2(big, 3);
  for (int i = 0; i < 3; ++i) {
    double t = 0.1 * (i + 1);
    t1.Set(i, 0, Value::Continuous(t));
    e1.Set(i, 0, Value::Continuous(t + 0.05));
    t2.Set(i, 0, Value::Continuous(t * 1000));
    e2.Set(i, 0, Value::Continuous((t + 0.05) * 1000));
  }
  EXPECT_NEAR(Metrics::Mnad(t1, e1), Metrics::Mnad(t2, e2), 1e-9);
}

TEST(Metrics, ColumnSubsetRestriction) {
  Schema s({Schema::MakeCategorical("c1", {"a", "b"}),
            Schema::MakeCategorical("c2", {"a", "b"})});
  Table truth(s, 1), est(s, 1);
  truth.Set(0, 0, Value::Categorical(0));
  est.Set(0, 0, Value::Categorical(0));  // c1 correct
  truth.Set(0, 1, Value::Categorical(0));
  est.Set(0, 1, Value::Categorical(1));  // c2 wrong
  EXPECT_DOUBLE_EQ(Metrics::ErrorRate(truth, est, {0}), 0.0);
  EXPECT_DOUBLE_EQ(Metrics::ErrorRate(truth, est, {1}), 1.0);
  EXPECT_DOUBLE_EQ(Metrics::ErrorRate(truth, est), 0.5);
}

TEST(Metrics, EmptyEvaluationReturnsZero) {
  Schema s({Schema::MakeContinuous("x", 0.0, 1.0)});
  Table truth(s, 1), est(s, 1);
  EXPECT_DOUBLE_EQ(Metrics::ErrorRate(truth, est), 0.0);  // no cat columns
  EXPECT_DOUBLE_EQ(Metrics::Mnad(truth, est), 0.0);       // no valid cells
}

TEST(Metrics, ConstantTruthColumnUsesUnitScale) {
  Schema s({Schema::MakeContinuous("x", 0.0, 10.0)});
  Table truth(s, 2), est(s, 2);
  truth.Set(0, 0, Value::Continuous(5.0));
  truth.Set(1, 0, Value::Continuous(5.0));  // zero stddev
  est.Set(0, 0, Value::Continuous(6.0));
  est.Set(1, 0, Value::Continuous(6.0));
  // Falls back to sd=1: MNAD = RMSE = 1.
  EXPECT_NEAR(Metrics::Mnad(truth, est), 1.0, 1e-12);
}


// ---------------------------------------------------- service counters --

TEST(MetricsRegistry, CountersAccumulateAndSnapshotSorted) {
  MetricsRegistry registry;
  registry.counter("b.second").Increment();
  registry.counter("a.first").Increment(41);
  registry.counter("a.first").Increment();
  EXPECT_EQ(registry.counter("a.first").value(), 42);

  auto values = registry.CounterValues();
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0].first, "a.first");
  EXPECT_EQ(values[0].second, 42);
  EXPECT_EQ(values[1].first, "b.second");
  EXPECT_EQ(values[1].second, 1);
}

TEST(MetricsRegistry, HandlesAreStableAcrossLookups) {
  MetricsRegistry registry;
  Counter* first = &registry.counter("x");
  registry.counter("y");
  registry.counter("z");
  EXPECT_EQ(first, &registry.counter("x"));
}

TEST(MetricsRegistry, LatencyStatsSummarize) {
  LatencyStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_DOUBLE_EQ(stats.ApproxPercentile(0.5), 0.0);

  for (int i = 0; i < 99; ++i) stats.Record(2.0);
  stats.Record(1000.0);
  EXPECT_EQ(stats.count(), 100);
  EXPECT_NEAR(stats.mean_micros(), (99 * 2.0 + 1000.0) / 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.max_micros(), 1000.0);
  // p50 sits in the [2,4) bucket; p999+ reaches the 1000us outlier.
  EXPECT_LE(stats.ApproxPercentile(0.5), 4.0);
  EXPECT_GE(stats.ApproxPercentile(0.999), 512.0);
  // Approximation never exceeds the observed maximum.
  EXPECT_LE(stats.ApproxPercentile(0.999), 1000.0);
}

TEST(MetricsRegistry, GaugesMoveBothWays) {
  MetricsRegistry registry;
  Gauge& depth = registry.gauge("engine.queue_depth");
  depth.Set(10);
  depth.Add(5);
  depth.Add(-12);
  EXPECT_EQ(depth.value(), 3);

  registry.gauge("a.level").Set(-4);  // gauges may go negative
  auto values = registry.GaugeValues();
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0].first, "a.level");
  EXPECT_EQ(values[0].second, -4);
  EXPECT_EQ(values[1].first, "engine.queue_depth");
  EXPECT_EQ(values[1].second, 3);
}

// ---------------------------------------- percentile bucket boundaries --

TEST(LatencyStats, EmptyStatsReportZeroAtEveryQuantile) {
  LatencyStats stats;
  EXPECT_DOUBLE_EQ(stats.ApproxPercentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(stats.ApproxPercentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(stats.ApproxPercentile(1.0), 0.0);
}

TEST(LatencyStats, SingleSampleIsItsOwnQuantile) {
  // One sample inside a closed bucket: every quantile is clamped from the
  // bucket's upper edge down to the observed max — the sample itself.
  LatencyStats stats;
  stats.Record(3.0);  // bucket [2,4)
  EXPECT_DOUBLE_EQ(stats.ApproxPercentile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(stats.ApproxPercentile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(stats.ApproxPercentile(1.0), 3.0);
}

TEST(LatencyStats, QuantileReadsTheBucketUpperEdge) {
  // Three samples at 2us (bucket [2,4)) and one far outlier: the median
  // rank lands in the [2,4) bucket, so p50 is pinned to its upper edge 4.
  LatencyStats stats;
  stats.Record(2.0);
  stats.Record(2.0);
  stats.Record(2.0);
  stats.Record(1000.0);  // bucket [512,1024)
  EXPECT_DOUBLE_EQ(stats.ApproxPercentile(0.5), 4.0);
  // The top quantile reaches the outlier's bucket and clamps to the max.
  EXPECT_DOUBLE_EQ(stats.ApproxPercentile(1.0), 1000.0);
}

TEST(LatencyStats, SubMicrosecondSamplesLandInBucketZero) {
  LatencyStats stats;
  stats.Record(0.25);
  stats.Record(0.5);
  // Bucket 0's upper edge is 2us; the clamp brings it to the 0.5us max.
  EXPECT_DOUBLE_EQ(stats.ApproxPercentile(0.5), 0.5);
  EXPECT_DOUBLE_EQ(stats.max_micros(), 0.5);
}

TEST(LatencyStats, OpenLastBucketIsBoundedByItsNominalEdgeOrTheMax) {
  // A sample beyond every closed bucket lands in the open last bucket,
  // whose nominal upper edge is 2^kNumBuckets microseconds. A quantile
  // read there returns min(edge, max): the edge for absurd outliers, the
  // observed max when it is smaller.
  const double edge =
      static_cast<double>(1ll << LatencyStats::kNumBuckets);  // 2^24 us
  LatencyStats absurd;
  absurd.Record(1e12);
  EXPECT_DOUBLE_EQ(absurd.ApproxPercentile(1.0), edge);

  LatencyStats tame;
  tame.Record(1e7);  // in the open bucket, but below the nominal edge
  EXPECT_DOUBLE_EQ(tame.ApproxPercentile(1.0), 1e7);
}

TEST(LatencyStats, NegativeAndNonFiniteSamplesAreCoercedToZero) {
  LatencyStats stats;
  stats.Record(-5.0);
  stats.Record(std::numeric_limits<double>::infinity());
  stats.Record(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(stats.count(), 3);
  EXPECT_DOUBLE_EQ(stats.max_micros(), 0.0);
  EXPECT_DOUBLE_EQ(stats.ApproxPercentile(1.0), 0.0);
}

// ----------------------------------------------- prometheus exposition --

/// Minimal Prometheus text-format (0.0.4) line checker: every line must be
/// a `# TYPE <name> <counter|gauge|summary>` comment or a sample
/// `<name>[{label="v"}] <number>`.
void ExpectValidPrometheusText(const std::string& text) {
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n') << "exposition must end with a newline";
  size_t start = 0;
  int samples = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    std::string line = text.substr(start, end - start);
    start = end + 1;
    SCOPED_TRACE(line);
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE tcrowd_", 0), 0u);
      std::string kind = line.substr(line.rfind(' ') + 1);
      EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "summary")
          << kind;
      continue;
    }
    ++samples;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos);
    std::string name = line.substr(0, space);
    std::string value = line.substr(space + 1);
    EXPECT_EQ(name.rfind("tcrowd_", 0), 0u) << name;
    // Metric names may carry one {quantile="..."} label block.
    size_t brace = name.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}');
      EXPECT_EQ(name.find("quantile=\""), brace + 1);
    }
    char* parse_end = nullptr;
    std::strtod(value.c_str(), &parse_end);
    EXPECT_EQ(*parse_end, '\0') << "unparseable sample value: " << value;
  }
  EXPECT_GT(samples, 0);
}

TEST(MetricsRegistry, FormatPrometheusIsValidExpositionText) {
  MetricsRegistry registry;
  registry.counter("service.answers_accepted").Increment(42);
  registry.counter("service.answers_rejected");
  registry.gauge("engine.queue_depth").Set(7);
  LatencyStats& lat = registry.latency("service.submit_answer");
  for (int i = 0; i < 50; ++i) lat.Record(2.0 + i);

  std::string text = registry.FormatPrometheus();
  ExpectValidPrometheusText(text);

  // Names: dots become underscores, counters get _total, summaries get
  // _micros plus _sum/_count and the three quantile samples.
  EXPECT_NE(text.find("# TYPE tcrowd_service_answers_accepted_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("tcrowd_service_answers_accepted_total 42"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tcrowd_engine_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("tcrowd_engine_queue_depth 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tcrowd_service_submit_answer_micros summary"),
            std::string::npos);
  EXPECT_NE(text.find("tcrowd_service_submit_answer_micros{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("tcrowd_service_submit_answer_micros{quantile=\"0.9\"}"),
            std::string::npos);
  EXPECT_NE(
      text.find("tcrowd_service_submit_answer_micros{quantile=\"0.99\"}"),
      std::string::npos);
  EXPECT_NE(text.find("tcrowd_service_submit_answer_micros_sum"),
            std::string::npos);
  EXPECT_NE(text.find("tcrowd_service_submit_answer_micros_count 50"),
            std::string::npos);
}

TEST(MetricsRegistry, ToStringMentionsEveryMetric) {
  MetricsRegistry registry;
  registry.counter("service.answers").Increment(7);
  registry.latency("service.request").Record(12.0);
  std::string dump = registry.ToString();
  EXPECT_NE(dump.find("service.answers"), std::string::npos);
  EXPECT_NE(dump.find("= 7"), std::string::npos);
  EXPECT_NE(dump.find("service.request"), std::string::npos);
}

}  // namespace
}  // namespace tcrowd
