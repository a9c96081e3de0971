#include "platform/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

#include "common/logging.h"
#include "math/statistics.h"

namespace tcrowd {

namespace {

std::vector<int> AllColumns(const Table& t) {
  std::vector<int> cols(t.num_columns());
  for (int j = 0; j < t.num_columns(); ++j) cols[j] = j;
  return cols;
}

}  // namespace

double Metrics::ErrorRate(const Table& truth, const Table& estimate) {
  return ErrorRate(truth, estimate, AllColumns(truth));
}

double Metrics::ErrorRate(const Table& truth, const Table& estimate,
                          const std::vector<int>& columns) {
  TCROWD_CHECK(truth.num_rows() == estimate.num_rows());
  TCROWD_CHECK(truth.num_columns() == estimate.num_columns());
  int mismatches = 0;
  int total = 0;
  for (int j : columns) {
    if (truth.schema().column(j).type != ColumnType::kCategorical) continue;
    for (int i = 0; i < truth.num_rows(); ++i) {
      const Value& t = truth.at(i, j);
      if (!t.valid()) continue;
      ++total;
      const Value& e = estimate.at(i, j);
      if (!e.valid() || e.label() != t.label()) ++mismatches;
    }
  }
  if (total == 0) return 0.0;
  return static_cast<double>(mismatches) / static_cast<double>(total);
}

double Metrics::Mnad(const Table& truth, const Table& estimate) {
  return Mnad(truth, estimate, AllColumns(truth));
}

double Metrics::Mnad(const Table& truth, const Table& estimate,
                     const std::vector<int>& columns) {
  TCROWD_CHECK(truth.num_rows() == estimate.num_rows());
  TCROWD_CHECK(truth.num_columns() == estimate.num_columns());
  double sum = 0.0;
  int used_columns = 0;
  for (int j : columns) {
    if (truth.schema().column(j).type != ColumnType::kContinuous) continue;
    std::vector<double> t_vals, e_vals, t_all;
    for (int i = 0; i < truth.num_rows(); ++i) {
      const Value& t = truth.at(i, j);
      if (!t.valid()) continue;
      t_all.push_back(t.number());
      const Value& e = estimate.at(i, j);
      if (!e.valid()) continue;
      t_vals.push_back(t.number());
      e_vals.push_back(e.number());
    }
    if (t_vals.empty()) continue;
    double sd = math::StdDev(t_all);
    if (sd < 1e-12) sd = 1.0;
    sum += math::Rmse(t_vals, e_vals) / sd;
    ++used_columns;
  }
  if (used_columns == 0) return 0.0;
  return sum / static_cast<double>(used_columns);
}

// ------------------------------------------------------- service metrics --

void LatencyStats::Record(double micros) {
  if (micros < 0.0 || !std::isfinite(micros)) micros = 0.0;
  int bucket = 0;
  while (bucket < kNumBuckets - 1 &&
         micros >= static_cast<double>(1ll << (bucket + 1))) {
    ++bucket;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++count_;
  sum_ += micros;
  max_ = std::max(max_, micros);
  ++buckets_[bucket];
}

int64_t LatencyStats::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double LatencyStats::mean_micros() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double LatencyStats::max_micros() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

double LatencyStats::ApproxPercentile(double q) const {
  q = std::min(1.0, std::max(0.0, q));
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) return 0.0;
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(count_)));
  rank = std::max<int64_t>(1, rank);
  int64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank) {
      double upper = static_cast<double>(1ll << (b + 1));
      return std::min(upper, max_);
    }
  }
  return max_;
}

LatencyStats::Snapshot LatencyStats::GetSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.count = count_;
  snap.sum = sum_;
  snap.max = max_;
  snap.buckets = buckets_;
  return snap;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyStats& MetricsRegistry::latency(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<LatencyStats>& slot = latencies_[name];
  if (slot == nullptr) slot = std::make_unique<LatencyStats>();
  return *slot;
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::CounterValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::GaugeValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge->value());
  }
  return out;
}

std::string MetricsRegistry::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += StrFormat("%-28s = %lld\n", name.c_str(),
                     static_cast<long long>(counter->value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    out += StrFormat("%-28s = %lld (gauge)\n", name.c_str(),
                     static_cast<long long>(gauge->value()));
  }
  for (const auto& [name, lat] : latencies_) {
    out += StrFormat(
        "%-28s : n=%lld mean=%.1fus p50=%.0fus p95=%.0fus max=%.0fus\n",
        name.c_str(), static_cast<long long>(lat->count()),
        lat->mean_micros(), lat->ApproxPercentile(0.5),
        lat->ApproxPercentile(0.95), lat->max_micros());
  }
  return out;
}

namespace {

// "service.answers_accepted" -> "tcrowd_service_answers_accepted". The
// exposition format allows [a-zA-Z0-9_:] in names; anything else folds to
// '_'.
std::string PromName(const std::string& name) {
  std::string out = "tcrowd_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::FormatPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    const std::string prom = PromName(name) + "_total";
    out += StrFormat("# TYPE %s counter\n", prom.c_str());
    out += StrFormat("%s %lld\n", prom.c_str(),
                     static_cast<long long>(counter->value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string prom = PromName(name);
    out += StrFormat("# TYPE %s gauge\n", prom.c_str());
    out += StrFormat("%s %lld\n", prom.c_str(),
                     static_cast<long long>(gauge->value()));
  }
  for (const auto& [name, lat] : latencies_) {
    const std::string prom = PromName(name) + "_micros";
    const LatencyStats::Snapshot snap = lat->GetSnapshot();
    out += StrFormat("# TYPE %s summary\n", prom.c_str());
    for (double q : {0.5, 0.9, 0.99}) {
      out += StrFormat("%s{quantile=\"%g\"} %.6g\n", prom.c_str(), q,
                       lat->ApproxPercentile(q));
    }
    out += StrFormat("%s_sum %.6g\n", prom.c_str(), snap.sum);
    out += StrFormat("%s_count %lld\n", prom.c_str(),
                     static_cast<long long>(snap.count));
  }
  return out;
}

}  // namespace tcrowd
