#include "common/metrics.hpp"

#include <dirent.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/json.hpp"

namespace bepi {

std::atomic<bool> g_metrics_enabled{false};

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

namespace internal {

std::size_t ThisThreadOrdinal() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

}  // namespace internal

namespace {

// libstdc++ only grew atomic<double>::fetch_add recently; a CAS loop is
// portable and these are cold relative to the bucket increments.
void AtomicAdd(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v < cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v > cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AppendJsonNumber(std::ostringstream* out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no Inf/NaN; null is the conventional stand-in.
    *out << "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out << buf;
}

}  // namespace

Histogram::Histogram(std::string name)
    : name_(std::move(name)),
      buckets_(static_cast<std::size_t>(kNumBuckets)) {}

int Histogram::BucketIndex(double v) {
  if (!(v > 0.0) || !std::isfinite(v)) return 0;  // <=0 and NaN underflow
  int exp = 0;
  const double mantissa = std::frexp(v, &exp);  // v = mantissa * 2^exp
  const int octave = exp - 1;                   // v in [2^octave, 2^(octave+1))
  if (octave < kMinExponent) return 0;
  if (octave >= kMaxExponent) return kNumBuckets - 1;
  // mantissa in [0.5, 1): linear position within the octave.
  int sub = static_cast<int>((mantissa * 2.0 - 1.0) * kSubBucketsPerOctave);
  sub = std::min(sub, kSubBucketsPerOctave - 1);
  return 1 + (octave - kMinExponent) * kSubBucketsPerOctave + sub;
}

double Histogram::BucketUpperBound(int index) {
  if (index <= 0) return std::ldexp(1.0, kMinExponent);
  if (index >= kNumBuckets - 1) return std::ldexp(1.0, kMaxExponent);
  const int offset = index - 1;
  const int octave = kMinExponent + offset / kSubBucketsPerOctave;
  const int sub = offset % kSubBucketsPerOctave;
  return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBucketsPerOctave,
                    octave);
}

void Histogram::RecordAlways(double v) {
  buckets_[static_cast<std::size_t>(BucketIndex(v))].fetch_add(
      1, std::memory_order_relaxed);
  // count_ is incremented last so Snapshot's count never exceeds the
  // bucket totals it pairs with (benign under concurrent snapshots).
  AtomicAdd(&sum_, v);
  if (count_.load(std::memory_order_relaxed) == 0) {
    // First-record min/max seeding races are resolved by the CAS loops.
    double expected = 0.0;
    min_.compare_exchange_strong(expected, v, std::memory_order_relaxed);
    expected = 0.0;
    max_.compare_exchange_strong(expected, v, std::memory_order_relaxed);
  }
  AtomicMin(&min_, v);
  AtomicMax(&max_, v);
  count_.fetch_add(1, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = min_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  if (snap.count == 0) return snap;

  std::vector<std::uint64_t> counts(static_cast<std::size_t>(kNumBuckets));
  std::uint64_t total = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    counts[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    total += counts[static_cast<std::size_t>(i)];
  }
  if (total == 0) return snap;

  auto quantile = [&](double q) {
    // Nearest-rank over the bucketed distribution, reported as the
    // bucket's upper bound clamped to the exact max.
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(total))));
    std::uint64_t seen = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      seen += counts[static_cast<std::size_t>(i)];
      if (seen >= rank) return std::min(BucketUpperBound(i), snap.max);
    }
    return snap.max;
  };
  snap.p50 = quantile(0.50);
  snap.p90 = quantile(0.90);
  snap.p95 = quantile(0.95);
  snap.p99 = quantile(0.99);
  return snap;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(exemplar_mutex_);
  exemplar_ = HistogramExemplar();
}

void Histogram::SnapshotBuckets(std::vector<std::uint64_t>* out) const {
  out->resize(static_cast<std::size_t>(kNumBuckets));
  for (int i = 0; i < kNumBuckets; ++i) {
    (*out)[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
}

void Histogram::SetExemplar(double value, const std::string& label) {
  std::lock_guard<std::mutex> lock(exemplar_mutex_);
  exemplar_.valid = true;
  exemplar_.value = value;
  exemplar_.ts_unix_seconds =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  exemplar_.label = label;
}

HistogramExemplar Histogram::exemplar() const {
  std::lock_guard<std::mutex> lock(exemplar_mutex_);
  return exemplar_;
}

namespace {

// Captured at static-initialization time so process.uptime_seconds spans
// (close to) the whole process lifetime, not the time since first scrape.
const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();

/// Reads a "<Key>:  <value> kB" line from /proc/self/status; 0 if absent.
double ProcStatusKb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      kb = std::strtod(line + key_len + 1, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

double CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0.0;
  double count = 0.0;
  while (struct dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    count += 1.0;  // includes the dirfd opendir itself holds
  }
  ::closedir(dir);
  return count;
}

}  // namespace

void SampleProcessGauges() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetGauge("process.rss_bytes")
      ->SetAlways(ProcStatusKb("VmRSS") * 1024.0);
  registry.GetGauge("process.peak_rss_bytes")
      ->SetAlways(ProcStatusKb("VmHWM") * 1024.0);
  registry.GetGauge("process.open_fds")->SetAlways(CountOpenFds());
  registry.GetGauge("process.uptime_seconds")
      ->SetAlways(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - g_process_start)
                      .count());
}

double ExactQuantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double clamped = std::min(1.0, std::max(0.0, q));
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(values.size())));
  if (rank == 0) rank = 1;
  return values[rank - 1];
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>(name);
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>(name);
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(name);
  return slot.get();
}

std::string MetricsRegistry::SnapshotJson() const {
  // Refresh the self-gauges before taking the lock (SampleProcessGauges
  // registers through Global() and would deadlock under it).
  if (this == &Global()) SampleProcessGauges();
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    out << JsonQuote(name) << ": " << counter->value();
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    out << JsonQuote(name) << ": ";
    AppendJsonNumber(&out, gauge->value());
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    const HistogramSnapshot snap = histogram->Snapshot();
    out << (first ? "\n    " : ",\n    ");
    first = false;
    out << JsonQuote(name) << ": {\"count\": " << snap.count << ", \"sum\": ";
    AppendJsonNumber(&out, snap.sum);
    out << ", \"min\": ";
    AppendJsonNumber(&out, snap.min);
    out << ", \"max\": ";
    AppendJsonNumber(&out, snap.max);
    out << ", \"p50\": ";
    AppendJsonNumber(&out, snap.p50);
    out << ", \"p90\": ";
    AppendJsonNumber(&out, snap.p90);
    out << ", \"p95\": ";
    AppendJsonNumber(&out, snap.p95);
    out << ", \"p99\": ";
    AppendJsonNumber(&out, snap.p99);
    // Raw non-empty buckets as cumulative [upper_bound, count] pairs so a
    // snapshot file round-trips into Prometheus `le` buckets
    // (bepi_cli metrics-export).
    out << ", \"buckets\": [";
    std::vector<std::uint64_t> counts;
    histogram->SnapshotBuckets(&counts);
    std::uint64_t cumulative = 0;
    bool first_bucket = true;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      const std::uint64_t c = counts[static_cast<std::size_t>(i)];
      if (c == 0) continue;
      cumulative += c;
      if (!first_bucket) out << ", ";
      first_bucket = false;
      out << "[";
      AppendJsonNumber(&out, Histogram::BucketUpperBound(i));
      out << ", " << cumulative << "]";
    }
    out << "]";
    const HistogramExemplar exemplar = histogram->exemplar();
    if (exemplar.valid) {
      out << ", \"exemplar\": {\"value\": ";
      AppendJsonNumber(&out, exemplar.value);
      out << ", \"ts\": ";
      AppendJsonNumber(&out, exemplar.ts_unix_seconds);
      out << ", \"label\": " << JsonQuote(exemplar.label) << "}";
    }
    out << "}";
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

void MetricsRegistry::VisitCounters(
    const std::function<void(const std::string&, const Counter&)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) fn(name, *counter);
}

void MetricsRegistry::VisitGauges(
    const std::function<void(const std::string&, const Gauge&)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, gauge] : gauges_) fn(name, *gauge);
}

void MetricsRegistry::VisitHistograms(
    const std::function<void(const std::string&, const Histogram&)>& fn)
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, histogram] : histograms_) fn(name, *histogram);
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

namespace internal {

void InitMetricsFromEnv() {
  const char* env = std::getenv("BEPI_METRICS");
  if (env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0')) {
    SetMetricsEnabled(true);
  }
}

namespace {
struct MetricsEnvInit {
  MetricsEnvInit() { InitMetricsFromEnv(); }
} g_metrics_env_init;
}  // namespace

}  // namespace internal
}  // namespace bepi
