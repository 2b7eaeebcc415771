// The unified metrics registry of the flight recorder: the simulator, the
// network facade (fabric-wide switch, notification and control-plane
// totals, wire accounting), the observer and the polling baseline register
// their counters and gauges here under a dotted name, so the scattered
// one-off accessors (`delivered()`, `dropped_overflow()`, `SimulatorStats`,
// ...) read through one enumerable surface.
//
// Counters and gauges are *readers*: the registry stores a callback into
// the owning component, so registration is free on the hot path — the
// component keeps bumping its own member variable and the registry reads
// it only when `collect()`/`write_json()` is called (bench JSON dumps,
// examples, tests). Histograms are owned by the registry (fixed 64-bucket
// log2 layout, no allocation per sample) and are recorded into directly.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace speedlight::obs {

enum class MetricKind : std::uint8_t {
  Counter,  ///< Monotonically non-decreasing (resets allowed, see below).
  Gauge,    ///< Point-in-time value (queue depth, backlog, watermark).
};

/// Fixed-footprint log2-bucket histogram of non-negative integer samples
/// (latencies in ns, depths in entries). Bucket i holds values in
/// [2^(i-1), 2^i); percentile() returns the upper bound of the matched
/// bucket clamped to the observed [min, max] — still a <=2x overestimate
/// within the range, which is fine for the dashboards and shape checks
/// this feeds, but never an impossible value above the recorded maximum.
class Histogram {
 public:
  void record(std::uint64_t v) {
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
    ++buckets_[bucket_of(v)];
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  /// p in [0, 1]. The bucket upper bound is clamped to the observed
  /// [min, max] so a percentile can never exceed the true maximum (a
  /// log2 bucket's bound is up to 2x above any sample in it).
  [[nodiscard]] std::uint64_t percentile(double p) const {
    if (count_ == 0) return 0;
    const auto target = static_cast<std::uint64_t>(
        p * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen > target) {
        return std::clamp(upper_bound(i), min_, max_);
      }
    }
    return max_;
  }
  void reset() { *this = Histogram{}; }

 private:
  static std::size_t bucket_of(std::uint64_t v) {
    return std::min<std::size_t>(std::bit_width(v), 63);
  }
  static std::uint64_t upper_bound(std::size_t bucket) {
    return bucket >= 63 ? std::numeric_limits<std::uint64_t>::max()
                        : (std::uint64_t{1} << bucket);
  }

  std::array<std::uint64_t, 64> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

class MetricsRegistry {
 public:
  using Reader = std::function<std::uint64_t()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register a named counter/gauge backed by `read`. Names are dotted
  /// paths ("fabric.notif.delivered"). A clashing name gets a "#N"
  /// suffix so independent components never silently alias (the suffixed
  /// name is returned).
  std::string register_reader(std::string name, MetricKind kind, Reader read);

  /// Get-or-create an owned histogram. Stable reference for the registry's
  /// lifetime (components cache the pointer and record() into it).
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  [[nodiscard]] bool contains(const std::string& name) const {
    return readers_.contains(name) || histograms_.contains(name);
  }
  [[nodiscard]] std::size_t size() const {
    return readers_.size() + histograms_.size();
  }

  struct Sample {
    std::string name;
    MetricKind kind;
    std::uint64_t value;
  };
  /// Flattened point-in-time view, sorted by name. Histograms contribute
  /// `<name>.count/.min/.max/.mean/.p50/.p95/.p99` entries (mean rounded).
  [[nodiscard]] std::vector<Sample> collect() const;

  /// Render `collect()` as one JSON object, `indent` spaces deep:
  ///   { "name": value, ... }
  void write_json(std::ostream& os, int indent = 2) const;

 private:
  struct Entry {
    MetricKind kind;
    Reader read;
  };
  std::map<std::string, Entry> readers_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace speedlight::obs
