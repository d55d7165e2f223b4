// Helpers shared by the benchmark program and its self-test: sample
// statistics with the "ten samples beyond" percentile rule, metric-name
// checks, a byte checksum, and the in-memory span recorder of traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace nfvbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Samples needed strictly above a reported percentile.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile (q in (0, 1)) of `samples`, or nullopt unless at
/// least kMinSamplesBeyond samples lie beyond the reported rank - a p99
/// therefore needs 1000 samples, a p50 twenty.
std::optional<double> percentile(std::vector<double> samples, double q);

/// Median of a non-empty set (mean of the two middle values when even).
double median(std::vector<double> values);

/// Metric names follow [A-Za-z0-9_.-]+, start with a letter or a digit and
/// are at most 64 characters long.
bool valid_metric_name(std::string_view name);

/// FNV-1a over bytes; used for decision and trace checksums.
class Checksum {
 public:
  void add(std::string_view bytes) noexcept;
  void add_u64(std::uint64_t value) noexcept;
  void add_double(double value) noexcept;
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// One timed call made by the benchmark into the library.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< since the recorder's epoch
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< index into the recorder's spans, -1 = root
  std::uint64_t request_id = 0;
};

/// Spans stay in memory while the workload runs and are written once at the
/// end. A disabled recorder records nothing and costs one branch per call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span under the innermost open one; returns its index.
  std::int64_t open(const char* name, std::uint64_t request_id);
  void close(std::int64_t index);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// {"spans":[{"name":..,"start_us":..,"end_us":..,"parent":..,"request":..}]}
  void write_json(std::ostream& out) const;

  /// RAII span around one call.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, std::uint64_t request_id)
        : recorder_(recorder),
          index_(recorder.enabled_ ? recorder.open(name, request_id) : -1) {}
    ~Scope() {
      if (index_ >= 0) recorder_.close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    std::int64_t index_;
  };

 private:
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// Peak resident set size of this process so far, MiB.
double peak_rss_mb();

}  // namespace nfvbench
