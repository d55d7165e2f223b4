#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "obs/json.h"

namespace nfvbench {

std::optional<double> percentile(std::vector<double> samples, double q) {
  if (!(q > 0.0 && q < 1.0)) throw std::invalid_argument("percentile: q out of (0, 1)");
  const std::size_t n = samples.size();
  // Nearest rank, 1-based; the epsilon keeps 0.99 * 1000 at rank 990.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  if (rank == 0 || n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

void Checksum::add(std::string_view bytes) noexcept {
  for (const char c : bytes) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ULL;
  }
}

void Checksum::add_u64(std::uint64_t value) noexcept {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  add(std::string_view(bytes, sizeof bytes));
}

void Checksum::add_double(double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add_u64(bits);
}

std::int64_t SpanRecorder::open(const char* name, std::uint64_t request_id) {
  Span span;
  span.name = name;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_).count();
  span.parent = open_.empty() ? -1 : open_.back();
  span.request_id = request_id;
  spans_.push_back(span);
  const auto index = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::close(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
          .count();
  // Scopes nest, so the span being closed is the innermost open one.
  open_.pop_back();
}

void SpanRecorder::write_json(std::ostream& out) const {
  nfvm::obs::JsonWriter w(out);
  w.begin_object();
  w.key("spans").begin_array();
  for (const Span& s : spans_) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("start_us").value(static_cast<double>(s.start_ns) / 1e3);
    w.key("end_us").value(static_cast<double>(s.end_ns) / 1e3);
    w.key("parent").value(s.parent);
    w.key("request").value(s.request_id);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so a
  // benchmark started from a larger parent (python3 run.py) would report
  // the parent's peak.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace nfvbench
