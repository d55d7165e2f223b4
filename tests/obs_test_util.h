// Test-facing aliases for the obs:: JSON parser (which validates the
// observability exports), plus a helper that makes the base-2 histogram
// buckets older metrics files carry. The parser used to live here; it was
// promoted to src/obs/json.h so the nfvm-report tool can load artifacts
// with it. Parser edge-case tests live in tests/test_obs_json.cpp.
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace nfvm::test {

using JsonValue = obs::JsonValue;

inline JsonValue parse_json(const std::string& text) {
  return obs::parse_json(text);
}

/// Buckets samples the way the "log2" histogram kind of nfvm-metrics-v1/v2
/// files does: bucket 0 takes everything <= 1, bucket i covers
/// (2^(i-1), 2^i]. Emitted up to the highest non-empty bucket.
inline std::vector<obs::HistogramBucket> log2_buckets(
    const std::vector<double>& samples) {
  std::vector<obs::HistogramBucket> buckets;
  for (const double s : samples) {
    std::size_t i = 0;
    while (s > std::ldexp(1.0, static_cast<int>(i))) ++i;
    while (buckets.size() <= i) {
      buckets.push_back({std::ldexp(1.0, static_cast<int>(buckets.size())), 0});
    }
    ++buckets[i].count;
  }
  return buckets;
}

}  // namespace nfvm::test
