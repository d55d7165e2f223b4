// The benchmark's workloads. Each one generates its inputs from the run's
// seed with the library's own generators, sets up several times, then
// measures whole passes over the same inputs until the run's time is spent.
// Every pass is checked (tree validation, reply counts, residuals back at
// capacity, identical decision checksums across passes).
//
// A run with trace off reports the end-to-end metrics; a run with trace on
// alternates untraced and traced passes and reports the per-layer metrics.
// See nfvbench/README.md for what each metric means.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "sim/simulator.h"
#include "topology/topology.h"

namespace nfvbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind a sampled statistic (percentiles, medians); 0 otherwise.
  std::size_t samples = 0;
  /// False when the layer is not on this workload's path; value is then 0.
  bool applicable = true;
};

struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// The first few correctness failures, for the report.
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// Peak resident memory after set-up and the first two measured passes,
  /// MiB - a fixed amount of work, so the figure does not grow with the
  /// number of passes a faster build fits into the run.
  double peak_rss_mb = 0.0;
  /// Non-empty when the run must not be reported (the open-loop generator
  /// fell behind its schedule).
  std::string invalid;
  /// Extra report lines (checksums, residual error, generator lag).
  std::vector<std::string> notes;

  /// Counts `count` failed operations and keeps the message.
  void fail(const std::string& what, std::size_t count = 1);
};

struct Workload {
  const char* name;
  const char* why;
  RunResult (*run)(const RunOptions& options, SpanRecorder& spans);
};

/// Every workload, in the order BENCHMARK.json lists them.
const std::vector<Workload>& workloads();

/// (name, unit) of every end-to-end and every per-layer metric, in report
/// order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

// --- Input generation (exposed for the self-test) --------------------------

/// Online_CP inputs: the Waxman-400 topology and the arrival sequence
/// (static: arrival i at time i, never departing; churn: Poisson arrivals
/// with exponential holding times).
struct OnlineInputs {
  nfvm::topo::Topology topo;
  std::vector<nfvm::sim::TimedRequest> arrivals;
};
OnlineInputs make_online_inputs(std::uint64_t seed, bool churn);

/// nfvm-serve inputs: GEANT, the arrive/depart trace lines, and the
/// open-loop due offsets (seconds from the phase start) of every line.
struct ServeInputs {
  nfvm::topo::Topology topo;
  std::vector<std::string> lines;
  std::vector<double> due_s;
  std::size_t arrivals = 0;
};
ServeInputs make_serve_inputs(std::uint64_t seed);

/// Checksum of a request sequence (ids, endpoints, demand, chain, times).
std::uint64_t request_checksum(const std::vector<nfvm::sim::TimedRequest>& requests);
/// Checksum of trace lines (bytes and line breaks).
std::uint64_t lines_checksum(const std::vector<std::string>& lines);

}  // namespace nfvbench
