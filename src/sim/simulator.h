// Online admission simulator: one timed-arrival loop over the shared
// admission step (sim/admission.h), which validates every admitted
// pseudo-multicast tree against the physical topology and aggregates
// RunMetrics. run_online and run_online_dynamic feed it from a span;
// run_soak (sim/soak.h) draws its arrivals on the fly.
#pragma once

#include <span>
#include <vector>

#include "core/online.h"
#include "sim/admission.h"
#include "sim/metrics.h"
#include "sim/request_gen.h"

namespace nfvm::sim {

/// Runs the full sequence through `algorithm` (which carries resource state
/// across calls) with no departures: admitted requests keep their resources
/// after the run. Throws std::logic_error for an invalid admitted tree.
RunMetrics run_online(core::OnlineAlgorithm& algorithm,
                      std::span<const nfv::Request> requests,
                      const SimulatorOptions& options = {});

/// A request with an arrival time and a holding duration - the dynamic
/// workload model (the paper's throughput experiments keep admitted
/// requests forever; real deployments release resources on departure, which
/// OnlineAlgorithm::release supports and this simulator exercises).
struct TimedRequest {
  nfv::Request request;
  /// Arrival instant (monotonically non-decreasing across a workload).
  double arrival_time = 0.0;
  /// Holding time; resources release at arrival_time + duration.
  double duration = 0.0;
};

struct DynamicWorkloadOptions {
  /// Poisson arrival rate (arrivals per unit time).
  double arrival_rate = 1.0;
  /// Mean of the exponential holding-time distribution.
  double mean_duration = 20.0;
};

/// Draws `count` requests from `generator` with Poisson arrivals and
/// exponential holding times from `rng`.
std::vector<TimedRequest> make_poisson_workload(RequestGenerator& generator,
                                                util::Rng& rng, std::size_t count,
                                                const DynamicWorkloadOptions& options = {});

/// Event-driven run: before each arrival, footprints of departed requests
/// are released; then the arrival is offered to the algorithm; the
/// departures still pending at the end are drained. Requests must be sorted
/// by arrival_time (throws std::invalid_argument otherwise).
RunMetrics run_online_dynamic(core::OnlineAlgorithm& algorithm,
                              std::span<const TimedRequest> requests,
                              const SimulatorOptions& options = {});

}  // namespace nfvm::sim
