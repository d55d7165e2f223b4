#include "sim/simulator.h"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/soak.h"
#include "util/timer.h"

namespace nfvm::sim {

namespace {

/// One arrival handed to the loop. A negative `time` marks an untimed
/// arrival (the paper's static runs); the event record then omits it.
struct Arrival {
  const nfv::Request* request = nullptr;
  double time = -1.0;
  /// Departure instant of an admitted request; ignored without departures.
  double departs_at = 0.0;
};

void record_final_utilization(const nfv::ResourceState& state, RunMetrics& m) {
  double bw = 0.0;
  for (graph::EdgeId e = 0; e < state.num_links(); ++e) {
    bw += state.bandwidth_utilization(e);
  }
  m.final_bandwidth_utilization =
      state.num_links() == 0 ? 0.0 : bw / static_cast<double>(state.num_links());
  double cp = 0.0;
  std::size_t servers = 0;
  for (graph::VertexId v = 0; v < state.num_switches(); ++v) {
    if (state.compute_capacity(v) > 0) {
      cp += state.compute_utilization(v);
      ++servers;
    }
  }
  m.final_compute_utilization = servers == 0 ? 0.0 : cp / static_cast<double>(servers);
  NFVM_GAUGE_SET("sim.final_bandwidth_utilization", m.final_bandwidth_utilization);
  NFVM_GAUGE_SET("sim.final_compute_utilization", m.final_compute_utilization);
}

/// The timed-arrival loop: pulls arrivals from `next` (false ends the run),
/// releases every departure due by an arrival's instant before offering it
/// to the admission step, and drains the departures still pending at the
/// end so the algorithm returns to idle. Without `departures`, admitted
/// requests keep their resources past the end of the run. RunMetrics'
/// per-request series are filled only for a span source, which passes its
/// length as `span_size`; a streaming source passes 0 and keeps its memory
/// flat.
template <typename Next>
RunMetrics run_arrivals(core::OnlineAlgorithm& algorithm, const SimulatorOptions& options,
                        bool departures, std::size_t span_size, Next next) {
  AdmissionStep step(algorithm, options);
  RunMetrics& m = step.metrics();
  const bool record_series = span_size != 0;
  m.decisions.reserve(span_size);
  m.cumulative_admitted.reserve(span_size);
  struct Departure {
    double time;
    nfv::Footprint footprint;
  };
  const auto later = [](const Departure& a, const Departure& b) { return a.time > b.time; };
  std::priority_queue<Departure, std::vector<Departure>, decltype(later)> pending(later);

  util::Stopwatch wall;
  double active_sum = 0.0;
  Arrival arrival;
  while (next(arrival)) {
    while (!pending.empty() && pending.top().time <= arrival.time) {
      step.release(pending.top().footprint);
      pending.pop();
    }
    core::AdmissionDecision decision = step.admit(*arrival.request, arrival.time);
    if (decision.admitted && departures) {
      pending.push(Departure{arrival.departs_at, std::move(decision.footprint)});
    }
    m.peak_active = std::max(m.peak_active, pending.size());
    active_sum += static_cast<double>(pending.size());
    m.sim_duration = std::max(m.sim_duration, arrival.time);
    if (record_series) {
      m.decisions.push_back(decision.admitted);
      m.cumulative_admitted.push_back(m.num_admitted);
    }
  }

  // All rollups cover the arrivals actually processed, so an interrupted run
  // still writes internally consistent artifacts.
  const auto processed = static_cast<double>(m.num_requests);
  m.wall_seconds = wall.elapsed_seconds();
  m.requests_per_s = m.wall_seconds > 0.0 ? processed / m.wall_seconds : 0.0;
  m.mean_active = m.num_requests == 0 ? 0.0 : active_sum / processed;
  m.p50_us = step.latency_quantile(0.50);
  m.p90_us = step.latency_quantile(0.90);
  m.p99_us = step.latency_quantile(0.99);
  record_final_utilization(algorithm.resources(), m);
  while (!pending.empty()) {
    step.release(pending.top().footprint);
    pending.pop();
  }
  return std::move(m);
}

}  // namespace

RunMetrics run_online(core::OnlineAlgorithm& algorithm,
                      std::span<const nfv::Request> requests,
                      const SimulatorOptions& options) {
  NFVM_SPAN("sim/run_online");
  std::size_t i = 0;
  return run_arrivals(algorithm, options, /*departures=*/false, requests.size(),
                      [&](Arrival& arrival) {
                        if (i == requests.size()) return false;
                        arrival.request = &requests[i++];
                        return true;
                      });
}

std::vector<TimedRequest> make_poisson_workload(RequestGenerator& generator,
                                                util::Rng& rng, std::size_t count,
                                                const DynamicWorkloadOptions& options) {
  if (!(options.arrival_rate > 0) || !(options.mean_duration > 0)) {
    throw std::invalid_argument("make_poisson_workload: rates must be positive");
  }
  std::vector<TimedRequest> workload;
  workload.reserve(count);
  double clock = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    clock += rng.exponential(options.arrival_rate);
    TimedRequest tr;
    tr.request = generator.next();
    tr.arrival_time = clock;
    tr.duration = rng.exponential(1.0 / options.mean_duration);
    workload.push_back(std::move(tr));
  }
  return workload;
}

RunMetrics run_online_dynamic(core::OnlineAlgorithm& algorithm,
                              std::span<const TimedRequest> requests,
                              const SimulatorOptions& options) {
  NFVM_SPAN("sim/run_online_dynamic");
  for (std::size_t i = 1; i < requests.size(); ++i) {
    if (requests[i].arrival_time < requests[i - 1].arrival_time) {
      throw std::invalid_argument("run_online_dynamic: arrivals not sorted");
    }
  }
  std::size_t i = 0;
  return run_arrivals(algorithm, options, /*departures=*/true, requests.size(),
                      [&](Arrival& arrival) {
                        if (i == requests.size()) return false;
                        const TimedRequest& tr = requests[i++];
                        arrival = Arrival{&tr.request, tr.arrival_time,
                                          tr.arrival_time + tr.duration};
                        return true;
                      });
}

RunMetrics run_soak(core::OnlineAlgorithm& algorithm, RequestGenerator& generator,
                    util::Rng& rng, const SoakOptions& options) {
  NFVM_SPAN("sim/run_soak");
  options.check("run_soak");
  const bool report = options.progress_every != 0 && options.on_progress;
  bool stopped = false;
  nfv::Request request;
  double clock = 0.0;
  std::size_t drawn = 0;
  RunMetrics m = run_arrivals(
      algorithm, options.sim, /*departures=*/true, /*span_size=*/0, [&](Arrival& arrival) {
        // Every earlier draw has been processed by now.
        if (report && drawn != 0 && drawn % options.progress_every == 0) {
          options.on_progress(drawn);
        }
        if (drawn == options.num_requests) return false;
        if (options.stop != nullptr && options.stop->load(std::memory_order_relaxed)) {
          stopped = true;
          return false;
        }
        ++drawn;
        clock = options.next_arrival(rng, clock);
        // Draw the holding time before the request body and before
        // processing, so the RNG stream does not depend on the admission
        // outcome - rejected requests consume the same draws as admitted ones.
        const double duration = rng.exponential(1.0 / options.mean_duration);
        request = generator.next();
        request.max_delay_ms = options.max_delay_ms;
        arrival = Arrival{&request, clock, clock + duration};
        return true;
      });
  m.clean_shutdown = !stopped;
  if (report && drawn % options.progress_every != 0) options.on_progress(drawn);
  return m;
}

}  // namespace nfvm::sim
