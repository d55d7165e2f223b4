#include "sim/simulator.h"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "obs/hdr_histogram.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "util/timer.h"

namespace nfvm::sim {

/// One JSONL record per processed request (schema "nfvm-events-v2", see
/// docs/observability.md). When the decision carries a RequestRecord, its
/// provenance fields ride on the same line.
void emit_request_event(obs::EventLog* log, const core::OnlineAlgorithm& algorithm,
                        std::size_t index, const nfv::Request& request,
                        const core::AdmissionDecision& decision,
                        double decision_seconds, double arrival_time) {
  if (log == nullptr || !log->is_open()) return;
  obs::JsonLine line;
  line.field("event", "request")
      .field("algorithm", algorithm.name())
      .field("index", index)
      .field("request_id", static_cast<std::uint64_t>(request.id))
      .field("source", static_cast<std::uint64_t>(request.source))
      .field("num_destinations", request.destinations.size())
      .field("bandwidth_mbps", request.bandwidth_mbps)
      .field("admitted", decision.admitted);
  if (decision.admitted) {
    line.field("cost", decision.tree.cost)
        .field("servers", decision.tree.servers.size());
  } else {
    line.field("reject_cause", core::to_string(decision.reject_cause))
        .field("reject_reason", decision.reject_reason);
  }
  line.field("decision_us", decision_seconds * 1e6);
  if (arrival_time >= 0.0) line.field("arrival_time", arrival_time);
  if (const core::RequestRecord* rec = decision.record.get()) {
    line.field("fast_path", rec->fast_path)
        .field("total_us", rec->total_us)
        .field("phase_classify_us", rec->classify_us)
        .field("phase_closure_us", rec->closure_us)
        .field("phase_eval_us", rec->eval_us)
        .field("phase_realize_us", rec->realize_us)
        .field("phase_view_patch_us", rec->view_patch_us)
        .field("servers_total", rec->servers_total)
        .field("servers_eligible", rec->servers_eligible)
        .field("servers_evaluated", rec->servers_evaluated)
        .field("bound_pruned", rec->bound_pruned)
        .field("server_rows", rec->server_rows)
        .field("candidates_feasible", rec->candidates_feasible);
    if (decision.admitted) {
      line.field("chosen_server", rec->chosen_server)
          .field("cost_total", rec->cost_total)
          .field("cost_steiner", rec->cost_steiner)
          .field("cost_server", rec->cost_server)
          .field("cost_backhaul", rec->cost_backhaul);
    }
    line.field("spcache_hits", rec->spcache_hits)
        .field("spcache_misses", rec->spcache_misses)
        .field("skip_compute", rec->skipped_compute)
        .field("skip_sigma_v", rec->skipped_sigma_v)
        .field("fail_disconnected", rec->failed_disconnected)
        .field("fail_sigma_e", rec->failed_sigma_e)
        .field("fail_delay", rec->failed_delay)
        .field("fail_capacity", rec->failed_capacity)
        .field("cost_pruned", rec->cost_pruned);
  }
  log->write(line);
}

namespace {

/// Accumulates a decision's phase timings into the run-level sums.
void accumulate_phases(SimulationMetrics& metrics,
                       const core::AdmissionDecision& decision) {
  if (const core::RequestRecord* rec = decision.record.get()) {
    metrics.phase_classify_us += rec->classify_us;
    metrics.phase_closure_us += rec->closure_us;
    metrics.phase_eval_us += rec->eval_us;
    metrics.phase_realize_us += rec->realize_us;
    metrics.phase_view_patch_us += rec->view_patch_us;
  }
}

}  // namespace

SimulationMetrics run_online(core::OnlineAlgorithm& algorithm,
                             std::span<const nfv::Request> requests,
                             const SimulatorOptions& options) {
  NFVM_SPAN("sim/run_online");
  SimulationMetrics metrics;
  metrics.num_requests = requests.size();
  metrics.decisions.reserve(requests.size());
  metrics.cumulative_admitted.reserve(requests.size());
  algorithm.set_record_provenance(options.record_provenance);

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const nfv::Request& request = requests[i];
    util::Stopwatch watch;
    const core::AdmissionDecision decision = algorithm.process(request);
    const double seconds = watch.elapsed_seconds();
    metrics.decision_seconds.add(seconds);
    NFVM_HDR_OBSERVE("online.decision_us", seconds * 1e6);
    NFVM_WINDOW_OBSERVE("online.decision_us", seconds * 1e6);
    accumulate_phases(metrics, decision);

    if (decision.admitted) {
      if (options.validate_trees) {
        std::string error;
        if (!core::validate_pseudo_tree(algorithm.topology().graph, request,
                                        decision.tree, &error)) {
          throw std::logic_error("run_online: invalid pseudo-multicast tree for " +
                                 request.to_string() + ": " + error);
        }
      }
      ++metrics.num_admitted;
      metrics.admitted_costs.add(decision.tree.cost);
    } else {
      ++metrics.num_rejected;
      ++metrics.rejects_by_cause[static_cast<std::size_t>(decision.reject_cause)];
      if (obs::log_enabled(obs::LogLevel::kDebug)) {
        obs::log_debug("reject " + request.to_string() + ": " +
                       decision.reject_reason);
      }
    }
    metrics.decisions.push_back(decision.admitted);
    metrics.cumulative_admitted.push_back(metrics.num_admitted);
    emit_request_event(options.event_log, algorithm, i, request, decision, seconds);
  }

  // Mean utilizations across links / servers at the end of the run.
  const nfv::ResourceState& state = algorithm.resources();
  double bw = 0.0;
  for (graph::EdgeId e = 0; e < state.num_links(); ++e) {
    bw += state.bandwidth_utilization(e);
  }
  metrics.final_bandwidth_utilization =
      state.num_links() == 0 ? 0.0 : bw / static_cast<double>(state.num_links());
  double cp = 0.0;
  std::size_t servers = 0;
  for (graph::VertexId v = 0; v < state.num_switches(); ++v) {
    if (state.compute_capacity(v) > 0) {
      cp += state.compute_utilization(v);
      ++servers;
    }
  }
  metrics.final_compute_utilization =
      servers == 0 ? 0.0 : cp / static_cast<double>(servers);
  NFVM_GAUGE_SET("sim.final_bandwidth_utilization",
                 metrics.final_bandwidth_utilization);
  NFVM_GAUGE_SET("sim.final_compute_utilization",
                 metrics.final_compute_utilization);
  return metrics;
}

}  // namespace nfvm::sim

namespace nfvm::sim {

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

DynamicMetrics run_online_dynamic(core::OnlineAlgorithm& algorithm,
                                  std::span<const TimedRequest> requests,
                                  const SimulatorOptions& options) {
  NFVM_SPAN("sim/run_online_dynamic");
  for (std::size_t i = 1; i < requests.size(); ++i) {
    if (requests[i].arrival_time < requests[i - 1].arrival_time) {
      throw std::invalid_argument("run_online_dynamic: arrivals not sorted");
    }
  }

  DynamicMetrics metrics;
  metrics.num_requests = requests.size();
  algorithm.set_record_provenance(options.record_provenance);

  // Departure queue: (departure_time, footprint). Earliest departure first.
  struct Departure {
    double time;
    nfv::Footprint footprint;
  };
  const auto later = [](const Departure& a, const Departure& b) {
    return a.time > b.time;
  };
  std::priority_queue<Departure, std::vector<Departure>, decltype(later)> active(later);

  double active_sum = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const TimedRequest& tr = requests[i];
    while (!active.empty() && active.top().time <= tr.arrival_time) {
      algorithm.release(active.top().footprint);
      active.pop();
    }
    util::Stopwatch watch;
    const core::AdmissionDecision decision = algorithm.process(tr.request);
    const double seconds = watch.elapsed_seconds();
    NFVM_HDR_OBSERVE("online.decision_us", seconds * 1e6);
    NFVM_WINDOW_OBSERVE("online.decision_us", seconds * 1e6);
    if (decision.admitted) {
      if (options.validate_trees) {
        std::string error;
        if (!core::validate_pseudo_tree(algorithm.topology().graph, tr.request,
                                        decision.tree, &error)) {
          throw std::logic_error("run_online_dynamic: invalid tree for " +
                                 tr.request.to_string() + ": " + error);
        }
      }
      ++metrics.num_admitted;
      metrics.admitted_costs.add(decision.tree.cost);
      active.push(Departure{tr.arrival_time + tr.duration, decision.footprint});
    } else {
      ++metrics.num_rejected;
      ++metrics.rejects_by_cause[static_cast<std::size_t>(decision.reject_cause)];
    }
    metrics.peak_active = std::max(metrics.peak_active, active.size());
    active_sum += static_cast<double>(active.size());
    emit_request_event(options.event_log, algorithm, i, tr.request, decision,
                       seconds, tr.arrival_time);
  }
  metrics.mean_active = requests.empty()
                            ? 0.0
                            : active_sum / static_cast<double>(requests.size());
  // Drain remaining departures so the algorithm's state returns to idle.
  while (!active.empty()) {
    algorithm.release(active.top().footprint);
    active.pop();
  }
  return metrics;
}

}  // namespace nfvm::sim
