#include "sim/admission.h"

#include <stdexcept>
#include <string>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/window.h"
#include "util/timer.h"

namespace nfvm::sim {

namespace {

/// One JSONL record per processed request (schema "nfvm-events-v2", see
/// docs/observability.md). When the decision carries a RequestRecord, its
/// provenance fields ride on the same line.
void emit_request_event(obs::EventLog& log, const core::OnlineAlgorithm& algorithm,
                        std::size_t index, const nfv::Request& request,
                        const core::AdmissionDecision& decision,
                        double decision_seconds, double arrival_time) {
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
  log.write(line);
}

}  // namespace

AdmissionStep::AdmissionStep(core::OnlineAlgorithm& algorithm,
                             const SimulatorOptions& options)
    : algorithm_(&algorithm), event_log_(options.event_log) {
  algorithm.set_record_provenance(options.record_provenance);
}

core::AdmissionDecision AdmissionStep::admit(const nfv::Request& request,
                                             double arrival_time) {
  util::Stopwatch watch;
  core::AdmissionDecision decision = algorithm_->process(request);
  const double seconds = watch.elapsed_seconds();
  const double us = seconds * 1e6;
  latency_.observe(us);
  NFVM_HDR_OBSERVE("online.decision_us", us);
  NFVM_WINDOW_OBSERVE("online.decision_us", us);

  if (decision.admitted) {
    std::string error;
    if (!core::validate_pseudo_tree(algorithm_->topology().graph, request,
                                    decision.tree, &error)) {
      algorithm_->release(decision.footprint);
      throw std::logic_error("invalid pseudo-multicast tree from " +
                             std::string(algorithm_->name()) + " for " +
                             request.to_string() + ": " + error);
    }
  }

  RunMetrics& m = metrics_;
  const std::size_t index = m.num_requests++;
  m.decision_us.add(us);
  if (const core::RequestRecord* rec = decision.record.get()) {
    m.phase_classify_us += rec->classify_us;
    m.phase_closure_us += rec->closure_us;
    m.phase_eval_us += rec->eval_us;
    m.phase_realize_us += rec->realize_us;
    m.phase_view_patch_us += rec->view_patch_us;
  }
  if (decision.admitted) {
    ++m.num_admitted;
    m.admitted_costs.add(decision.tree.cost);
  } else {
    ++m.num_rejected;
    ++m.rejects_by_cause[static_cast<std::size_t>(decision.reject_cause)];
    if (obs::log_enabled(obs::LogLevel::kDebug)) {
      obs::log_debug("reject " + request.to_string() + ": " + decision.reject_reason);
    }
  }
  if (event_log_ != nullptr && event_log_->is_open()) {
    emit_request_event(*event_log_, *algorithm_, index, request, decision, seconds,
                       arrival_time);
  }
  return decision;
}

double AdmissionStep::latency_quantile(double q) const {
  return latency_.count() > 0 ? latency_.quantile(q) : 0.0;
}

}  // namespace nfvm::sim
