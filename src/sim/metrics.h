// Aggregated metrics of an online admission run - one struct for every
// arrival source (run_online, run_online_dynamic, run_soak) and for the
// serve daemon's admission step.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "core/online.h"
#include "util/stats.h"

namespace nfvm::sim {

struct RunMetrics {
  /// Arrivals actually processed - a soak's configured count unless its
  /// stop flag ended the run early.
  std::size_t num_requests = 0;
  std::size_t num_admitted = 0;
  std::size_t num_rejected = 0;
  /// Rejections bucketed by core::RejectCause (indexed by the enum value);
  /// entries sum to num_rejected.
  std::array<std::size_t, core::kNumRejectCauses> rejects_by_cause{};
  /// Implementation cost of the admitted requests, in the algorithm's units.
  util::RunningStats admitted_costs;
  /// Per-decision latency in microseconds (no retained samples).
  util::RunningStats decision_us;
  /// Whole-run decision latency quantiles, estimated from an HDR histogram
  /// (<= 1% relative error).
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  /// Summed per-phase wall-clock across all requests, microseconds (see the
  /// phase contract in core/request_record.h). All zero unless the run had
  /// SimulatorOptions::record_provenance set and NFVM_OBS compiled in.
  double phase_classify_us = 0.0;
  double phase_closure_us = 0.0;
  double phase_eval_us = 0.0;
  double phase_realize_us = 0.0;
  double phase_view_patch_us = 0.0;

  /// Per-request series, filled only when the arrivals come as a span
  /// (run_online, run_online_dynamic) - a soak keeps its memory flat.
  /// Admission decisions in arrival order (true = admitted).
  std::vector<bool> decisions;
  /// Cumulative admitted count after each arrival (throughput-over-time,
  /// the series plotted in the paper's Fig. 9).
  std::vector<std::size_t> cumulative_admitted;

  /// Largest / arrival-averaged number of admissions waiting to depart;
  /// 0 for runs without departures.
  std::size_t peak_active = 0;
  double mean_active = 0.0;
  /// Simulated time of the last arrival (0 for untimed arrivals).
  double sim_duration = 0.0;
  /// Wall-clock cost of the whole run and the sustained decision rate.
  double wall_seconds = 0.0;
  double requests_per_s = 0.0;
  /// False when a soak's stop flag interrupted the run; the counts then
  /// cover the arrivals actually processed.
  bool clean_shutdown = true;
  /// Mean link / server utilization after the last arrival, before the
  /// remaining departures are drained.
  double final_bandwidth_utilization = 0.0;
  double final_compute_utilization = 0.0;

  double acceptance_ratio() const {
    return num_requests == 0
               ? 0.0
               : static_cast<double>(num_admitted) / static_cast<double>(num_requests);
  }

  std::size_t rejected_because(core::RejectCause cause) const {
    return rejects_by_cause[static_cast<std::size_t>(cause)];
  }
};

}  // namespace nfvm::sim
