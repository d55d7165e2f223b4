// The per-arrival admission step every online driver shares: the simulator's
// arrival loop (run_online, run_online_dynamic, run_soak) and the nfvm-serve
// daemon. One step owns the whole per-request path - the decision, its
// timer and latency instruments, validation of the admitted tree against
// the physical topology, accept/reject accounting, and the event record -
// so the drivers differ only in where arrivals come from and when
// departures happen.
#pragma once

#include "core/online.h"
#include "obs/event_log.h"
#include "obs/hdr_histogram.h"
#include "sim/metrics.h"

namespace nfvm::sim {

struct SimulatorOptions {
  /// When non-null and open, one JSONL event is written per processed
  /// request (see docs/observability.md for the schema). Not owned.
  obs::EventLog* event_log = nullptr;
  /// Record per-request decision provenance (core::RequestRecord): phase
  /// timings, candidate-scan counts, cost breakdown, reject context. The
  /// fields ride on each request event and feed `nfvm-report latency` /
  /// `explain`. Requires NFVM_OBS; decisions are unaffected either way.
  bool record_provenance = false;
};

class AdmissionStep {
 public:
  /// The algorithm must outlive the step. Applies the provenance switch to
  /// the algorithm.
  explicit AdmissionStep(core::OnlineAlgorithm& algorithm,
                         const SimulatorOptions& options = {});

  /// Offers `request` to the algorithm: times process() into
  /// `online.decision_us` (HDR and window), validates an admitted tree with
  /// core::validate_pseudo_tree, counts the outcome into metrics() and
  /// writes the request event (a negative `arrival_time` omits that field).
  /// An invalid tree is a fault of the algorithm: its footprint is released
  /// again, so residuals are as before the call, and std::logic_error is
  /// thrown. process()'s own std::invalid_argument for a malformed request
  /// propagates with nothing counted.
  core::AdmissionDecision admit(const nfv::Request& request,
                                double arrival_time = -1.0);

  /// Returns an admitted request's footprint on departure.
  void release(const nfv::Footprint& footprint) { algorithm_->release(footprint); }

  RunMetrics& metrics() noexcept { return metrics_; }
  /// Decision-latency quantile over every admit() so far, microseconds;
  /// 0 before the first.
  double latency_quantile(double q) const;

 private:
  core::OnlineAlgorithm* algorithm_;
  obs::EventLog* event_log_;
  RunMetrics metrics_;
  obs::HdrHistogram latency_;
};

}  // namespace nfvm::sim
