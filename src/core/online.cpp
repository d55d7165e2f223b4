#include "core/online.h"

#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace nfvm::core {

std::string_view to_string(RejectCause cause) {
  switch (cause) {
    case RejectCause::kNone: return "none";
    case RejectCause::kBandwidth: return "bandwidth";
    case RejectCause::kCompute: return "compute";
    case RejectCause::kThreshold: return "threshold";
    case RejectCause::kDelay: return "delay";
    case RejectCause::kOther: return "other";
  }
  return "other";
}

OnlineAlgorithm::OnlineAlgorithm(const topo::Topology& topo)
    : topo_(&topo), state_(topo) {
#if NFVM_OBS
  // Pre-register the full rejection breakdown so a metrics export always
  // carries every online.reject.* key, including the zero ones - consumers
  // can sum the family without special-casing absent counters.
  obs::Registry& registry = obs::Registry::global();
  registry.counter("online.reject.bandwidth");
  registry.counter("online.reject.compute");
  registry.counter("online.reject.threshold");
  registry.counter("online.reject.delay");
  registry.counter("online.reject.other");
  spcache_hits_counter_ = registry.counter("graph.spcache.hits");
  spcache_misses_counter_ = registry.counter("graph.spcache.misses");
#endif
}

AdmissionDecision OnlineAlgorithm::process(const nfv::Request& request) {
  NFVM_SPAN("online/admit");
  nfv::validate_request(request, topo_->graph);
#if NFVM_OBS
  RequestRecord record;
  util::Stopwatch total_watch;
  std::uint64_t spcache_hits_before = 0;
  std::uint64_t spcache_misses_before = 0;
  if (record_provenance_) {
    record.request_id = request.id;
    record.servers_total = topo_->servers.size();
    spcache_hits_before = spcache_hits_counter_->value();
    spcache_misses_before = spcache_misses_counter_->value();
    active_record_ = &record;
  }
#endif
  AdmissionDecision decision = try_admit(request);
  NFVM_OBS_ONLY(active_record_ = nullptr;)
  if (decision.admitted) {
    // try_admit must hand back a footprint that fits; allocate() re-checks
    // and throws on a contract violation rather than over-committing.
    state_.allocate(decision.footprint);
    {
      NFVM_OBS_ONLY(const util::Stopwatch patch_watch;)
      NFVM_SPAN("online/view_patch");
      after_change(decision.footprint);
      NFVM_OBS_ONLY(if (record_provenance_) record.view_patch_us = patch_watch.elapsed_us();)
    }
    ++num_admitted_;
    decision.reject_cause = RejectCause::kNone;
    NFVM_COUNTER_INC("online.admitted");
  } else {
    ++num_rejected_;
    if (decision.reject_cause == RejectCause::kNone) {
      decision.reject_cause = RejectCause::kOther;
    }
    NFVM_COUNTER_INC("online.rejected");
    switch (decision.reject_cause) {
      case RejectCause::kBandwidth:
        NFVM_COUNTER_INC("online.reject.bandwidth");
        break;
      case RejectCause::kCompute:
        NFVM_COUNTER_INC("online.reject.compute");
        break;
      case RejectCause::kThreshold:
        NFVM_COUNTER_INC("online.reject.threshold");
        break;
      case RejectCause::kDelay:
        NFVM_COUNTER_INC("online.reject.delay");
        break;
      default:
        NFVM_COUNTER_INC("online.reject.other");
        break;
    }
  }
  NFVM_COUNTER_INC("online.requests");
#if NFVM_OBS
  if (record_provenance_) {
    record.admitted = decision.admitted;
    record.total_us = total_watch.elapsed_us();
    record.spcache_hits = spcache_hits_counter_->value() - spcache_hits_before;
    record.spcache_misses =
        spcache_misses_counter_->value() - spcache_misses_before;
    decision.record = std::make_shared<const RequestRecord>(std::move(record));
  }
#endif
  return decision;
}

void OnlineAlgorithm::release(const nfv::Footprint& footprint) {
  state_.release(footprint);
  NFVM_SPAN("online/view_release");
  after_change(footprint);
}

void OnlineAlgorithm::restore_resources(const nfv::ResourceResiduals& residuals) {
  state_.restore_residuals(residuals);
  after_restore();
}

void OnlineAlgorithm::after_change(const nfv::Footprint& /*footprint*/) {}
void OnlineAlgorithm::after_restore() {}

}  // namespace nfvm::core
