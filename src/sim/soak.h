// Sustained-load soak harness: streams millions of Poisson (optionally
// diurnally modulated) arrivals and exponential departures through an online
// algorithm without materializing the workload. Where run_online_dynamic
// takes a pregenerated std::vector<TimedRequest> (fine for 10^4-10^5
// requests, prohibitive at 10^6+), run_soak draws each request on the fly,
// so memory stays flat at the departure queue's size and the run length is
// bounded only by patience. Both are arrival sources over the same loop
// (sim/simulator.cpp) and admission step (sim/admission.h).
//
// Wired to `nfvm-sim --soak N` (plus --arrival-rate / --mean-duration /
// --diurnal-amplitude / --diurnal-period); combine with --timeseries and
// --slo to exercise the windowed telemetry and SLO layers this harness
// exists to feed. Determinism: the arrival process consumes the RNG
// identically whether or not NFVM_OBS instrumentation is compiled in, so
// decision streams are byte-identical across builds.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>

#include "core/online.h"
#include "sim/request_gen.h"
#include "sim/simulator.h"

namespace nfvm::sim {

struct SoakOptions : ArrivalProcess {
  /// Number of arrivals to offer.
  std::size_t num_requests = 1'000'000;
  /// Per-request delay bound, applied to every generated request;
  /// 0 = unconstrained (mirrors `nfvm-sim --max-delay`).
  double max_delay_ms = 0.0;
  /// Invoked every `progress_every` processed requests (and once at the
  /// end) with the number processed so far; 0 disables. Runs inline - keep
  /// it cheap.
  std::size_t progress_every = 0;
  std::function<void(std::size_t processed)> on_progress;
  /// Cooperative early-stop flag (typically flipped by a SIGINT/SIGTERM
  /// handler): checked before each arrival; when true the run winds down
  /// cleanly - departures drained, metrics finalized over the requests
  /// actually processed - and RunMetrics::clean_shutdown reports false.
  /// Null disables the check.
  const std::atomic<bool>* stop = nullptr;
  /// Event-log / provenance switches, as for run_online.
  SimulatorOptions sim;
};

/// Streams `options.num_requests` arrivals from `generator` through
/// `algorithm`, releasing departed footprints before each arrival. `rng`
/// drives the arrival process (inter-arrival gaps, holding times, diurnal
/// thinning); `generator` draws the request bodies. The per-request series
/// of RunMetrics stay empty. Throws std::invalid_argument for a bad arrival
/// process (ArrivalProcess::check) and std::logic_error for an invalid
/// admitted tree.
RunMetrics run_soak(core::OnlineAlgorithm& algorithm, RequestGenerator& generator,
                    util::Rng& rng, const SoakOptions& options);

}  // namespace nfvm::sim
