// Random NFV-enabled multicast request generation following the paper's
// evaluation settings (Section VI-A): random source and destinations, the
// destination count bounded by D_max = ratio * |V| with the ratio drawn from
// [0.05, 0.2] (or fixed), bandwidth uniform in [50, 200] Mbps, and a random
// service chain over the five network functions.
#pragma once

#include <string_view>
#include <vector>

#include "nfv/request.h"
#include "topology/topology.h"
#include "util/rng.h"

namespace nfvm::sim {

struct RequestGenOptions {
  /// Bounds for the per-request ratio D_max/|V|. Set both equal to fix it.
  double min_dest_ratio = 0.05;
  double max_dest_ratio = 0.20;
  /// Bandwidth demand range, Mbps.
  double min_bandwidth_mbps = 50.0;
  double max_bandwidth_mbps = 200.0;
  /// Service chain length bounds (1..5 distinct NFs).
  std::size_t min_chain_length = 1;
  std::size_t max_chain_length = 3;
};

class RequestGenerator {
 public:
  /// Throws std::invalid_argument for inconsistent options or a topology
  /// too small to host source + one destination.
  RequestGenerator(const topo::Topology& topo, util::Rng& rng,
                   const RequestGenOptions& options = {});

  /// Generates the next request (ids increase from 1). The destination count
  /// is uniform in [1, max(1, floor(ratio * |V|))]; destinations are
  /// distinct and exclude the source.
  nfv::Request next();

  /// Generates a whole arrival sequence.
  std::vector<nfv::Request> sequence(std::size_t count);

 private:
  const topo::Topology* topo_;
  util::Rng* rng_;
  RequestGenOptions options_;
  std::uint64_t next_id_ = 1;
};

/// The streaming arrival model shared by run_soak (sim/soak.h) and
/// serve::write_serve_trace: Poisson arrivals, optionally diurnally
/// modulated, with exponential holding times. Both draw from the same
/// thinned-Poisson stream; each consumes the holding time and the request
/// body in its own order around it.
struct ArrivalProcess {
  /// Base Poisson arrival rate (arrivals per simulated time unit).
  double arrival_rate = 1.0;
  /// Mean of the exponential holding-time distribution.
  double mean_duration = 20.0;
  /// Diurnal modulation amplitude A in [0, 1):
  ///   rate(t) = arrival_rate * (1 + A * sin(2*pi*t / diurnal_period)).
  /// 0 keeps arrivals homogeneous. Implemented by thinning a homogeneous
  /// process at the peak rate, the standard exact method for
  /// non-homogeneous Poisson processes.
  double diurnal_amplitude = 0.0;
  /// Simulated time units per diurnal cycle.
  double diurnal_period = 86'400.0;

  /// Throws std::invalid_argument, prefixed with `who`, for non-positive
  /// rates, an amplitude outside [0, 1), or a non-positive period while the
  /// modulation is on.
  void check(std::string_view who) const;

  /// Next arrival instant after `clock`. Homogeneous draws at the peak rate
  /// are thinned down to the instantaneous rate (Lewis & Shedler); with zero
  /// amplitude every candidate is accepted and this reduces to the plain
  /// exponential gap.
  double next_arrival(util::Rng& rng, double clock) const;
};

}  // namespace nfvm::sim
