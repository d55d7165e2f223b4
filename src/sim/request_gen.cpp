#include "sim/request_gen.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace nfvm::sim {

RequestGenerator::RequestGenerator(const topo::Topology& topo, util::Rng& rng,
                                   const RequestGenOptions& options)
    : topo_(&topo), rng_(&rng), options_(options) {
  if (topo.num_switches() < 2) {
    throw std::invalid_argument("RequestGenerator: topology too small");
  }
  if (!(options.min_dest_ratio > 0) ||
      options.min_dest_ratio > options.max_dest_ratio ||
      options.max_dest_ratio > 1.0) {
    throw std::invalid_argument("RequestGenerator: bad destination ratio bounds");
  }
  if (!(options.min_bandwidth_mbps > 0) ||
      options.min_bandwidth_mbps > options.max_bandwidth_mbps) {
    throw std::invalid_argument("RequestGenerator: bad bandwidth bounds");
  }
  if (options.min_chain_length == 0 ||
      options.min_chain_length > options.max_chain_length ||
      options.max_chain_length > nfv::kNumNetworkFunctions) {
    throw std::invalid_argument("RequestGenerator: bad chain length bounds");
  }
}

nfv::Request RequestGenerator::next() {
  const std::size_t n = topo_->num_switches();
  nfv::Request request;
  request.id = next_id_++;

  // Draw source + destinations together so they are distinct by
  // construction: sample (1 + dest_count) distinct switches.
  const double ratio =
      rng_->uniform_real(options_.min_dest_ratio, options_.max_dest_ratio);
  const auto d_max = static_cast<std::size_t>(
      std::floor(ratio * static_cast<double>(n)));
  const std::size_t upper = std::min(std::max<std::size_t>(d_max, 1), n - 1);
  const auto dest_count = static_cast<std::size_t>(
      rng_->uniform_int(1, static_cast<std::int64_t>(upper)));

  std::vector<std::size_t> picks = rng_->sample_without_replacement(n, dest_count + 1);
  request.source = static_cast<graph::VertexId>(picks[0]);
  request.destinations.reserve(dest_count);
  for (std::size_t i = 1; i < picks.size(); ++i) {
    request.destinations.push_back(static_cast<graph::VertexId>(picks[i]));
  }

  request.bandwidth_mbps =
      rng_->uniform_real(options_.min_bandwidth_mbps, options_.max_bandwidth_mbps);
  request.chain = nfv::random_service_chain(*rng_, options_.min_chain_length,
                                            options_.max_chain_length);
  return request;
}

std::vector<nfv::Request> RequestGenerator::sequence(std::size_t count) {
  std::vector<nfv::Request> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(next());
  return out;
}

void ArrivalProcess::check(std::string_view who) const {
  const std::string prefix(who);
  if (!(arrival_rate > 0) || !(mean_duration > 0)) {
    throw std::invalid_argument(prefix + ": rates must be positive");
  }
  if (diurnal_amplitude < 0.0 || diurnal_amplitude >= 1.0) {
    throw std::invalid_argument(prefix + ": diurnal amplitude must be in [0, 1)");
  }
  if (diurnal_amplitude > 0.0 && !(diurnal_period > 0.0)) {
    throw std::invalid_argument(prefix + ": diurnal period must be positive");
  }
}

double ArrivalProcess::next_arrival(util::Rng& rng, double clock) const {
  constexpr double kTwoPi = 6.283185307179586;
  const double peak_rate = arrival_rate * (1.0 + diurnal_amplitude);
  for (;;) {
    clock += rng.exponential(peak_rate);
    if (diurnal_amplitude == 0.0) return clock;
    const double rate =
        arrival_rate * (1.0 + diurnal_amplitude * std::sin(kTwoPi * clock / diurnal_period));
    if (rng.uniform01() * peak_rate < rate) return clock;
  }
}

}  // namespace nfvm::sim
