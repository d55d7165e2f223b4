// Parallel offline request batches.
//
// The offline experiments evaluate every request independently on the
// *uncapacitated* network (no resource state is threaded between requests),
// which makes the batch embarrassingly parallel: each request's evaluations
// land in their own result slot and the caller aggregates in request order,
// so the output is bit-identical for any thread count.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/alg_one_server.h"
#include "core/appro_multi.h"
#include "core/chain_split.h"
#include "nfv/request.h"
#include "topology/topology.h"
#include "util/thread_pool.h"

namespace nfvm::sim {

/// Deterministic parallel map on the global thread pool: out[i] = fn(i).
/// Each call writes only its own slot, so the result does not depend on the
/// schedule. The result type must be default-constructible and movable.
template <typename Fn>
auto parallel_map(std::size_t count, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  std::vector<decltype(fn(std::size_t{0}))> out(count);
  util::ThreadPool::global().parallel_for(
      count, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

struct OfflineBatchOptions {
  /// Appro_Multi is evaluated for K = 1 .. max_servers_sweep per request.
  std::size_t max_servers_sweep = 3;
  /// Combination-sweep engine passed through to Appro_Multi.
  core::ApproMultiOptions::Engine engine =
      core::ApproMultiOptions::Engine::kSharedDijkstra;
  /// Beam width passed through to Appro_Multi (0 = exact full pool).
  std::size_t beam_width = 0;
};

/// Everything the offline comparison computes for one request.
struct OfflineRequestResult {
  /// Index k-1 holds the Appro_Multi solution for K = k.
  std::vector<core::OfflineSolution> appro_multi;
  core::OfflineSolution one_server;
  core::ChainSplitSolution chain_split;
};

/// Evaluates the whole batch across the global thread pool; result[i]
/// corresponds to requests[i].
std::vector<OfflineRequestResult> run_offline_batch(
    const topo::Topology& topo, const core::LinearCosts& costs,
    std::span<const nfv::Request> requests,
    const OfflineBatchOptions& options = {});

}  // namespace nfvm::sim
