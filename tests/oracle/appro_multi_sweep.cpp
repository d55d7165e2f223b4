#include "oracle.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/aux_graph.h"
#include "core/delay.h"
#include "core/shared_closure.h"
#include "graph/steiner.h"
#include "obs/hdr_histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/combinatorics.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace nfvm::oracle {

using core::ApproMultiOptions;
using core::AuxiliaryGraph;
using core::AuxOverlay;
using core::OfflineSolution;
using core::PseudoMulticastTree;
using core::SharedComboSolver;
using core::SharedOracle;
using core::WorkContext;

// Enumerates every combination of at most K servers up front, evaluates them
// across the thread pool, stable-sorts the connected ones by cost and
// realizes the cheapest that meets the delay bound and the residuals.
OfflineSolution appro_multi_sweep(const topo::Topology& topo,
                                  const core::LinearCosts& costs,
                                  const nfv::Request& request,
                                  const ApproMultiOptions& options) {
  if (options.max_servers == 0) {
    throw std::invalid_argument("appro_multi: max_servers (K) must be >= 1");
  }
  const bool shared = options.engine == ApproMultiOptions::Engine::kSharedDijkstra;
  if (shared && options.steiner_engine != graph::SteinerEngine::kKmb) {
    throw std::invalid_argument(
        "appro_multi: the shared-Dijkstra engine requires the KMB Steiner engine");
  }

  NFVM_SPAN("appro_multi");
  NFVM_COUNTER_INC("core.appro_multi.calls");
  OfflineSolution sol;
  NFVM_OBS_ONLY(util::Stopwatch phase_watch;)
  const WorkContext ctx =
      core::build_work_context(topo, costs, request, options.resources);
  NFVM_HDR_OBSERVE("core.appro_multi.context_us", phase_watch.elapsed_us());
  if (!ctx.destinations_reachable) {
    sol.reject_reason = "a destination is unreachable with the demanded bandwidth";
    return sol;
  }
  if (ctx.eligible_servers.empty()) {
    sol.reject_reason = "no server can host the service chain";
    return sol;
  }

  // Destination SP trees only feed the beam centrality score here.
  std::vector<std::shared_ptr<const graph::ShortestPaths>> dest_trees;
  if (options.beam_width != 0) {
    dest_trees = core::context_trees(ctx, request.destinations);
  }
  const std::vector<graph::VertexId> pool =
      options.beam_width != 0
          ? core::beam_server_pool(ctx, dest_trees, options.beam_width)
          : ctx.eligible_servers;

  SharedOracle oracle;
  if (shared) oracle = core::build_shared_oracle(ctx, request, pool);

  // Terminals in every auxiliary graph: the virtual source plus D_k. The
  // virtual source id equals |V| in each aux graph by construction.
  std::vector<graph::VertexId> terminals;
  terminals.push_back(static_cast<graph::VertexId>(ctx.cost_graph.num_vertices()));
  terminals.insert(terminals.end(), request.destinations.begin(),
                   request.destinations.end());

  struct Candidate {
    double cost;
    std::vector<graph::VertexId> combo;
    std::vector<graph::EdgeId> tree_edges;  // ids in the aux graph
  };
  std::vector<Candidate> candidates;

  // Enumerate the server combinations up front (cheap), then evaluate them
  // across the thread pool. Each evaluation writes only its own slot and the
  // results are collected in enumeration order, so the admitted tree is
  // identical for any thread count.
  std::vector<std::vector<graph::VertexId>> combos;
  const std::size_t max_k = std::min(options.max_servers, pool.size());
  bool budget_left = true;
  {
    NFVM_SPAN("appro_multi/enumerate_servers");
    NFVM_OBS_ONLY(phase_watch.reset();)
    for (std::size_t k = 1; k <= max_k && budget_left; ++k) {
      std::vector<std::size_t> idx(k);
      for (std::size_t i = 0; i < k; ++i) idx[i] = i;
      do {
        if (combos.size() >= options.max_combinations) {
          budget_left = false;
          break;
        }
        std::vector<graph::VertexId> combo(k);
        for (std::size_t i = 0; i < k; ++i) combo[i] = pool[idx[i]];
        combos.push_back(std::move(combo));
      } while (util::next_combination(idx, pool.size()));
    }
    NFVM_HDR_OBSERVE("core.appro_multi.enumerate_us", phase_watch.elapsed_us());
  }
  sol.combinations_explored = combos.size();

  struct Evaluated {
    bool connected = false;
    double cost = 0.0;
    std::vector<graph::EdgeId> tree_edges;
  };
  std::vector<Evaluated> evaluated(combos.size());
  {
    NFVM_SPAN("appro_multi/evaluate_combinations");
    NFVM_OBS_ONLY(phase_watch.reset();)
    util::ThreadPool::global().parallel_for(combos.size(), [&](std::size_t i) {
      graph::SteinerResult st;
      if (shared) {
        // Overlay + shared tables: no per-combination graph copy at all.
        const AuxOverlay aux = core::build_aux_overlay(ctx, request.source, combos[i]);
        st = SharedComboSolver(oracle, aux).solve();
      } else {
        const AuxiliaryGraph aux =
            core::build_auxiliary_graph(ctx, request.source, combos[i]);
        st = graph::steiner_tree(aux.graph, terminals, options.steiner_engine);
      }
      evaluated[i] = Evaluated{st.connected, st.weight, std::move(st.edges)};
    });
    NFVM_HDR_OBSERVE("core.appro_multi.evaluate_us", phase_watch.elapsed_us());
  }
  candidates.reserve(combos.size());
  for (std::size_t i = 0; i < combos.size(); ++i) {
    if (!evaluated[i].connected) continue;
    candidates.push_back(Candidate{evaluated[i].cost, std::move(combos[i]),
                                   std::move(evaluated[i].tree_edges)});
  }
  NFVM_COUNTER_ADD("core.appro_multi.combinations_explored",
                   sol.combinations_explored);
  NFVM_HDR_OBSERVE("core.appro_multi.combinations_per_call",
                   sol.combinations_explored);

  if (candidates.empty()) {
    sol.reject_reason = "no server combination connects the source to all destinations";
    return sol;
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) { return a.cost < b.cost; });
  NFVM_SPAN("appro_multi/realize_cheapest");
  NFVM_OBS_ONLY(phase_watch.reset();
                const auto observe_realize = [&phase_watch] {
                  NFVM_HDR_OBSERVE("core.appro_multi.realize_us",
                                   phase_watch.elapsed_us());
                };)
  for (const Candidate& cand : candidates) {
    // Realization only needs edge weights/endpoints and the source's
    // shortest-path tree — the overlay suffices for both engines (the edge-id
    // scheme is shared).
    const AuxOverlay aux = core::build_aux_overlay(ctx, request.source, cand.combo);
    PseudoMulticastTree tree =
        core::realize_pseudo_tree(ctx, aux, cand.tree_edges, request);
    if (!core::meets_delay_bound(topo, request, tree)) continue;
    if (options.resources != nullptr &&
        !options.resources->can_allocate(tree.footprint(request, topo.graph))) {
      // Cheapest tree needs more residual than available once traversal
      // multiplicities are charged; fall through to the next combination.
      continue;
    }
    sol.admitted = true;
    sol.tree = std::move(tree);
    NFVM_OBS_ONLY(observe_realize();)
    return sol;
  }

  NFVM_OBS_ONLY(observe_realize();)
  sol.reject_reason = "every candidate tree violates capacity or delay constraints";
  return sol;
}

}  // namespace nfvm::oracle
