#include "oracle.h"

#include <optional>
#include <vector>

#include "core/delay.h"
#include "graph/dijkstra.h"
#include "graph/subgraph.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace nfvm::oracle {

using core::AdmissionDecision;
using core::PseudoMulticastTree;
using core::RejectCause;
using core::RejectTracker;
using core::RequestRecord;
using core::make_one_server_spt_tree;
using core::meets_delay_bound;

// Per request: filter the graph at b_k, then one Dijkstra from the source
// and one from every candidate server.
AdmissionDecision OnlineSpRebuild::try_admit(const nfv::Request& request) {
  AdmissionDecision decision;
  const double b = request.bandwidth_mbps;
  const double demand = request.compute_demand_mhz();

  NFVM_OBS_ONLY(RequestRecord* const rec = active_record();
                util::Stopwatch phase_watch;)

  // Remove links and servers without enough available resources; all
  // remaining links weigh 1.
  const graph::Subgraph sub = graph::filter_edges(topo_->graph, [&](graph::EdgeId e) {
    return nfv::edge_eligible(state_, topo_->graph, e, b);
  });

  const graph::ShortestPaths from_source = graph::dijkstra(sub.graph, request.source);
  NFVM_OBS_ONLY(if (rec) rec->classify_us = phase_watch.elapsed_us();
                phase_watch.reset();)

  struct Candidate {
    double cost = 0.0;
    PseudoMulticastTree tree;
    nfv::Footprint footprint;
  };
  std::optional<Candidate> best;
  RejectTracker reject("no server has sufficient residual computing",
                       RejectCause::kCompute);

  for (graph::VertexId v : topo_->servers) {
    if (state_.residual_compute(v) < demand) {
      NFVM_OBS_ONLY(if (rec) ++rec->skipped_compute;)
      continue;
    }
    NFVM_OBS_ONLY(if (rec) ++rec->servers_eligible;)
    if (!from_source.reachable(v)) {
      reject.update(RejectTracker::kRankCandidate,
                    "server unreachable at the demanded bandwidth",
                    RejectCause::kBandwidth);
      NFVM_OBS_ONLY(if (rec) ++rec->failed_disconnected;)
      continue;
    }
    const graph::ShortestPaths from_server = graph::dijkstra(sub.graph, v);
    NFVM_OBS_ONLY(if (rec) ++rec->servers_evaluated;)
    bool all_reachable = true;
    for (graph::VertexId d : request.destinations) {
      if (!from_server.reachable(d)) {
        all_reachable = false;
        break;
      }
    }
    if (!all_reachable) {
      reject.update(RejectTracker::kRankCandidate,
                    "a destination is unreachable at the demanded bandwidth",
                    RejectCause::kBandwidth);
      NFVM_OBS_ONLY(if (rec) ++rec->failed_disconnected;)
      continue;
    }

    PseudoMulticastTree tree = make_one_server_spt_tree(
        request, v, from_source, from_server, &sub.original_edge, /*cost=*/0.0);
    // Cost = number of link traversals (unit weights on links).
    tree.cost = static_cast<double>(tree.total_link_traversals());
    if (best.has_value() && tree.cost >= best->cost) {
      NFVM_OBS_ONLY(if (rec) ++rec->cost_pruned;)
      continue;
    }
    if (!meets_delay_bound(*topo_, request, tree)) {
      reject.update(RejectTracker::kRankCandidate,
                    "no candidate tree meets the delay bound",
                    RejectCause::kDelay);
      NFVM_OBS_ONLY(if (rec) ++rec->failed_delay;)
      continue;
    }

    nfv::Footprint footprint = tree.footprint(request, topo_->graph);
    if (!state_.can_allocate(footprint)) {
      reject.update(RejectTracker::kRankCandidate,
                    "path overlaps exceed residual bandwidth",
                    RejectCause::kBandwidth);
      NFVM_OBS_ONLY(if (rec) ++rec->failed_capacity;)
      continue;
    }
    NFVM_OBS_ONLY(if (rec) {
      ++rec->candidates_feasible;
      rec->chosen_server = static_cast<std::int64_t>(v);
      rec->cost_total = tree.cost;
    })
    best = Candidate{tree.cost, std::move(tree), std::move(footprint)};
  }
  NFVM_OBS_ONLY(if (rec) rec->eval_us = phase_watch.elapsed_us();)

  if (!best.has_value()) {
    decision.reject_reason = std::string(reject.reason());
    decision.reject_cause = reject.cause();
    return decision;
  }
  decision.admitted = true;
  decision.tree = std::move(best->tree);
  decision.footprint = std::move(best->footprint);
  return decision;
}

}  // namespace nfvm::oracle
