#include "core/online_cp.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/delay.h"
#include "core/shared_closure.h"
#include "graph/sp_engine.h"
#include "graph/steiner.h"
#include "graph/tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace nfvm::core {

OnlineCp::OnlineCp(const topo::Topology& topo, const OnlineCpOptions& options)
    : OnlineAlgorithm(topo),
      model_(options.alpha > 1.0 && options.beta > 1.0
                 ? ExponentialCostModel(options.alpha, options.beta)
                 : ExponentialCostModel::paper_default(topo.num_switches())),
      sigma_v_(options.sigma_v > 0.0
                   ? options.sigma_v
                   : static_cast<double>(topo.num_switches()) - 1.0),
      sigma_e_(options.sigma_e > 0.0
                   ? options.sigma_e
                   : static_cast<double>(topo.num_switches()) - 1.0),
      linear_weights_(options.linear_weights),
      name_(options.linear_weights ? "Online_CP(linear)" : "Online_CP"),
      view_(topo, [this](graph::EdgeId e) { return edge_weight(e); }) {}

double OnlineCp::edge_weight(graph::EdgeId e) const {
  if (linear_weights_) return state_.bandwidth_utilization(e);
  return model_.edge_weight(e, state_);
}

double OnlineCp::server_weight(graph::VertexId v) const {
  if (linear_weights_) return state_.compute_utilization(v);
  return model_.server_weight(v, state_);
}

void OnlineCp::after_change(const nfv::Footprint& footprint) { view_.patch(footprint); }

void OnlineCp::after_restore() {
  // Every weight is a pure function of its residual, so a full rebuild from
  // the restored residuals reproduces the uninterrupted run's view exactly;
  // the dropped tree cache and change log never influence decisions.
  view_.rebuild();
}

namespace {

/// What a candidate-server evaluation produces, written into its own slot by
/// the parallel scan; the sequential replay loop consumes the slots in true
/// server order, so reasons and the admitted candidate are identical to the
/// sequential per-request rebuild scan (the reference in tests/oracle). Only
/// the Steiner evaluation and the candidate's cost live here — route
/// assembly, the delay check and the footprint are deferred to the replay
/// loop, which (like the rebuild scan) only pays them for candidates
/// surviving the cost prune.
struct CpCandidateSlot {
  bool connected = false;
  bool over_sigma_e = false;
  double cost = 0.0;
  double steiner_weight = 0.0;  // st.weight share of cost, for provenance
  std::vector<graph::EdgeId> edges;  // physical ids
  bool server_row_fetched = false;  // KMB fetched this server's lazy row
  OnlineWeightedView::ServedTree server_row;  // that row, to commit
};

}  // namespace

AdmissionDecision OnlineCp::try_admit(const nfv::Request& request) {
  NFVM_SPAN("online_cp/try_admit");
  AdmissionDecision decision;
  const double b = request.bandwidth_mbps;
  const double demand = request.compute_demand_mhz();

  RejectTracker reject("no server has sufficient residual computing",
                       RejectCause::kCompute);
  NFVM_OBS_ONLY(RequestRecord* const rec = active_record();
                util::Stopwatch phase_watch;)

  // Phase A: classify the servers. Compute-skips stay silent and the sigma_v
  // gate records its (low-rank) reason; survivors form the evaluation list.
  std::vector<graph::VertexId> eval;
  std::vector<double> eval_wv;
  for (graph::VertexId v : topo_->servers) {
    if (state_.residual_compute(v) < demand) {
      NFVM_OBS_ONLY(if (rec) ++rec->skipped_compute;)
      continue;
    }
    const double wv = server_weight(v);
    if (wv >= sigma_v_) {
      reject.update(RejectTracker::kRankThreshold,
                    "all candidate servers exceed the computing threshold",
                    RejectCause::kThreshold);
      NFVM_OBS_ONLY(if (rec) ++rec->skipped_sigma_v;)
      continue;
    }
    eval.push_back(v);
    eval_wv.push_back(wv);
  }
  NFVM_COUNTER_ADD("core.online_cp.candidates_evaluated", eval.size());
  NFVM_OBS_ONLY(if (rec) {
    rec->fast_path = true;
    rec->servers_eligible = eval.size();
    rec->classify_us = phase_watch.elapsed_us();
  })

  if (eval.empty()) {
    decision.reject_reason = std::string(reject.reason());
    decision.reject_cause = reject.cause();
    return decision;
  }
  NFVM_COUNTER_INC("core.online.closure_scans");

  // Phase B: shortest-path trees for T0 = {s_k} ∪ D_k (one trees_for call,
  // primed in parallel through the view's tree cache), then a Steiner lower
  // bound per candidate from those tables alone. No server gets a tree
  // here: Phase C's KMB fetches a server's row lazily, and only as far as
  // it needs it.
  NFVM_OBS_ONLY(phase_watch.reset();)
  std::vector<graph::VertexId> base;
  base.reserve(1 + request.destinations.size());
  base.push_back(request.source);
  base.insert(base.end(), request.destinations.begin(),
              request.destinations.end());
  std::sort(base.begin(), base.end());
  base.erase(std::unique(base.begin(), base.end()), base.end());
  TerminalTables tables(topo_->graph.num_vertices());
  {
    const auto trees = view_.trees_for(state_, base, b);
    for (std::size_t i = 0; i < base.size(); ++i) tables.set(base[i], trees[i]);
  }

  // Classify every candidate whose KMB outcome the base tables already
  // decide, leaving its slot exactly as the KMB evaluation would have:
  //   * disconnected — the filtered graph is undirected and eligibility is
  //     symmetric, so KMB's connectivity test is "s_k reaches every other
  //     terminal";
  //   * over sigma_e — the closure-MST lower bound on KMB's weight already
  //     reaches sigma_e (graph::kmb_weight_lower_bound).
  // The replay loop then takes the same branches as for an evaluated slot.
  std::vector<CpCandidateSlot> slots(eval.size());
  std::vector<std::size_t> survivors;
  {
    const graph::ShortestPaths& from_source = tables.from(request.source);
    const bool dests_reachable = std::all_of(
        request.destinations.begin(), request.destinations.end(),
        [&](graph::VertexId d) { return from_source.reachable(d); });
    std::optional<graph::ClosureMst> closure;
    if (dests_reachable) {
      std::vector<const graph::ShortestPaths*> base_tables;
      for (graph::VertexId t : base) base_tables.push_back(&tables.from(t));
      closure.emplace(base, base_tables);
    }
    const std::size_t n = view_.graph().num_vertices();
    for (std::size_t i = 0; i < eval.size(); ++i) {
      const graph::VertexId v = eval[i];
      if (!dests_reachable || !from_source.reachable(v)) continue;
      const bool in_base = tables.has(v);
      const std::size_t l = closure->size() + (in_base ? 0 : 1);
      if (l >= 2) {
        const double mst = in_base ? closure->weight() : closure->weight_with(v);
        if (graph::kmb_weight_lower_bound(mst, l, n) >= sigma_e_) {
          slots[i].connected = true;
          slots[i].over_sigma_e = true;
          continue;
        }
      }
      survivors.push_back(i);
    }
  }
  [[maybe_unused]] const std::size_t bound_pruned =
      eval.size() - survivors.size();
  NFVM_COUNTER_ADD("core.online_cp.bound_pruned", bound_pruned);
  NFVM_OBS_ONLY(if (rec) {
    rec->bound_pruned = bound_pruned;
    rec->closure_us = phase_watch.elapsed_us();
  })
  const std::function<const graph::ShortestPaths*(graph::VertexId)> table_for =
      [&tables](graph::VertexId v) -> const graph::ShortestPaths* {
    return tables.has(v) ? &tables.from(v) : nullptr;
  };

  // Phase C: evaluate every surviving candidate's Steiner tree and cost in
  // parallel. Each evaluation is pure (reads the view and tables, writes
  // its slot); the cost prune of the sequential scan is deliberately NOT
  // applied here — it only suppresses work, never changes the admitted
  // candidate, and the replay loop below re-applies it for reason parity.
  // A server outside T0 has no table: KMB fetches its row lazily, read-only
  // from the view on this thread's engine — the server's cached tree as is
  // or repaired, a fresh one, or an early-exit row (always in rebuild
  // mode) — and the full trees are committed below in server order.
  {
    NFVM_SPAN("online_cp/server_scan");
    NFVM_OBS_ONLY(phase_watch.reset();)
    util::ThreadPool::global().parallel_for(survivors.size(), [&](std::size_t k) {
      const std::size_t i = survivors[k];
      const graph::VertexId v = eval[i];
      CpCandidateSlot& slot = slots[i];

      // Steiner tree over {s_k, v} ∪ D_k (Algorithm 2, step 8), straight
      // from the shared tables — edge ids are physical.
      std::vector<graph::VertexId> terminals;
      terminals.reserve(request.destinations.size() + 2);
      terminals.push_back(request.source);
      terminals.push_back(v);
      terminals.insert(terminals.end(), request.destinations.begin(),
                       request.destinations.end());
      const graph::KmbRowFn row_to =
          [&](graph::VertexId x, std::span<const graph::VertexId> targets) {
            slot.server_row_fetched = true;
            slot.server_row = view_.tree_from(x, targets);
            return slot.server_row.tree;
          };
      graph::SteinerResult st =
          graph::kmb_steiner_lazy(view_.graph(), terminals, table_for, row_to);
      if (!st.connected) return;
      slot.connected = true;
      if (st.weight >= sigma_e_) {
        slot.over_sigma_e = true;
        return;
      }

      // Backhaul from v to the LCA of {v} ∪ D_k (Algorithm 2, steps 10-12)
      // prices the candidate; route assembly waits for the replay loop.
      const graph::RootedTree rooted(view_.graph(), st.edges, request.source);
      std::vector<graph::VertexId> lca_args;
      lca_args.push_back(v);
      lca_args.insert(lca_args.end(), request.destinations.begin(),
                      request.destinations.end());
      const graph::VertexId meet = rooted.lca(lca_args);
      const double w_back = rooted.path_weight(v, meet);
      slot.cost = st.weight + eval_wv[i] + w_back;
      slot.steiner_weight = st.weight;
      slot.edges = std::move(st.edges);
    });
    // Cache the server trees in server order, so cache state does not
    // depend on the thread count.
    for (std::size_t i : survivors) {
      if (slots[i].server_row_fetched) view_.commit(eval[i], std::move(slots[i].server_row));
    }
    NFVM_OBS_ONLY({
      std::uint64_t tableless = 0;
      std::uint64_t fetched = 0;
      for (std::size_t i : survivors) {
        if (tables.has(eval[i])) continue;
        ++tableless;
        if (slots[i].server_row_fetched) ++fetched;
      }
      NFVM_COUNTER_ADD("core.online_cp.server_rows_fetched", fetched);
      NFVM_COUNTER_ADD("core.online_cp.server_rows_skipped", tableless - fetched);
      if (rec) {
        rec->servers_evaluated = survivors.size();
        rec->server_rows = fetched;
        rec->eval_us = phase_watch.elapsed_us();
      }
    })
  }

  // Phase D: sequential replay in true server order — identical branch
  // structure to the rebuild scan, so the winner, the reject reason and the
  // cause match it bit for bit at any thread count. Candidates surviving the
  // cost prune (a strictly decreasing cost chain, typically a handful) get
  // their routes, delay check and footprint here, exactly like the rebuild
  // scan's post-prune body.
  struct Candidate {
    double cost = 0.0;
    PseudoMulticastTree tree;
    nfv::Footprint footprint;
  };
  std::optional<Candidate> best;
  NFVM_OBS_ONLY(phase_watch.reset();)
  for (std::size_t i = 0; i < eval.size(); ++i) {
    CpCandidateSlot& slot = slots[i];
    const graph::VertexId v = eval[i];
    if (!slot.connected) {
      reject.update(RejectTracker::kRankCandidate,
                    "source, server and destinations are disconnected at b_k",
                    RejectCause::kBandwidth);
      NFVM_OBS_ONLY(if (rec) ++rec->failed_disconnected;)
      continue;
    }
    if (slot.over_sigma_e) {
      reject.update(RejectTracker::kRankCandidate,
                    "every candidate tree exceeds the bandwidth threshold",
                    RejectCause::kThreshold);
      NFVM_OBS_ONLY(if (rec) ++rec->failed_sigma_e;)
      continue;
    }
    if (best.has_value() && slot.cost >= best->cost) {
      NFVM_OBS_ONLY(if (rec) ++rec->cost_pruned;)
      continue;
    }

    const graph::RootedTree rooted(view_.graph(), slot.edges, request.source);
    std::vector<graph::VertexId> lca_args;
    lca_args.push_back(v);
    lca_args.insert(lca_args.end(), request.destinations.begin(),
                    request.destinations.end());
    const graph::VertexId meet = rooted.lca(lca_args);

    Candidate cand;
    cand.cost = slot.cost;
    cand.tree.source = request.source;
    cand.tree.servers = {v};
    cand.tree.cost = slot.cost;
    std::vector<graph::EdgeId> traversals = std::move(slot.edges);
    const std::vector<graph::EdgeId> backhaul = rooted.path_edges(v, meet);
    traversals.insert(traversals.end(), backhaul.begin(), backhaul.end());
    cand.tree.edge_uses = accumulate_edge_uses(std::move(traversals));

    const std::vector<graph::VertexId> to_server =
        rooted.path_vertices(request.source, v);
    for (graph::VertexId d : request.destinations) {
      DestinationRoute route;
      route.destination = d;
      route.server = v;
      route.walk = to_server;
      route.server_index = route.walk.size() - 1;
      const std::vector<graph::VertexId> down = rooted.path_vertices(v, d);
      route.walk.insert(route.walk.end(), down.begin() + 1, down.end());
      cand.tree.routes.push_back(std::move(route));
    }

    if (!meets_delay_bound(*topo_, request, cand.tree)) {
      reject.update(RejectTracker::kRankCandidate,
                    "no candidate tree meets the delay bound",
                    RejectCause::kDelay);
      NFVM_OBS_ONLY(if (rec) ++rec->failed_delay;)
      continue;
    }
    cand.footprint = cand.tree.footprint(request, topo_->graph);
    if (!state_.can_allocate(cand.footprint)) {
      // Double-traversed backhaul links can need 2 b_k; charge honestly and
      // skip candidates that no longer fit.
      reject.update(RejectTracker::kRankCandidate,
                    "backhaul multiplicities exceed residual bandwidth",
                    RejectCause::kBandwidth);
      NFVM_OBS_ONLY(if (rec) ++rec->failed_capacity;)
      continue;
    }
    NFVM_OBS_ONLY(if (rec) {
      ++rec->candidates_feasible;
      rec->chosen_server = static_cast<std::int64_t>(v);
      rec->cost_total = slot.cost;
      rec->cost_steiner = slot.steiner_weight;
      rec->cost_server = eval_wv[i];
      rec->cost_backhaul = slot.cost - slot.steiner_weight - eval_wv[i];
    })
    best = std::move(cand);
  }
  NFVM_OBS_ONLY(if (rec) rec->realize_us = phase_watch.elapsed_us();)

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

}  // namespace nfvm::core
