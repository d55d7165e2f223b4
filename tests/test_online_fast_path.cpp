// The online admission fast path: trace equivalence between the incremental
// (patched weighted view + shared-closure scan) and legacy rebuild paths,
// Online_CP's bound-pruned server scan and lazy server rows,
// OnlineWeightedView patch/era semantics, keyed SpCache invalidation, the
// lazy table-driven KMB entry point, and RejectTracker precedence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/online.h"
#include "core/online_cp.h"
#include "core/online_sp.h"
#include "core/online_view.h"
#include "graph/dijkstra.h"
#include "graph/sp_engine.h"
#include "graph/steiner.h"
#include "nfv/resources.h"
#include "obs/metrics.h"
#include "sim/request_gen.h"
#include "topology/waxman.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace nfvm::core {
namespace {

std::uint64_t counter_value(const std::string& name) {
  return obs::Registry::global().counter(name)->value();
}

/// Restores the global pool to single-threaded when a test exits.
struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { util::ThreadPool::set_global_threads(1); }
};

// ---------------------------------------------------------------------------
// Trace equivalence: fast path vs rebuild path
// ---------------------------------------------------------------------------

void expect_same_decision(const AdmissionDecision& a, const AdmissionDecision& b,
                          std::size_t index) {
  ASSERT_EQ(a.admitted, b.admitted) << "request " << index;
  EXPECT_EQ(a.reject_reason, b.reject_reason) << "request " << index;
  EXPECT_EQ(a.reject_cause, b.reject_cause) << "request " << index;
  EXPECT_EQ(a.tree.source, b.tree.source) << "request " << index;
  EXPECT_EQ(a.tree.servers, b.tree.servers) << "request " << index;
  EXPECT_EQ(a.tree.cost, b.tree.cost) << "request " << index;  // bit-exact
  EXPECT_EQ(a.tree.edge_uses, b.tree.edge_uses) << "request " << index;
  ASSERT_EQ(a.tree.routes.size(), b.tree.routes.size()) << "request " << index;
  for (std::size_t r = 0; r < a.tree.routes.size(); ++r) {
    EXPECT_EQ(a.tree.routes[r].destination, b.tree.routes[r].destination);
    EXPECT_EQ(a.tree.routes[r].server, b.tree.routes[r].server);
    EXPECT_EQ(a.tree.routes[r].walk, b.tree.routes[r].walk);
    EXPECT_EQ(a.tree.routes[r].server_index, b.tree.routes[r].server_index);
  }
  EXPECT_EQ(a.footprint.bandwidth, b.footprint.bandwidth) << "request " << index;
  EXPECT_EQ(a.footprint.compute, b.footprint.compute) << "request " << index;
  EXPECT_EQ(a.footprint.table_entries, b.footprint.table_entries)
      << "request " << index;
}

/// Feeds the same request sequence (with periodic departures) through both
/// algorithms and requires byte-identical decision streams.
template <typename Algo>
void run_trace_equivalence(Algo& fast, Algo& rebuild, std::size_t num_requests) {
  util::Rng workload(515);
  sim::RequestGenerator gen(fast.topology(), workload);
  const std::vector<nfv::Request> requests = gen.sequence(num_requests);

  std::vector<nfv::Footprint> admitted_fast;
  std::vector<nfv::Footprint> admitted_rebuild;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const AdmissionDecision df = fast.process(requests[i]);
    const AdmissionDecision dr = rebuild.process(requests[i]);
    expect_same_decision(df, dr, i);
    if (df.admitted) {
      admitted_fast.push_back(df.footprint);
      admitted_rebuild.push_back(dr.footprint);
    }
    // Departures: release the oldest still-held footprint every 7 requests,
    // exercising the era reset (cache drop + weight re-patch) mid-sequence.
    if (i % 7 == 6 && !admitted_fast.empty()) {
      fast.release(admitted_fast.front());
      rebuild.release(admitted_rebuild.front());
      admitted_fast.erase(admitted_fast.begin());
      admitted_rebuild.erase(admitted_rebuild.begin());
    }
  }
  EXPECT_EQ(fast.num_admitted(), rebuild.num_admitted());
  EXPECT_EQ(fast.num_rejected(), rebuild.num_rejected());
}

TEST(OnlineFastPath, CpTraceEquivalenceWithDepartures) {
  util::Rng rng(91);
  const topo::Topology topo = topo::make_waxman(60, rng);
  OnlineCpOptions fast_opts;
  ASSERT_TRUE(fast_opts.incremental_view);  // fast path is the default
  OnlineCpOptions rebuild_opts;
  rebuild_opts.incremental_view = false;
  OnlineCp fast(topo, fast_opts);
  OnlineCp rebuild(topo, rebuild_opts);
  run_trace_equivalence(fast, rebuild, 80);
}

TEST(OnlineFastPath, CpTraceEquivalenceLinearWeights) {
  util::Rng rng(92);
  const topo::Topology topo = topo::make_waxman(40, rng);
  OnlineCpOptions fast_opts;
  fast_opts.linear_weights = true;
  OnlineCpOptions rebuild_opts;
  rebuild_opts.linear_weights = true;
  rebuild_opts.incremental_view = false;
  OnlineCp fast(topo, fast_opts);
  OnlineCp rebuild(topo, rebuild_opts);
  run_trace_equivalence(fast, rebuild, 60);
}

TEST(OnlineFastPath, SpTraceEquivalenceWithDepartures) {
  util::Rng rng(93);
  const topo::Topology topo = topo::make_waxman(60, rng);
  OnlineSpOptions rebuild_opts;
  rebuild_opts.incremental_view = false;
  OnlineSp fast(topo);  // default options: fast path on
  OnlineSp rebuild(topo, rebuild_opts);
  run_trace_equivalence(fast, rebuild, 80);
}

TEST(OnlineFastPath, CpBoundPrunedScanMatchesRebuildWhenSaturated) {
  // Long enough on a small Waxman graph that links saturate and sigma_e
  // binds, so many candidates are settled by the closure-MST bound without
  // a server tree or a KMB run. The decision stream must still match the
  // exhaustive rebuild scan at every thread count.
  GlobalThreadsGuard guard;
  util::Rng rng(95);
  topo::WaxmanOptions wo;
  wo.target_mean_degree = 4.0;  // sparse, as nfvm-sim builds it
  const topo::Topology topo = topo::make_waxman(100, rng, wo);
  OnlineCpOptions rebuild_opts;
  rebuild_opts.incremental_view = false;
  for (const std::size_t threads : {1, 4}) {
    util::ThreadPool::set_global_threads(threads);
    const std::uint64_t pruned_before = counter_value("core.online_cp.bound_pruned");
    const std::uint64_t fetched_before =
        counter_value("core.online_cp.server_rows_fetched");
    const std::uint64_t skipped_before =
        counter_value("core.online_cp.server_rows_skipped");
    OnlineCp fast(topo);
    OnlineCp rebuild(topo, rebuild_opts);
    run_trace_equivalence(fast, rebuild, 300);
    EXPECT_GT(fast.num_rejected(), 0u) << "threads " << threads;
#if NFVM_OBS
    // Not vacuous: the pruned branch actually ran, and KMB both fetched
    // lazy server rows and skipped rows it could not use.
    EXPECT_GT(counter_value("core.online_cp.bound_pruned"), pruned_before)
        << "threads " << threads;
    EXPECT_GT(counter_value("core.online_cp.server_rows_fetched"), fetched_before)
        << "threads " << threads;
    EXPECT_GT(counter_value("core.online_cp.server_rows_skipped"), skipped_before)
        << "threads " << threads;
#else
    (void)pruned_before;
    (void)fetched_before;
    (void)skipped_before;
#endif
  }
}

TEST(OnlineFastPath, NonKmbEngineFallsBackToRebuildPath) {
  // A non-KMB Steiner engine must keep working (and agree with an explicit
  // rebuild configuration) even though it cannot use the shared closure.
  util::Rng rng(94);
  const topo::Topology topo = topo::make_waxman(30, rng);
  OnlineCpOptions a_opts;
  a_opts.steiner_engine = graph::SteinerEngine::kTakahashiMatsuyama;
  OnlineCpOptions b_opts = a_opts;
  b_opts.incremental_view = false;
  OnlineCp a(topo, a_opts);
  OnlineCp b(topo, b_opts);
  run_trace_equivalence(a, b, 40);
}

// ---------------------------------------------------------------------------
// The closure-MST lower bound behind the pruned scan
// ---------------------------------------------------------------------------

/// Closure MST weight over `terms` from scratch (Prim on the full matrix,
/// each pair priced at the min of its two table entries).
double closure_mst_from_scratch(
    const std::vector<graph::VertexId>& terms,
    const std::vector<std::shared_ptr<const graph::ShortestPaths>>& tables) {
  const std::size_t t = terms.size();
  std::vector<bool> in_tree(t, false);
  std::vector<double> best(t, graph::kInfiniteDistance);
  best[0] = 0.0;
  double weight = 0.0;
  for (std::size_t step = 0; step < t; ++step) {
    std::size_t pick = t;
    for (std::size_t i = 0; i < t; ++i) {
      if (!in_tree[i] && (pick == t || best[i] < best[pick])) pick = i;
    }
    in_tree[pick] = true;
    weight += best[pick];
    for (std::size_t j = 0; j < t; ++j) {
      const double d = std::min(tables[terms[pick]]->dist[terms[j]],
                                tables[terms[j]]->dist[terms[pick]]);
      if (!in_tree[j] && d < best[j]) best[j] = d;
    }
  }
  return weight;
}

TEST(ClosureMstBound, InsertionMatchesScratchAndBoundsKmbOnLoadedStates) {
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    util::Rng rng(700 + seed);
    const topo::Topology topo = topo::make_waxman(60, rng);
    const std::size_t n = topo.graph.num_vertices();
    nfv::ResourceState state(topo);
    // A random loaded state: every link carries a random share of its
    // capacity, so Online_CP's exponential weights spread over orders of
    // magnitude and some links drop below the request bandwidth.
    for (graph::EdgeId e = 0; e < topo.graph.num_edges(); ++e) {
      nfv::Footprint fp;
      fp.bandwidth = {
          {e, rng.uniform_real(0.0, 0.97) * state.bandwidth_capacity(e)}};
      state.allocate(fp);
    }
    const ExponentialCostModel model = ExponentialCostModel::paper_default(n);
    OnlineWeightedView view(
        topo, [&](graph::EdgeId e) { return model.edge_weight(e, state); });
    const double b = rng.uniform_real(10.0, 120.0);
    std::vector<graph::VertexId> all(n);
    for (graph::VertexId v = 0; v < n; ++v) all[v] = v;
    const auto tables = view.trees_for(state, all, b);
    const std::function<const graph::ShortestPaths*(graph::VertexId)> table_for =
        [&](graph::VertexId v) -> const graph::ShortestPaths* {
      return tables[v].get();
    };
    // Never called: every terminal has a table.
    const graph::KmbRowFn no_rows = [](graph::VertexId,
                                       std::span<const graph::VertexId>) {
      ADD_FAILURE() << "row fetched although every table exists";
      return graph::ShortestPaths{};
    };

    for (int trial = 0; trial < 8; ++trial) {
      const std::size_t dests =
          static_cast<std::size_t>(rng.uniform_int(1, 12));
      const std::vector<std::size_t> picks =
          rng.sample_without_replacement(n, dests + 1);
      const graph::VertexId source = static_cast<graph::VertexId>(picks[0]);
      std::vector<graph::VertexId> base(picks.begin(), picks.end());
      std::sort(base.begin(), base.end());
      if (!std::all_of(base.begin(), base.end(), [&](graph::VertexId t) {
            return tables[source]->reachable(t);
          })) {
        continue;
      }
      std::vector<const graph::ShortestPaths*> base_tables;
      for (graph::VertexId t : base) base_tables.push_back(tables[t].get());
      const graph::ClosureMst closure(base, base_tables);
      EXPECT_NEAR(closure.weight(), closure_mst_from_scratch(base, tables),
                  1e-9 * closure.weight());

      for (graph::VertexId v = 0; v < n; ++v) {
        if (!tables[source]->reachable(v)) continue;
        const bool in_base = std::binary_search(base.begin(), base.end(), v);
        std::vector<graph::VertexId> terms = base;
        if (!in_base) terms.push_back(v);
        const double mst = in_base ? closure.weight() : closure.weight_with(v);
        EXPECT_NEAR(mst, closure_mst_from_scratch(terms, tables),
                    1e-9 * mst)
            << "seed " << seed << " v " << v;
        if (terms.size() < 2) continue;
        const double lb = graph::kmb_weight_lower_bound(mst, terms.size(), n);
        const graph::SteinerResult st =
            graph::kmb_steiner_lazy(view.graph(), terms, table_for, no_rows);
        ASSERT_TRUE(st.connected);
        EXPECT_LE(lb, st.weight) << "seed " << seed << " v " << v;
        ++checked;
        // Online_CP's configuration: v has no table and its row is an
        // early-exit Dijkstra under the request's eligibility mask. The
        // result must be bit-identical to the full-table KMB.
        if (in_base) continue;
        const std::function<const graph::ShortestPaths*(graph::VertexId)>
            base_only = [&](graph::VertexId u) -> const graph::ShortestPaths* {
          return u == v ? nullptr : tables[u].get();
        };
        const graph::KmbRowFn row_to =
            [&](graph::VertexId x, std::span<const graph::VertexId> targets) {
              return graph::SpEngine::thread_local_engine().shortest_paths_to(
                  view.graph(), x, targets, view.eligibility_mask());
            };
        const graph::SteinerResult lazy =
            graph::kmb_steiner_lazy(view.graph(), terms, base_only, row_to);
        EXPECT_EQ(lazy.connected, st.connected);
        EXPECT_EQ(lazy.edges, st.edges) << "seed " << seed << " v " << v;
        EXPECT_EQ(lazy.weight, st.weight) << "seed " << seed << " v " << v;
      }
    }
  }
  EXPECT_GT(checked, 1000u);
}

TEST(ClosureMstBound, UnreachableInsertionIsInfinite) {
  graph::Graph g(3);
  g.add_edge(0, 1, 2.0);
  const graph::ShortestPaths from0 = graph::dijkstra(g, 0);
  const graph::ShortestPaths from1 = graph::dijkstra(g, 1);
  const std::vector<graph::VertexId> base = {0, 1};
  const std::vector<const graph::ShortestPaths*> base_tables = {&from0, &from1};
  const graph::ClosureMst closure(base, base_tables);
  EXPECT_EQ(closure.weight(), 2.0);
  EXPECT_EQ(closure.weight_with(2), graph::kInfiniteDistance);
}

TEST(ClosureMstBound, MarginOnlyShavesRounding) {
  // Two terminals: KMB is the shortest path, so the bound is the MST itself
  // less the rounding margin 8 |V| 2^-53.
  const double lb = graph::kmb_weight_lower_bound(10.0, 2, 400);
  EXPECT_LT(lb, 10.0);
  EXPECT_GT(lb, 10.0 * (1.0 - 1e-12));
  // l terminals: MST * l / (2 (l - 1)).
  EXPECT_NEAR(graph::kmb_weight_lower_bound(12.0, 4, 400), 8.0, 1e-11);
}

// ---------------------------------------------------------------------------
// OnlineWeightedView: patching, keyed invalidation, eras
// ---------------------------------------------------------------------------


/// Triangle 0-1-2 (0-2 direct more expensive than 0-1 + 1-2) plus a tail
/// 2-3: the tree from 1 never contains edge 0-2, the tree from 0 does.
topo::Topology triangle_tail_topology() {
  topo::Topology t;
  t.name = "triangle_tail";
  t.graph = graph::Graph(4);
  t.graph.add_edge(0, 1, 1.0);  // e0
  t.graph.add_edge(1, 2, 1.0);  // e1
  t.graph.add_edge(0, 2, 1.5);  // e2
  t.graph.add_edge(2, 3, 1.0);  // e3
  t.servers = {2};
  t.link_bandwidth = {1000, 1000, 1000, 1000};
  t.server_compute = {0, 0, 8000, 0};
  return t;
}

TEST(OnlineWeightedView, PatchEvictsOnlyTreesContainingChangedEdges) {
  const topo::Topology topo = triangle_tail_topology();
  nfv::ResourceState state(topo);
  // Weight = f(residual): halves of consumed bandwidth on top of the static
  // link weight, so allocations move exactly the touched edges.
  OnlineWeightedView view(topo, [&](graph::EdgeId e) {
    const double consumed =
        state.bandwidth_capacity(e) - state.residual_bandwidth(e);
    return topo.graph.weight(e) + consumed / 1000.0;
  });
  view.set_policy(ViewPolicy::kForceIncremental);  // pin the cache machinery

  const std::vector<graph::VertexId> sources = {0, 1};
  const auto first = view.trees_for(state, sources, 50.0);
  // Tree from 0 uses e2 (1.5 < 1+1); tree from 1 reaches everything through
  // e0/e1/e3.
  ASSERT_EQ(first[0]->parent_edge[2], 2u);
  ASSERT_EQ(first[1]->parent_edge[2], 1u);

  nfv::Footprint fp;
  fp.bandwidth = {{2, 100.0}};  // consume on e2 only
  state.allocate(fp);
  view.apply_allocate(fp);

  const auto second = view.trees_for(state, sources, 50.0);
  EXPECT_NE(second[0].get(), first[0].get());  // contained e2: evicted
  EXPECT_EQ(second[1].get(), first[1].get());  // untouched: cache hit
  // The recomputed tree sees the patched weight: e2 now costs 1.6, so the
  // path 0-1-2 (2.0) still loses; bump it past 2.0 and the tree reroutes.
  nfv::Footprint fp2;
  fp2.bandwidth = {{2, 500.0}};
  state.allocate(fp2);
  view.apply_allocate(fp2);
  const auto third = view.trees_for(state, sources, 50.0);
  EXPECT_EQ(third[0]->parent_edge[2], 1u);  // rerouted around the hot link
}

TEST(OnlineWeightedView, AllocationWithoutWeightChangeKeepsCache) {
  const topo::Topology topo = triangle_tail_topology();
  nfv::ResourceState state(topo);
  // Residual-independent weights (the OnlineSp configuration): allocations
  // never dirty the cache.
  OnlineWeightedView view(topo,
                          [&](graph::EdgeId e) { return topo.graph.weight(e); });
  // Pin the incremental cache: these tests assert cache mechanics, and the
  // adaptive policy would (correctly) pick rebuild mode on a 4-edge graph.
  view.set_policy(ViewPolicy::kForceIncremental);
  const std::vector<graph::VertexId> sources = {0};
  const auto first = view.trees_for(state, sources, 50.0);
  nfv::Footprint fp;
  fp.bandwidth = {{0, 100.0}, {1, 100.0}, {2, 100.0}, {3, 100.0}};
  state.allocate(fp);
  view.apply_allocate(fp);
  const auto second = view.trees_for(state, sources, 50.0);
  EXPECT_EQ(second[0].get(), first[0].get());
}

TEST(OnlineWeightedView, ReleaseStartsNewEraDroppingAllTrees) {
  const topo::Topology topo = triangle_tail_topology();
  nfv::ResourceState state(topo);
  OnlineWeightedView view(topo,
                          [&](graph::EdgeId e) { return topo.graph.weight(e); });
  // Pin the incremental cache: these tests assert cache mechanics, and the
  // adaptive policy would (correctly) pick rebuild mode on a 4-edge graph.
  view.set_policy(ViewPolicy::kForceIncremental);
  const std::vector<graph::VertexId> sources = {0, 1};
  const auto first = view.trees_for(state, sources, 50.0);
  nfv::Footprint fp;
  fp.bandwidth = {{3, 100.0}};
  state.allocate(fp);
  view.apply_allocate(fp);
  state.release(fp);
  view.apply_release(fp);
  const auto second = view.trees_for(state, sources, 50.0);
  // Even weight-identical trees must be recomputed: a release can only be
  // trusted through a full era reset.
  EXPECT_NE(second[0].get(), first[0].get());
  EXPECT_NE(second[1].get(), first[1].get());
}

TEST(OnlineWeightedView, LowerBandwidthThresholdForcesRecompute) {
  const topo::Topology topo = triangle_tail_topology();
  nfv::ResourceState state(topo);
  OnlineWeightedView view(topo,
                          [&](graph::EdgeId e) { return topo.graph.weight(e); });
  // Pin the incremental cache: these tests assert cache mechanics, and the
  // adaptive policy would (correctly) pick rebuild mode on a 4-edge graph.
  view.set_policy(ViewPolicy::kForceIncremental);
  const std::vector<graph::VertexId> sources = {0};
  const auto at_100 = view.trees_for(state, sources, 100.0);
  // b' < b_T: eligibility at b' is a superset, the cached tree may be wrong.
  const auto at_50 = view.trees_for(state, sources, 50.0);
  EXPECT_NE(at_50[0].get(), at_100[0].get());
  // b' >= b_T with all tree edges still eligible: reuse.
  const auto at_80 = view.trees_for(state, sources, 80.0);
  EXPECT_EQ(at_80[0].get(), at_50[0].get());
}

TEST(OnlineWeightedView, IneligibleTreeEdgeForcesRecompute) {
  const topo::Topology topo = triangle_tail_topology();
  nfv::ResourceState state(topo);
  OnlineWeightedView view(topo,
                          [&](graph::EdgeId e) { return topo.graph.weight(e); });
  // Pin the incremental cache: these tests assert cache mechanics, and the
  // adaptive policy would (correctly) pick rebuild mode on a 4-edge graph.
  view.set_policy(ViewPolicy::kForceIncremental);
  const std::vector<graph::VertexId> sources = {0};
  const auto before = view.trees_for(state, sources, 50.0);
  ASSERT_EQ(before[0]->parent_edge[2], 2u);  // uses e2
  // Starve e2 below the request bandwidth WITHOUT changing weights (weights
  // are residual-independent here), so only per-lookup eligibility can
  // notice.
  nfv::Footprint fp;
  fp.bandwidth = {{2, 960.0}};
  state.allocate(fp);
  view.apply_allocate(fp);
  const auto after = view.trees_for(state, sources, 50.0);
  EXPECT_NE(after[0].get(), before[0].get());
  EXPECT_EQ(after[0]->parent_edge[2], 1u);  // rerouted: e2 now ineligible
  // A fresh filtered Dijkstra agrees bit-for-bit.
  const graph::ShortestPaths fresh =
      graph::dijkstra_filtered(view.graph(), 0, [&](graph::EdgeId e) {
        return nfv::edge_eligible(state, topo.graph, e, 50.0);
      });
  EXPECT_EQ(after[0]->dist, fresh.dist);
  EXPECT_EQ(after[0]->parent_edge, fresh.parent_edge);
}

TEST(OnlineWeightedView, RepeatedSourcesRunOneDijkstraEach) {
  const topo::Topology topo = triangle_tail_topology();
  nfv::ResourceState state(topo);
  const std::vector<graph::VertexId> sources = {0, 2, 0, 3, 2, 2};
  for (const ViewPolicy policy :
       {ViewPolicy::kForceIncremental, ViewPolicy::kForceRebuild}) {
    OnlineWeightedView view(
        topo, [&](graph::EdgeId e) { return topo.graph.weight(e); });
    view.set_policy(policy);
    const std::uint64_t runs_before = counter_value("graph.dijkstra.runs");
    const auto trees = view.trees_for(state, sources, 50.0);
#if NFVM_OBS
    EXPECT_EQ(counter_value("graph.dijkstra.runs") - runs_before, 3u);
#else
    (void)runs_before;
#endif
    ASSERT_EQ(trees.size(), sources.size());
    EXPECT_EQ(trees[2].get(), trees[0].get());
    EXPECT_EQ(trees[4].get(), trees[1].get());
    EXPECT_EQ(trees[5].get(), trees[1].get());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      EXPECT_EQ(trees[i]->source, sources[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// RejectTracker precedence
// ---------------------------------------------------------------------------

TEST(RejectTracker, DefaultsToConstructorValue) {
  const RejectTracker t("nothing yet", RejectCause::kCompute);
  EXPECT_EQ(t.reason(), "nothing yet");
  EXPECT_EQ(t.cause(), RejectCause::kCompute);
  EXPECT_EQ(t.rank(), RejectTracker::kRankDefault);
}

TEST(RejectTracker, ThresholdOverridesDefaultOnly) {
  RejectTracker t("default", RejectCause::kCompute);
  t.update(RejectTracker::kRankThreshold, "threshold", RejectCause::kThreshold);
  EXPECT_EQ(t.reason(), "threshold");
  t.update(RejectTracker::kRankCandidate, "candidate", RejectCause::kDelay);
  EXPECT_EQ(t.reason(), "candidate");
  // A later threshold gate can no longer override an evaluated candidate's
  // failure (the old string-compare special case, now explicit).
  t.update(RejectTracker::kRankThreshold, "threshold again",
           RejectCause::kThreshold);
  EXPECT_EQ(t.reason(), "candidate");
  EXPECT_EQ(t.cause(), RejectCause::kDelay);
}

TEST(RejectTracker, EqualRankIsLastWriterWins) {
  RejectTracker t("default", RejectCause::kCompute);
  t.update(RejectTracker::kRankCandidate, "first", RejectCause::kBandwidth);
  t.update(RejectTracker::kRankCandidate, "second", RejectCause::kDelay);
  EXPECT_EQ(t.reason(), "second");
  EXPECT_EQ(t.cause(), RejectCause::kDelay);
}

}  // namespace
}  // namespace nfvm::core
