// The online admission fast path: the closure-MST bound behind Online_CP's
// pruned server scan and its lazy server rows, OnlineWeightedView patch and
// repair semantics, the lazy table-driven KMB entry point, and
// RejectTracker precedence. Trace equivalence against the
// per-request rebuild lives in test_oracle_equivalence.cpp.
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
#include "core/online_view.h"
#include "graph/dijkstra.h"
#include "graph/sp_engine.h"
#include "graph/steiner.h"
#include "nfv/resources.h"
#include "obs/metrics.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::core {
namespace {

std::uint64_t counter_value(const std::string& name) {
  return obs::Registry::global().counter(name)->value();
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
      return std::make_shared<const graph::ShortestPaths>();
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
              return std::make_shared<const graph::ShortestPaths>(
                  graph::SpEngine::thread_local_engine().shortest_paths_to(
                      view.graph(), x, targets, view.eligibility_mask()));
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

TEST(OnlineWeightedView, PatchRepairsOnlyTreesTheChangeReaches) {
  const topo::Topology topo = triangle_tail_topology();
  nfv::ResourceState state(topo);
  // Weight = f(residual): halves of consumed bandwidth on top of the static
  // link weight, so allocations move exactly the touched edges.
  OnlineWeightedView view(topo, [&](graph::EdgeId e) {
    const double consumed =
        state.bandwidth_capacity(e) - state.residual_bandwidth(e);
    return topo.graph.weight(e) + consumed / 1000.0;
  });

  const std::vector<graph::VertexId> sources = {0, 1};
  const auto first = view.trees_for(state, sources, 50.0);
  // Tree from 0 uses e2 (1.5 < 1+1); tree from 1 reaches everything through
  // e0/e1/e3.
  ASSERT_EQ(first[0]->parent_edge[2], 2u);
  ASSERT_EQ(first[1]->parent_edge[2], 1u);

  nfv::Footprint fp;
  fp.bandwidth = {{2, 100.0}};  // consume on e2 only
  state.allocate(fp);
  view.patch(fp);

  const auto second = view.trees_for(state, sources, 50.0);
  EXPECT_NE(second[0].get(), first[0].get());  // contained e2: repaired
  EXPECT_EQ(second[1].get(), first[1].get());  // e2 relaxes nothing there
  // The recomputed tree sees the patched weight: e2 now costs 1.6, so the
  // path 0-1-2 (2.0) still loses; bump it past 2.0 and the tree reroutes.
  nfv::Footprint fp2;
  fp2.bandwidth = {{2, 500.0}};
  state.allocate(fp2);
  view.patch(fp2);
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
  const std::vector<graph::VertexId> sources = {0};
  const auto first = view.trees_for(state, sources, 50.0);
  nfv::Footprint fp;
  fp.bandwidth = {{0, 100.0}, {1, 100.0}, {2, 100.0}, {3, 100.0}};
  state.allocate(fp);
  view.patch(fp);
  const auto second = view.trees_for(state, sources, 50.0);
  EXPECT_EQ(second[0].get(), first[0].get());
}

TEST(OnlineWeightedView, ReleaseKeepsTreesItLeavesExact) {
  const topo::Topology topo = triangle_tail_topology();
  nfv::ResourceState state(topo);
  OnlineWeightedView view(topo,
                          [&](graph::EdgeId e) { return topo.graph.weight(e); });
  const std::vector<graph::VertexId> sources = {0, 1};
  const auto first = view.trees_for(state, sources, 50.0);
  nfv::Footprint fp;
  fp.bandwidth = {{3, 100.0}};
  state.allocate(fp);
  view.patch(fp);
  state.release(fp);
  view.patch(fp);
  // Neither weights nor eligibility moved, so the same trees are served.
  const auto second = view.trees_for(state, sources, 50.0);
  EXPECT_EQ(second[0].get(), first[0].get());
  EXPECT_EQ(second[1].get(), first[1].get());
}

TEST(OnlineWeightedView, LowerBandwidthThresholdForcesRecompute) {
  const topo::Topology topo = triangle_tail_topology();
  nfv::ResourceState state(topo);
  OnlineWeightedView view(topo,
                          [&](graph::EdgeId e) { return topo.graph.weight(e); });
  // Leave e2 (0-2, the tree from 0's edge to 2) 70 Mbps of residual.
  nfv::Footprint fp;
  fp.bandwidth = {{2, 930.0}};
  state.allocate(fp);
  view.patch(fp);
  const std::vector<graph::VertexId> sources = {0};
  const auto at_100 = view.trees_for(state, sources, 100.0);
  EXPECT_EQ(at_100[0]->parent_edge[2], 1u);  // e2 ineligible: around it
  // A lower threshold opens e2 (a mask bit 0 -> 1): the tree changes.
  const auto at_50 = view.trees_for(state, sources, 50.0);
  EXPECT_NE(at_50[0].get(), at_100[0].get());
  EXPECT_EQ(at_50[0]->parent_edge[2], 2u);
  // The same eligibility at a different threshold: reuse.
  const auto at_60 = view.trees_for(state, sources, 60.0);
  EXPECT_EQ(at_60[0].get(), at_50[0].get());
}

TEST(OnlineWeightedView, IneligibleTreeEdgeForcesRecompute) {
  const topo::Topology topo = triangle_tail_topology();
  nfv::ResourceState state(topo);
  OnlineWeightedView view(topo,
                          [&](graph::EdgeId e) { return topo.graph.weight(e); });
  const std::vector<graph::VertexId> sources = {0};
  const auto before = view.trees_for(state, sources, 50.0);
  ASSERT_EQ(before[0]->parent_edge[2], 2u);  // uses e2
  // Starve e2 below the request bandwidth WITHOUT changing weights (weights
  // are residual-independent here), so only per-lookup eligibility can
  // notice.
  nfv::Footprint fp;
  fp.bandwidth = {{2, 960.0}};
  state.allocate(fp);
  view.patch(fp);
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
  OnlineWeightedView view(topo, [&](graph::EdgeId e) { return topo.graph.weight(e); });
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
