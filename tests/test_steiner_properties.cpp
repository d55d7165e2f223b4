// Property-based sweeps over random graphs checking the KMB guarantee
// against the exact Dreyfus-Wagner optimum, and the lazy-row KMB entry point
// against full-table KMB.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/components.h"
#include "graph/dijkstra.h"
#include "graph/sp_engine.h"
#include "graph/steiner.h"
#include "util/rng.h"

namespace nfvm::graph {
namespace {

struct RandomCase {
  std::uint64_t seed;
  std::size_t num_vertices;
  double edge_prob;
  std::size_t num_terminals;
};

Graph random_connected_graph(util::Rng& rng, std::size_t n, double p) {
  for (;;) {
    Graph g(n);
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) {
        if (rng.bernoulli(p)) g.add_edge(u, v, rng.uniform_real(0.5, 10.0));
      }
    }
    if (is_connected(g)) return g;
  }
}

class SteinerRatioTest : public ::testing::TestWithParam<RandomCase> {};

TEST_P(SteinerRatioTest, KmbWithinTwiceOptimal) {
  const RandomCase& c = GetParam();
  util::Rng rng(c.seed);
  const Graph g = random_connected_graph(rng, c.num_vertices, c.edge_prob);
  std::vector<VertexId> terminals;
  for (std::size_t p : rng.sample_without_replacement(c.num_vertices, c.num_terminals)) {
    terminals.push_back(static_cast<VertexId>(p));
  }

  const SteinerResult approx = kmb_steiner(g, terminals);
  const SteinerResult exact = exact_steiner(g, terminals);
  ASSERT_TRUE(approx.connected);
  ASSERT_TRUE(exact.connected);

  EXPECT_TRUE(is_steiner_tree(g, approx.edges, terminals));
  EXPECT_TRUE(is_steiner_tree(g, exact.edges, terminals));

  // Exact is a lower bound for any Steiner tree.
  EXPECT_LE(exact.weight, approx.weight + 1e-9);
  // KMB guarantee: 2 (1 - 1/t) OPT <= 2 OPT.
  const double t = static_cast<double>(c.num_terminals);
  EXPECT_LE(approx.weight, 2.0 * (1.0 - 1.0 / t) * exact.weight + 1e-9)
      << "KMB ratio violated";
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, SteinerRatioTest,
    ::testing::Values(
        RandomCase{101, 8, 0.4, 3}, RandomCase{102, 8, 0.5, 4},
        RandomCase{103, 10, 0.35, 3}, RandomCase{104, 10, 0.4, 5},
        RandomCase{105, 12, 0.3, 4}, RandomCase{106, 12, 0.35, 6},
        RandomCase{107, 14, 0.3, 5}, RandomCase{108, 14, 0.25, 4},
        RandomCase{109, 16, 0.25, 6}, RandomCase{110, 16, 0.3, 7},
        RandomCase{111, 18, 0.22, 5}, RandomCase{112, 18, 0.25, 6},
        RandomCase{113, 20, 0.2, 4}, RandomCase{114, 20, 0.22, 7},
        RandomCase{115, 22, 0.2, 5}, RandomCase{116, 24, 0.18, 6},
        RandomCase{117, 9, 0.5, 2}, RandomCase{118, 11, 0.4, 2},
        RandomCase{119, 15, 0.3, 8}, RandomCase{120, 13, 0.35, 3}),
    [](const ::testing::TestParamInfo<RandomCase>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

class SteinerDeterminismTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SteinerDeterminismTest, KmbIsDeterministic) {
  util::Rng rng(GetParam());
  const Graph g = random_connected_graph(rng, 15, 0.3);
  std::vector<VertexId> terminals{0, 5, 9, 14};
  const SteinerResult a = kmb_steiner(g, terminals);
  const SteinerResult b = kmb_steiner(g, terminals);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_DOUBLE_EQ(a.weight, b.weight);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SteinerDeterminismTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(SteinerProperty, KmbWeightEqualsSumOfEdges) {
  util::Rng rng(321);
  const Graph g = random_connected_graph(rng, 20, 0.25);
  const std::vector<VertexId> terminals{1, 7, 13, 19};
  const SteinerResult st = kmb_steiner(g, terminals);
  double sum = 0.0;
  for (EdgeId e : st.edges) sum += g.weight(e);
  EXPECT_NEAR(sum, st.weight, 1e-9);
}

TEST(SteinerProperty, TerminalOrderIrrelevant) {
  util::Rng rng(654);
  const Graph g = random_connected_graph(rng, 16, 0.3);
  const SteinerResult a = kmb_steiner(g, std::vector<VertexId>{2, 6, 11, 15});
  const SteinerResult b = kmb_steiner(g, std::vector<VertexId>{15, 11, 6, 2});
  EXPECT_DOUBLE_EQ(a.weight, b.weight);
}

TEST(SteinerProperty, AddingTerminalsNeverCheapens) {
  util::Rng rng(987);
  const Graph g = random_connected_graph(rng, 14, 0.35);
  const SteinerResult small = exact_steiner(g, std::vector<VertexId>{0, 5});
  const SteinerResult large = exact_steiner(g, std::vector<VertexId>{0, 5, 9});
  EXPECT_GE(large.weight + 1e-9, small.weight);
}

// ---------------------------------------------------------------------------
// kmb_steiner_lazy: terminals without a table, rows fetched on demand
// ---------------------------------------------------------------------------

/// Random graph on [0, n - 1) (plus the isolated vertex n - 1 when `isolate`)
/// where every other edge weighs 0 and the rest repeat four values. Prim
/// keys tie everywhere. `fractions` draws 0.1, 0.2, 0.3 and 0.7, whose sums
/// round differently in different orders, so the two directions of one
/// distance may disagree in the last bit; otherwise the values lie within
/// 0.1% of each other, so many distances nearly tie.
Graph zero_heavy_graph(util::Rng& rng, std::size_t n, double p, bool isolate,
                       bool fractions) {
  const double fraction_weights[] = {0.1, 0.2, 0.3, 0.7};
  const double near_weights[] = {1.0, 1.0002, 1.0005, 1.001};
  const double* repeats = fractions ? fraction_weights : near_weights;
  const std::size_t linked = isolate ? n - 1 : n;
  Graph g(n);
  for (VertexId u = 0; u < linked; ++u) {
    for (VertexId v = u + 1; v < linked; ++v) {
      if (!rng.bernoulli(p)) continue;
      g.add_edge(u, v, g.num_edges() % 2 == 0 ? 0.0 : repeats[rng.next_below(4)]);
    }
  }
  return g;
}

struct LazyRun {
  SteinerResult result;
  /// Every row_to call: (source, targets).
  std::vector<std::pair<VertexId, std::vector<VertexId>>> fetches;
};

/// kmb_steiner_lazy with full tables for every terminal except `tableless`,
/// whose rows come from SpEngine::shortest_paths_to.
LazyRun run_lazy(const Graph& g, const std::vector<VertexId>& terminals,
                 const std::vector<VertexId>& tableless) {
  std::map<VertexId, ShortestPaths> tables;
  for (VertexId t : terminals) {
    if (std::find(tableless.begin(), tableless.end(), t) == tableless.end()) {
      tables.emplace(t, dijkstra(g, t));
    }
  }
  LazyRun run;
  const std::function<const ShortestPaths*(VertexId)> table_for =
      [&](VertexId v) -> const ShortestPaths* {
    const auto it = tables.find(v);
    return it == tables.end() ? nullptr : &it->second;
  };
  const KmbRowFn row_to = [&](VertexId x, std::span<const VertexId> targets) {
    run.fetches.emplace_back(x,
                             std::vector<VertexId>(targets.begin(), targets.end()));
    return std::make_shared<const ShortestPaths>(
        SpEngine::thread_local_engine().shortest_paths_to(g, x, targets));
  };
  run.result = kmb_steiner_lazy(g, terminals, table_for, row_to);
  return run;
}

void expect_same_steiner(const SteinerResult& lazy, const SteinerResult& full) {
  EXPECT_EQ(lazy.connected, full.connected);
  EXPECT_EQ(lazy.edges, full.edges);
  EXPECT_EQ(lazy.weight, full.weight);  // bit-exact
}

TEST(KmbLazy, BitIdenticalToFullKmbWithTablelessTerminalAnywhere) {
  std::size_t fetched = 0;
  std::size_t skipped = 0;
  std::size_t disconnected = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    util::Rng rng(5000 + seed);
    const std::size_t n = 16 + seed % 9;
    const bool isolate = seed % 5 == 0;
    const double p = 0.12 + 0.04 * static_cast<double>(seed % 4);
    const Graph g = zero_heavy_graph(rng, n, p, isolate, seed % 2 == 0);
    const std::size_t k = 3 + rng.next_below(6);
    std::vector<VertexId> terms;
    for (std::size_t i : rng.sample_without_replacement(n, k)) {
      terms.push_back(static_cast<VertexId>(i));
    }
    if (isolate) terms.push_back(static_cast<VertexId>(n - 1));
    terms.push_back(terms.front());  // duplicates are ignored
    const SteinerResult full = kmb_steiner(g, terms);
    if (!full.connected) ++disconnected;
    // Each terminal in turn lacks a table, so the tableless one meets every
    // Prim position, the root (smallest id) included.
    for (VertexId x : terms) {
      const LazyRun lazy = run_lazy(g, terms, {x});
      expect_same_steiner(lazy.result, full);
      ++(lazy.fetches.empty() ? skipped : fetched);
    }
    expect_same_steiner(run_lazy(g, terms, terms).result, full);
  }
  // Not vacuous: both branches ran, and so did the disconnected case.
  EXPECT_GT(fetched, 0u);
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(disconnected, 0u);
}

TEST(KmbLazy, RowFetchedOnlyWhenItCanImproveAKey) {
  // 0 - 1 - 2 and 0 - 3, unit weights.
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 3, 1.0);
  {
    // Prim from 0 keys 1 and 3 at 1 and 2 at 2, then picks 1, whose row can
    // improve only 2 (d(1, 2) = 1 < 2): fetched once, for {2} alone.
    const std::vector<VertexId> terms{0, 1, 2, 3};
    const LazyRun run = run_lazy(g, terms, {1});
    ASSERT_EQ(run.fetches.size(), 1u);
    EXPECT_EQ(run.fetches[0].first, 1u);
    EXPECT_EQ(run.fetches[0].second, std::vector<VertexId>{2});
    expect_same_steiner(run.result, kmb_steiner(g, terms));
  }
  {
    // Without 2, picking 1 improves nothing (d(1, 3) = 2 > key 1), and 3 is
    // picked last: neither row is ever fetched.
    const std::vector<VertexId> terms{0, 1, 3};
    for (VertexId x : {1u, 3u}) {
      const LazyRun run = run_lazy(g, terms, {x});
      EXPECT_TRUE(run.fetches.empty()) << "tableless " << x;
      expect_same_steiner(run.result, kmb_steiner(g, terms));
    }
  }
  {
    // The root is fetched up front, for every other terminal.
    const std::vector<VertexId> terms{3, 0, 2};
    const LazyRun run = run_lazy(g, terms, {0});
    ASSERT_EQ(run.fetches.size(), 1u);
    EXPECT_EQ(run.fetches[0].first, 0u);
    EXPECT_EQ(run.fetches[0].second, (std::vector<VertexId>{2, 3}));
    expect_same_steiner(run.result, kmb_steiner(g, terms));
  }
}

TEST(KmbLazy, MarginCoversDirectionalRounding) {
  // One exact distance, two float sums: from x = 1 the path to j = 2 sums
  // (0.3 + 0.2) + 0.1 = 0.6, from j it sums (0.1 + 0.2) + 0.3, one ulp
  // above. The root 0 keys j at that upper value through 5 and 6, so only
  // x's row strictly improves j, while dist_j[x] ties j's key: without the
  // margin the row would be skipped and KMB would expand (0, 2) instead.
  Graph g(7);
  g.add_edge(2, 3, 0.1);
  g.add_edge(3, 4, 0.2);
  g.add_edge(4, 1, 0.3);
  g.add_edge(0, 5, 0.1);
  g.add_edge(5, 6, 0.2);
  g.add_edge(6, 2, 0.3);
  g.add_edge(0, 1, 0.05);
  const ShortestPaths from_x = dijkstra(g, 1);
  const ShortestPaths from_j = dijkstra(g, 2);
  ASSERT_LT(from_x.dist[2], from_j.dist[1]);
  ASSERT_EQ(dijkstra(g, 0).dist[2], from_j.dist[1]);

  const std::vector<VertexId> terms{0, 1, 2};
  const SteinerResult full = kmb_steiner(g, terms);
  const LazyRun run = run_lazy(g, terms, {1});
  ASSERT_EQ(run.fetches.size(), 1u);
  EXPECT_EQ(run.fetches[0].second, std::vector<VertexId>{2});
  expect_same_steiner(run.result, full);
  EXPECT_NE(std::find(full.edges.begin(), full.edges.end(), EdgeId{2}),
            full.edges.end());  // x's path to j, edge 4 - 1
}

}  // namespace
}  // namespace nfvm::graph
