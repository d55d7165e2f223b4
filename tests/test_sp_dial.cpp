// Dial bucket-queue determinism suite: the bucket-ring specialization must
// be bit-identical to the binary-heap path (dist, parent AND parent_edge),
// the CSR weight inspection must only ever select it on strictly-positive
// integer weights <= kMaxDialWeight, and the batched multi-source SSSP must
// reproduce the sequential per-source loop byte-for-byte at any thread
// count. Early-exit target rows (shortest_paths_to) must agree with the
// full masked run on both queues. See the determinism argument in
// src/graph/sp_engine.cpp above run_dial and docs/performance.md "SP engine
// internals".
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/csr.h"
#include "graph/sp_engine.h"
#include "topology/waxman.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace nfvm::graph {
namespace {

void expect_trees_equal(const ShortestPaths& a, const ShortestPaths& b) {
  ASSERT_EQ(a.dist.size(), b.dist.size());
  EXPECT_EQ(a.source, b.source);
  for (VertexId v = 0; v < a.dist.size(); ++v) {
    EXPECT_EQ(a.dist[v], b.dist[v]) << "dist mismatch at " << v;
    EXPECT_EQ(a.parent[v], b.parent[v]) << "parent mismatch at " << v;
    EXPECT_EQ(a.parent_edge[v], b.parent_edge[v]) << "edge mismatch at " << v;
  }
}

/// The historical binary-heap Dijkstra — the order the Dial ring must
/// reproduce exactly.
ShortestPaths reference_dijkstra(const Graph& g, VertexId source) {
  ShortestPaths sp;
  sp.source = source;
  sp.dist.assign(g.num_vertices(), kInfiniteDistance);
  sp.parent.assign(g.num_vertices(), kInvalidVertex);
  sp.parent_edge.assign(g.num_vertices(), kInvalidEdge);
  sp.dist[source] = 0.0;
  std::vector<std::pair<double, VertexId>> frontier{{0.0, source}};
  const auto cmp = [](const auto& a, const auto& b) { return a > b; };
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), cmp);
    const auto [d, u] = frontier.back();
    frontier.pop_back();
    if (d > sp.dist[u]) continue;
    for (const Adjacency& adj : g.neighbors(u)) {
      const double nd = d + g.edge(adj.edge).weight;
      if (nd < sp.dist[adj.neighbor]) {
        sp.dist[adj.neighbor] = nd;
        sp.parent[adj.neighbor] = u;
        sp.parent_edge[adj.neighbor] = adj.edge;
        frontier.emplace_back(nd, adj.neighbor);
        std::push_heap(frontier.begin(), frontier.end(), cmp);
      }
    }
  }
  return sp;
}

/// A Waxman topology re-weighted through `weight_of(e)` — same structure,
/// controlled weight profile.
Graph reweighted_waxman(std::size_t n, std::uint64_t seed,
                        double (*weight_of)(EdgeId)) {
  util::Rng rng(seed);
  const topo::Topology topo = topo::make_waxman(n, rng);
  Graph g(topo.graph.num_vertices());
  for (EdgeId e = 0; e < topo.graph.num_edges(); ++e) {
    const Edge& ed = topo.graph.edge(e);
    g.add_edge(ed.u, ed.v, weight_of(e));
  }
  return g;
}

TEST(SpDial, MatchesHeapOnRandomUnitWeightGraphs) {
  for (std::uint64_t seed : {7u, 11u, 23u}) {
    const Graph g =
        reweighted_waxman(50, seed, +[](EdgeId) { return 1.0; });
    SpEngine engine;
    for (VertexId s = 0; s < g.num_vertices(); s += 7) {
      const ShortestPaths sp = engine.shortest_paths(g, s);
      EXPECT_TRUE(engine.last_used_dial()) << "unit weights must select Dial";
      expect_trees_equal(sp, reference_dijkstra(g, s));
    }
  }
}

TEST(SpDial, MatchesHeapOnSmallIntegerWeights) {
  const Graph g = reweighted_waxman(
      60, 42, +[](EdgeId e) { return 1.0 + static_cast<double>(e % 9); });
  SpEngine engine;
  for (VertexId s = 0; s < g.num_vertices(); s += 5) {
    const ShortestPaths sp = engine.shortest_paths(g, s);
    EXPECT_TRUE(engine.last_used_dial());
    expect_trees_equal(sp, reference_dijkstra(g, s));
  }
}

TEST(SpDial, MixedWeightsSelectHeapWithEqualResults) {
  // One fractional weight anywhere disqualifies the whole graph.
  const Graph g = reweighted_waxman(
      60, 42, +[](EdgeId e) { return e == 3 ? 1.5 : 2.0; });
  SpEngine engine;
  for (VertexId s = 0; s < g.num_vertices(); s += 5) {
    const ShortestPaths sp = engine.shortest_paths(g, s);
    EXPECT_FALSE(engine.last_used_dial())
        << "non-integer weights must fall back to the heap";
    expect_trees_equal(sp, reference_dijkstra(g, s));
  }
}

TEST(SpDial, ZeroWeightEdgeSelectsHeap) {
  // Zero-weight edges would relax into the bucket currently being drained;
  // eligibility requires strictly positive weights.
  const Graph g = reweighted_waxman(
      30, 9, +[](EdgeId e) { return e == 0 ? 0.0 : 1.0; });
  SpEngine engine;
  const ShortestPaths sp = engine.shortest_paths(g, 0);
  EXPECT_FALSE(engine.last_used_dial());
  expect_trees_equal(sp, reference_dijkstra(g, 0));
}

TEST(SpDial, OversizedIntegerWeightSelectsHeap) {
  const Graph g = reweighted_waxman(
      30, 9, +[](EdgeId e) { return e == 0 ? kMaxDialWeight + 1.0 : 1.0; });
  SpEngine engine;
  const ShortestPaths sp = engine.shortest_paths(g, 0);
  EXPECT_FALSE(engine.last_used_dial());
  expect_trees_equal(sp, reference_dijkstra(g, 0));
}

TEST(SpDial, EarlyExitLeavesNoStaleBucketState) {
  // A point-to-point query abandons ring entries mid-drain; the next full
  // query must not see them (generation-stamped buckets).
  const Graph g = reweighted_waxman(50, 7, +[](EdgeId) { return 1.0; });
  SpEngine engine;
  engine.shortest_distance(g, 0, g.num_vertices() - 1);
  ASSERT_TRUE(engine.last_used_dial());
  for (VertexId s = 0; s < g.num_vertices(); s += 11) {
    expect_trees_equal(engine.shortest_paths(g, s), reference_dijkstra(g, s));
  }
}

/// Checks an early-exit row against the full masked run: every target and
/// every vertex on its shortest path is bit-equal (dist, parent and
/// parent_edge), every other entry is an upper bound on the full distance.
/// Returns how many entries the row left above the full run's value.
std::size_t expect_row_agrees(const ShortestPaths& row, const ShortestPaths& full,
                              const std::vector<VertexId>& targets) {
  EXPECT_EQ(row.source, full.source);
  EXPECT_EQ(row.dist.size(), full.dist.size());
  std::vector<bool> exact(full.dist.size(), false);
  for (VertexId t : targets) {
    for (VertexId v = t; v != kInvalidVertex && !exact[v]; v = full.parent[v]) {
      exact[v] = true;
    }
  }
  std::size_t above = 0;
  for (VertexId v = 0; v < full.dist.size(); ++v) {
    if (exact[v]) {
      EXPECT_EQ(row.dist[v], full.dist[v]) << "dist mismatch at " << v;
      EXPECT_EQ(row.parent[v], full.parent[v]) << "parent mismatch at " << v;
      EXPECT_EQ(row.parent_edge[v], full.parent_edge[v]) << "edge mismatch at " << v;
    } else {
      EXPECT_GE(row.dist[v], full.dist[v]) << "below the full run at " << v;
      if (row.dist[v] > full.dist[v]) ++above;
    }
  }
  return above;
}

TEST(SpDial, ShortestPathsToMatchesFullMaskedRunOnBothQueues) {
  struct Profile {
    const char* name;
    double (*weight_of)(EdgeId);
    bool dial;
  };
  const Profile profiles[] = {
      {"unit", +[](EdgeId) { return 1.0; }, true},
      {"small integers", +[](EdgeId e) { return 1.0 + static_cast<double>(e % 9); },
       true},
      // Zeros and repeated fractions: the heap path, with float ties.
      {"zeros and fractions",
       +[](EdgeId e) {
         return e % 2 == 0 ? 0.0 : 0.1 * static_cast<double>(1 + e % 3);
       },
       false},
  };
  for (const Profile& profile : profiles) {
    const Graph g = reweighted_waxman(60, 42, profile.weight_of);
    const std::size_t n = g.num_vertices();
    std::vector<std::uint8_t> mask(g.num_edges(), 1);
    for (EdgeId e = 0; e < g.num_edges(); e += 5) mask[e] = 0;
    SpEngine engine;
    std::size_t above = 0;
    for (VertexId s = 0; s < n; s += 7) {
      const ShortestPaths full = engine.shortest_paths_masked(g, s, mask);
      // A duplicate and the source itself among the targets.
      const std::vector<VertexId> targets{
          static_cast<VertexId>((s + 13) % n), static_cast<VertexId>((s + 29) % n),
          static_cast<VertexId>((s + 13) % n), s};
      const ShortestPaths row = engine.shortest_paths_to(g, s, targets, mask);
      EXPECT_EQ(engine.last_used_dial(), profile.dial) << profile.name;
      above += expect_row_agrees(row, full, targets);
    }
    // Not vacuous: the runs did stop early.
    EXPECT_GT(above, 0u) << profile.name;
  }
}

TEST(SpDial, ShortestPathsToUnreachableTargetExhaustsTheRun) {
  // Two components, {0, 1, 2, 3} and {4, 5}, plus a masked-off bridge 3-4.
  for (const double w : {1.0, 1.5}) {  // Dial, then heap
    Graph g(6);
    g.add_edge(0, 1, w);
    g.add_edge(1, 2, w);
    g.add_edge(2, 3, w);
    g.add_edge(4, 5, w);
    g.add_edge(3, 4, w);
    const std::vector<std::uint8_t> mask{1, 1, 1, 1, 0};
    SpEngine engine;
    const std::vector<VertexId> targets{1, 5};
    const ShortestPaths row = engine.shortest_paths_to(g, 0, targets, mask);
    EXPECT_EQ(engine.last_used_dial(), w == 1.0);
    EXPECT_EQ(row.dist[5], kInfiniteDistance);
    // Exhausted: the whole component is exact, as in the full run.
    expect_trees_equal(row, engine.shortest_paths_masked(g, 0, mask));
  }
}

TEST(SpDial, ShortestPathsToValidatesArguments) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  SpEngine engine;
  const std::vector<VertexId> bad{7};
  EXPECT_THROW(engine.shortest_paths_to(g, 0, bad), std::out_of_range);
  const std::vector<VertexId> ok{1};
  EXPECT_THROW(engine.shortest_paths_to(g, 9, ok), std::out_of_range);
  const std::vector<std::uint8_t> no_mask;  // empty: every edge allowed
  EXPECT_NO_THROW(engine.shortest_paths_to(g, 0, ok, no_mask));
  Graph h(3);
  h.add_edge(0, 1, 1.0);
  h.add_edge(1, 2, 1.0);
  const std::vector<std::uint8_t> one_byte{1};
  EXPECT_THROW(engine.shortest_paths_to(h, 0, ok, one_byte), std::invalid_argument);
}

class SpBatch : public ::testing::TestWithParam<std::size_t> {
 protected:
  void TearDown() override { util::ThreadPool::set_global_threads(1); }
};

TEST_P(SpBatch, BatchedSsspMatchesSequentialLoop) {
  util::ThreadPool::set_global_threads(GetParam());
  for (std::uint64_t seed : {5u, 19u}) {
    util::Rng rng(seed);
    const topo::Topology topo = topo::make_waxman(80, rng);
    const Graph& g = topo.graph;
    std::vector<VertexId> sources;
    for (VertexId v = 0; v < g.num_vertices(); v += 3) sources.push_back(v);

    const std::vector<ShortestPaths> batch = batch_dijkstra(g, sources);
    ASSERT_EQ(batch.size(), sources.size());
    SpEngine engine;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      expect_trees_equal(batch[i], engine.shortest_paths(g, sources[i]));
    }
  }
}

TEST_P(SpBatch, MaskedBatchMatchesSequentialMaskedLoop) {
  util::ThreadPool::set_global_threads(GetParam());
  util::Rng rng(31);
  const topo::Topology topo = topo::make_waxman(80, rng);
  const Graph& g = topo.graph;
  std::vector<std::uint8_t> mask(g.num_edges(), 1);
  for (EdgeId e = 0; e < g.num_edges(); e += 3) mask[e] = 0;
  std::vector<VertexId> sources;
  for (VertexId v = 0; v < g.num_vertices(); v += 4) sources.push_back(v);

  const std::vector<ShortestPaths> batch = batch_dijkstra(g, sources, mask);
  ASSERT_EQ(batch.size(), sources.size());
  SpEngine engine;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    expect_trees_equal(batch[i],
                       engine.shortest_paths_masked(g, sources[i], mask));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SpBatch, ::testing::Values(1u, 4u));

}  // namespace
}  // namespace nfvm::graph
