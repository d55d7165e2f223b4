// Shortest-path tree repair: SpEngine::repair_shortest_paths must return
// exactly the tree a fresh shortest_paths_masked builds on the new weights
// and mask (the bits of dist, plus parent and parent_edge), whatever it
// did to get there — screened unchanged, repaired, or recomputed because
// the settle-order guard or the size limit failed. Random multigraphs cover
// repeated, zero and absorbing weights, parallel edges and self-loops,
// mixed weight increases, decreases and mask flips, chained repairs, and
// both the heap and the Dial path of the fresh run. The view-level case
// drives OnlineWeightedView through admissions and departures on
// Waxman-100 at 1 and 4 threads. The invariant is argued in
// docs/performance.md, "Tree repair".
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/online_view.h"
#include "graph/sp_engine.h"
#include "nfv/resources.h"
#include "obs/metrics.h"
#include "topology/waxman.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace nfvm::graph {
namespace {

std::uint64_t counter_value(const std::string& name) {
  return obs::Registry::global().counter(name)->value();
}

/// Bit-for-bit: dist compared as IEEE bit patterns, not with ==.
::testing::AssertionResult same_tree(const ShortestPaths& got,
                                     const ShortestPaths& want) {
  if (got.source != want.source) return ::testing::AssertionFailure() << "source";
  if (got.dist.size() != want.dist.size()) {
    return ::testing::AssertionFailure() << "vertex count";
  }
  for (VertexId v = 0; v < want.dist.size(); ++v) {
    if (std::bit_cast<std::uint64_t>(got.dist[v]) !=
        std::bit_cast<std::uint64_t>(want.dist[v])) {
      return ::testing::AssertionFailure()
             << "dist[" << v << "] " << got.dist[v] << " != " << want.dist[v];
    }
    if (got.parent[v] != want.parent[v]) {
      return ::testing::AssertionFailure() << "parent[" << v << "] " << got.parent[v]
                                           << " != " << want.parent[v];
    }
    if (got.parent_edge[v] != want.parent_edge[v]) {
      return ::testing::AssertionFailure()
             << "parent_edge[" << v << "] " << got.parent_edge[v]
             << " != " << want.parent_edge[v];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Weight regimes of the random multigraphs.
enum class Regime {
  kInteger,     // 1..4: the fresh run takes the Dial path, ties everywhere
  kRepeated,    // a few fractional values: heap path, ties everywhere
  kWithZeros,   // zero weights: the settle-order guard fails
  kAbsorbing,   // 1e16 next to 0.5 and 1: fl(d + w) == d, the guard fails
  kDistinct,    // uniform reals: (almost) no ties
};
constexpr int kNumRegimes = 5;

double draw_weight(Regime regime, util::Rng& rng) {
  switch (regime) {
    case Regime::kInteger:
      return static_cast<double>(rng.uniform_int(1, 4));
    case Regime::kRepeated: {
      static constexpr double kValues[] = {0.25, 0.5, 0.75, 1.0, 1.5};
      return kValues[rng.next_below(5)];
    }
    case Regime::kWithZeros: {
      static constexpr double kValues[] = {0.0, 0.0, 1.0, 2.0, 0.5};
      return kValues[rng.next_below(5)];
    }
    case Regime::kAbsorbing: {
      static constexpr double kValues[] = {1e16, 1e16, 0.5, 1.0, 2.0, 1e16 + 2.0};
      return kValues[rng.next_below(6)];
    }
    case Regime::kDistinct:
      return rng.uniform_real(0.01, 10.0);
  }
  return 1.0;
}

struct Outcomes {
  std::size_t unchanged = 0;
  std::size_t repaired = 0;
  std::size_t recomputed = 0;
  std::size_t repaired_integer = 0;
  void count(SpEngine::Repair r, Regime regime) {
    switch (r) {
      case SpEngine::Repair::kUnchanged: ++unchanged; break;
      case SpEngine::Repair::kRepaired:
        ++repaired;
        if (regime == Regime::kInteger) ++repaired_integer;
        break;
      case SpEngine::Repair::kRecomputed: ++recomputed; break;
    }
  }
};

/// One random multigraph and a chain of repairs across random edits.
void run_chain(std::uint64_t seed, Regime regime, Outcomes& outcomes) {
  util::Rng rng(seed);
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 40));
  Graph g(n);
  const auto m = static_cast<std::size_t>(rng.uniform_int(0, 3 * static_cast<std::int64_t>(n)));
  for (std::size_t i = 0; i < m; ++i) {
    auto u = static_cast<VertexId>(rng.next_below(n));
    auto v = static_cast<VertexId>(rng.next_below(n));
    if (g.num_edges() > 0 && rng.bernoulli(0.15)) {  // parallel edge
      const Edge& twin = g.edge(static_cast<EdgeId>(rng.next_below(g.num_edges())));
      u = twin.u;
      v = twin.v;
    } else if (rng.bernoulli(0.05)) {
      v = u;  // self-loop
    }
    g.add_edge(u, v, draw_weight(regime, rng));
  }
  std::vector<std::uint8_t> mask(g.num_edges());
  for (std::uint8_t& bit : mask) bit = rng.bernoulli(0.9) ? 1 : 0;

  SpEngine& engine = SpEngine::thread_local_engine();
  const auto source = static_cast<VertexId>(rng.next_below(n));
  ShortestPaths tree = engine.shortest_paths_masked(g, source, mask);
  bool ordered = engine.dist_id_ordered(g, tree);

  for (int step = 0; step < 6; ++step) {
    // Edit a few edges (sometimes many): raise, lower or re-set weights and
    // flip mask bits both ways; list them, plus an untouched extra.
    std::vector<EdgeId> changed;
    if (g.num_edges() > 0) {
      const std::size_t edits =
          rng.bernoulli(0.2) ? g.num_edges() : static_cast<std::size_t>(rng.uniform_int(1, 4));
      for (std::size_t k = 0; k < edits; ++k) {
        const auto e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
        switch (rng.next_below(4)) {
          case 0:  // raise
            g.set_weight(e, regime == Regime::kAbsorbing ? g.weight(e) + 1.0
                                                         : g.weight(e) * 2.0 + 1.0);
            break;
          case 1:  // redraw (lower, equal or higher)
            g.set_weight(e, draw_weight(regime, rng));
            break;
          case 2:  // flip the mask bit
            mask[e] = mask[e] != 0 ? 0 : 1;
            break;
          default:  // re-set to the same weight: listed, but no change
            g.set_weight(e, g.weight(e));
            break;
        }
        changed.push_back(e);
      }
      if (rng.bernoulli(0.3)) {
        changed.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
      }
    }
    const ShortestPaths fresh = engine.shortest_paths_masked(g, source, mask);
    ShortestPaths out;
    const SpEngine::Repair r =
        engine.repair_shortest_paths(g, tree, ordered, changed, mask, out);
    outcomes.count(r, regime);
    if (r == SpEngine::Repair::kUnchanged) {
      ASSERT_TRUE(same_tree(tree, fresh)) << "seed " << seed << " step " << step;
    } else {
      ASSERT_TRUE(same_tree(out, fresh)) << "seed " << seed << " step " << step;
      ordered = r == SpEngine::Repair::kRepaired || engine.dist_id_ordered(g, out);
      tree = std::move(out);
    }
    if (r == SpEngine::Repair::kRepaired) {
      EXPECT_TRUE(engine.dist_id_ordered(g, tree)) << "seed " << seed;
    }
  }
}

TEST(SpRepair, MatchesFreshRunBitForBitOnRandomMultigraphs) {
  Outcomes outcomes;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    run_chain(seed, static_cast<Regime>(seed % kNumRegimes), outcomes);
    if (HasFatalFailure()) return;
  }
  // Every path through the routine ran, the Dial-graph repairs included.
  EXPECT_GT(outcomes.unchanged, 0u);
  EXPECT_GT(outcomes.repaired, 100u);
  EXPECT_GT(outcomes.recomputed, 0u);
  EXPECT_GT(outcomes.repaired_integer, 0u);
}

TEST(SpRepair, FreshRunOnIntegerWeightsTakesTheDialPath) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 1.0);
  SpEngine engine;
  engine.shortest_paths_masked(g, 0, {});
  EXPECT_TRUE(engine.last_used_dial());
}

TEST(SpRepair, SettleOrderGuard) {
  SpEngine engine;
  Graph unit(3);
  unit.add_edge(0, 1, 1.0);
  unit.add_edge(1, 2, 1.0);
  EXPECT_TRUE(engine.dist_id_ordered(unit, engine.shortest_paths(unit, 0)));

  Graph zero(3);
  zero.add_edge(0, 1, 0.0);
  zero.add_edge(1, 2, 1.0);
  EXPECT_FALSE(engine.dist_id_ordered(zero, engine.shortest_paths(zero, 0)));

  // 1 is half an ulp of 2^53: fl(2^53 + 1) == 2^53 absorbs the step.
  const double big = 9007199254740992.0;
  Graph absorbing(3);
  absorbing.add_edge(0, 1, big);
  absorbing.add_edge(1, 2, 1.0);
  EXPECT_FALSE(engine.dist_id_ordered(absorbing, engine.shortest_paths(absorbing, 0)));
  Graph growing(3);
  growing.add_edge(0, 1, big);
  growing.add_edge(1, 2, 4.0);
  EXPECT_TRUE(engine.dist_id_ordered(growing, engine.shortest_paths(growing, 0)));
}

TEST(SpRepair, FirstRelaxerRuleOnTiesAndParallelEdges) {
  // 0 -> 3 through 1 or 2 at equal cost: the smaller id relaxes first.
  Graph g(4);
  const EdgeId e01 = g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 1.0);
  const EdgeId e13 = g.add_edge(1, 3, 1.0);
  const EdgeId e23 = g.add_edge(2, 3, 1.0);
  const EdgeId e23_twin = g.add_edge(2, 3, 1.0);
  SpEngine engine;
  ShortestPaths tree = engine.shortest_paths(g, 0);
  ASSERT_EQ(tree.parent[3], 1u);
  ASSERT_EQ(tree.parent_edge[3], e13);

  // Raise 0-1: 3 moves to 2, over the first of the two parallel edges.
  g.set_weight(e01, 1.5);
  const std::vector<EdgeId> raised = {e01};
  ShortestPaths out;
  ASSERT_EQ(engine.repair_shortest_paths(g, tree, true, raised, {}, out),
            SpEngine::Repair::kRepaired);
  EXPECT_TRUE(same_tree(out, engine.shortest_paths(g, 0)));
  EXPECT_EQ(out.parent[3], 2u);
  EXPECT_EQ(out.parent_edge[3], e23);

  // Lower it back: the tie returns to 1 although 3's distance is unchanged.
  g.set_weight(e01, 1.0);
  ShortestPaths back;
  ASSERT_EQ(engine.repair_shortest_paths(g, out, true, raised, {}, back),
            SpEngine::Repair::kRepaired);
  EXPECT_TRUE(same_tree(back, tree));

  // A parallel edge turning cheaper than its twin takes over.
  g.set_weight(e23_twin, 0.5);
  g.set_weight(e01, 1.5);
  const std::vector<EdgeId> both = {e01, e23_twin};
  ShortestPaths twin;
  ASSERT_EQ(engine.repair_shortest_paths(g, tree, true, both, {}, twin),
            SpEngine::Repair::kRepaired);
  EXPECT_TRUE(same_tree(twin, engine.shortest_paths(g, 0)));
  EXPECT_EQ(twin.parent_edge[3], e23_twin);
}

TEST(SpRepair, MaskFlipsBothWays) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  const EdgeId shortcut = g.add_edge(0, 3, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  std::vector<std::uint8_t> mask = {1, 0, 1, 1};
  SpEngine engine;
  const ShortestPaths without = engine.shortest_paths_masked(g, 0, mask);
  ASSERT_EQ(without.dist[3], 3.0);
  const std::vector<EdgeId> changed = {shortcut};

  mask[shortcut] = 1;  // 0 -> 1: a shortcut opens
  ShortestPaths with;
  ASSERT_EQ(engine.repair_shortest_paths(g, without, true, changed, mask, with),
            SpEngine::Repair::kRepaired);
  EXPECT_TRUE(same_tree(with, engine.shortest_paths_masked(g, 0, mask)));
  EXPECT_EQ(with.dist[3], 1.0);

  mask[shortcut] = 0;  // 1 -> 0: it closes again
  ShortestPaths closed;
  ASSERT_EQ(engine.repair_shortest_paths(g, with, true, changed, mask, closed),
            SpEngine::Repair::kRepaired);
  EXPECT_TRUE(same_tree(closed, without));
}

TEST(SpRepair, UnaffectingChangeKeepsTheTree) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  const EdgeId detour = g.add_edge(0, 2, 5.0);
  SpEngine engine;
  const ShortestPaths tree = engine.shortest_paths(g, 0);
  g.set_weight(detour, 7.0);  // a non-tree edge that relaxes nothing
  const std::vector<EdgeId> changed = {detour};
  ShortestPaths out;
  EXPECT_EQ(engine.repair_shortest_paths(g, tree, true, changed, {}, out),
            SpEngine::Repair::kUnchanged);
  EXPECT_EQ(engine.repair_shortest_paths(g, tree, false, changed, {}, out),
            SpEngine::Repair::kUnchanged);
  EXPECT_EQ(engine.affecting_edges(g, tree, true, changed, {}), 0u);
  g.set_weight(detour, 1.0);  // now it undercuts 2's distance
  EXPECT_EQ(engine.affecting_edges(g, tree, true, changed, {}), 1u);
  EXPECT_EQ(engine.repair_shortest_paths(g, tree, true, changed, {}, out),
            SpEngine::Repair::kRepaired);
  EXPECT_TRUE(same_tree(out, engine.shortest_paths(g, 0)));
}

TEST(SpRepair, RejectsMismatchedArguments) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  SpEngine engine;
  const ShortestPaths tree = engine.shortest_paths(g, 0);
  ShortestPaths out;
  const std::vector<EdgeId> bad_edge = {7};
  EXPECT_THROW(engine.repair_shortest_paths(g, tree, true, bad_edge, {}, out),
               std::out_of_range);
  Graph bigger(4);
  bigger.add_edge(0, 1, 1.0);
  EXPECT_THROW(engine.repair_shortest_paths(bigger, tree, true, {}, {}, out),
               std::invalid_argument);
  Graph two_edges(3);
  two_edges.add_edge(0, 1, 1.0);
  two_edges.add_edge(1, 2, 1.0);
  const std::vector<std::uint8_t> one_byte = {1};
  EXPECT_THROW(engine.repair_shortest_paths(two_edges, engine.shortest_paths(two_edges, 0),
                                            true, {}, one_byte, out),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// OnlineWeightedView: lookups repair cached trees across admissions,
// departures and changing bandwidth thresholds.
// ---------------------------------------------------------------------------

struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { util::ThreadPool::set_global_threads(1); }
};

/// Every tree served on one Waxman-100 run, in order, for the cross-thread
/// comparison.
std::vector<ShortestPaths> drive_view(const topo::Topology& topo) {
  nfv::ResourceState state(topo);
  // Strictly positive, residual-driven weights (1 + beta^u - 1 with
  // beta = 2|V|, Online_CP's shape shifted off zero) so repairs can fire.
  const double beta = 2.0 * static_cast<double>(topo.graph.num_vertices());
  core::OnlineWeightedView view(topo, [&](EdgeId e) {
    const double used = 1.0 - state.residual_bandwidth(e) / state.bandwidth_capacity(e);
    return std::pow(beta, used);
  });

  util::Rng rng(2024);
  const std::size_t n = topo.graph.num_vertices();
  std::vector<nfv::Footprint> active;
  std::vector<ShortestPaths> served;
  SpEngine& engine = SpEngine::thread_local_engine();
  for (int step = 0; step < 300; ++step) {
    // Thresholds around the residuals the admissions below leave: a lower
    // one opens edges (mask bits 0 -> 1), a higher one closes them.
    const double b = rng.uniform_real(50.0, 1500.0);
    // Mostly a small set of sources, so their trees are repaired after a
    // few patches; now and then one from further out, stale or uncached.
    std::vector<VertexId> sources;
    for (int k = 0; k < 6; ++k) {
      sources.push_back(static_cast<VertexId>(rng.next_below(k == 0 ? 60 : 8)));
    }
    const auto trees = view.trees_for(state, sources, b);
    std::vector<std::uint8_t> mask(topo.graph.num_edges());
    for (EdgeId e = 0; e < mask.size(); ++e) {
      mask[e] = nfv::edge_eligible(state, topo.graph, e, b) ? 1 : 0;
    }
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const ShortestPaths fresh = engine.shortest_paths_masked(view.graph(), sources[i], mask);
      EXPECT_TRUE(same_tree(*trees[i], fresh)) << "step " << step << " source " << sources[i];
      served.push_back(*trees[i]);
    }
    // A server row, served and committed the way Online_CP's scan does.
    const auto server = static_cast<VertexId>(60 + rng.next_below(8));
    const std::vector<VertexId> targets = {sources[0], sources[1]};
    core::OnlineWeightedView::ServedTree row = view.tree_from(server, targets);
    const ShortestPaths fresh = engine.shortest_paths_masked(view.graph(), server, mask);
    if (!row.cache) {  // possibly an early-exit row: exact at the targets
      for (VertexId t : targets) {
        EXPECT_EQ(row.tree->dist[t], fresh.dist[t]) << "step " << step;
        EXPECT_EQ(path_edges(*row.tree, t), path_edges(fresh, t)) << "step " << step;
      }
    } else {
      EXPECT_TRUE(same_tree(*row.tree, fresh)) << "step " << step << " server " << server;
      served.push_back(*row.tree);
    }
    view.commit(server, std::move(row));

    // Admit a random short walk, or let an earlier admission depart.
    if (!active.empty() && rng.bernoulli(0.45)) {
      const std::size_t k = rng.next_below(active.size());
      state.release(active[k]);
      view.patch(active[k]);
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(k));
      continue;
    }
    nfv::Footprint fp;
    auto at = static_cast<VertexId>(rng.next_below(n));
    const double amount = rng.uniform_real(200.0, 900.0);
    for (std::int64_t hop = rng.uniform_int(1, 3); hop > 0; --hop) {
      const auto nbrs = topo.graph.neighbors(at);
      if (nbrs.empty()) break;
      const Adjacency& adj = nbrs[rng.next_below(nbrs.size())];
      fp.bandwidth.emplace_back(adj.edge, amount);
      at = adj.neighbor;
    }
    if (!fp.bandwidth.empty() && state.can_allocate(fp)) {
      state.allocate(fp);
      view.patch(fp);
      active.push_back(std::move(fp));
    }
  }
  return served;
}

TEST(SpRepair, WaxmanViewServesFreshTreesAtOneAndFourThreads) {
  GlobalThreadsGuard guard;
  util::Rng topo_rng(7);
  topo::WaxmanOptions options;
  options.target_mean_degree = 4.0;
  const topo::Topology topo = topo::make_waxman(100, topo_rng, options);

  std::vector<std::vector<ShortestPaths>> runs;
  for (std::size_t threads : {1u, 4u}) {
    util::ThreadPool::set_global_threads(threads);
    const std::uint64_t repairs = counter_value("graph.spcache.repairs");
    const std::uint64_t fallbacks = counter_value("graph.spcache.repair_fallbacks");
    const std::uint64_t resettled = counter_value("graph.sp_repair.vertices_resettled");
    runs.push_back(drive_view(topo));
    if (HasFailure()) return;
#if NFVM_OBS
    EXPECT_GT(counter_value("graph.spcache.repairs"), repairs) << threads;
    EXPECT_GT(counter_value("graph.spcache.repair_fallbacks"), fallbacks) << threads;
    EXPECT_GT(counter_value("graph.sp_repair.vertices_resettled"), resettled) << threads;
#else
    (void)repairs;
    (void)fallbacks;
    (void)resettled;
#endif
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    ASSERT_TRUE(same_tree(runs[0][i], runs[1][i])) << "tree " << i;
  }
}

}  // namespace
}  // namespace nfvm::graph
