// Persistent weighted working view for the online admission fast path.
//
// Online_CP's weighted graph G_k (w_e = beta^{u_e} - 1) is a pure function
// of each link's residual bandwidth, so after an admission only the edges of
// the admitted footprint change weight. Instead of rebuilding the filtered,
// reweighted graph from scratch for every request, this class keeps one
// Graph mirroring the physical topology edge-for-edge (edge id == physical
// edge id) and *patches* the touched weights after each allocation.
//
// Bandwidth/table eligibility is deliberately NOT baked into the view:
// queries run a filtered Dijkstra with the per-request predicate
// nfv::edge_eligible(state, g, e, b_k). That is what makes a shortest-path
// tree computed for one request reusable by later ones.
//
// Cached-tree reuse invariant (the correctness core — see
// docs/performance.md, "The online fast path"): within an *era* (no release
// since the last rebuild), residuals only shrink, so weights only grow and
// the eligible edge set at threshold b' is a subset of the set at b_T <= b'.
// A cached tree from `source` is therefore bit-identical to a freshly
// computed filtered Dijkstra iff
//   (1) it was computed this era,
//   (2) b' >= b_T (the threshold recorded when it was computed), and
//   (3) every tree edge is still eligible at b' and weight-unchanged.
// Condition (3)'s weight half is enforced eagerly: apply_allocate evicts
// exactly the cached trees containing a patched edge (SpCache::rebind_keep),
// so surviving entries are weight-clean by induction and the per-lookup
// validation only walks eligibility. Releases break the era's monotonicity
// (residuals grow back, shorter paths may appear), so apply_release drops
// the whole cache.
//
// Adaptive policy: the cache only pays for itself when the Dijkstra work it
// saves exceeds the bookkeeping it adds — rebind_keep scans every cached
// tree's parent_edge array per admission and tree_valid walks it again per
// lookup, both O(|V|) per tree, while the saved Dijkstra is O(|E| log |V|).
// On small graphs (GEANT: 61 links) the bookkeeping loses; on large Waxman
// configs it wins ~10x. trees_for therefore measures graph size against
// patch churn (EWMA of edges patched per admission) and below the threshold
// runs in REBUILD mode: weights are still patched in place, but every tree
// is computed fresh via one batched masked SSSP and the cache is bypassed
// and kept empty. Both modes produce bit-identical trees (a valid cached
// tree equals a fresh filtered Dijkstra by the era invariant), so the
// policy can never change a decision — only what it costs. Counted by
// core.online.view_policy_{incremental,rebuild}.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/sp_engine.h"
#include "nfv/resources.h"
#include "topology/topology.h"

namespace nfvm::core {

/// Adaptive-policy override. kAdaptive (the default) picks per call from
/// graph size and patch churn; the force modes exist for tests that pin the
/// cache machinery and for benchmarks that measure one mode in isolation.
enum class ViewPolicy { kAdaptive, kForceIncremental, kForceRebuild };

class OnlineWeightedView {
 public:
  /// `edge_weight(e)` must be a pure function of edge e's CURRENT residual
  /// state (it is called for every edge at construction / rebuild and for
  /// the touched edges after allocations and releases). The topology must
  /// outlive the view.
  using EdgeWeightFn = std::function<double(graph::EdgeId)>;
  OnlineWeightedView(const topo::Topology& topo, EdgeWeightFn edge_weight);

  /// The weighted mirror graph. Edge ids coincide with physical edge ids
  /// and adjacency order matches the topology graph, so trees computed here
  /// need no id remapping.
  const graph::Graph& graph() const noexcept { return view_; }

  /// Recomputes every edge weight and drops all cached trees
  /// (`core.online.view_rebuilds`). Constructor-equivalent reset.
  void rebuild();

  /// Patches the weights of the footprint's edges after an admission and
  /// evicts exactly the cached trees containing a changed edge
  /// (`core.online.view_patches`).
  void apply_allocate(const nfv::Footprint& footprint);

  /// Patches the footprint's edge weights after a release and drops the
  /// whole tree cache: a release starts a new era (counted by
  /// `core.online.view_rebuilds`).
  void apply_release(const nfv::Footprint& footprint);

  /// Shortest-path trees from each of `sources` on the view, restricted to
  /// edges eligible at bandwidth threshold `b` (nfv::edge_eligible against
  /// `state`). Cached trees are reused only when the era invariant above
  /// guarantees bit-identity with a fresh filtered Dijkstra; the misses are
  /// computed in parallel on util::ThreadPool::global() and inserted in
  /// `sources` order, so results and cache state are thread-count
  /// independent. Each distinct source is looked up or computed once per
  /// call; repeated slots share that one tree.
  std::vector<std::shared_ptr<const graph::ShortestPaths>> trees_for(
      const nfv::ResourceState& state, std::span<const graph::VertexId> sources,
      double b);

  /// The per-edge eligibility mask of the last trees_for call (1 where
  /// nfv::edge_eligible(state, e, b) held), indexed by edge id. Callers that
  /// run further masked Dijkstras for the same request (Online_CP's lazy
  /// server rows) read it instead of sweeping the edges again. Valid until
  /// the next trees_for call.
  std::span<const std::uint8_t> eligibility_mask() const noexcept { return mask_; }

  // --- State export (serve snapshot/restore + tests) ------------------------
  // The view's *decision-relevant* state is entirely derivable from the
  // residuals (weights are a pure function of them); the era counter and
  // tree cache are performance state only. These accessors exist so
  // snapshot round-trip tests can assert exactly that: after a restore the
  // weights must match the uninterrupted run edge-for-edge, while era/cache
  // may legitimately differ without perturbing a single decision.

  /// Eras completed: construction + every rebuild() / apply_release().
  std::uint64_t era() const noexcept { return era_; }
  /// Cached shortest-path trees currently held.
  std::size_t cached_trees() const noexcept { return cache_.size(); }
  /// Patched-weight applications since construction (apply_allocate calls).
  std::uint64_t patches_applied() const noexcept { return patches_applied_; }

  /// True when the adaptive policy currently selects the incremental cache
  /// (performance state only — the decision stream is identical either way).
  bool policy_incremental() const noexcept;

  /// Pins or restores the adaptive policy (performance state only).
  void set_policy(ViewPolicy policy) noexcept { policy_ = policy; }

  /// Calibrated policy floor: below this many edges the cache bookkeeping
  /// costs more than the Dijkstras it saves (GEANT's 61 links fall under,
  /// the smallest Waxman config's ~200 stay over).
  static constexpr std::size_t kPolicyMinEdges = 128;
  /// If a typical admission patches more than this fraction of all edges,
  /// rebind_keep evicts most of the cache every request and caching loses
  /// regardless of size.
  static constexpr double kPolicyMaxChurnFraction = 0.5;

 private:
  bool tree_valid(const nfv::ResourceState& state, graph::VertexId source,
                  const graph::ShortestPaths& tree, double b) const;
  /// Fills mask_ with nfv::edge_eligible(state, e, b) for every edge — the
  /// predicate is a pure function of (state, b), so one O(|E|) sweep per
  /// trees_for call replaces a per-scanned-edge std::function call in every
  /// Dijkstra.
  void build_eligibility_mask(const nfv::ResourceState& state, double b);

  const topo::Topology* topo_;
  EdgeWeightFn edge_weight_;
  graph::Graph view_;
  graph::SpCache cache_;
  /// Per-edge eligibility bitmap, rebuilt once per trees_for call.
  std::vector<std::uint8_t> mask_;
  /// EWMA of edges whose weight actually changed per apply_allocate.
  double churn_ewma_ = 0.0;
  ViewPolicy policy_ = ViewPolicy::kAdaptive;
  /// b_T per cached source: the eligibility threshold the tree was computed
  /// at. Stale entries for evicted sources are harmless (overwritten on the
  /// next insert, ignored when try_get misses).
  std::unordered_map<graph::VertexId, double> built_at_b_;
  std::uint64_t era_ = 0;
  std::uint64_t patches_applied_ = 0;
};

}  // namespace nfvm::core
