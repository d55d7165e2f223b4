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
// Cached-tree repair invariant (the correctness core — see
// docs/performance.md, "The online fast path"): every cached tree records
// the version it is exact at and the eligibility bitset it was built under.
// Every patch appends the edges whose weight moved to a change log (one
// version per entry), so a lookup reads the log since the tree's version,
// diffs the bitset against the current mask and hands exactly the edges
// that changed to graph::SpEngine::repair_shortest_paths, which returns the
// tree a fresh filtered Dijkstra would build: unchanged, repaired where the
// changes reach, or recomputed when its settle-order guard or size limit
// fails. Allocations and releases are one patch (a release lowers weights,
// which the repair's relaxation pass covers); no patch drops the cache,
// only a lookup that finds its tree too stale to repair. A served tree
// therefore always equals a fresh filtered Dijkstra, and the cache can
// change what a decision costs, never the decision.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/sp_engine.h"
#include "nfv/resources.h"
#include "topology/topology.h"

namespace nfvm::core {

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

  /// Re-weights the footprint's edges after its resources were allocated or
  /// released and logs the ones whose weight moved
  /// (`core.online.view_patches`); cached trees they reach are repaired on
  /// their next lookup.
  void patch(const nfv::Footprint& footprint);

  /// Shortest-path trees from each of `sources` on the view, restricted to
  /// edges eligible at bandwidth threshold `b` (nfv::edge_eligible against
  /// `state`). Every distinct source goes through tree_from in parallel on
  /// util::ThreadPool::global() and is committed in `sources` order, so
  /// results and cache state are thread-count independent. Each distinct source is looked up or computed once per
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

  /// A tree tree_from served: whether it can be repaired later
  /// (graph::SpEngine::dist_id_ordered held for it), and whether commit()
  /// caches it — false for a row (exact only at the row targets and their
  /// paths) and for what replaces a cached tree that could not be repaired.
  struct ServedTree {
    std::shared_ptr<const graph::ShortestPaths> tree;
    bool ordered = false;
    bool cache = true;
  };

  /// The tree from `source` at the current weights under the eligibility
  /// mask of the last trees_for call: the cached tree as it is when no
  /// relevant edge changed since it was cached, else that tree repaired,
  /// else a fresh masked Dijkstra (`graph.spcache.{hits,misses,repairs,
  /// repair_fallbacks}`). A repair is not tried when more than
  /// kRepairMaxAffecting · |V| changed edges affect the tree
  /// (graph::SpEngine::affecting_edges), nor diffed at all with more than
  /// four times that many weight changes logged since it was cached. A
  /// cached tree that is not repaired (too stale, or the repair gave up) is
  /// dropped at commit and its replacement is not cached: its source is
  /// looked up too rarely for the changes in between, and the slot serves a
  /// busier source better. A tree computed on a miss is cached. With
  /// `row_targets` the caller needs only a KMB row to those vertices
  /// (graph::KmbRowFn): where a full tree would have to be computed from
  /// scratch and cannot pay for itself — for a stale entry beyond that
  /// limit, or while some weight is zero (no tree is then repairable) — the
  /// early-exit run SpEngine::shortest_paths_to is served instead. Runs on
  /// the calling thread's engine and does not touch the cache, so
  /// concurrent calls are safe; commit() the result afterwards,
  /// sequentially and in a fixed order, to keep it.
  ServedTree tree_from(graph::VertexId source,
                       std::span<const graph::VertexId> row_targets = {}) const;

  /// Caches what tree_from served for `source` as exact at the current
  /// weights and mask, most recently used first — or, when `served.cache`
  /// is false, drops any tree cached for `source`; beyond
  /// graph::kDefaultSpCacheCapacity trees the least recently used goes.
  void commit(graph::VertexId source, ServedTree served);

  // --- State export (serve snapshot/restore + tests) ------------------------
  // The view's *decision-relevant* state is entirely derivable from the
  // residuals (weights are a pure function of them); the patch history and
  // tree cache are performance state only. These accessors exist so
  // snapshot round-trip tests can assert exactly that: after a restore the
  // weights must match the uninterrupted run edge-for-edge, while the
  // history and cache may legitimately differ without perturbing a single
  // decision.

  /// Cached shortest-path trees currently held.
  std::size_t cached_trees() const noexcept { return index_.size(); }
  /// patch() calls since construction.
  std::uint64_t patches_applied() const noexcept { return patches_applied_; }

  /// tree_from repairs a cached tree only while at most this many changed
  /// edges per vertex affect it: a repair's cost grows with them and passes
  /// a fresh run's (or, for a row, the early-exit run's) at about |V| / 10
  /// of them on the Waxman configs.
  static constexpr double kRepairMaxAffecting = 0.1;

 private:
  struct CachedTree {
    graph::VertexId source = graph::kInvalidVertex;
    std::shared_ptr<const graph::ShortestPaths> tree;
    /// log_end_ when the tree was last known exact.
    std::uint64_t version = 0;
    /// The eligibility mask it is exact under, one bit per edge.
    std::vector<std::uint64_t> mask_bits;
    bool ordered = false;
  };
  using Lru = std::list<CachedTree>;

  /// Fills mask_ and mask_bits_ with nfv::edge_eligible(state, e, b) for
  /// every edge — the predicate is a pure function of (state, b), so one
  /// O(|E|) sweep per trees_for call replaces a per-scanned-edge
  /// std::function call in every Dijkstra.
  void build_eligibility_mask(const nfv::ResourceState& state, double b);
  /// Fills `changed` with the edges eligible before or now whose weight or
  /// eligibility changed since `cached` was exact; false when more than
  /// `max_logged` weight changes were logged since, or the change log no
  /// longer reaches back that far.
  bool changed_since(const CachedTree& cached, std::size_t max_logged,
                     std::vector<graph::EdgeId>& changed) const;
  void update_min_weight() noexcept;
  /// False while some edge weight is zero: no tree is then repairable
  /// (graph::SpEngine::dist_id_ordered fails).
  bool repairable() const noexcept { return min_weight_ > 0.0; }

  const topo::Topology* topo_;
  EdgeWeightFn edge_weight_;
  graph::Graph view_;
  /// Cached trees, most recently used first, and their index by source.
  Lru lru_;
  std::unordered_map<graph::VertexId, Lru::iterator> index_;
  /// Per-edge eligibility bytes and bits, rebuilt once per trees_for call.
  std::vector<std::uint8_t> mask_;
  std::vector<std::uint64_t> mask_bits_;
  /// Edges whose weight moved, in patch order: entry i holds version
  /// log_begin_ + i. Trimmed to the newest |E| entries once it doubles
  /// that; a tree older than the trimmed history is recomputed.
  std::vector<graph::EdgeId> change_log_;
  std::uint64_t log_begin_ = 0;
  std::uint64_t log_end_ = 0;
  /// Smallest edge weight of view_, refreshed by every patch.
  double min_weight_ = 0.0;
  std::uint64_t patches_applied_ = 0;
};

}  // namespace nfvm::core
