// Reusable shortest-path engine and shortest-path-tree cache.
//
// Every algorithm in this library bottoms out in repeated Dijkstra runs.
// The free functions in graph/dijkstra.h allocate three O(n) arrays and a
// heap per call and scan the pointer-chasing adjacency lists; under heavy
// request volumes that allocation and cache-miss traffic dominates. This
// header provides the shared substrate:
//
//  * SpEngine — owns a CsrView (rebuilt lazily when the graph's
//    (uid, epoch) changes) plus scratch dist/parent/parent_edge buffers
//    with generation-stamped lazy reset, a 4-ary heap, early-exit
//    point-to-point / target-set queries, and filtered-edge variants
//    (std::function predicate or a precomputed per-edge byte mask).
//    The dijkstra() free functions are thin wrappers over the per-thread
//    engine, so existing call sites keep working and allocate nothing
//    beyond the returned ShortestPaths.
//
//    When the CSR weight inspection proves every edge weight is a strictly
//    positive integer <= kMaxDialWeight (true for every topology generator
//    in the repo and all hop-count modes), queries take a bucket-queue
//    (Dial) specialization instead of the heap: a generation-stamped
//    bucket ring reused across queries, each bucket drained in ascending
//    vertex-id order. That drain order reproduces the heap's
//    (distance, vertex id) pop order exactly, so the two paths are
//    bit-identical — which tests/test_sp_dial.cpp asserts.
//
//  * SpEngine::repair_shortest_paths — brings a tree computed on earlier
//    weights and an earlier edge mask up to date with the current ones,
//    bit-identical to a fresh masked run, touching only the region the
//    changed edges affect (docs/performance.md, "Tree repair").
//
//  * SpCache — an LRU of shortest-path trees keyed by
//    (graph uid, graph epoch, source). Sharing one cache across a
//    request's lifetime stops Appro_Multi / Alg_One_Server / the Steiner
//    metric closure from recomputing the same source, destination and
//    server trees. Any mutation (set_weight, add_edge) bumps the graph
//    epoch and invalidates the whole cache on the next query.
//
// Tie-breaking: the engine's heap orders items by (distance, vertex id),
// exactly like the std::priority_queue<pair<double, VertexId>> it
// replaces, and CSR entries keep Graph::neighbors order — so the engine
// returns bit-identical trees to the historical implementation.
//
// Thread model: SpEngine and SpCache are NOT thread-safe; use one per
// thread (SpEngine::thread_local_engine()) or confine a cache to the
// thread that owns the request. Concurrent *reads* of a const Graph from
// many engines are safe.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/csr.h"
#include "graph/dijkstra.h"
#include "graph/graph.h"

namespace nfvm::graph {

class SpEngine {
 public:
  SpEngine() = default;
  SpEngine(const SpEngine&) = delete;
  SpEngine& operator=(const SpEngine&) = delete;

  /// Full Dijkstra from `source`. Bit-identical to graph::dijkstra.
  /// Throws std::out_of_range for a bad source.
  ShortestPaths shortest_paths(const Graph& g, VertexId source);

  /// Dijkstra ignoring edges for which `edge_allowed(e)` is false.
  ShortestPaths shortest_paths_filtered(
      const Graph& g, VertexId source,
      const std::function<bool(EdgeId)>& edge_allowed);

  /// Dijkstra ignoring edges whose mask byte is zero. `edge_mask` must
  /// cover every EdgeId of `g`; an empty mask means all edges allowed.
  /// Equivalent to the std::function variant but without a per-scanned-edge
  /// indirect call — callers that evaluate the same predicate across many
  /// sources precompute the mask once.
  ShortestPaths shortest_paths_masked(const Graph& g, VertexId source,
                                      std::span<const std::uint8_t> edge_mask);

  /// Batched multi-source SSSP: one view refresh and one generation-stamped
  /// workspace serve every source in order (slot i = tree from sources[i]),
  /// so the batch pays a single CSR sync and no per-call O(n) clears.
  /// Results are bit-identical to calling shortest_paths_masked per source.
  std::vector<ShortestPaths> batch_shortest_paths(
      const Graph& g, std::span<const VertexId> sources,
      std::span<const std::uint8_t> edge_mask = {});

  /// Point-to-point distance, stopping as soon as `to` is settled (the
  /// classic early exit: no work beyond the target's distance ring).
  /// Throws std::out_of_range for a bad `from` or `to`.
  double shortest_distance(const Graph& g, VertexId from, VertexId to);

  /// Metric-closure row: distances from `from` to each of `targets`,
  /// stopping once every (distinct) target is settled. Result is indexed
  /// like `targets`; unreachable targets get kInfiniteDistance.
  std::vector<double> distances_to(const Graph& g, VertexId from,
                                   std::span<const VertexId> targets);

  /// Masked Dijkstra from `source` that stops once every distinct vertex of
  /// `targets` is settled. The pop order is the prefix of the full
  /// shortest_paths_masked run, so every settled vertex — each reachable
  /// target and every vertex on its shortest path — carries exactly the
  /// full run's dist/parent/parent_edge. Other entries are tentative upper
  /// bounds on the full run's distance, or unreached (kInfiniteDistance).
  /// An unreachable target exhausts the run and reads kInfiniteDistance;
  /// empty `targets` runs to exhaustion. Throws like shortest_paths_masked,
  /// plus std::out_of_range for a bad target.
  ShortestPaths shortest_paths_to(const Graph& g, VertexId source,
                                  std::span<const VertexId> targets,
                                  std::span<const std::uint8_t> edge_mask = {});

  /// One Takahashi–Matsuyama growth step: seeds every vertex of
  /// `tree_vertices` (must be distinct) at distance zero and stops as soon
  /// as the first vertex of `targets` is settled, returning it —
  /// kInvalidVertex when no target is reachable. Ties settle by
  /// (distance, vertex id), so the result does not depend on seed order.
  /// Read the attachment path afterwards via parent_of/parent_edge_of/
  /// dist_of; the workspace stays valid until the next query.
  VertexId grow_step(const Graph& g, std::span<const VertexId> tree_vertices,
                     std::span<const VertexId> targets);

  /// True when a heap or Dial run over `g`'s current weights reaching
  /// `tree`'s distances settles its vertices in (distance, vertex id)
  /// order: every step strictly grows a distance, i.e. fl(d + w) > d for
  /// every edge weight w and every finite distance d of `tree`. Checked as
  /// w_min > 0 and w_min > ulp(D) / 2, with w_min the smallest edge weight
  /// and D the largest finite distance (ulp(d) never exceeds ulp(D)).
  /// Zero-weight or absorbed edges let a vertex discovered later settle
  /// before a smaller id at the same distance; such a tree cannot be
  /// repaired (repair_shortest_paths' precondition).
  bool dist_id_ordered(const Graph& g, const ShortestPaths& tree);

  /// What repair_shortest_paths did.
  enum class Repair : std::uint8_t {
    kUnchanged,   ///< `tree` is already exact; `out` is untouched
    kRepaired,    ///< `out` holds the repaired tree
    kRecomputed,  ///< the guard or the size limit failed; `out` is fresh
  };

  /// Brings `tree` up to date. `tree` must be exactly what
  /// shortest_paths_masked built on earlier weights W0 and mask M0 (or a
  /// previous repair's result); `ordered` says whether dist_id_ordered held
  /// for it on W0. `changed` lists every edge whose weight or mask byte
  /// differs between (W0, M0) and (g's current weights W1, `edge_mask` M1);
  /// extra edges are harmless. The result (`tree` itself when kUnchanged,
  /// else `out`) is bit-identical to shortest_paths_masked(g, tree.source,
  /// edge_mask): dist, parent and parent_edge. A kUnchanged tree keeps its
  /// `ordered`; a kRepaired one is ordered on W1.
  ///
  /// Distances are the least fixpoint of left-fold path sums (float
  /// addition is monotone), so a label-correcting pass from the changed
  /// edges reaches them: the tree descendants of edges whose step
  /// fl(dist[p] + w) rose, or whose mask bit fell, are reset and seeded
  /// from their neighbours outside that set; the heads of edges whose step
  /// fell below the head's distance are relaxed; then Dijkstra runs from
  /// all of them. Parents follow the heap's first-relaxer rule: with
  /// settles in (distance, id) order, parent[v] is the neighbour u with
  /// fl(dist[u] + w(u, v)) == dist[v] and the smallest (dist[u], u), over
  /// its parallel edges the smallest edge id (adjacency order). Re-settled
  /// vertices keep the smallest such key while they are relaxed; unmoved
  /// vertices whose candidates changed — a neighbour whose distance changed
  /// was their parent or now ties, or they end a changed edge — are
  /// re-derived by scanning their edges.
  /// When `ordered` is false (then only changed edges that relax nothing
  /// leave the tree as it is), when the result fails dist_id_ordered on
  /// W1, or when the re-settled region exceeds a fixed fraction of the
  /// reached vertices, `out` is computed from scratch instead
  /// (kRecomputed). Scanned edges count into graph.dijkstra.edges_scanned,
  /// re-settled vertices into graph.sp_repair.vertices_resettled. Throws
  /// like shortest_paths_masked, plus std::invalid_argument for a tree of
  /// another vertex count and std::out_of_range for a bad changed edge.
  Repair repair_shortest_paths(const Graph& g, const ShortestPaths& tree,
                               bool ordered, std::span<const EdgeId> changed,
                               std::span<const std::uint8_t> edge_mask,
                               ShortestPaths& out);

  /// How many of `changed` affect `tree` (arguments as for
  /// repair_shortest_paths), counting no further than `stop_at`: edges that
  /// move a step along the tree, undercut a distance, or offer a vertex an
  /// earlier first relaxer than its parent — with `ordered` false, edges
  /// that relax anything. With none, the tree is still exact (given its
  /// settle order), and a repair's work grows with the count.
  /// O(|changed|).
  std::size_t affecting_edges(const Graph& g, const ShortestPaths& tree, bool ordered,
                              std::span<const EdgeId> changed,
                              std::span<const std::uint8_t> edge_mask,
                              std::size_t stop_at = SIZE_MAX) const;

  /// Workspace reads for vertices reached by the last query (unchecked).
  VertexId parent_of(VertexId v) const noexcept { return parent_[v]; }
  EdgeId parent_edge_of(VertexId v) const noexcept { return parent_edge_[v]; }
  double dist_of(VertexId v) const noexcept { return dist_[v]; }

  /// True when the last query ran the bucket-queue (Dial) specialization.
  bool last_used_dial() const noexcept { return last_used_dial_; }

  /// The CSR view currently held (refreshed on every query).
  const CsrView& view() const noexcept { return view_; }

  /// Per-thread engine backing the graph::dijkstra wrappers. Scratch
  /// buffers and the CSR view persist across calls on the same thread.
  static SpEngine& thread_local_engine();

 private:
  struct HeapItem {
    double dist;
    VertexId vertex;
  };

  /// (distance, vertex id) lexicographic — the historical pop order.
  static bool item_less(const HeapItem& a, const HeapItem& b) noexcept {
    return a.dist < b.dist || (a.dist == b.dist && a.vertex < b.vertex);
  }

  void heap_push(HeapItem item);
  HeapItem heap_pop();

  /// Refreshes the view, advances the generation and clears the heap.
  void prepare(const Graph& g);
  /// Lazily initializes v's workspace slots for this generation.
  void touch(VertexId v);
  /// Stamps `targets` for the next run() and returns how many are distinct;
  /// clear_targets(targets) must follow the run.
  std::size_t stamp_targets(std::span<const VertexId> targets);
  void clear_targets(std::span<const VertexId> targets) noexcept;
  /// Core dispatch: seeds every vertex of `seeds` at distance zero, then
  /// runs the Dial loop when the view's weight inspection allows it and
  /// the 4-ary heap loop otherwise. `edge_allowed` / `edge_mask` may be
  /// null. When `targets_remaining` > 0 the run stops once that many
  /// target-stamped vertices are settled.
  void run(std::span<const VertexId> seeds,
           const std::function<bool(EdgeId)>* edge_allowed,
           const std::uint8_t* edge_mask, std::size_t targets_remaining);
  void run_heap(std::span<const VertexId> seeds,
                const std::function<bool(EdgeId)>* edge_allowed,
                const std::uint8_t* edge_mask, std::size_t targets_remaining);
  void run_dial(std::span<const VertexId> seeds,
                const std::function<bool(EdgeId)>* edge_allowed,
                const std::uint8_t* edge_mask, std::size_t targets_remaining);
  /// Copies the touched region of the workspace into a ShortestPaths.
  ShortestPaths materialize(VertexId source) const;
  /// True when the view's smallest weight strictly grows every distance up
  /// to `max_dist` (dist_id_ordered's test).
  bool steps_grow(double max_dist) const noexcept;
  void check_repair_args(const Graph& g, const ShortestPaths& tree,
                         std::span<const EdgeId> changed,
                         std::span<const std::uint8_t> edge_mask) const;

  /// repair_shortest_paths' work: writes the repaired `tree` to `out`;
  /// false when the re-settled region outgrows `limit` vertices.
  bool repair_into(const Graph& g, const ShortestPaths& tree,
                   std::span<const EdgeId> changed, const std::uint8_t* mask,
                   std::size_t limit, ShortestPaths& out);
  /// Records v's pre-repair distance the first time the repair moves it.
  void note_moved(VertexId v, double old_dist);

  CsrView view_;
  std::vector<double> dist_;
  std::vector<VertexId> parent_;
  std::vector<EdgeId> parent_edge_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t generation_ = 0;
  std::vector<std::uint32_t> target_stamp_;
  std::uint32_t target_generation_ = 0;
  std::vector<HeapItem> heap_;     // 4-ary min-heap, lazy deletion
  std::vector<VertexId> reached_;  // vertices touched this run
  /// Dial bucket ring, sized max_integer_weight + 1 and reused across
  /// queries. A bucket whose stamp is stale belongs to an earlier query
  /// (e.g. abandoned by an early exit) and is cleared lazily on first use.
  std::vector<std::vector<VertexId>> buckets_;
  std::vector<std::uint32_t> bucket_stamp_;
  std::vector<VertexId> bucket_scratch_;  // drain staging, sorted by id
  bool last_used_dial_ = false;
  VertexId last_settled_target_ = kInvalidVertex;
  /// Repair scratch: per-vertex subtree marks and the re-derive set.
  std::vector<std::uint8_t> repair_mark_;
  std::vector<VertexId> repair_list_;
};

/// Parallel batched SSSP over the global ThreadPool: slot i of the result
/// is the shortest-path tree from sources[i] under the (optional) shared
/// edge mask. Sources are split into contiguous chunks, one thread-local
/// engine per chunk, each chunk served by one batched engine invocation;
/// every slot depends only on (graph, mask, sources[i]), so the output is
/// byte-identical at any thread count and to a sequential per-source loop.
std::vector<ShortestPaths> batch_dijkstra(
    const Graph& g, std::span<const VertexId> sources,
    std::span<const std::uint8_t> edge_mask = {});

/// Default SpCache capacity: enough for a request's source and destination
/// trees, plus the eligible-server trees of Appro_Multi and Online_SP, on
/// every topology in the repo without eviction churn.
inline constexpr std::size_t kDefaultSpCacheCapacity = 256;

class SpCache {
 public:
  /// `capacity` == 0 means unbounded.
  explicit SpCache(std::size_t capacity = kDefaultSpCacheCapacity);
  SpCache(const SpCache&) = delete;
  SpCache& operator=(const SpCache&) = delete;

  /// The shortest-path tree from `source` on `g`: cached when (uid, epoch,
  /// source) matches a previous query, computed (and inserted) otherwise.
  /// The returned tree is shared — it stays valid after eviction as long
  /// as the caller holds the pointer.
  std::shared_ptr<const ShortestPaths> paths_from(const Graph& g, VertexId source);

  /// Cache probe without computing: the cached tree for (g, source), or
  /// nullptr on a miss. Lets parallel fan-outs compute only the missing
  /// trees and then insert them with put().
  std::shared_ptr<const ShortestPaths> try_get(const Graph& g, VertexId source);

  /// Inserts a precomputed tree (e.g. built by a parallel fan-out) for the
  /// current (uid, epoch) of `g`. Replaces any existing entry for `source`.
  void put(const Graph& g, VertexId source,
           std::shared_ptr<const ShortestPaths> paths);

  void clear();
  std::size_t size() const noexcept { return index_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  /// Flushes when `g` is not the graph+epoch the cache was filled from.
  void sync(const Graph& g);

  using LruList =
      std::list<std::pair<VertexId, std::shared_ptr<const ShortestPaths>>>;

  std::size_t capacity_;
  std::uint64_t uid_ = 0;
  std::uint64_t epoch_ = 0;
  bool bound_ = false;
  LruList lru_;  // front = most recently used
  std::unordered_map<VertexId, LruList::iterator> index_;
  SpEngine engine_;
};

}  // namespace nfvm::graph
