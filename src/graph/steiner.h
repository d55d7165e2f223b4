// Steiner trees.
//
// * `kmb_steiner` — the Kou–Markowsky–Berman (1981) 2(1 - 1/t)-approximation
//   used by every algorithm in the paper (Algorithm 1 step 7, Algorithm 2
//   step 8, and the Alg_One_Server / SP baselines build on the same
//   metric-closure machinery).
// * `exact_steiner` — the Dreyfus–Wagner dynamic program, exponential in the
//   number of terminals. Used by the test suite to check the approximation
//   ratio and by the K=1 exact optimum oracle.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace nfvm::graph {

class AllPairsShortestPaths;
struct ShortestPaths;

struct SteinerResult {
  /// True iff all terminals lie in one connected component (a tree exists).
  bool connected = false;
  /// Edges of the Steiner tree (ids into the input graph). Empty when
  /// `connected` is false or there are fewer than two distinct terminals.
  std::vector<EdgeId> edges;
  /// Total weight of `edges`.
  double weight = 0.0;
};

/// KMB approximation. Steps: metric closure over terminals -> MST of the
/// closure -> expand closure edges into shortest paths -> MST of the union
/// subgraph -> prune non-terminal leaves. Duplicate terminals are allowed
/// and ignored. Throws std::out_of_range on invalid vertices and
/// std::invalid_argument when `terminals` is empty.
///
/// Guarantee: weight <= 2 (1 - 1/t) * OPT where t = #distinct terminals.
SteinerResult kmb_steiner(const Graph& g, std::span<const VertexId> terminals);

/// Row fetcher for kmb_steiner_lazy: the shortest-path table from `source`
/// on the KMB graph, exact at every vertex of `targets` and at every vertex
/// on their shortest paths (SpEngine::shortest_paths_to, or a full tree).
/// Other entries may be tentative upper bounds on the full table's value.
/// Shared, so a cached full tree is handed over without a copy.
using KmbRowFn = std::function<std::shared_ptr<const ShortestPaths>(
    VertexId source, std::span<const VertexId> targets)>;

/// KMB from caller-supplied per-terminal shortest-path tables: identical to
/// kmb_steiner except that step 1 (one SSSP per distinct terminal) is
/// replaced by `table_for(t)` lookups, so per-request terminal trees can be
/// primed once (and cached across requests) instead of being recomputed
/// per call. `table_for(t)` returns the full shortest-path tree rooted at
/// `t` on `g` (same graph, same weights), valid for the whole call, or
/// nullptr. A tableless terminal's row is fetched through `row_to` only
/// when KMB's closure Prim picks it, and only out to the terminals it could
/// still improve: every other terminal when it is the root (the smallest
/// id), else each unpicked j with dist_j[x] (1 - 8 |V| 2^-53) < key[j].
/// With no such j the row is never fetched. The graph must be undirected
/// with non-negative weights; the result is bit-identical to kmb_steiner
/// (docs/performance.md, "Lazy server rows", gives the proof). This is the
/// online fast path's entry point.
SteinerResult kmb_steiner_lazy(
    const Graph& g, std::span<const VertexId> terminals,
    const std::function<const ShortestPaths*(VertexId)>& table_for,
    const KmbRowFn& row_to);

/// Metric-closure MST over a fixed base terminal set T0, built once from
/// the base terminals' shortest-path tables, that prices T0 ∪ {v} for any
/// extra vertex v without a table rooted at v. The graph is undirected, so
/// the column dist_t[v] (t ∈ T0) holds every closure edge incident to v,
/// and by the cycle property MST(T0 ∪ {v}) ⊆ MST(T0) ∪ {(t, v) : t ∈ T0}:
/// Kruskal over those 2|T0| - 1 edges gives the full closure MST weight in
/// O(|T0| log |T0|). A pair inside T0 is priced at the min of its two table
/// entries (path sums may round differently in the two directions).
class ClosureMst {
 public:
  /// `tables[i]` is the shortest-path tree rooted at `base[i]`. Base
  /// vertices must be distinct and mutually reachable; the tables must
  /// outlive this object.
  ClosureMst(std::span<const VertexId> base,
             std::span<const ShortestPaths* const> tables);

  /// |T0|.
  std::size_t size() const noexcept { return tables_.size(); }
  /// Weight of MST(T0).
  double weight() const noexcept { return weight_; }
  /// Weight of MST(T0 ∪ {v}) for v ∉ T0; infinite when v is unreachable
  /// from T0.
  double weight_with(VertexId v) const;

 private:
  struct ClosureEdge {
    std::size_t a = 0;
    std::size_t b = 0;
    double w = 0.0;
  };
  std::vector<const ShortestPaths*> tables_;
  std::vector<ClosureEdge> edges_;  // MST(T0)
  double weight_ = 0.0;
};

/// Lower bound on the weight KMB returns for `num_terminals` >= 2 distinct
/// terminals whose closure MST, computed from the same graph's
/// shortest-path tables, weighs `closure_mst_weight`:
///   MST <= 2 (1 - 1/l) OPT <= 2 (1 - 1/l) KMB,
/// scaled down by a rounding margin of 8 |V| 2^-53 that covers the path
/// sums, the MST sum and KMB's own sum (docs/performance.md, "Bound-pruned
/// server scan"). Edge weights must be non-negative.
double kmb_weight_lower_bound(double closure_mst_weight,
                              std::size_t num_terminals,
                              std::size_t num_vertices);

/// Takahashi-Matsuyama (1980) path-heuristic: grow the tree from one
/// terminal, repeatedly attaching the closest unconnected terminal via a
/// shortest path (multi-source Dijkstra from the current tree). Same
/// 2(1 - 1/t) guarantee as KMB, often different (sometimes better) trees,
/// and cheaper per call: t Dijkstras but no metric-closure MST/expansion.
SteinerResult takahashi_matsuyama_steiner(const Graph& g,
                                          std::span<const VertexId> terminals);

/// Selector for algorithms that take a pluggable Steiner engine.
enum class SteinerEngine {
  kKmb,
  kTakahashiMatsuyama,
};

/// Dispatches to the selected approximation.
SteinerResult steiner_tree(const Graph& g, std::span<const VertexId> terminals,
                           SteinerEngine engine);

/// Exact minimum Steiner tree via Dreyfus-Wagner. Throws
/// std::invalid_argument when there are more than `kExactSteinerMaxTerminals`
/// distinct terminals (the DP is Theta(3^t n)). Builds one all-pairs
/// structure (parallel Dijkstra fan-out) and delegates to the overload below.
inline constexpr std::size_t kExactSteinerMaxTerminals = 14;
SteinerResult exact_steiner(const Graph& g, std::span<const VertexId> terminals);

/// Dreyfus-Wagner against a caller-supplied all-pairs structure, so repeated
/// exact queries on the same graph (e.g. the K=1 optimum oracle sweeping
/// server combinations) share one APSP build. `apsp` must have been built
/// from `g` with keep_parents == true; throws std::invalid_argument when its
/// vertex count disagrees with `g`.
SteinerResult exact_steiner(const Graph& g, std::span<const VertexId> terminals,
                            const AllPairsShortestPaths& apsp);

/// Vertex-insertion local search on top of a Steiner tree: for each vertex
/// outside the current tree, rebuild the KMB tree with that vertex forced as
/// an extra terminal (then pruned back against the real terminals); adopt
/// any improvement and repeat up to `max_rounds` passes. Never returns a
/// worse tree; costs O(max_rounds * n * KMB), so use it for quality studies
/// rather than inner loops. `current` must already be a valid result for
/// `terminals` (e.g. from kmb_steiner); throws std::invalid_argument when
/// it is disconnected.
SteinerResult improve_steiner(const Graph& g, SteinerResult current,
                              std::span<const VertexId> terminals,
                              std::size_t max_rounds = 2);

/// The final two KMB steps, shared with external metric-closure
/// implementations (e.g. Appro_Multi's shared-Dijkstra engine): minimum
/// spanning tree of the union subgraph formed by `union_edges`, then
/// repeated removal of non-terminal leaves. `union_edges` must connect all
/// distinct terminals; result.connected reflects whether it did.
SteinerResult kmb_finish(const Graph& g, std::span<const EdgeId> union_edges,
                         std::span<const VertexId> terminals);

/// Record-based kmb_finish for implicit graphs (e.g. the auxiliary-graph
/// overlay): `union_edges` carries endpoints and weights directly, vertex
/// ids range over [0, num_vertices). Pipeline (stable sort by weight with
/// input-order ties, union order, leaf pruning, weight summation order) is
/// identical to the Graph overload, so results are bit-identical when the
/// records mirror a materialized graph.
SteinerResult kmb_finish(std::size_t num_vertices,
                         std::span<const EdgeRecord> union_edges,
                         std::span<const VertexId> terminals);

/// Checks that `edges` forms a tree (acyclic, connected over touched
/// vertices) containing every terminal. Utility shared by tests and the
/// pseudo-multicast validator.
bool is_steiner_tree(const Graph& g, std::span<const EdgeId> edges,
                     std::span<const VertexId> terminals);

}  // namespace nfvm::graph
