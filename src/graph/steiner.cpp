#include "graph/steiner.h"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <unordered_set>

#include "graph/apsp.h"
#include "graph/dijkstra.h"
#include "graph/mst.h"
#include "graph/sp_engine.h"
#include "graph/union_find.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace nfvm::graph {
namespace {

std::vector<VertexId> distinct_terminals(const Graph& g,
                                         std::span<const VertexId> terminals) {
  if (terminals.empty()) {
    throw std::invalid_argument("steiner: terminal set must be non-empty");
  }
  std::vector<VertexId> distinct(terminals.begin(), terminals.end());
  for (VertexId t : distinct) {
    if (!g.has_vertex(t)) throw std::out_of_range("steiner: invalid terminal");
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  return distinct;
}

/// Removes non-terminal leaves until none remain; returns surviving edges.
std::vector<EdgeId> prune_leaves(const Graph& g, std::vector<EdgeId> edges,
                                 std::span<const VertexId> terminals) {
  std::vector<bool> is_terminal(g.num_vertices(), false);
  for (VertexId t : terminals) is_terminal[t] = true;

  // Incidence restricted to `edges`.
  std::vector<std::vector<std::size_t>> incident(g.num_vertices());
  std::vector<std::size_t> degree(g.num_vertices(), 0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& ed = g.edge(edges[i]);
    incident[ed.u].push_back(i);
    incident[ed.v].push_back(i);
    ++degree[ed.u];
    ++degree[ed.v];
  }

  std::vector<bool> edge_removed(edges.size(), false);
  std::queue<VertexId> leaves;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (degree[v] == 1 && !is_terminal[v]) leaves.push(v);
  }
  while (!leaves.empty()) {
    const VertexId v = leaves.front();
    leaves.pop();
    if (degree[v] != 1 || is_terminal[v]) continue;
    for (std::size_t idx : incident[v]) {
      if (edge_removed[idx]) continue;
      edge_removed[idx] = true;
      const Edge& ed = g.edge(edges[idx]);
      const VertexId other = ed.u == v ? ed.v : ed.u;
      --degree[v];
      --degree[other];
      if (degree[other] == 1 && !is_terminal[other]) leaves.push(other);
      break;  // a degree-1 vertex has exactly one live incident edge
    }
  }

  std::vector<EdgeId> kept;
  kept.reserve(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (!edge_removed[i]) kept.push_back(edges[i]);
  }
  return kept;
}

double edges_weight(const Graph& g, std::span<const EdgeId> edges) {
  double w = 0.0;
  for (EdgeId e : edges) w += g.weight(e);
  return w;
}

/// Relative slack covering the float rounding between two shortest-path
/// computations of one exact distance D on a |V|-vertex graph with
/// non-negative weights. A float Dijkstra distance is a float path sum of at
/// most |V| - 1 terms: at least the exact sum of the path it found times
/// (1 - u)^|V|, and (float addition is monotone) at most the float sum along
/// an exact shortest path, i.e. D (1 + u)^|V|, with u = 2^-53. Two such
/// values therefore differ by a factor of at most about 1 + 2 |V| u;
/// 8 |V| u leaves room for the further sums and products its users apply.
double closure_rounding_margin(std::size_t num_vertices) {
  return 8.0 * static_cast<double>(num_vertices) * 0x1p-53;
}

/// KMB steps 2-5 against per-terminal shortest-path tables (one entry of
/// `sp` per entry of `terms`, in order). kmb_steiner (freshly computed
/// tables) and kmb_steiner_lazy (caller-cached tables) both funnel through
/// here, which is what makes them bit-identical. A null `sp[i]` is a
/// tableless terminal whose row is fetched through `row_to` (non-null then)
/// when Prim picks it, bounded to the terminals the row could still improve.
SteinerResult kmb_from_terminal_tables(const Graph& g,
                                       const std::vector<VertexId>& terms,
                                       std::vector<const ShortestPaths*> sp,
                                       const KmbRowFn* row_to) {
  SteinerResult result;
  const std::size_t t = terms.size();
  // Rows fetched for tableless terminals, one slot per terminal and sized
  // once, so the pointers stored in `sp` stay valid.
  std::vector<std::shared_ptr<const ShortestPaths>> fetched;
  std::vector<VertexId> targets;
  const auto fetch = [&](std::size_t i) {
    if (fetched.empty()) fetched.resize(t);
    fetched[i] = (*row_to)(terms[i], targets);
    sp[i] = fetched[i].get();
  };
  if (sp[0] == nullptr) {
    // The root is Prim's first pick, and every other terminal its target.
    targets.assign(terms.begin() + 1, terms.end());
    fetch(0);
  }
  for (std::size_t i = 1; i < t; ++i) {
    if (!sp[0]->reachable(terms[i])) return result;  // connected == false
  }

  // Step 2: MST of the metric closure (Prim on the t x t distance matrix).
  // A tableless terminal x is fetched when picked, with targets the
  // unpicked j for which dist_j[x] (1 - margin) < best[j]. Bit-identity
  // with full rows:
  //  (i) the graph is undirected, so dist_x[j] and dist_j[x] are two float
  //      computations of one exact distance and differ by less than the
  //      margin: a skipped j can never pass the strict d < best[j], and with
  //      no targets x's update loop is a no-op and is skipped;
  //  (ii) a fetched row is exact at its settled vertices and a tentative
  //      upper bound elsewhere, so reading it for a non-target j changes
  //      nothing either;
  //  (iii) a closure edge (x, j) exists only if x's row strictly improved j;
  //      such a j is a target, settled along with its whole path, so step 3
  //      expands exactly the full row's path.
  const double keep = 1.0 - closure_rounding_margin(g.num_vertices());
  std::vector<std::pair<std::size_t, std::size_t>> closure_edges;  // (i, j)
  {
    NFVM_SPAN("steiner/kmb/closure_mst");
    std::vector<bool> in_tree(t, false);
    std::vector<double> best(t, kInfiniteDistance);
    std::vector<std::size_t> best_from(t, 0);
    best[0] = 0.0;
    for (std::size_t step = 0; step < t; ++step) {
      std::size_t pick = t;
      for (std::size_t i = 0; i < t; ++i) {
        if (!in_tree[i] && (pick == t || best[i] < best[pick])) pick = i;
      }
      in_tree[pick] = true;
      if (pick != 0) closure_edges.emplace_back(best_from[pick], pick);
      if (sp[pick] == nullptr) {
        targets.clear();
        for (std::size_t j = 0; j < t; ++j) {
          if (in_tree[j]) continue;
          if (sp[j] == nullptr || sp[j]->dist[terms[pick]] * keep < best[j]) {
            targets.push_back(terms[j]);
          }
        }
        if (targets.empty()) continue;
        fetch(pick);
      }
      for (std::size_t j = 0; j < t; ++j) {
        if (in_tree[j]) continue;
        const double d = sp[pick]->dist[terms[j]];
        if (d < best[j]) {
          best[j] = d;
          best_from[j] = pick;
        }
      }
    }
  }

  NFVM_SPAN("steiner/kmb/expand_prune");
  // Step 3: expand closure edges into shortest paths; union of their edges.
  std::unordered_set<EdgeId> edge_set;
  for (const auto& [i, j] : closure_edges) {
    for (EdgeId e : path_edges(*sp[i], terms[j])) edge_set.insert(e);
  }
  std::vector<EdgeId> expanded(edge_set.begin(), edge_set.end());
  std::sort(expanded.begin(), expanded.end());  // determinism

  // Step 4: MST of the expanded subgraph.
  MstResult sub_mst = kruskal_mst_subset(g, expanded);

  // Step 5: prune non-terminal leaves.
  result.edges = prune_leaves(g, std::move(sub_mst.edges), terms);
  result.weight = edges_weight(g, result.edges);
  result.connected = true;
  return result;
}

}  // namespace

SteinerResult kmb_steiner(const Graph& g, std::span<const VertexId> terminals) {
  NFVM_SPAN("steiner/kmb");
  NFVM_COUNTER_INC("graph.steiner.kmb.runs");
  const std::vector<VertexId> terms = distinct_terminals(g, terminals);
  SteinerResult result;
  if (terms.size() == 1) {
    result.connected = true;
    return result;
  }

  // Step 1: shortest paths from every terminal, one slot per terminal so
  // the fan-out is deterministic regardless of thread count.
  std::vector<ShortestPaths> sp(terms.size());
  {
    NFVM_SPAN("steiner/kmb/terminal_sssp");
    util::ThreadPool::global().parallel_for(
        terms.size(), [&](std::size_t i) { sp[i] = dijkstra(g, terms[i]); });
  }
  std::vector<const ShortestPaths*> tables(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) tables[i] = &sp[i];
  return kmb_from_terminal_tables(g, terms, std::move(tables), nullptr);
}

SteinerResult kmb_steiner_lazy(
    const Graph& g, std::span<const VertexId> terminals,
    const std::function<const ShortestPaths*(VertexId)>& table_for,
    const KmbRowFn& row_to) {
  NFVM_SPAN("steiner/kmb_lazy");
  NFVM_COUNTER_INC("graph.steiner.kmb.runs");
  const std::vector<VertexId> terms = distinct_terminals(g, terminals);
  SteinerResult result;
  if (terms.size() == 1) {
    result.connected = true;
    return result;
  }
  std::vector<const ShortestPaths*> tables(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) tables[i] = table_for(terms[i]);
  return kmb_from_terminal_tables(g, terms, std::move(tables), &row_to);
}

ClosureMst::ClosureMst(std::span<const VertexId> base,
                       std::span<const ShortestPaths* const> tables)
    : tables_(tables.begin(), tables.end()) {
  // Prim on the |T0| x |T0| closure matrix.
  const std::size_t t = base.size();
  const auto dist = [&](std::size_t i, std::size_t j) {
    return std::min(tables_[i]->dist[base[j]], tables_[j]->dist[base[i]]);
  };
  std::vector<bool> in_tree(t, false);
  std::vector<double> best(t, kInfiniteDistance);
  std::vector<std::size_t> best_from(t, 0);
  for (std::size_t step = 0; step < t; ++step) {
    std::size_t pick = t;
    for (std::size_t i = 0; i < t; ++i) {
      if (!in_tree[i] && (pick == t || best[i] < best[pick])) pick = i;
    }
    in_tree[pick] = true;
    if (step > 0) edges_.push_back({best_from[pick], pick, best[pick]});
    for (std::size_t j = 0; j < t; ++j) {
      if (in_tree[j]) continue;
      const double d = dist(pick, j);
      if (d < best[j]) {
        best[j] = d;
        best_from[j] = pick;
      }
    }
  }
  for (const ClosureEdge& e : edges_) weight_ += e.w;
}

double ClosureMst::weight_with(VertexId v) const {
  // Kruskal over MST(T0) plus v's column; v is vertex index t.
  const std::size_t t = tables_.size();
  std::vector<ClosureEdge> candidates = edges_;
  for (std::size_t i = 0; i < t; ++i) {
    const double d = tables_[i]->dist[v];
    if (!(d < kInfiniteDistance)) return kInfiniteDistance;
    candidates.push_back({i, t, d});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const ClosureEdge& x, const ClosureEdge& y) { return x.w < y.w; });
  UnionFind uf(t + 1);
  double weight = 0.0;
  for (const ClosureEdge& e : candidates) {
    if (uf.unite(e.a, e.b)) weight += e.w;
  }
  return weight;
}

double kmb_weight_lower_bound(double closure_mst_weight,
                              std::size_t num_terminals,
                              std::size_t num_vertices) {
  // Rounding: every table distance is a float path sum of at most |V| - 1
  // non-negative terms (<= (1 + u)^{|V|} times the exact distance), the MST
  // adds at most |T| - 1 <= |V| more roundings, and KMB's weight is a float
  // sum that may undershoot its exact value by another (1 - u)^{|V|}. That
  // is about 3 |V| u in total, plus a few for this arithmetic; the 8 |V| u
  // margin leaves a factor of two to spare. u = 2^-53.
  const double l = static_cast<double>(num_terminals);
  return closure_mst_weight * l / (2.0 * (l - 1.0)) *
         (1.0 - closure_rounding_margin(num_vertices));
}

SteinerResult improve_steiner(const Graph& g, SteinerResult current,
                              std::span<const VertexId> terminals,
                              std::size_t max_rounds) {
  if (!current.connected) {
    throw std::invalid_argument("improve_steiner: input tree is disconnected");
  }
  const std::vector<VertexId> terms = distinct_terminals(g, terminals);
  if (terms.size() <= 1) return current;

  for (std::size_t round = 0; round < max_rounds; ++round) {
    bool improved = false;
    std::vector<bool> in_tree(g.num_vertices(), false);
    for (EdgeId e : current.edges) {
      in_tree[g.edge(e).u] = true;
      in_tree[g.edge(e).v] = true;
    }
    for (VertexId t : terms) in_tree[t] = true;

    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (in_tree[v]) continue;
      std::vector<VertexId> extended(terms);
      extended.push_back(v);
      SteinerResult candidate = kmb_steiner(g, extended);
      if (!candidate.connected) continue;
      // Drop v again if it turned out useless (leaf pruning against the
      // real terminal set).
      candidate = kmb_finish(g, candidate.edges, terms);
      if (candidate.connected && candidate.weight + 1e-12 < current.weight) {
        current = std::move(candidate);
        improved = true;
        // Refresh tree membership for subsequent insertions this round.
        std::fill(in_tree.begin(), in_tree.end(), false);
        for (EdgeId e : current.edges) {
          in_tree[g.edge(e).u] = true;
          in_tree[g.edge(e).v] = true;
        }
        for (VertexId t : terms) in_tree[t] = true;
      }
    }
    if (!improved) break;
  }
  return current;
}

SteinerResult kmb_finish(const Graph& g, std::span<const EdgeId> union_edges,
                         std::span<const VertexId> terminals) {
  NFVM_SPAN("steiner/kmb_finish");
  NFVM_COUNTER_INC("graph.steiner.kmb_finish.runs");
  const std::vector<VertexId> terms = distinct_terminals(g, terminals);
  SteinerResult result;
  if (terms.size() == 1) {
    result.connected = true;
    return result;
  }
  MstResult sub_mst = kruskal_mst_subset(g, union_edges);
  // Connectivity: all terminals must share one component of the forest.
  UnionFind uf(g.num_vertices());
  for (EdgeId e : sub_mst.edges) uf.unite(g.edge(e).u, g.edge(e).v);
  for (VertexId t : terms) {
    if (uf.find(t) != uf.find(terms[0])) return result;  // connected == false
  }
  result.edges = prune_leaves(g, std::move(sub_mst.edges), terms);
  result.weight = edges_weight(g, result.edges);
  result.connected = true;
  return result;
}

SteinerResult kmb_finish(std::size_t num_vertices,
                         std::span<const EdgeRecord> union_edges,
                         std::span<const VertexId> terminals) {
  NFVM_SPAN("steiner/kmb_finish");
  NFVM_COUNTER_INC("graph.steiner.kmb_finish.runs");
  if (terminals.empty()) {
    throw std::invalid_argument("steiner: terminal set must be non-empty");
  }
  std::vector<VertexId> terms(terminals.begin(), terminals.end());
  for (VertexId t : terms) {
    if (t >= num_vertices) throw std::out_of_range("steiner: invalid terminal");
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  SteinerResult result;
  if (terms.size() == 1) {
    result.connected = true;
    return result;
  }

  // Kruskal over the records: stable sort by weight (ties keep input order,
  // exactly like kruskal_mst_subset) and unite in that order.
  std::vector<std::size_t> order(union_edges.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return union_edges[a].weight < union_edges[b].weight;
  });
  UnionFind uf(num_vertices);
  std::vector<std::size_t> kept;  // indices into union_edges, in MST order
  kept.reserve(union_edges.size());
  for (std::size_t i : order) {
    const EdgeRecord& r = union_edges[i];
    if (r.u >= num_vertices || r.v >= num_vertices) {
      throw std::out_of_range("kmb_finish: edge record endpoint out of range");
    }
    if (uf.unite(r.u, r.v)) kept.push_back(i);
  }
  for (VertexId t : terms) {
    if (uf.find(t) != uf.find(terms[0])) return result;  // connected == false
  }

  // Leaf pruning, mirroring prune_leaves over the kept records.
  std::vector<bool> is_terminal(num_vertices, false);
  for (VertexId t : terms) is_terminal[t] = true;
  std::vector<std::vector<std::size_t>> incident(num_vertices);
  std::vector<std::size_t> degree(num_vertices, 0);
  for (std::size_t k = 0; k < kept.size(); ++k) {
    const EdgeRecord& r = union_edges[kept[k]];
    incident[r.u].push_back(k);
    incident[r.v].push_back(k);
    ++degree[r.u];
    ++degree[r.v];
  }
  std::vector<bool> edge_removed(kept.size(), false);
  std::queue<VertexId> leaves;
  for (VertexId v = 0; v < num_vertices; ++v) {
    if (degree[v] == 1 && !is_terminal[v]) leaves.push(v);
  }
  while (!leaves.empty()) {
    const VertexId v = leaves.front();
    leaves.pop();
    if (degree[v] != 1 || is_terminal[v]) continue;
    for (std::size_t idx : incident[v]) {
      if (edge_removed[idx]) continue;
      edge_removed[idx] = true;
      const EdgeRecord& r = union_edges[kept[idx]];
      const VertexId other = r.u == v ? r.v : r.u;
      --degree[v];
      --degree[other];
      if (degree[other] == 1 && !is_terminal[other]) leaves.push(other);
      break;  // a degree-1 vertex has exactly one live incident edge
    }
  }
  for (std::size_t k = 0; k < kept.size(); ++k) {
    if (edge_removed[k]) continue;
    const EdgeRecord& r = union_edges[kept[k]];
    result.edges.push_back(r.id);
    result.weight += r.weight;
  }
  result.connected = true;
  return result;
}

SteinerResult takahashi_matsuyama_steiner(const Graph& g,
                                          std::span<const VertexId> terminals) {
  NFVM_SPAN("steiner/takahashi_matsuyama");
  NFVM_COUNTER_INC("graph.steiner.tm.runs");
  const std::vector<VertexId> terms = distinct_terminals(g, terminals);
  SteinerResult result;
  if (terms.size() == 1) {
    result.connected = true;
    return result;
  }

  const std::size_t n = g.num_vertices();
  std::vector<bool> in_tree(n, false);
  in_tree[terms[0]] = true;
  std::vector<VertexId> tree_vertices;
  tree_vertices.reserve(n);
  tree_vertices.push_back(terms[0]);
  std::vector<VertexId> pending(terms.begin() + 1, terms.end());

  // Each round: one multi-source grow step on the shared engine (every
  // tree vertex seeded at distance zero), attaching the nearest pending
  // terminal along its shortest path. The engine settles ties by
  // (distance, vertex id) and stops before relaxing the settled terminal —
  // exactly the std::priority_queue loop this replaces — and brings the
  // bucket-queue specialization to unit-weight graphs for free.
  SpEngine& engine = SpEngine::thread_local_engine();
  while (!pending.empty()) {
    const VertexId reached = engine.grow_step(g, tree_vertices, pending);
    if (reached == kInvalidVertex) return result;  // disconnected

    pending.erase(std::find(pending.begin(), pending.end(), reached));
    for (VertexId v = reached; !in_tree[v]; v = engine.parent_of(v)) {
      in_tree[v] = true;
      tree_vertices.push_back(v);
      result.edges.push_back(engine.parent_edge_of(v));
      result.weight += g.weight(engine.parent_edge_of(v));
    }
  }
  std::sort(result.edges.begin(), result.edges.end());
  result.connected = true;
  return result;
}

SteinerResult steiner_tree(const Graph& g, std::span<const VertexId> terminals,
                           SteinerEngine engine) {
  switch (engine) {
    case SteinerEngine::kKmb:
      return kmb_steiner(g, terminals);
    case SteinerEngine::kTakahashiMatsuyama:
      return takahashi_matsuyama_steiner(g, terminals);
  }
  throw std::invalid_argument("steiner_tree: unknown engine");
}

SteinerResult exact_steiner(const Graph& g, std::span<const VertexId> terminals) {
  // One parallel APSP build shared across the whole DP (and reusable by the
  // caller via the overload below when sweeping many terminal sets).
  const AllPairsShortestPaths apsp(g, /*keep_parents=*/true);
  return exact_steiner(g, terminals, apsp);
}

SteinerResult exact_steiner(const Graph& g, std::span<const VertexId> terminals,
                            const AllPairsShortestPaths& apsp) {
  NFVM_SPAN("steiner/exact_dreyfus_wagner");
  NFVM_COUNTER_INC("graph.steiner.exact.runs");
  if (apsp.num_vertices() != g.num_vertices()) {
    throw std::invalid_argument("exact_steiner: APSP built from a different graph");
  }
  const std::vector<VertexId> terms = distinct_terminals(g, terminals);
  SteinerResult result;
  if (terms.size() == 1) {
    result.connected = true;
    return result;
  }
  if (terms.size() > kExactSteinerMaxTerminals) {
    throw std::invalid_argument("exact_steiner: too many terminals for the DP");
  }

  const std::size_t n = g.num_vertices();
  const auto sp = [&apsp](VertexId s) -> const ShortestPaths& {
    return apsp.source_tree(s);
  };
  for (std::size_t i = 1; i < terms.size(); ++i) {
    if (!sp(terms[0]).reachable(terms[i])) return result;
  }

  // Dreyfus-Wagner over subsets of terms[1..]; the tree always implicitly
  // contains terms[0] via the final query dp[full][terms[0]].
  const std::size_t bits = terms.size() - 1;
  const std::size_t num_masks = std::size_t{1} << bits;
  std::vector<std::vector<double>> dp(num_masks, std::vector<double>(n, kInfiniteDistance));

  // Reconstruction records. kind: 0 = base (path from terminal), 1 = merge
  // (submask stored in aux), 2 = extend (vertex stored in aux).
  struct Choice {
    std::uint8_t kind = 0;
    std::uint32_t aux = 0;
  };
  std::vector<std::vector<Choice>> choice(num_masks, std::vector<Choice>(n));

  for (std::size_t b = 0; b < bits; ++b) {
    const VertexId term = terms[b + 1];
    const std::size_t mask = std::size_t{1} << b;
    for (VertexId v = 0; v < n; ++v) {
      dp[mask][v] = sp(term).dist[v];
      choice[mask][v] = Choice{0, static_cast<std::uint32_t>(term)};
    }
  }

  for (std::size_t mask = 1; mask < num_masks; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // singletons already done
    auto& row = dp[mask];
    // Merge two subtrees at v.
    for (std::size_t sub = (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask) {
      const std::size_t rest = mask ^ sub;
      if (sub > rest) continue;  // each unordered split once
      const auto& a = dp[sub];
      const auto& b = dp[rest];
      for (VertexId v = 0; v < n; ++v) {
        const double cand = a[v] + b[v];
        if (cand < row[v]) {
          row[v] = cand;
          choice[mask][v] = Choice{1, static_cast<std::uint32_t>(sub)};
        }
      }
    }
    // Extend through the metric closure: one relaxation round suffices
    // because sp[u].dist is already the full shortest-path metric.
    for (VertexId v = 0; v < n; ++v) {
      for (VertexId u = 0; u < n; ++u) {
        if (u == v || dp[mask][u] >= kInfiniteDistance) continue;
        const double cand = dp[mask][u] + sp(u).dist[v];
        if (cand < row[v]) {
          row[v] = cand;
          choice[mask][v] = Choice{2, static_cast<std::uint32_t>(u)};
        }
      }
    }
  }

  // Reconstruct the edge set.
  std::unordered_set<EdgeId> edge_set;
  struct Frame {
    std::size_t mask;
    VertexId v;
  };
  std::vector<Frame> stack{{num_masks - 1, terms[0]}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Choice c = choice[f.mask][f.v];
    switch (c.kind) {
      case 0: {  // base: path terminal -> v
        for (EdgeId e : path_edges(sp(c.aux), f.v)) edge_set.insert(e);
        break;
      }
      case 1: {  // merge at v
        stack.push_back(Frame{c.aux, f.v});
        stack.push_back(Frame{f.mask ^ c.aux, f.v});
        break;
      }
      case 2: {  // extend u -> v
        for (EdgeId e : path_edges(sp(c.aux), f.v)) edge_set.insert(e);
        stack.push_back(Frame{f.mask, static_cast<VertexId>(c.aux)});
        break;
      }
      default:
        throw std::logic_error("exact_steiner: corrupt choice table");
    }
  }

  std::vector<EdgeId> chosen(edge_set.begin(), edge_set.end());
  std::sort(chosen.begin(), chosen.end());
  // Ties can make the reconstructed union contain a cycle of equal total
  // weight; clean it up into a tree of the same (optimal) weight.
  MstResult cleaned = kruskal_mst_subset(g, chosen);
  result.edges = prune_leaves(g, std::move(cleaned.edges), terms);
  result.weight = edges_weight(g, result.edges);
  result.connected = true;
  return result;
}

bool is_steiner_tree(const Graph& g, std::span<const EdgeId> edges,
                     std::span<const VertexId> terminals) {
  const std::vector<VertexId> terms = distinct_terminals(g, terminals);
  if (terms.size() == 1) return edges.empty();

  UnionFind uf(g.num_vertices());
  std::vector<bool> touched(g.num_vertices(), false);
  for (EdgeId e : edges) {
    if (!g.has_edge(e)) return false;
    const Edge& ed = g.edge(e);
    if (!uf.unite(ed.u, ed.v)) return false;  // cycle (or self-loop)
    touched[ed.u] = true;
    touched[ed.v] = true;
  }
  for (VertexId t : terms) {
    if (!touched[t]) return false;
    if (uf.find(t) != uf.find(terms[0])) return false;
  }
  // Connected over touched vertices: #touched vertices == #edges + 1.
  std::size_t touched_count = 0;
  for (bool b : touched) touched_count += b ? 1 : 0;
  return touched_count == edges.size() + 1;
}

}  // namespace nfvm::graph
