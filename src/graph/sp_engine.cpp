#include "graph/sp_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace nfvm::graph {

// --- SpEngine ---------------------------------------------------------------

void SpEngine::heap_push(HeapItem item) {
  heap_.push_back(item);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!item_less(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

SpEngine::HeapItem SpEngine::heap_pop() {
  const HeapItem top = heap_.front();
  const HeapItem last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= heap_.size()) break;
      const std::size_t end = std::min(first + 4, heap_.size());
      std::size_t best = first;
      for (std::size_t j = first + 1; j < end; ++j) {
        if (item_less(heap_[j], heap_[best])) best = j;
      }
      if (!item_less(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return top;
}

void SpEngine::prepare(const Graph& g) {
  view_.refresh(g);
  const std::size_t n = g.num_vertices();
  if (stamp_.size() < n) {
    stamp_.resize(n, 0);
    target_stamp_.resize(n, 0);
    dist_.resize(n);
    parent_.resize(n);
    parent_edge_.resize(n);
  }
  if (++generation_ == 0) {  // wrapped: stamps are ambiguous, hard reset
    std::fill(stamp_.begin(), stamp_.end(), 0);
    std::fill(bucket_stamp_.begin(), bucket_stamp_.end(), 0);
    for (std::vector<VertexId>& bucket : buckets_) bucket.clear();
    generation_ = 1;
  }
  heap_.clear();
  reached_.clear();
}

void SpEngine::touch(VertexId v) {
  if (stamp_[v] == generation_) return;
  stamp_[v] = generation_;
  dist_[v] = kInfiniteDistance;
  parent_[v] = kInvalidVertex;
  parent_edge_[v] = kInvalidEdge;
  reached_.push_back(v);
}

std::size_t SpEngine::stamp_targets(std::span<const VertexId> targets) {
  if (++target_generation_ == 0) {
    std::fill(target_stamp_.begin(), target_stamp_.end(), 0);
    target_generation_ = 1;
  }
  std::size_t distinct = 0;
  for (VertexId t : targets) {
    if (target_stamp_[t] != target_generation_) {
      target_stamp_[t] = target_generation_;
      ++distinct;
    }
  }
  return distinct;
}

void SpEngine::clear_targets(std::span<const VertexId> targets) noexcept {
  // Leave no stale stamps for the next query.
  for (VertexId t : targets) target_stamp_[t] = 0;
}

void SpEngine::run(std::span<const VertexId> seeds,
                   const std::function<bool(EdgeId)>* edge_allowed,
                   const std::uint8_t* edge_mask, std::size_t targets_remaining) {
  NFVM_SPAN("graph/dijkstra");
  last_settled_target_ = kInvalidVertex;
  last_used_dial_ = view_.dial_eligible();
  for (VertexId s : seeds) {
    touch(s);
    dist_[s] = 0.0;
  }
  if (last_used_dial_) {
    run_dial(seeds, edge_allowed, edge_mask, targets_remaining);
    NFVM_COUNTER_INC("graph.dijkstra.dial_runs");
  } else {
    run_heap(seeds, edge_allowed, edge_mask, targets_remaining);
  }
  NFVM_COUNTER_INC("graph.dijkstra.runs");
}

void SpEngine::run_heap(std::span<const VertexId> seeds,
                        const std::function<bool(EdgeId)>* edge_allowed,
                        const std::uint8_t* edge_mask,
                        std::size_t targets_remaining) {
  NFVM_OBS_ONLY(std::uint64_t edges_scanned = 0; std::uint64_t edges_relaxed = 0;)
  for (VertexId s : seeds) heap_push(HeapItem{0.0, s});

  while (!heap_.empty()) {
    const HeapItem top = heap_pop();
    const VertexId u = top.vertex;
    if (top.dist > dist_[u]) continue;  // stale entry
    if (targets_remaining > 0 && target_stamp_[u] == target_generation_) {
      target_stamp_[u] = 0;  // settled: count each distinct target once
      last_settled_target_ = u;
      if (--targets_remaining == 0) break;
    }
    for (const CsrEntry& entry : view_.out(u)) {
      if (edge_allowed != nullptr && !(*edge_allowed)(entry.edge)) continue;
      if (edge_mask != nullptr && edge_mask[entry.edge] == 0) continue;
      NFVM_OBS_ONLY(++edges_scanned;)
      const double nd = top.dist + entry.weight;
      touch(entry.neighbor);
      if (nd < dist_[entry.neighbor]) {
        NFVM_OBS_ONLY(++edges_relaxed;)
        dist_[entry.neighbor] = nd;
        parent_[entry.neighbor] = u;
        parent_edge_[entry.neighbor] = entry.edge;
        heap_push(HeapItem{nd, entry.neighbor});
      }
    }
  }
  NFVM_COUNTER_ADD("graph.dijkstra.edges_scanned", edges_scanned);
  NFVM_COUNTER_ADD("graph.dijkstra.edges_relaxed", edges_relaxed);
}

// Bucket-queue (Dial) loop. Precondition (checked by the CSR weight
// inspection): every edge weight is an integer in [1, kMaxDialWeight].
// Invariant: while draining distance d, every live entry lies in
// [d, d + ring - 1], and bucket d % ring holds only entries whose stored
// distance is exactly d — a push during the drain of d' targets
// nd in [d' + 1, d' + ring - 1], which never wraps onto a still-undrained
// smaller distance. Draining each bucket in ascending vertex-id order
// therefore settles vertices in exactly the heap's (distance, id) order.
void SpEngine::run_dial(std::span<const VertexId> seeds,
                        const std::function<bool(EdgeId)>* edge_allowed,
                        const std::uint8_t* edge_mask,
                        std::size_t targets_remaining) {
  NFVM_OBS_ONLY(std::uint64_t edges_scanned = 0; std::uint64_t edges_relaxed = 0;)
  const std::size_t ring = static_cast<std::size_t>(view_.max_integer_weight()) + 1;
  if (buckets_.size() < ring) {
    buckets_.resize(ring);
    bucket_stamp_.resize(ring, 0);
  }
  const auto bucket_at = [&](std::size_t slot) -> std::vector<VertexId>& {
    std::vector<VertexId>& bucket = buckets_[slot];
    if (bucket_stamp_[slot] != generation_) {  // stale from an earlier query
      bucket.clear();
      bucket_stamp_[slot] = generation_;
    }
    return bucket;
  };

  std::size_t pending = seeds.size();
  {
    std::vector<VertexId>& zero = bucket_at(0);
    zero.insert(zero.end(), seeds.begin(), seeds.end());
  }

  std::uint64_t d = 0;
  while (pending > 0) {
    const std::size_t slot = static_cast<std::size_t>(d % ring);
    std::vector<VertexId>& bucket = bucket_at(slot);
    if (bucket.empty()) {
      ++d;
      continue;
    }
    // Stage and sort: every entry here has stored distance exactly d, so
    // ascending id is the heap's tie-break. Entries whose dist_ no longer
    // equals d were improved before being drained — stale, skip.
    bucket_scratch_.assign(bucket.begin(), bucket.end());
    bucket.clear();
    pending -= bucket_scratch_.size();
    std::sort(bucket_scratch_.begin(), bucket_scratch_.end());
    const double dd = static_cast<double>(d);
    for (VertexId u : bucket_scratch_) {
      if (dist_[u] != dd) continue;  // stale entry
      if (targets_remaining > 0 && target_stamp_[u] == target_generation_) {
        target_stamp_[u] = 0;
        last_settled_target_ = u;
        if (--targets_remaining == 0) {
          // Leftover ring entries are abandoned; their stamps go stale at
          // the next generation bump, so no cleanup sweep is needed.
          NFVM_COUNTER_ADD("graph.dijkstra.edges_scanned", edges_scanned);
          NFVM_COUNTER_ADD("graph.dijkstra.edges_relaxed", edges_relaxed);
          return;
        }
      }
      for (const CsrEntry& entry : view_.out(u)) {
        if (edge_allowed != nullptr && !(*edge_allowed)(entry.edge)) continue;
        if (edge_mask != nullptr && edge_mask[entry.edge] == 0) continue;
        NFVM_OBS_ONLY(++edges_scanned;)
        const double nd = dd + entry.weight;
        touch(entry.neighbor);
        if (nd < dist_[entry.neighbor]) {
          NFVM_OBS_ONLY(++edges_relaxed;)
          dist_[entry.neighbor] = nd;
          parent_[entry.neighbor] = u;
          parent_edge_[entry.neighbor] = entry.edge;
          bucket_at(static_cast<std::size_t>(static_cast<std::uint64_t>(nd) % ring))
              .push_back(entry.neighbor);
          ++pending;
        }
      }
    }
    ++d;
  }
  NFVM_COUNTER_ADD("graph.dijkstra.edges_scanned", edges_scanned);
  NFVM_COUNTER_ADD("graph.dijkstra.edges_relaxed", edges_relaxed);
}

ShortestPaths SpEngine::materialize(VertexId source) const {
  ShortestPaths sp;
  sp.source = source;
  const std::size_t n = view_.num_vertices();
  sp.dist.assign(n, kInfiniteDistance);
  sp.parent.assign(n, kInvalidVertex);
  sp.parent_edge.assign(n, kInvalidEdge);
  for (VertexId v : reached_) {
    sp.dist[v] = dist_[v];
    sp.parent[v] = parent_[v];
    sp.parent_edge[v] = parent_edge_[v];
  }
  return sp;
}

ShortestPaths SpEngine::shortest_paths(const Graph& g, VertexId source) {
  if (!g.has_vertex(source)) {
    throw std::out_of_range("dijkstra: invalid source vertex");
  }
  prepare(g);
  run({&source, 1}, nullptr, nullptr, 0);
  return materialize(source);
}

ShortestPaths SpEngine::shortest_paths_filtered(
    const Graph& g, VertexId source,
    const std::function<bool(EdgeId)>& edge_allowed) {
  if (!g.has_vertex(source)) {
    throw std::out_of_range("dijkstra: invalid source vertex");
  }
  prepare(g);
  run({&source, 1}, &edge_allowed, nullptr, 0);
  return materialize(source);
}

ShortestPaths SpEngine::shortest_paths_masked(
    const Graph& g, VertexId source, std::span<const std::uint8_t> edge_mask) {
  if (!g.has_vertex(source)) {
    throw std::out_of_range("dijkstra: invalid source vertex");
  }
  if (!edge_mask.empty() && edge_mask.size() < g.num_edges()) {
    throw std::invalid_argument("dijkstra: edge mask smaller than edge count");
  }
  prepare(g);
  run({&source, 1}, nullptr, edge_mask.empty() ? nullptr : edge_mask.data(), 0);
  return materialize(source);
}

std::vector<ShortestPaths> SpEngine::batch_shortest_paths(
    const Graph& g, std::span<const VertexId> sources,
    std::span<const std::uint8_t> edge_mask) {
  for (VertexId s : sources) {
    if (!g.has_vertex(s)) {
      throw std::out_of_range("dijkstra: invalid source vertex");
    }
  }
  if (!edge_mask.empty() && edge_mask.size() < g.num_edges()) {
    throw std::invalid_argument("dijkstra: edge mask smaller than edge count");
  }
  const std::uint8_t* mask = edge_mask.empty() ? nullptr : edge_mask.data();
  std::vector<ShortestPaths> out;
  out.reserve(sources.size());
  for (VertexId s : sources) {
    // prepare() after the first source is two loads (view match) plus a
    // generation bump — the workspace "clear" is the stamp, not an O(n)
    // fill, so the whole batch reuses one set of buffers.
    prepare(g);
    run({&s, 1}, nullptr, mask, 0);
    out.push_back(materialize(s));
  }
  return out;
}

double SpEngine::shortest_distance(const Graph& g, VertexId from, VertexId to) {
  if (!g.has_vertex(from)) {
    throw std::out_of_range("shortest_distance: invalid source");
  }
  if (!g.has_vertex(to)) {
    throw std::out_of_range("shortest_distance: invalid target");
  }
  NFVM_COUNTER_INC("graph.sp_engine.early_exit_queries");
  prepare(g);
  stamp_targets({&to, 1});
  run({&from, 1}, nullptr, nullptr, 1);
  clear_targets({&to, 1});
  return stamp_[to] == generation_ ? dist_[to] : kInfiniteDistance;
}

std::vector<double> SpEngine::distances_to(const Graph& g, VertexId from,
                                           std::span<const VertexId> targets) {
  if (!g.has_vertex(from)) {
    throw std::out_of_range("distances_to: invalid source");
  }
  for (VertexId t : targets) {
    if (!g.has_vertex(t)) throw std::out_of_range("distances_to: invalid target");
  }
  NFVM_COUNTER_INC("graph.sp_engine.early_exit_queries");
  prepare(g);
  run({&from, 1}, nullptr, nullptr, stamp_targets(targets));
  clear_targets(targets);
  std::vector<double> out;
  out.reserve(targets.size());
  for (VertexId t : targets) {
    out.push_back(stamp_[t] == generation_ ? dist_[t] : kInfiniteDistance);
  }
  return out;
}

ShortestPaths SpEngine::shortest_paths_to(const Graph& g, VertexId source,
                                          std::span<const VertexId> targets,
                                          std::span<const std::uint8_t> edge_mask) {
  if (!g.has_vertex(source)) {
    throw std::out_of_range("dijkstra: invalid source vertex");
  }
  for (VertexId t : targets) {
    if (!g.has_vertex(t)) throw std::out_of_range("dijkstra: invalid target vertex");
  }
  if (!edge_mask.empty() && edge_mask.size() < g.num_edges()) {
    throw std::invalid_argument("dijkstra: edge mask smaller than edge count");
  }
  NFVM_COUNTER_INC("graph.sp_engine.early_exit_queries");
  prepare(g);
  run({&source, 1}, nullptr, edge_mask.empty() ? nullptr : edge_mask.data(),
      stamp_targets(targets));
  clear_targets(targets);
  return materialize(source);
}

VertexId SpEngine::grow_step(const Graph& g,
                             std::span<const VertexId> tree_vertices,
                             std::span<const VertexId> targets) {
  prepare(g);
  const std::size_t distinct = stamp_targets(targets);
  // Stop at the FIRST settled target — pending terminals race, closest wins.
  run(tree_vertices, nullptr, nullptr, distinct > 0 ? 1 : 0);
  clear_targets(targets);
  return last_settled_target_;
}

// --- Tree repair ----------------------------------------------------------------

namespace {

/// Above this share of the reached vertices re-settled, a repair costs about
/// what a fresh run does plus its own bookkeeping, so it gives up.
constexpr double kRepairMaxFraction = 0.5;

/// repair_mark_ bits.
constexpr std::uint8_t kMarkDecided = 1;  // subtree walk has classified v
constexpr std::uint8_t kMarkReset = 2;    // v lies under a risen tree edge
constexpr std::uint8_t kMarkRederive = 4;  // v is queued for parent re-derivation

bool edge_allowed_by(const std::uint8_t* mask, EdgeId e) noexcept {
  return mask == nullptr || mask[e] != 0;
}

/// (dist[u], u, e) lexicographic: the order in which a run settled in
/// (distance, id) order first relaxes v through u over edge e (parallel
/// edges sit in adjacency order, which is ascending edge id).
bool relaxes_first(double du, VertexId u, EdgeId e, double dp, VertexId p,
                   EdgeId pe) noexcept {
  if (du != dp) return du < dp;
  if (u != p) return u < p;
  return e < pe;
}

/// The largest finite distance (0 when only the source is reached).
double max_finite(std::span<const double> dist) noexcept {
  double max_dist = 0.0;
  for (double d : dist) {
    if (d < kInfiniteDistance && d > max_dist) max_dist = d;
  }
  return max_dist;
}

}  // namespace

bool SpEngine::steps_grow(double max_dist) const noexcept {
  const double w = view_.min_weight();
  const double ulp =
      std::nextafter(max_dist, std::numeric_limits<double>::infinity()) - max_dist;
  return w > 0.0 && w > 0.5 * ulp;
}

bool SpEngine::dist_id_ordered(const Graph& g, const ShortestPaths& tree) {
  view_.refresh(g);
  return steps_grow(max_finite(tree.dist));
}

void SpEngine::note_moved(VertexId v, double old_dist) {
  if (stamp_[v] == generation_) return;
  stamp_[v] = generation_;
  dist_[v] = old_dist;
  reached_.push_back(v);
}

void SpEngine::check_repair_args(const Graph& g, const ShortestPaths& tree,
                                 std::span<const EdgeId> changed,
                                 std::span<const std::uint8_t> edge_mask) const {
  if (!g.has_vertex(tree.source)) {
    throw std::out_of_range("dijkstra: invalid source vertex");
  }
  if (tree.dist.size() != g.num_vertices() || tree.parent.size() != g.num_vertices() ||
      tree.parent_edge.size() != g.num_vertices()) {
    throw std::invalid_argument("repair: tree vertex count differs from the graph");
  }
  if (!edge_mask.empty() && edge_mask.size() < g.num_edges()) {
    throw std::invalid_argument("dijkstra: edge mask smaller than edge count");
  }
  for (EdgeId e : changed) {
    if (!g.has_edge(e)) throw std::out_of_range("repair: invalid changed edge");
  }
}

std::size_t SpEngine::affecting_edges(const Graph& g, const ShortestPaths& tree,
                                     bool ordered, std::span<const EdgeId> changed,
                                     std::span<const std::uint8_t> edge_mask,
                                     std::size_t stop_at) const {
  check_repair_args(g, tree, changed, edge_mask);
  const std::uint8_t* mask = edge_mask.empty() ? nullptr : edge_mask.data();
  const std::span<const Edge> edges = g.edges();
  std::size_t count = 0;
  for (EdgeId e : changed) {
    if (count == stop_at) break;
    const Edge& ed = edges[e];
    if (ed.u == ed.v) continue;  // a self-loop never relaxes anything
    const bool allowed = edge_allowed_by(mask, e);
    for (const auto& [x, y] : {std::pair{ed.u, ed.v}, std::pair{ed.v, ed.u}}) {
      if (y == tree.source) continue;
      const double dx = tree.dist[x];
      const double step = allowed && dx < kInfiniteDistance ? dx + ed.weight
                                                            : kInfiniteDistance;
      const double dy = tree.dist[y];
      bool affects = false;
      if (tree.parent_edge[y] == e) {
        affects = !ordered || step != dy;
      } else if (step < dy) {
        affects = true;
      } else if (step == dy && step < kInfiniteDistance) {
        const VertexId p = tree.parent[y];
        affects = !ordered ||
                  relaxes_first(dx, x, e, tree.dist[p], p, tree.parent_edge[y]);
      }
      if (affects) {
        ++count;
        break;
      }
    }
  }
  return count;
}

SpEngine::Repair SpEngine::repair_shortest_paths(const Graph& g,
                                                 const ShortestPaths& tree, bool ordered,
                                                 std::span<const EdgeId> changed,
                                                 std::span<const std::uint8_t> edge_mask,
                                                 ShortestPaths& out) {
  NFVM_SPAN("graph/sp_repair");
  // Screen: the tree is already exact unless some changed edge affects it.
  const bool affected = affecting_edges(g, tree, ordered, changed, edge_mask, 1) > 0;
  const std::uint8_t* mask = edge_mask.empty() ? nullptr : edge_mask.data();
  view_.refresh(g);
  if (!affected && (!ordered || steps_grow(max_finite(tree.dist)))) {
    return Repair::kUnchanged;
  }
  if (affected && ordered) {
    const auto reached = static_cast<double>(std::count_if(
        tree.dist.begin(), tree.dist.end(),
        [](double d) { return d < kInfiniteDistance; }));
    const auto limit = static_cast<std::size_t>(kRepairMaxFraction * reached);
    if (repair_into(g, tree, changed, mask, limit, out) &&
        steps_grow(max_finite(out.dist))) {
      return Repair::kRepaired;
    }
  }
  out = shortest_paths_masked(g, tree.source, edge_mask);
  return Repair::kRecomputed;
}

bool SpEngine::repair_into(const Graph& g, const ShortestPaths& tree,
                           std::span<const EdgeId> changed, const std::uint8_t* mask,
                           std::size_t limit, ShortestPaths& out) {
  prepare(g);  // fresh stamps: stamp_[v] == generation_ marks a moved vertex
  const std::size_t n = tree.dist.size();
  if (repair_mark_.size() < n) repair_mark_.resize(n, 0);
  NFVM_OBS_ONLY(std::uint64_t edges_scanned = 0;)
  bool ok = true;

  // 1. Risen steps: the heads of tree edges whose step no longer reaches
  //    them (weight up, or masked out) root the subtrees to reset.
  bool any_reset = false;
  for (EdgeId e : changed) {
    const Edge& ed = g.edge(e);
    if (ed.u == ed.v) continue;
    for (VertexId c : {ed.u, ed.v}) {
      if (tree.parent_edge[c] != e) continue;
      const VertexId p = tree.parent[c];
      if (!edge_allowed_by(mask, e) || tree.dist[p] + ed.weight > tree.dist[c]) {
        repair_mark_[c] = kMarkDecided | kMarkReset;
        any_reset = true;
      }
    }
  }
  std::vector<VertexId>& reset = repair_list_;
  reset.clear();
  if (any_reset) {
    // Classify every reached vertex by walking up to a classified ancestor.
    repair_mark_[tree.source] = kMarkDecided;
    for (VertexId v = 0; v < n; ++v) {
      if (tree.dist[v] == kInfiniteDistance) continue;
      VertexId x = v;
      while ((repair_mark_[x] & kMarkDecided) == 0) x = tree.parent[x];
      const std::uint8_t mark = repair_mark_[x];
      for (VertexId y = v; (repair_mark_[y] & kMarkDecided) == 0; y = tree.parent[y]) {
        repair_mark_[y] = mark;
      }
    }
    for (VertexId v = 0; v < n; ++v) {
      if ((repair_mark_[v] & kMarkReset) != 0) reset.push_back(v);
    }
    ok = reset.size() <= limit;
  }
  std::vector<double>& dist = out.dist;
  const auto moved = [&](VertexId v) { return stamp_[v] == generation_; };
  // Offers v the step nd from u over e: a strict improvement re-labels and
  // queues v; a tie on a moved vertex keeps the first relaxer by
  // (dist[u], u, e). Every candidate of a moved vertex passes through here
  // with its final distance (moved vertices relax when popped, unmoved
  // ones only tie with a reset vertex's seed or across a changed edge), so
  // moved vertices need no parent re-derivation.
  const auto offer = [&](VertexId v, VertexId u, EdgeId e, double nd) {
    if (nd < dist[v]) {
      note_moved(v, dist[v]);
      dist[v] = nd;
      out.parent[v] = u;
      out.parent_edge[v] = e;
      heap_push(HeapItem{nd, v});
    } else if (nd == dist[v] && nd < kInfiniteDistance && moved(v)) {
      const VertexId p = out.parent[v];
      if (relaxes_first(dist[u], u, e, dist[p], p, out.parent_edge[v])) {
        out.parent[v] = u;
        out.parent_edge[v] = e;
      }
    }
  };
  if (ok) {
    out = tree;
    for (VertexId v : reset) {
      note_moved(v, dist[v]);
      dist[v] = kInfiniteDistance;
      out.parent[v] = kInvalidVertex;
      out.parent_edge[v] = kInvalidEdge;
    }
    // Seed each reset vertex from its neighbours outside the reset set.
    for (VertexId v : reset) {
      for (const CsrEntry& entry : view_.out(v)) {
        const VertexId u = entry.neighbor;
        if (!edge_allowed_by(mask, entry.edge) || (repair_mark_[u] & kMarkReset) != 0) {
          continue;
        }
        NFVM_OBS_ONLY(++edges_scanned;)
        const double nd = dist[u] + entry.weight;
        if (nd < dist[v] ||
            (nd == dist[v] && nd < kInfiniteDistance &&
             relaxes_first(dist[u], u, entry.edge, dist[out.parent[v]], out.parent[v],
                           out.parent_edge[v]))) {
          dist[v] = nd;
          out.parent[v] = u;
          out.parent_edge[v] = entry.edge;
        }
      }
      if (dist[v] < kInfiniteDistance) heap_push(HeapItem{dist[v], v});
    }

    // 2. Fallen steps: relax across every changed edge, both ways.
    for (EdgeId e : changed) {
      const Edge& ed = g.edge(e);
      if (ed.u == ed.v || !edge_allowed_by(mask, e)) continue;
      for (const auto& [x, y] : {std::pair{ed.u, ed.v}, std::pair{ed.v, ed.u}}) {
        offer(y, x, e, dist[x] + ed.weight);
      }
    }

    // 3. Dijkstra from everything seeded above, over the new weights.
    while (!heap_.empty() && reached_.size() <= limit) {
      const HeapItem top = heap_pop();
      const VertexId u = top.vertex;
      if (top.dist > dist[u]) continue;  // stale entry
      for (const CsrEntry& entry : view_.out(u)) {
        if (!edge_allowed_by(mask, entry.edge)) continue;
        NFVM_OBS_ONLY(++edges_scanned;)
        offer(entry.neighbor, u, entry.edge, top.dist + entry.weight);
      }
    }
    ok = reached_.size() <= limit;
  }

  if (ok) {
    // 4. Parents of unmoved vertices whose candidates changed: neighbours
    //    of a vertex whose distance changed that had it as parent or now
    //    have it as a candidate (no other neighbour's candidate set moved),
    //    and both ends of every changed edge.
    std::vector<VertexId>& rederive = repair_list_;
    rederive.clear();
    const auto queue = [&](VertexId v) {
      if (moved(v) || (repair_mark_[v] & kMarkRederive) != 0) return;
      repair_mark_[v] |= kMarkRederive;
      rederive.push_back(v);
    };
    for (VertexId v : reached_) {
      if (dist[v] == dist_[v]) continue;
      for (const CsrEntry& entry : view_.out(v)) {
        const VertexId y = entry.neighbor;
        if (out.parent[y] == v ||
            (edge_allowed_by(mask, entry.edge) && dist[v] + entry.weight == dist[y])) {
          queue(y);
        }
      }
    }
    for (EdgeId e : changed) {
      queue(g.edge(e).u);
      queue(g.edge(e).v);
    }
    for (VertexId v : rederive) {
      if (v == out.source || dist[v] == kInfiniteDistance) continue;
      VertexId best = kInvalidVertex;
      EdgeId best_edge = kInvalidEdge;
      for (const CsrEntry& entry : view_.out(v)) {
        const VertexId u = entry.neighbor;
        if (u == v || !edge_allowed_by(mask, entry.edge)) continue;
        NFVM_OBS_ONLY(++edges_scanned;)
        if (dist[u] + entry.weight != dist[v]) continue;
        if (best == kInvalidVertex ||
            relaxes_first(dist[u], u, entry.edge, dist[best], best, best_edge)) {
          best = u;
          best_edge = entry.edge;
        }
      }
      out.parent[v] = best;
      out.parent_edge[v] = best_edge;
    }
  }

  std::fill(repair_mark_.begin(), repair_mark_.begin() + static_cast<std::ptrdiff_t>(n),
            std::uint8_t{0});
  heap_.clear();
  NFVM_COUNTER_ADD("graph.dijkstra.edges_scanned", edges_scanned);
  NFVM_COUNTER_ADD("graph.sp_repair.vertices_resettled", reached_.size());
  return ok;
}

SpEngine& SpEngine::thread_local_engine() {
  thread_local SpEngine engine;
  return engine;
}

std::vector<ShortestPaths> batch_dijkstra(const Graph& g,
                                          std::span<const VertexId> sources,
                                          std::span<const std::uint8_t> edge_mask) {
  util::ThreadPool& pool = util::ThreadPool::global();
  const std::size_t chunks = std::min(sources.size(), pool.num_threads());
  if (chunks <= 1) {
    return SpEngine::thread_local_engine().batch_shortest_paths(g, sources,
                                                                edge_mask);
  }
  // Contiguous chunks, one batched engine invocation per chunk. Slot i
  // depends only on sources[i], never on the chunking, so the merged result
  // is byte-identical to the single-threaded batch.
  std::vector<ShortestPaths> out(sources.size());
  pool.parallel_for(chunks, [&](std::size_t c) {
    const std::size_t begin = sources.size() * c / chunks;
    const std::size_t end = sources.size() * (c + 1) / chunks;
    std::vector<ShortestPaths> part =
        SpEngine::thread_local_engine().batch_shortest_paths(
            g, sources.subspan(begin, end - begin), edge_mask);
    for (std::size_t i = 0; i < part.size(); ++i) {
      out[begin + i] = std::move(part[i]);
    }
  });
  return out;
}

// --- SpCache ----------------------------------------------------------------

SpCache::SpCache(std::size_t capacity) : capacity_(capacity) {}

void SpCache::sync(const Graph& g) {
  if (bound_ && uid_ == g.uid() && epoch_ == g.epoch()) return;
  if (bound_ && !lru_.empty()) NFVM_COUNTER_INC("graph.spcache.invalidations");
  lru_.clear();
  index_.clear();
  uid_ = g.uid();
  epoch_ = g.epoch();
  bound_ = true;
}

std::shared_ptr<const ShortestPaths> SpCache::paths_from(const Graph& g,
                                                         VertexId source) {
  if (auto cached = try_get(g, source)) return cached;
  auto paths =
      std::make_shared<const ShortestPaths>(engine_.shortest_paths(g, source));
  put(g, source, paths);
  return paths;
}

std::shared_ptr<const ShortestPaths> SpCache::try_get(const Graph& g,
                                                      VertexId source) {
  sync(g);
  const auto it = index_.find(source);
  if (it == index_.end()) {
    NFVM_COUNTER_INC("graph.spcache.misses");
    return nullptr;
  }
  NFVM_COUNTER_INC("graph.spcache.hits");
  lru_.splice(lru_.begin(), lru_, it->second);  // promote to front
  return it->second->second;
}

void SpCache::put(const Graph& g, VertexId source,
                  std::shared_ptr<const ShortestPaths> paths) {
  sync(g);
  const auto it = index_.find(source);
  if (it != index_.end()) {
    it->second->second = std::move(paths);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(source, std::move(paths));
  index_[source] = lru_.begin();
  if (capacity_ > 0 && lru_.size() > capacity_) {
    NFVM_COUNTER_INC("graph.spcache.evictions");
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

void SpCache::clear() {
  lru_.clear();
  index_.clear();
  bound_ = false;
}

}  // namespace nfvm::graph
