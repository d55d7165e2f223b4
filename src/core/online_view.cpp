#include "core/online_view.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace nfvm::core {

OnlineWeightedView::OnlineWeightedView(const topo::Topology& topo,
                                       EdgeWeightFn edge_weight)
    : topo_(&topo),
      edge_weight_(std::move(edge_weight)),
      view_(topo.graph.num_vertices()) {
  for (graph::EdgeId e = 0; e < topo_->graph.num_edges(); ++e) {
    const graph::Edge& ed = topo_->graph.edge(e);
    view_.add_edge(ed.u, ed.v, edge_weight_(e));
  }
  update_min_weight();
  NFVM_COUNTER_INC("core.online.view_rebuilds");
}

void OnlineWeightedView::rebuild() {
  NFVM_SPAN("online/view_rebuild");
  for (graph::EdgeId e = 0; e < view_.num_edges(); ++e) {
    const double w = edge_weight_(e);
    if (view_.weight(e) != w) view_.set_weight(e, w);
  }
  update_min_weight();
  lru_.clear();
  index_.clear();
  change_log_.clear();
  log_begin_ = log_end_;
  NFVM_COUNTER_INC("core.online.view_rebuilds");
}

void OnlineWeightedView::patch(const nfv::Footprint& footprint) {
  std::size_t changed = 0;
  for (const auto& [e, amount] : footprint.bandwidth) {
    const double w = edge_weight_(e);
    if (view_.weight(e) != w) {
      view_.set_weight(e, w);
      change_log_.push_back(e);
      ++changed;
    }
  }
  log_end_ += changed;
  const std::size_t keep = view_.num_edges();
  if (change_log_.size() > 2 * keep) {
    const std::size_t drop = change_log_.size() - keep;
    change_log_.erase(change_log_.begin(),
                      change_log_.begin() + static_cast<std::ptrdiff_t>(drop));
    log_begin_ += drop;
  }
  if (changed > 0) update_min_weight();
  ++patches_applied_;
  NFVM_COUNTER_INC("core.online.view_patches");
}

void OnlineWeightedView::build_eligibility_mask(const nfv::ResourceState& state,
                                                double b) {
  const std::size_t m = topo_->graph.num_edges();
  mask_.resize(m);
  mask_bits_.assign((m + 63) / 64, 0);
  for (graph::EdgeId e = 0; e < m; ++e) {
    const bool eligible = nfv::edge_eligible(state, topo_->graph, e, b);
    mask_[e] = eligible ? 1 : 0;
    if (eligible) mask_bits_[e / 64] |= std::uint64_t{1} << (e % 64);
  }
}

void OnlineWeightedView::update_min_weight() noexcept {
  min_weight_ = std::numeric_limits<double>::infinity();
  for (const graph::Edge& ed : view_.edges()) min_weight_ = std::min(min_weight_, ed.weight);
}

bool OnlineWeightedView::changed_since(const CachedTree& cached, std::size_t max_logged,
                                       std::vector<graph::EdgeId>& changed) const {
  if (cached.version < log_begin_ || log_end_ - cached.version > max_logged) return false;
  thread_local std::vector<std::uint64_t> moved;
  moved.resize(mask_bits_.size());
  for (std::size_t word = 0; word < moved.size(); ++word) {
    moved[word] = cached.mask_bits[word] ^ mask_bits_[word];
  }
  for (auto i = static_cast<std::size_t>(cached.version - log_begin_);
       i < change_log_.size(); ++i) {
    const graph::EdgeId e = change_log_[i];
    moved[e / 64] |= std::uint64_t{1} << (e % 64);
  }
  changed.clear();
  for (std::size_t word = 0; word < moved.size(); ++word) {
    // An edge masked out both then and now never entered either run.
    std::uint64_t bits = moved[word] & (cached.mask_bits[word] | mask_bits_[word]);
    for (; bits != 0; bits &= bits - 1) {
      changed.push_back(static_cast<graph::EdgeId>(word * 64 + std::countr_zero(bits)));
    }
  }
  return true;
}

OnlineWeightedView::ServedTree OnlineWeightedView::tree_from(
    graph::VertexId source, std::span<const graph::VertexId> row_targets) const {
  graph::SpEngine& engine = graph::SpEngine::thread_local_engine();
  const auto fresh = [&](bool cache) {
    auto tree = std::make_shared<const graph::ShortestPaths>(
        engine.shortest_paths_masked(view_, source, mask_));
    const bool ordered = engine.dist_id_ordered(view_, *tree);
    return ServedTree{std::move(tree), ordered, cache};
  };
  const auto row = [&] {
    return ServedTree{std::make_shared<const graph::ShortestPaths>(
                          engine.shortest_paths_to(view_, source, row_targets, mask_)),
                      false, false};
  };
  const bool is_row = !row_targets.empty();
  const auto it = index_.find(source);
  if (it == index_.end()) {
    NFVM_COUNTER_INC("graph.spcache.misses");
    // No tree is repairable while some weight is zero: don't pay a full
    // tree for a row then.
    return is_row && !repairable() ? row() : fresh(true);
  }
  const CachedTree& cached = *it->second;
  // A repair's work grows with the changed edges that affect the tree:
  // beyond the limit (never below one edge) a fresh tree, or for a row the
  // early-exit run, is cheaper. A tree with more than four times that many
  // weight changes logged since it was cached is not even diffed: that
  // many changes leave too many affecting edges. With a zero weight about,
  // a row would not be repairable either.
  const auto limit = static_cast<std::size_t>(std::max(
      1.0, kRepairMaxAffecting * static_cast<double>(view_.num_vertices())));
  thread_local std::vector<graph::EdgeId> changed;
  const bool known = changed_since(cached, 4 * limit, changed);
  if (known && changed.empty()) {
    NFVM_COUNTER_INC("graph.spcache.hits");
    return ServedTree{cached.tree, cached.ordered, true};
  }
  if (!known || (is_row && !repairable()) ||
      (changed.size() > limit &&
       engine.affecting_edges(view_, *cached.tree, cached.ordered, changed, mask_,
                              limit + 1) > limit)) {
    NFVM_COUNTER_INC("graph.spcache.misses");
    NFVM_COUNTER_INC("graph.spcache.repair_fallbacks");
    return is_row ? row() : fresh(false);
  }
  graph::ShortestPaths out;
  switch (engine.repair_shortest_paths(view_, *cached.tree, cached.ordered, changed,
                                       mask_, out)) {
    case graph::SpEngine::Repair::kUnchanged:
      NFVM_COUNTER_INC("graph.spcache.hits");
      NFVM_COUNTER_INC("graph.spcache.repairs");
      return ServedTree{cached.tree, cached.ordered, true};
    case graph::SpEngine::Repair::kRepaired:
      NFVM_COUNTER_INC("graph.spcache.hits");
      NFVM_COUNTER_INC("graph.spcache.repairs");
      return ServedTree{std::make_shared<const graph::ShortestPaths>(std::move(out)),
                        true, true};
    case graph::SpEngine::Repair::kRecomputed:
      break;
  }
  NFVM_COUNTER_INC("graph.spcache.misses");
  NFVM_COUNTER_INC("graph.spcache.repair_fallbacks");
  return ServedTree{std::make_shared<const graph::ShortestPaths>(std::move(out)), false,
                    false};
}

void OnlineWeightedView::commit(graph::VertexId source, ServedTree served) {
  const auto it = index_.find(source);
  if (!served.cache) {
    if (it != index_.end()) {
      lru_.erase(it->second);
      index_.erase(it);
    }
    return;
  }
  if (it != index_.end()) {
    CachedTree& cached = *it->second;
    cached.tree = std::move(served.tree);
    cached.version = log_end_;
    cached.mask_bits = mask_bits_;
    cached.ordered = served.ordered;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(
      CachedTree{source, std::move(served.tree), log_end_, mask_bits_, served.ordered});
  index_[source] = lru_.begin();
  if (lru_.size() > graph::kDefaultSpCacheCapacity) {
    NFVM_COUNTER_INC("graph.spcache.evictions");
    index_.erase(lru_.back().source);
    lru_.pop_back();
  }
}

std::vector<std::shared_ptr<const graph::ShortestPaths>>
OnlineWeightedView::trees_for(const nfv::ResourceState& state,
                              std::span<const graph::VertexId> sources,
                              double b) {
  NFVM_SPAN("online/view_trees");
  std::vector<std::shared_ptr<const graph::ShortestPaths>> trees(sources.size());
  // distinct: the first slot of each source. Only those are looked up or
  // computed; repeated slots copy that slot's tree at the end. Source lists
  // are short (Online_CP asks for its terminals, Online_SP adds the
  // eligible servers), so a linear scan suffices.
  std::vector<std::size_t> distinct;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (std::find(sources.begin(), sources.begin() + i, sources[i]) ==
        sources.begin() + i) {
      distinct.push_back(i);
    }
  }
  build_eligibility_mask(state, b);
  std::vector<ServedTree> served(distinct.size());
  util::ThreadPool::global().parallel_for(distinct.size(), [&](std::size_t j) {
    served[j] = tree_from(sources[distinct[j]]);
  });
  // Commit in `sources` order so cache state is thread-count independent.
  for (std::size_t j = 0; j < distinct.size(); ++j) {
    trees[distinct[j]] = served[j].tree;
    commit(sources[distinct[j]], std::move(served[j]));
  }
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const auto first = static_cast<std::size_t>(
        std::find(sources.begin(), sources.end(), sources[i]) - sources.begin());
    trees[i] = trees[first];
  }
  return trees;
}

}  // namespace nfvm::core
