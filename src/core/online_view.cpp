#include "core/online_view.h"

#include <algorithm>
#include <utility>

#include "graph/dijkstra.h"
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
  ++era_;
  NFVM_COUNTER_INC("core.online.view_rebuilds");
}

void OnlineWeightedView::rebuild() {
  NFVM_SPAN("online/view_rebuild");
  for (graph::EdgeId e = 0; e < view_.num_edges(); ++e) {
    const double w = edge_weight_(e);
    if (view_.weight(e) != w) view_.set_weight(e, w);
  }
  cache_.clear();
  built_at_b_.clear();
  ++era_;
  NFVM_COUNTER_INC("core.online.view_rebuilds");
}

void OnlineWeightedView::apply_allocate(const nfv::Footprint& footprint) {
  NFVM_SPAN("online/view_patch");
  std::vector<graph::EdgeId> changed;
  changed.reserve(footprint.bandwidth.size());
  for (const auto& [e, amount] : footprint.bandwidth) {
    const double w = edge_weight_(e);
    if (view_.weight(e) != w) {
      view_.set_weight(e, w);
      changed.push_back(e);
    }
  }
  ++patches_applied_;
  NFVM_COUNTER_INC("core.online.view_patches");
  churn_ewma_ += 0.125 * (static_cast<double>(changed.size()) - churn_ewma_);
  if (!policy_incremental()) {
    // Rebuild mode bypasses the cache entirely, so skip the rebind scan and
    // keep the cache empty — a later flip back to incremental then starts
    // cold instead of serving trees that were never maintained.
    cache_.clear();
    built_at_b_.clear();
    return;
  }
  if (changed.empty()) return;  // no weight moved: cached trees stay exact
  std::sort(changed.begin(), changed.end());
  // Eager weight-invalidation: drop exactly the trees containing a patched
  // edge. Surviving trees are weight-clean, so lookups only re-check
  // eligibility (see the era invariant in the header).
  cache_.rebind_keep(view_, [&](graph::VertexId, const graph::ShortestPaths& tree) {
    for (graph::EdgeId pe : tree.parent_edge) {
      if (pe != graph::kInvalidEdge &&
          std::binary_search(changed.begin(), changed.end(), pe)) {
        return false;
      }
    }
    return true;
  });
}

void OnlineWeightedView::apply_release(const nfv::Footprint& footprint) {
  NFVM_SPAN("online/view_release");
  for (const auto& [e, amount] : footprint.bandwidth) {
    const double w = edge_weight_(e);
    if (view_.weight(e) != w) view_.set_weight(e, w);
  }
  // Residuals grew back: previously ineligible/expensive edges may now lie
  // on shorter paths, which per-edge validation cannot detect. New era.
  cache_.clear();
  built_at_b_.clear();
  ++era_;
  NFVM_COUNTER_INC("core.online.view_rebuilds");
}

bool OnlineWeightedView::policy_incremental() const noexcept {
  if (policy_ == ViewPolicy::kForceIncremental) return true;
  if (policy_ == ViewPolicy::kForceRebuild) return false;
  const std::size_t m = view_.num_edges();
  if (m < kPolicyMinEdges) return false;
  return churn_ewma_ <= kPolicyMaxChurnFraction * static_cast<double>(m);
}

void OnlineWeightedView::build_eligibility_mask(const nfv::ResourceState& state,
                                                double b) {
  const std::size_t m = topo_->graph.num_edges();
  mask_.resize(m);
  for (graph::EdgeId e = 0; e < m; ++e) {
    mask_[e] = nfv::edge_eligible(state, topo_->graph, e, b) ? 1 : 0;
  }
}

bool OnlineWeightedView::tree_valid(const nfv::ResourceState& state,
                                    graph::VertexId source,
                                    const graph::ShortestPaths& tree,
                                    double b) const {
  const auto it = built_at_b_.find(source);
  if (it == built_at_b_.end() || b < it->second) return false;
  for (graph::EdgeId pe : tree.parent_edge) {
    if (pe != graph::kInvalidEdge &&
        !nfv::edge_eligible(state, topo_->graph, pe, b)) {
      return false;
    }
  }
  return true;
}

std::vector<std::shared_ptr<const graph::ShortestPaths>>
OnlineWeightedView::trees_for(const nfv::ResourceState& state,
                              std::span<const graph::VertexId> sources,
                              double b) {
  NFVM_SPAN("online/view_trees");
  std::vector<std::shared_ptr<const graph::ShortestPaths>> trees(sources.size());
  // first[i]: the first slot holding sources[i]. Only first occurrences are
  // looked up or computed; repeated slots copy that slot's tree at the end.
  // Source lists are short (Online_CP asks for its terminals, Online_SP adds
  // the eligible servers), so a linear scan suffices and allocates nothing.
  std::vector<std::size_t> first(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    first[i] = static_cast<std::size_t>(
        std::find(sources.begin(), sources.begin() + i, sources[i]) -
        sources.begin());
  }
  build_eligibility_mask(state, b);
  std::vector<std::size_t> missing;
  const bool incremental = policy_incremental();
  if (incremental) {
    NFVM_COUNTER_INC("core.online.view_policy_incremental");
  } else {
    // Rebuild mode: no cache probe, no validity walk — one batched masked
    // SSSP for every distinct source.
    // Bit-identical to the incremental path because a valid cached tree IS
    // a fresh filtered Dijkstra (era invariant).
    NFVM_COUNTER_INC("core.online.view_policy_rebuild");
  }
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (first[i] != i) continue;
    if (incremental) {
      auto cached = cache_.try_get(view_, sources[i]);
      if (cached && tree_valid(state, sources[i], *cached, b)) {
        trees[i] = std::move(cached);
        continue;
      }
    }
    missing.push_back(i);
  }
  if (!missing.empty()) {
    std::vector<graph::VertexId> miss_sources;
    miss_sources.reserve(missing.size());
    for (std::size_t i : missing) miss_sources.push_back(sources[i]);
    std::vector<graph::ShortestPaths> batch =
        graph::batch_dijkstra(view_, miss_sources, mask_);
    for (std::size_t j = 0; j < missing.size(); ++j) {
      trees[missing[j]] =
          std::make_shared<const graph::ShortestPaths>(std::move(batch[j]));
    }
  }
  for (std::size_t i = 0; i < sources.size(); ++i) trees[i] = trees[first[i]];
  if (!incremental) return trees;
  // Insert in `sources` order so cache state is thread-count independent.
  for (std::size_t i : missing) {
    cache_.put(view_, sources[i], trees[i]);
    built_at_b_[sources[i]] = b;
  }
  return trees;
}

}  // namespace nfvm::core
