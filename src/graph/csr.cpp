#include "graph/csr.h"

#include <limits>

#include "obs/metrics.h"

namespace nfvm::graph {

void CsrView::rebuild(const Graph& g) {
  NFVM_COUNTER_INC("graph.csr.rebuilds");
  const std::size_t n = g.num_vertices();
  const std::span<const Edge> edges = g.edges();

  offsets_.assign(n + 1, 0);
  std::size_t total = 0;
  for (VertexId v = 0; v < n; ++v) total += g.neighbors(v).size();
  entries_.clear();
  entries_.reserve(total);

  dial_eligible_ = true;
  max_int_weight_ = 1;
  min_weight_ = std::numeric_limits<double>::infinity();
  for (VertexId v = 0; v < n; ++v) {
    offsets_[v] = entries_.size();
    for (const Adjacency& adj : g.neighbors(v)) {
      const double w = edges[adj.edge].weight;
      entries_.push_back(CsrEntry{adj.neighbor, adj.edge, w});
      if (w < min_weight_) min_weight_ = w;
      if (dial_eligible_) {
        if (w < 1.0 || w > kMaxDialWeight || w != static_cast<double>(static_cast<std::uint32_t>(w))) {
          dial_eligible_ = false;
        } else if (static_cast<std::uint32_t>(w) > max_int_weight_) {
          max_int_weight_ = static_cast<std::uint32_t>(w);
        }
      }
    }
  }
  offsets_[n] = entries_.size();
  if (!dial_eligible_) max_int_weight_ = 0;

  uid_ = g.uid();
  epoch_ = g.epoch();
  built_ = true;
}

}  // namespace nfvm::graph
