// SP - the baseline online heuristic of the paper's evaluation (Section
// VI-A): prune links/servers without enough residual resources, give every
// remaining link the same unit weight, and for each candidate server take
// the shortest path s_k -> v plus a shortest-path tree rooted at v spanning
// the destinations; the candidate using the fewest link traversals wins.
// No admission thresholds: SP admits whenever some candidate is feasible.
//
// The scan runs against a persistent working view with one cached
// shortest-path tree per terminal (core/online_view.h); see
// docs/performance.md, "The online fast path". tests/oracle holds the
// per-request rebuild it must match.
#pragma once

#include "core/online.h"
#include "core/online_view.h"

namespace nfvm::core {

class OnlineSp final : public OnlineAlgorithm {
 public:
  explicit OnlineSp(const topo::Topology& topo);

  std::string_view name() const override { return "SP"; }

 protected:
  AdmissionDecision try_admit(const nfv::Request& request) override;
  void after_change(const nfv::Footprint& footprint) override;
  void after_restore() override;

 private:
  /// SP's working weights are the physical link weights (constant), so
  /// allocations never dirty cached trees — only releases and restores drop
  /// them.
  OnlineWeightedView view_;
};

}  // namespace nfvm::core
