// Reference implementations of the admission algorithms, kept as oracles
// for the production paths in src/core.
//
// Each one is the straightforward version the production code replaced:
//   * OnlineCpRebuild - Online_CP (Algorithm 2) that filters and reweights
//     the whole graph per request and runs one KMB per candidate server;
//   * OnlineSpRebuild - the SP baseline that filters the graph per request
//     and runs one Dijkstra per candidate server;
//   * appro_multi_sweep - Appro_Multi (Algorithm 1) that materializes and
//     evaluates every server combination, then sorts them by cost.
// The production paths (OnlineCp, OnlineSp, appro_multi) must take the same
// decisions bit for bit; tests/test_oracle_equivalence.cpp checks that.
#pragma once

#include <string>
#include <string_view>

#include "core/appro_multi.h"
#include "core/cost_model.h"
#include "core/online.h"
#include "core/online_cp.h"
#include "nfv/request.h"
#include "topology/topology.h"

namespace nfvm::oracle {

class OnlineCpRebuild final : public core::OnlineAlgorithm {
 public:
  explicit OnlineCpRebuild(const topo::Topology& topo,
                           const core::OnlineCpOptions& options = {});

  std::string_view name() const override { return name_; }

 protected:
  core::AdmissionDecision try_admit(const nfv::Request& request) override;

 private:
  double edge_weight(graph::EdgeId e) const;
  double server_weight(graph::VertexId v) const;

  core::ExponentialCostModel model_;
  double sigma_v_;
  double sigma_e_;
  bool linear_weights_;
  std::string name_;
};

class OnlineSpRebuild final : public core::OnlineAlgorithm {
 public:
  explicit OnlineSpRebuild(const topo::Topology& topo) : OnlineAlgorithm(topo) {}

  std::string_view name() const override { return "SP"; }

 protected:
  core::AdmissionDecision try_admit(const nfv::Request& request) override;
};

/// Appro_Multi with the exhaustive combination sweep. Takes the same options
/// as core::appro_multi and returns the same solution; combinations_pruned
/// is always 0.
core::OfflineSolution appro_multi_sweep(const topo::Topology& topo,
                                        const core::LinearCosts& costs,
                                        const nfv::Request& request,
                                        const core::ApproMultiOptions& options = {});

}  // namespace nfvm::oracle
