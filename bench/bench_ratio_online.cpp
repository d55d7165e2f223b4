// Empirical competitive behaviour (Theorem 2 companion).
//
// The competitive ratio compares Online_CP against an optimal *offline*
// algorithm that sees the whole sequence. The offline optimum is NP-hard, so
// we use a strong proxy: the batch planner admitting the same requests in
// its best ordering (smallest-demand-first) with Appro_Multi_Cap, which
// re-optimizes every tree with full knowledge. Columns report admitted
// counts and the empirical ratio online/offline-proxy - Theorem 2 guarantees
// it stays above Omega(1/log|V|); in practice it is far better.
#include <cmath>

#include "bench_common.h"
#include "core/batch_planner.h"
#include "core/online_cp.h"
#include "sim/simulator.h"

int main() {
  using namespace nfvm;
  const std::size_t num_requests = bench::online_sequence_length(150);

  std::cout << "# Empirical competitive behaviour: Online_CP vs offline batch proxy ("
            << num_requests << " requests)\n";

  util::Table table({"n", "online_cp", "offline_proxy", "empirical_ratio",
                     "1/log2(n)"});

  for (std::size_t n : {50u, 100u, 150u}) {
    util::Rng rng(1000 + n);
    topo::WaxmanOptions wo;
    wo.target_mean_degree = 4.0;
    wo.capacities.max_bandwidth_mbps = 2500.0;  // contention
    const topo::Topology topo = topo::make_waxman(n, rng, wo);
    const core::LinearCosts costs = core::random_costs(topo, rng);

    util::Rng workload(4242);
    sim::RequestGenerator gen(topo, workload);
    const std::vector<nfv::Request> requests = gen.sequence(num_requests);

    core::OnlineCp cp(topo);
    const sim::RunMetrics online = sim::run_online(cp, requests);

    core::BatchPlanOptions bopts;
    bopts.order = core::BatchOrder::kSmallestDemandFirst;
    bopts.engine = core::ApproMultiOptions::Engine::kSharedDijkstra;
    const core::BatchPlanResult offline = core::plan_batch(topo, costs, requests, bopts);

    const double ratio =
        offline.num_admitted == 0
            ? 1.0
            : static_cast<double>(online.num_admitted) /
                  static_cast<double>(offline.num_admitted);
    table.begin_row()
        .add(n)
        .add(online.num_admitted)
        .add(offline.num_admitted)
        .add(ratio, 3)
        .add(1.0 / std::log2(static_cast<double>(n)), 3);
  }
  bench::finish("ratio_online", table);
  return 0;
}
