// Capacity planning: how many NFV servers does an SDN need?
//
// Sweeps the server fraction of a 100-switch Waxman SDN and reports, for a
// fixed arrival sequence, how many requests Online_CP admits and what the
// average implementation cost of an offline request is. Useful to a network
// operator deciding where the compute/bandwidth tradeoff saturates.
//
//   $ ./capacity_planning
#include <iostream>

#include "core/appro_multi.h"
#include "core/online_cp.h"
#include "sim/request_gen.h"
#include "sim/simulator.h"
#include "topology/waxman.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace nfvm;

  std::cout << "# Server-fraction sweep on a 100-switch Waxman SDN\n";
  std::cout << "# 200 online requests (Online_CP) + 50 offline costs (Appro_Multi K=3)\n\n";

  util::Table table({"server_frac", "servers", "admitted_of_200",
                     "mean_offline_cost", "mean_servers_used"});

  for (double frac : {0.05, 0.10, 0.15, 0.20, 0.30}) {
    // Same wiring for every fraction: regenerate with the same seed and
    // re-draw only the server placement and capacities.
    util::Rng rng(4242);
    topo::WaxmanOptions opts;
    opts.server_fraction = frac;
    const topo::Topology topo = topo::make_waxman(100, rng, opts);

    // Online throughput.
    util::Rng workload(7);
    sim::RequestGenerator gen(topo, workload);
    core::OnlineCp cp(topo);
    const sim::RunMetrics m = sim::run_online(cp, gen.sequence(200));

    // Offline cost on a fresh (uncapacitated) view.
    util::Rng costs_rng(11);
    const core::LinearCosts costs = core::random_costs(topo, costs_rng);
    util::Rng offline_rng(13);
    sim::RequestGenerator offline_gen(topo, offline_rng);
    double cost_sum = 0.0;
    double servers_sum = 0.0;
    int admitted = 0;
    for (int i = 0; i < 50; ++i) {
      const nfv::Request r = offline_gen.next();
      const core::OfflineSolution sol = core::appro_multi(topo, costs, r);
      if (!sol.admitted) continue;
      cost_sum += sol.tree.cost;
      servers_sum += static_cast<double>(sol.tree.servers.size());
      ++admitted;
    }

    table.begin_row()
        .add(frac, 2)
        .add(topo.servers.size())
        .add(m.num_admitted)
        .add(admitted ? cost_sum / admitted : 0.0, 2)
        .add(admitted ? servers_sum / admitted : 0.0, 2);
  }

  table.print(std::cout);
  std::cout << "\nMore servers shorten the detour to the nearest service-chain\n"
               "instance (lower offline cost, more multi-instance trees) and\n"
               "raise online throughput until bandwidth becomes the bottleneck.\n";
  return 0;
}
