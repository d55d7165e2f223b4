// Extension E1: delay-constrained NFV multicast (related work: Kuo et al.).
//
// Sweeps the end-to-end delay bound on an AS1755-like topology with link
// propagation delays in U[0.5, 2] ms. The algorithms treat the bound as a
// candidate-tree feasibility filter, so a tighter bound trades throughput
// for latency. Columns: Online_CP admissions, offline Appro_Multi admission
// count and mean worst-destination latency among admitted trees.
#include "bench_common.h"
#include "core/delay.h"
#include "core/online_cp.h"
#include "sim/simulator.h"
#include "topology/rocketfuel.h"

int main() {
  using namespace nfvm;
  const std::size_t online_n = bench::online_sequence_length(200);
  const std::size_t offline_n = bench::offline_requests_per_point(30);

  util::Rng rng(15);
  topo::Topology topo = topo::make_as1755(rng);
  topo::assign_delays(topo, rng, 0.5, 2.0);
  const core::LinearCosts costs = core::random_costs(topo, rng);

  std::cout << "# Extension E1: delay-bound sweep on " << topo.name
            << " (link delays U[0.5,2] ms)\n";
  std::cout << "# online: " << online_n << " arrivals; offline: " << offline_n
            << " requests per bound\n";

  util::Table table({"bound_ms", "cp_admitted", "offline_admitted",
                     "offline_mean_worst_delay", "offline_mean_cost"});

  for (double bound : {5.0, 8.0, 12.0, 20.0, 0.0 /* unconstrained */}) {
    // Online.
    util::Rng workload(77);
    sim::RequestGenerator gen(topo, workload);
    std::vector<nfv::Request> online_requests = gen.sequence(online_n);
    for (nfv::Request& r : online_requests) r.max_delay_ms = bound;
    core::OnlineCp cp(topo);
    const sim::RunMetrics mcp = sim::run_online(cp, online_requests);

    // Offline.
    util::Rng workload2(78);
    sim::RequestGenerator gen2(topo, workload2);
    std::vector<nfv::Request> offline_requests = gen2.sequence(offline_n);
    std::size_t admitted = 0;
    util::RunningStats worst_delay;
    util::RunningStats cost;
    for (nfv::Request& r : offline_requests) {
      r.max_delay_ms = bound;
      core::ApproMultiOptions opts;
      opts.max_servers = 3;
      const core::OfflineSolution sol = core::appro_multi(topo, costs, r, opts);
      if (!sol.admitted) continue;
      ++admitted;
      worst_delay.add(core::worst_route_delay_ms(topo, r, sol.tree));
      cost.add(sol.tree.cost);
    }

    table.begin_row()
        .add(bound > 0 ? util::format_double(bound, 1) : std::string("inf"))
        .add(mcp.num_admitted)
        .add(admitted)
        .add(worst_delay.mean(), 2)
        .add(cost.mean(), 2);
  }
  bench::finish("ext_delay", table);
  return 0;
}
