// Extension E4: forwarding-table (flow-entry) capacities - the node-capacity
// model of Huang et al. [10] from the paper's related work.
//
// Every admitted multicast group installs one flow entry on each switch its
// tree touches. Sweeping the per-switch table budget on a network with
// abundant bandwidth/compute isolates the table constraint: small tables
// throttle throughput for every policy; Online_CP's balanced trees stretch
// the budget further than SP's load-blind shortest-path trees.
#include "bench_common.h"
#include "core/online_cp.h"
#include "core/online_sp.h"
#include "core/online_sp_static.h"
#include "sim/simulator.h"

int main() {
  using namespace nfvm;
  const std::size_t num_requests = bench::online_sequence_length(300);

  std::cout << "# Extension E4: flow-table budget sweep (n=100, " << num_requests
            << " arrivals, abundant bandwidth/compute)\n";

  util::Table table({"entries_per_switch", "online_cp", "sp_adaptive",
                     "sp_static"});

  for (double entries : {10.0, 20.0, 40.0, 80.0, 0.0 /*unlimited*/}) {
    util::Rng rng(55);
    topo::WaxmanOptions wo;
    wo.target_mean_degree = 4.0;
    wo.capacities.min_bandwidth_mbps = 10000;
    wo.capacities.max_bandwidth_mbps = 10000;
    wo.capacities.min_compute_mhz = 100000;
    wo.capacities.max_compute_mhz = 100000;
    topo::Topology topo = topo::make_waxman(100, rng, wo);
    if (entries > 0) topo::assign_table_capacities(topo, entries);

    util::Rng workload(56);
    sim::RequestGenerator gen(topo, workload);
    const std::vector<nfv::Request> requests = gen.sequence(num_requests);

    core::OnlineCp cp(topo);
    core::OnlineSp sp(topo);
    core::OnlineSpStatic sp_static(topo);
    const sim::RunMetrics mcp = sim::run_online(cp, requests);
    const sim::RunMetrics msp = sim::run_online(sp, requests);
    const sim::RunMetrics mst = sim::run_online(sp_static, requests);

    table.begin_row()
        .add(entries > 0 ? util::format_double(entries, 0) : std::string("inf"))
        .add(mcp.num_admitted)
        .add(msp.num_admitted)
        .add(mst.num_admitted);
  }
  bench::finish("ext_table_capacity", table);
  return 0;
}
