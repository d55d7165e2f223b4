// Online admission on an ISP topology (AS1755-like): requests arrive one by
// one, Online_CP and SP decide admit/reject, and we print throughput over
// time plus final utilization - the paper's Section VI-C scenario.
//
//   $ ./online_admission [num_requests]
#include <cstdlib>
#include <iostream>

#include "core/online_cp.h"
#include "core/online_sp.h"
#include "sim/request_gen.h"
#include "sim/simulator.h"
#include "topology/rocketfuel.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace nfvm;

  std::size_t num_requests = 300;
  if (argc > 1) {
    const long parsed = std::strtol(argv[1], nullptr, 10);
    if (parsed > 0) num_requests = static_cast<std::size_t>(parsed);
  }

  util::Rng rng(99);
  const topo::Topology topo = topo::make_as1755(rng);
  std::cout << "# Online NFV-enabled multicast admission on " << topo.name
            << " (" << topo.num_switches() << " switches, " << topo.num_links()
            << " links, " << topo.servers.size() << " servers)\n";
  std::cout << "# " << num_requests
            << " requests; bandwidth U[50,200] Mbps; Dmax/|V| U[0.05,0.2]\n\n";

  // Identical arrival sequence for both algorithms.
  util::Rng workload(1234);
  sim::RequestGenerator gen(topo, workload);
  const std::vector<nfv::Request> requests = gen.sequence(num_requests);

  core::OnlineCp cp(topo);
  core::OnlineSp sp(topo);
  const sim::RunMetrics mcp = sim::run_online(cp, requests);
  const sim::RunMetrics msp = sim::run_online(sp, requests);

  // Throughput over time, sampled every num_requests/10 arrivals.
  util::Table series({"arrivals", "Online_CP_admitted", "SP_admitted"});
  const std::size_t step = std::max<std::size_t>(1, num_requests / 10);
  for (std::size_t i = step - 1; i < num_requests; i += step) {
    series.begin_row()
        .add(i + 1)
        .add(mcp.cumulative_admitted[i])
        .add(msp.cumulative_admitted[i]);
  }
  series.print(std::cout);

  util::Table summary({"algorithm", "admitted", "acceptance", "mean_bw_util",
                       "mean_cpu_util", "mean_decision_ms"});
  summary.begin_row()
      .add("Online_CP")
      .add(mcp.num_admitted)
      .add(mcp.acceptance_ratio(), 3)
      .add(mcp.final_bandwidth_utilization, 3)
      .add(mcp.final_compute_utilization, 3)
      .add(mcp.decision_us.mean() / 1e3, 3);
  summary.begin_row()
      .add("SP")
      .add(msp.num_admitted)
      .add(msp.acceptance_ratio(), 3)
      .add(msp.final_bandwidth_utilization, 3)
      .add(msp.final_compute_utilization, 3)
      .add(msp.decision_us.mean() / 1e3, 3);
  std::cout << "\n";
  summary.print(std::cout);

  std::cout << "\nOnline_CP's exponential cost model steers requests away from\n"
               "loaded links/servers and rejects requests whose admission would\n"
               "crowd out future ones; SP greedily packs shortest paths.\n";
  return 0;
}
