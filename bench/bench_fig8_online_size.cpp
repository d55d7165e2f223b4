// Figure 8 (a)-(b): number of admitted requests vs network size for the
// online algorithms, 300 arrivals on GT-ITM-like networks of 50..250
// switches.
//
// Paper's reported shape: Online_CP admits at least ~2x what SP admits, and
// the admitted count is not monotone in the network size. We report three
// columns: Online_CP (Algorithm 2 verbatim), SP under the adaptive reading
// (reroutes on the residual graph), and SP under the static reading (fixed
// unit-weight routes). The paper's SP numbers correspond to the static
// reading; see EXPERIMENTS.md.
#include "bench_common.h"
#include "core/online_cp.h"
#include "core/online_sp.h"
#include "core/online_sp_static.h"
#include "sim/simulator.h"

int main() {
  using namespace nfvm;
  const std::size_t num_requests = bench::online_sequence_length(300);

  std::cout << "# Figure 8: online admissions vs network size (" << num_requests
            << " arrivals; override with NFVM_BENCH_ONLINE_REQUESTS)\n";

  util::Table table({"n", "online_cp", "sp_static", "sp_adaptive", "cp_vs_static",
                     "cp_bw_util", "static_bw_util"});

  for (std::size_t n : {50u, 100u, 150u, 200u, 250u}) {
    util::Rng rng(1000 + n);
    const topo::Topology topo = bench::make_sweep_topology(n, rng);

    const auto make_requests = [&topo, num_requests]() {
      util::Rng workload(4242);
      sim::RequestGenerator gen(topo, workload);
      return gen.sequence(num_requests);
    };
    const std::vector<nfv::Request> requests = make_requests();

    core::OnlineCp cp(topo);
    core::OnlineSp sp(topo);
    core::OnlineSpStatic sp_static(topo);
    const sim::RunMetrics mcp = sim::run_online(cp, requests);
    const sim::RunMetrics msp = sim::run_online(sp, requests);
    const sim::RunMetrics mst = sim::run_online(sp_static, requests);

    table.begin_row()
        .add(n)
        .add(mcp.num_admitted)
        .add(mst.num_admitted)
        .add(msp.num_admitted)
        .add(mst.num_admitted > 0
                 ? static_cast<double>(mcp.num_admitted) /
                       static_cast<double>(mst.num_admitted)
                 : 0.0,
             2)
        .add(mcp.final_bandwidth_utilization, 3)
        .add(mst.final_bandwidth_utilization, 3);
  }
  bench::finish("fig8_online_size", table);
  return 0;
}
