// Figure 9 (a)-(b): number of admitted requests vs number of arrivals
// (50..300) on the real-like topologies GEANT and AS1755.
//
// Paper's reported shape: both algorithms admit almost everything up to
// ~100 arrivals; beyond that Online_CP pulls ahead of SP and the gap grows
// with the number of requests. One 300-arrival run per algorithm provides
// every prefix point (the cumulative-admitted series).
#include "bench_common.h"
#include "core/online_cp.h"
#include "core/online_sp.h"
#include "core/online_sp_static.h"
#include "sim/simulator.h"
#include "topology/geant.h"
#include "topology/rocketfuel.h"

int main() {
  using namespace nfvm;
  const std::size_t num_requests = bench::online_sequence_length(300);

  std::cout << "# Figure 9: online admissions vs number of requests ("
            << num_requests << " max; override with NFVM_BENCH_ONLINE_REQUESTS)\n";

  // The trailing *_ms columns attribute each full 300-request run to its
  // dominant admission phases (from RequestRecord provenance; zero under
  // NFVM_OBS=0). They repeat on every prefix row of a topology and are
  // excluded from CI gating like all timing columns.
  util::Table table({"topology", "requests", "online_cp", "sp_static",
                     "sp_adaptive", "cp_closure_ms", "cp_eval_ms",
                     "sp_static_eval_ms", "sp_adaptive_eval_ms"});

  for (int which = 0; which < 2; ++which) {
    util::Rng rng(42);
    const topo::Topology topo =
        which == 0 ? topo::make_geant(rng) : topo::make_as1755(rng);

    util::Rng workload(9 + which);
    sim::RequestGenerator gen(topo, workload);
    const std::vector<nfv::Request> requests = gen.sequence(num_requests);

    core::OnlineCp cp(topo);
    core::OnlineSp sp(topo);
    core::OnlineSpStatic sp_static(topo);
    sim::SimulatorOptions opts;
    opts.record_provenance = true;
    const sim::RunMetrics mcp = sim::run_online(cp, requests, opts);
    const sim::RunMetrics msp = sim::run_online(sp, requests, opts);
    const sim::RunMetrics mst = sim::run_online(sp_static, requests, opts);

    const std::size_t step = std::max<std::size_t>(1, num_requests / 6);
    for (std::size_t i = step - 1; i < num_requests; i += step) {
      table.begin_row()
          .add(topo.name)
          .add(i + 1)
          .add(mcp.cumulative_admitted[i])
          .add(mst.cumulative_admitted[i])
          .add(msp.cumulative_admitted[i])
          .add(mcp.phase_closure_us / 1000.0, 3)
          .add(mcp.phase_eval_us / 1000.0, 3)
          .add(mst.phase_eval_us / 1000.0, 3)
          .add(msp.phase_eval_us / 1000.0, 3);
    }
  }
  bench::finish("fig9_online_requests", table);
  return 0;
}
