// Ablation A1: the exponential cost model of Section V-A.
//
// Online_CP with the paper's exponential weights vs the same algorithm with
// linear (utilization-proportional) weights vs SP (uniform weights). This
// isolates the paper's motivating claim: the exponential model balances
// load, admitting more requests once the network saturates. Thresholds are
// relaxed (sigma -> large) for all variants so only the routing weights
// differ.
#include "bench_common.h"
#include "core/online_cp.h"
#include "core/online_sp.h"
#include "sim/simulator.h"
#include "topology/rocketfuel.h"

int main() {
  using namespace nfvm;
  const std::size_t num_requests = bench::online_sequence_length(300);

  std::cout << "# Ablation A1: routing-weight model inside Online_CP ("
            << num_requests << " arrivals)\n";
  std::cout << "# exponential = paper Eq.(1)-(2); linear = weight proportional to\n";
  std::cout << "# utilization; SP = uniform weights. Thresholds relaxed for all.\n";

  util::Table table({"topology", "exponential", "linear", "sp_uniform",
                     "exp_bw_util", "lin_bw_util"});

  for (int which = 0; which < 2; ++which) {
    util::Rng rng(11);
    topo::Topology topo;
    if (which == 0) {
      topo = topo::make_as1755(rng);
    } else {
      topo::WaxmanOptions wo;
      wo.target_mean_degree = 3.0;  // sparse: load balancing matters most
      topo = topo::make_waxman(100, rng, wo);
    }

    util::Rng workload(1234);
    sim::RequestGenerator gen(topo, workload);
    const std::vector<nfv::Request> requests = gen.sequence(num_requests);

    core::OnlineCpOptions exp_opts;
    exp_opts.sigma_e = 1e12;
    exp_opts.sigma_v = 1e12;
    core::OnlineCp exponential(topo, exp_opts);

    core::OnlineCpOptions lin_opts = exp_opts;
    lin_opts.linear_weights = true;
    core::OnlineCp linear(topo, lin_opts);

    core::OnlineSp sp(topo);

    const sim::RunMetrics me = sim::run_online(exponential, requests);
    const sim::RunMetrics ml = sim::run_online(linear, requests);
    const sim::RunMetrics ms = sim::run_online(sp, requests);

    table.begin_row()
        .add(topo.name)
        .add(me.num_admitted)
        .add(ml.num_admitted)
        .add(ms.num_admitted)
        .add(me.final_bandwidth_utilization, 3)
        .add(ml.final_bandwidth_utilization, 3);
  }
  bench::finish("ablation_cost_model", table);
  return 0;
}
