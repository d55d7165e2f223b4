// Ablation A3: Online_CP's admission-control thresholds.
//
// The competitive analysis (Theorem 2) needs sigma_v = sigma_e = |V| - 1
// with alpha = beta = 2|V|, but those constants reject trees once links
// average ~35-45% utilization. This sweep multiplies the thresholds to show
// the practical tradeoff: literal thresholds protect worst-case guarantees
// at the price of throughput; relaxed thresholds let the exponential
// weights' load balancing dominate.
#include "bench_common.h"
#include "core/online_cp.h"
#include "core/online_sp.h"
#include "core/online_sp_static.h"
#include "sim/simulator.h"

int main() {
  using namespace nfvm;
  const std::size_t num_requests = bench::online_sequence_length(300);

  std::cout << "# Ablation A3: Online_CP threshold sensitivity (n=100 sparse, "
            << num_requests << " arrivals)\n";

  util::Rng rng(77);
  topo::WaxmanOptions wo;
  wo.target_mean_degree = 3.0;
  const topo::Topology topo = topo::make_waxman(100, rng, wo);

  util::Rng workload(1234);
  sim::RequestGenerator gen(topo, workload);
  const std::vector<nfv::Request> requests = gen.sequence(num_requests);

  util::Table table({"sigma_multiplier", "admitted", "bw_util", "cpu_util"});

  const double base_sigma = static_cast<double>(topo.num_switches()) - 1.0;
  for (double mult : {0.5, 1.0, 2.0, 4.0, 8.0, 1e9}) {
    core::OnlineCpOptions opts;
    opts.sigma_e = base_sigma * mult;
    opts.sigma_v = base_sigma * mult;
    core::OnlineCp cp(topo, opts);
    const sim::RunMetrics m = sim::run_online(cp, requests);
    table.begin_row()
        .add(mult >= 1e9 ? std::string("inf") : util::format_double(mult, 1))
        .add(m.num_admitted)
        .add(m.final_bandwidth_utilization, 3)
        .add(m.final_compute_utilization, 3);
  }

  // Baselines on the same arrival sequence for reference.
  core::OnlineSp sp(topo);
  core::OnlineSpStatic sp_static(topo);
  const sim::RunMetrics msp = sim::run_online(sp, requests);
  const sim::RunMetrics mst = sim::run_online(sp_static, requests);
  table.begin_row()
      .add("SP_adaptive")
      .add(msp.num_admitted)
      .add(msp.final_bandwidth_utilization, 3)
      .add(msp.final_compute_utilization, 3);
  table.begin_row()
      .add("SP_static")
      .add(mst.num_admitted)
      .add(mst.final_bandwidth_utilization, 3)
      .add(mst.final_compute_utilization, 3);
  bench::finish("ablation_thresholds", table);
  return 0;
}
