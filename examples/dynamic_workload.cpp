// Dynamic workload with departures: video-conference-style sessions arrive
// as a Poisson process, hold resources for an exponential duration, and
// release them on departure. Compares the three online algorithms under
// resource recycling and writes a Graphviz rendering of one admitted
// pseudo-multicast tree.
//
//   $ ./dynamic_workload [out.dot]
#include <fstream>
#include <iostream>

#include "core/online_cp.h"
#include "core/online_sp.h"
#include "core/online_sp_static.h"
#include "io/dot.h"
#include "sim/simulator.h"
#include "topology/transit_stub.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace nfvm;

  util::Rng rng(2027);
  const topo::Topology topo = topo::make_transit_stub(120, rng);
  std::cout << "# " << topo.name << ": " << topo.num_switches() << " switches, "
            << topo.num_links() << " links, " << topo.servers.size()
            << " servers\n";
  std::cout << "# 500 conference sessions, Poisson arrivals (rate 3/min), "
               "exp holding (mean 15 min)\n\n";

  sim::DynamicWorkloadOptions dyn;
  dyn.arrival_rate = 3.0;
  dyn.mean_duration = 15.0;

  const auto make_workload = [&topo, &dyn]() {
    util::Rng requests_rng(99);
    util::Rng times_rng(100);
    sim::RequestGenerator generator(topo, requests_rng);
    return sim::make_poisson_workload(generator, times_rng, 500, dyn);
  };

  util::Table table({"algorithm", "admitted_of_500", "acceptance", "peak_active",
                     "mean_active"});
  for (int which = 0; which < 3; ++which) {
    const auto workload = make_workload();
    std::unique_ptr<core::OnlineAlgorithm> algo;
    switch (which) {
      case 0: algo = std::make_unique<core::OnlineCp>(topo); break;
      case 1: algo = std::make_unique<core::OnlineSp>(topo); break;
      default: algo = std::make_unique<core::OnlineSpStatic>(topo); break;
    }
    const sim::RunMetrics m = sim::run_online_dynamic(*algo, workload);
    table.begin_row()
        .add(std::string(algo->name()))
        .add(m.num_admitted)
        .add(m.acceptance_ratio(), 3)
        .add(m.peak_active)
        .add(m.mean_active, 1);
  }
  table.print(std::cout);

  // Render one admitted tree for inspection.
  core::OnlineCp cp(topo);
  const auto workload = make_workload();
  for (const sim::TimedRequest& tr : workload) {
    const core::AdmissionDecision d = cp.process(tr.request);
    if (!d.admitted) continue;
    const std::string dot = io::to_dot(topo, tr.request, d.tree);
    const char* path = argc > 1 ? argv[1] : "pseudo_tree.dot";
    std::ofstream out(path);
    out << dot;
    std::cout << "\nwrote " << path << " (render with: neato -Tsvg " << path
              << " -o tree.svg)\n";
    break;
  }
  std::cout << "\nDepartures recycle bandwidth and computing, so all three\n"
               "algorithms sustain far more sessions than a permanent-\n"
               "allocation run of the same arrival sequence would.\n";
  return 0;
}
