// Ablation A2: the effect of K (the maximum number of service-chain
// instances) on Appro_Multi's cost and running time, plus the
// branch-and-bound combination search against the exhaustive sweep.
//
// Cost is non-increasing in K (more combinations are explored) while the
// combination space grows roughly with C(|V_S|, K); the paper fixes K = 3.
// Every K row runs BOTH searches over the same requests: the row reports the
// branch-and-bound timings/counters and `speedup_vs_exhaustive` (exhaustive
// wall time / branch-and-bound wall time). The exhaustive sweep is the
// reference implementation in tests/oracle. The two searches must agree
// exactly on every decision — the bench exits non-zero if they diverge.
// The trailing beam rows (K = 6, m = 2 and m = 4) measure the opt-in
// approximate mode; their `exact` column records whether the beamed cost
// still matched the exhaustive K = 6 cost on this workload.
//
// Two regimes are measured:
//  * a homogeneous random (Waxman) network with randomly placed servers,
//    where a server near the source is usually available and one chain
//    instance is already near-optimal (K buys nothing but time), and
//  * the hierarchical GEANT-like network with servers at major PoPs and
//    small receiver groups (regional multicast), where server placement
//    moves the cost a lot even though one well-placed instance usually
//    suffices - a steep combination landscape that the branch-and-bound
//    bounds prune more than half away.
#include "bench_common.h"
#include "oracle.h"
#include "topology/geant.h"

namespace {

using namespace nfvm;

constexpr std::size_t kMaxK = 6;

struct ModeResult {
  bench::OfflineStats stats;
  std::size_t evaluated = 0;
  std::size_t pruned = 0;
};

/// core::appro_multi (branch-and-bound) or oracle::appro_multi_sweep.
using Solver = core::OfflineSolution (*)(const topo::Topology&,
                                         const core::LinearCosts&,
                                         const nfv::Request&,
                                         const core::ApproMultiOptions&);

ModeResult run_mode(const topo::Topology& topo, const core::LinearCosts& costs,
                    const std::vector<nfv::Request>& requests, std::size_t k,
                    Solver solve, std::size_t beam_width) {
  ModeResult r;
  r.stats = bench::run_offline_batch(requests, [&](const nfv::Request& req) {
    core::ApproMultiOptions opts;
    opts.max_servers = k;
    opts.beam_width = beam_width;
    core::OfflineSolution sol = solve(topo, costs, req, opts);
    r.evaluated += sol.combinations_explored;
    r.pruned += sol.combinations_pruned;
    return sol;
  });
  return r;
}

void add_row(util::Table& table, const std::string& topo_name, std::size_t k,
             const std::string& search, const ModeResult& r, double k1_cost,
             double exhaustive_ms, std::size_t num_requests, bool exact) {
  const std::size_t space = r.evaluated + r.pruned;
  const std::size_t per_req = std::max<std::size_t>(num_requests, 1);
  table.begin_row()
      .add(topo_name)
      .add(k)
      .add(search)
      .add(r.stats.cost.mean(), 2)
      .add(k1_cost > 0 ? r.stats.cost.mean() / k1_cost : 0.0, 3)
      .add(r.stats.time_ms.mean(), 3)
      .add(r.stats.servers_used.mean(), 2)
      .add(r.evaluated / per_req)
      .add(r.pruned / per_req)
      .add(space > 0 ? 100.0 * static_cast<double>(r.pruned) /
                           static_cast<double>(space)
                     : 0.0,
           1)
      .add(r.stats.time_ms.mean() > 0
               ? exhaustive_ms / r.stats.time_ms.mean()
               : 0.0,
           2)
      .add(exact ? "yes" : "no");
}

/// True when the two searches agreed on every request — the decisions are
/// bitwise-deterministic, so aggregate equality means per-request equality
/// up to cost-sum rounding.
bool same_decisions(const ModeResult& a, const ModeResult& b) {
  return a.stats.admitted == b.stats.admitted &&
         a.stats.rejected == b.stats.rejected &&
         a.stats.cost.mean() == b.stats.cost.mean() &&
         a.stats.servers_used.mean() == b.stats.servers_used.mean();
}

bool sweep(const topo::Topology& topo, const core::LinearCosts& costs,
           const std::vector<nfv::Request>& requests, util::Table& table) {
  bool all_exact = true;
  double k1_cost = 0.0;
  double exhaustive_k6_ms = 0.0;
  double bnb_k6_cost = 0.0;
  for (std::size_t k = 1; k <= kMaxK; ++k) {
    const ModeResult exhaustive =
        run_mode(topo, costs, requests, k, oracle::appro_multi_sweep, 0);
    const ModeResult bnb = run_mode(topo, costs, requests, k, core::appro_multi, 0);
    const bool exact = same_decisions(exhaustive, bnb);
    if (!exact) {
      std::cerr << "ERROR: branch-and-bound diverged from the exhaustive sweep "
                << "on " << topo.name << " at K=" << k << "\n";
      all_exact = false;
    }
    if (k == 1) k1_cost = bnb.stats.cost.mean();
    if (k == kMaxK) {
      exhaustive_k6_ms = exhaustive.stats.time_ms.mean();
      bnb_k6_cost = bnb.stats.cost.mean();
    }
    add_row(table, topo.name, k, "bnb", bnb, k1_cost,
            exhaustive.stats.time_ms.mean(), requests.size(), exact);
  }
  for (const std::size_t m : {std::size_t{2}, std::size_t{4}}) {
    const ModeResult beam = run_mode(topo, costs, requests, kMaxK, core::appro_multi, m);
    add_row(table, topo.name, kMaxK, "beam_m" + std::to_string(m), beam,
            k1_cost, exhaustive_k6_ms, requests.size(),
            beam.stats.cost.mean() == bnb_k6_cost);
  }
  return all_exact;
}

}  // namespace

int main() {
  const std::size_t per_point = bench::offline_requests_per_point(10);

  std::cout << "# Ablation A2: Appro_Multi cost/time vs K, "
               "branch-and-bound vs exhaustive sweep\n";
  std::cout << "# requests per data point: " << per_point << "\n";

  util::Table table({"topology", "K", "search", "mean_cost", "cost_vs_K1",
                     "mean_ms", "mean_servers", "combos_evaluated",
                     "combos_pruned", "pct_pruned", "speedup_vs_exhaustive",
                     "exact"});

  bool all_exact = true;
  {
    util::Rng rng(1100);
    const topo::Topology topo = bench::make_sweep_topology(100, rng);
    const core::LinearCosts costs = core::random_costs(topo, rng);
    sim::RequestGenOptions gen_opts;
    gen_opts.min_dest_ratio = 0.10;
    gen_opts.max_dest_ratio = 0.10;
    util::Rng workload(2100);
    sim::RequestGenerator gen(topo, workload, gen_opts);
    all_exact &= sweep(topo, costs, gen.sequence(per_point), table);
  }
  {
    util::Rng rng(1200);
    const topo::Topology topo = topo::make_geant(rng);
    const core::LinearCosts costs = core::random_costs(topo, rng);
    sim::RequestGenOptions gen_opts;
    gen_opts.min_dest_ratio = 0.10;
    gen_opts.max_dest_ratio = 0.10;
    util::Rng workload(2200);
    sim::RequestGenerator gen(topo, workload, gen_opts);
    all_exact &= sweep(topo, costs, gen.sequence(per_point * 2), table);
  }
  bench::finish("ablation_k", table);
  if (!all_exact) {
    std::cerr << "FAILED: exactness check (see ERROR lines above)\n";
    return 1;
  }
  return 0;
}
