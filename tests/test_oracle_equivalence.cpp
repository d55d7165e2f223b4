// The production admission paths against the reference implementations in
// tests/oracle: Online_CP and SP against their per-request rebuilds, and
// Appro_Multi's branch-and-bound against the exhaustive combination sweep.
// Every decision must match bit for bit at any thread count; CI runs this
// binary at NFVM_THREADS=1 and 4.
//
// OracleEquivalence.* replays the simulator's smoke configurations (the
// same topology, cost and workload seeds nfvm-sim derives from --seed);
// OnlineFastPath.* adds departures, linear weights and an explicit 1-vs-4
// thread sweep on smaller Waxman graphs.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/appro_multi.h"
#include "core/online.h"
#include "core/online_cp.h"
#include "core/online_sp.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "sim/offline_batch.h"
#include "sim/request_gen.h"
#include "topology/geant.h"
#include "topology/waxman.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace nfvm {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::uint64_t counter_value(const std::string& name) {
  return obs::Registry::global().counter(name)->value();
}

/// Restores the global pool to single-threaded when a test exits.
struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { util::ThreadPool::set_global_threads(1); }
};

void expect_same_tree(const core::PseudoMulticastTree& a,
                      const core::PseudoMulticastTree& b, std::size_t index) {
  EXPECT_EQ(a.source, b.source) << "request " << index;
  EXPECT_EQ(a.servers, b.servers) << "request " << index;
  EXPECT_EQ(bits(a.cost), bits(b.cost)) << "request " << index;
  EXPECT_EQ(a.edge_uses, b.edge_uses) << "request " << index;
  ASSERT_EQ(a.routes.size(), b.routes.size()) << "request " << index;
  for (std::size_t r = 0; r < a.routes.size(); ++r) {
    EXPECT_EQ(a.routes[r].destination, b.routes[r].destination);
    EXPECT_EQ(a.routes[r].server, b.routes[r].server);
    EXPECT_EQ(a.routes[r].walk, b.routes[r].walk);
    EXPECT_EQ(a.routes[r].server_index, b.routes[r].server_index);
  }
}

template <typename Id>
void expect_same_amounts(const std::vector<std::pair<Id, double>>& a,
                         const std::vector<std::pair<Id, double>>& b,
                         std::size_t index) {
  ASSERT_EQ(a.size(), b.size()) << "request " << index;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first) << "request " << index;
    EXPECT_EQ(bits(a[i].second), bits(b[i].second)) << "request " << index;
  }
}

void expect_same_decision(const core::AdmissionDecision& a,
                          const core::AdmissionDecision& b, std::size_t index) {
  ASSERT_EQ(a.admitted, b.admitted) << "request " << index;
  EXPECT_EQ(a.reject_reason, b.reject_reason) << "request " << index;
  EXPECT_EQ(a.reject_cause, b.reject_cause) << "request " << index;
  expect_same_tree(a.tree, b.tree, index);
  expect_same_amounts(a.footprint.bandwidth, b.footprint.bandwidth, index);
  expect_same_amounts(a.footprint.compute, b.footprint.compute, index);
  EXPECT_EQ(a.footprint.table_entries, b.footprint.table_entries)
      << "request " << index;
}

/// Feeds the same request sequence through both algorithms and requires
/// byte-identical decision streams. With `depart_every` > 0, the oldest
/// still-held footprint is released after every depart_every-th request,
/// exercising tree repairs across weight decreases mid-sequence.
void run_trace_equivalence(core::OnlineAlgorithm& production,
                           core::OnlineAlgorithm& oracle,
                           const std::vector<nfv::Request>& requests,
                           std::size_t depart_every) {
  std::vector<nfv::Footprint> held_production;
  std::vector<nfv::Footprint> held_oracle;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const core::AdmissionDecision dp = production.process(requests[i]);
    const core::AdmissionDecision d_oracle = oracle.process(requests[i]);
    expect_same_decision(dp, d_oracle, i);
    if (dp.admitted) {
      held_production.push_back(dp.footprint);
      held_oracle.push_back(d_oracle.footprint);
    }
    if (depart_every > 0 && i % depart_every == depart_every - 1 &&
        !held_production.empty()) {
      production.release(held_production.front());
      oracle.release(held_oracle.front());
      held_production.erase(held_production.begin());
      held_oracle.erase(held_oracle.begin());
    }
  }
  EXPECT_EQ(production.num_admitted(), oracle.num_admitted());
  EXPECT_EQ(production.num_rejected(), oracle.num_rejected());
}

std::vector<nfv::Request> generate(const topo::Topology& topo,
                                   std::uint64_t seed, std::size_t count) {
  util::Rng workload(seed);
  sim::RequestGenerator gen(topo, workload);
  return gen.sequence(count);
}

// ---------------------------------------------------------------------------
// The simulator's smoke configurations
// ---------------------------------------------------------------------------

/// The topology `nfvm-sim --topology <name> --nodes 100 --seed <seed>` builds.
topo::Topology sim_topology(const std::string& name, std::uint64_t seed) {
  util::Rng rng(seed);
  if (name == "geant") return topo::make_geant(rng);
  topo::WaxmanOptions wo;
  wo.target_mean_degree = 4.0;
  return topo::make_waxman(100, rng, wo);
}

/// Online_CP and SP against their oracles on nfvm-sim's static online run:
/// arrivals only, the workload seeded with --seed + 1.
void run_online_smoke(const std::string& topology, std::size_t num_requests) {
  constexpr std::uint64_t kSeed = 7;
  const topo::Topology topo = sim_topology(topology, kSeed);
  const std::vector<nfv::Request> requests = generate(topo, kSeed + 1, num_requests);
  {
    core::OnlineCp production(topo);
    oracle::OnlineCpRebuild reference(topo);
    run_trace_equivalence(production, reference, requests, 0);
  }
  {
    core::OnlineSp production(topo);
    oracle::OnlineSpRebuild reference(topo);
    run_trace_equivalence(production, reference, requests, 0);
  }
}

TEST(OracleEquivalence, OnlineOnGeant) {
  const std::uint64_t hits_before = counter_value("graph.spcache.hits");
  run_online_smoke("geant", 120);
#if NFVM_OBS
  // Not vacuous: the GEANT runs serve trees from the view's cache, so the
  // cached path is what the rebuild references are diffed against.
  EXPECT_GT(counter_value("graph.spcache.hits"), hits_before);
#else
  (void)hits_before;
#endif
}

TEST(OracleEquivalence, OnlineOnWaxman100) {
  const std::uint64_t pruned_before = counter_value("core.online_cp.bound_pruned");
  const std::uint64_t skipped_before =
      counter_value("core.online_cp.server_rows_skipped");
  const std::uint64_t repairs_before = counter_value("graph.spcache.repairs");
  run_online_smoke("waxman", 300);
#if NFVM_OBS
  // Not vacuous: the run saturates the network far enough that the
  // closure-MST bound settles candidates, KMB skips server rows it cannot
  // use, and cached shortest-path trees are repaired rather than rebuilt.
  EXPECT_GT(counter_value("core.online_cp.bound_pruned"), pruned_before);
  EXPECT_GT(counter_value("core.online_cp.server_rows_skipped"), skipped_before);
  EXPECT_GT(counter_value("graph.spcache.repairs"), repairs_before);
#else
  (void)pruned_before;
  (void)skipped_before;
  (void)repairs_before;
#endif
}

/// Appro_Multi (branch-and-bound) against the exhaustive sweep for
/// K = 1..3 on nfvm-sim's offline batch: costs seeded with --seed + 2,
/// requests with --seed + 1, the shared-Dijkstra engine.
void run_offline_smoke(const std::string& topology) {
  constexpr std::uint64_t kSeed = 11;
  const topo::Topology topo = sim_topology(topology, kSeed);
  util::Rng costs_rng(kSeed + 2);
  const core::LinearCosts costs = core::random_costs(topo, costs_rng);
  const std::vector<nfv::Request> requests = generate(topo, kSeed + 1, 40);

  std::size_t admitted = 0;
  std::size_t pruned = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    for (std::size_t k = 1; k <= 3; ++k) {
      core::ApproMultiOptions opts;
      opts.max_servers = k;
      opts.engine = sim::OfflineBatchOptions{}.engine;
      const core::OfflineSolution bnb =
          core::appro_multi(topo, costs, requests[i], opts);
      const core::OfflineSolution sweep =
          oracle::appro_multi_sweep(topo, costs, requests[i], opts);
      ASSERT_EQ(bnb.admitted, sweep.admitted) << "request " << i << " K " << k;
      EXPECT_EQ(bnb.reject_reason, sweep.reject_reason) << "request " << i;
      expect_same_tree(bnb.tree, sweep.tree, i);
      EXPECT_LE(bnb.combinations_explored, sweep.combinations_explored);
      EXPECT_EQ(sweep.combinations_pruned, 0u);
      admitted += bnb.admitted ? 1 : 0;
      pruned += bnb.combinations_pruned;
    }
  }
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(pruned, 0u);
}

TEST(OracleEquivalence, OfflineOnGeant) { run_offline_smoke("geant"); }

TEST(OracleEquivalence, OfflineOnWaxman100) { run_offline_smoke("waxman"); }

// ---------------------------------------------------------------------------
// Departures, linear weights and thread counts
// ---------------------------------------------------------------------------

TEST(OnlineFastPath, CpTraceEquivalenceWithDepartures) {
  util::Rng rng(91);
  const topo::Topology topo = topo::make_waxman(60, rng);
  core::OnlineCp production(topo);
  oracle::OnlineCpRebuild reference(topo);
  run_trace_equivalence(production, reference, generate(topo, 515, 80), 7);
}

TEST(OnlineFastPath, CpTraceEquivalenceLinearWeights) {
  util::Rng rng(92);
  const topo::Topology topo = topo::make_waxman(40, rng);
  core::OnlineCpOptions opts;
  opts.linear_weights = true;
  core::OnlineCp production(topo, opts);
  oracle::OnlineCpRebuild reference(topo, opts);
  run_trace_equivalence(production, reference, generate(topo, 515, 60), 7);
}

TEST(OnlineFastPath, SpTraceEquivalenceWithDepartures) {
  util::Rng rng(93);
  const topo::Topology topo = topo::make_waxman(60, rng);
  core::OnlineSp production(topo);
  oracle::OnlineSpRebuild reference(topo);
  run_trace_equivalence(production, reference, generate(topo, 515, 80), 7);
}

TEST(OnlineFastPath, CpBoundPrunedScanMatchesRebuildWhenSaturated) {
  // Long enough on a small Waxman graph that links saturate and sigma_e
  // binds, so many candidates are settled by the closure-MST bound without
  // a server tree or a KMB run. The decision stream must still match the
  // exhaustive rebuild scan at every thread count.
  GlobalThreadsGuard guard;
  util::Rng rng(95);
  topo::WaxmanOptions wo;
  wo.target_mean_degree = 4.0;  // sparse, as nfvm-sim builds it
  const topo::Topology topo = topo::make_waxman(100, rng, wo);
  const std::vector<nfv::Request> requests = generate(topo, 515, 300);
  for (const std::size_t threads : {1, 4}) {
    util::ThreadPool::set_global_threads(threads);
    const std::uint64_t pruned_before = counter_value("core.online_cp.bound_pruned");
    const std::uint64_t fetched_before =
        counter_value("core.online_cp.server_rows_fetched");
    const std::uint64_t skipped_before =
        counter_value("core.online_cp.server_rows_skipped");
    core::OnlineCp production(topo);
    oracle::OnlineCpRebuild reference(topo);
    run_trace_equivalence(production, reference, requests, 7);
    EXPECT_GT(production.num_rejected(), 0u) << "threads " << threads;
#if NFVM_OBS
    // Not vacuous: the pruned branch actually ran, and KMB both fetched
    // lazy server rows and skipped rows it could not use.
    EXPECT_GT(counter_value("core.online_cp.bound_pruned"), pruned_before)
        << "threads " << threads;
    EXPECT_GT(counter_value("core.online_cp.server_rows_fetched"), fetched_before)
        << "threads " << threads;
    EXPECT_GT(counter_value("core.online_cp.server_rows_skipped"), skipped_before)
        << "threads " << threads;
#else
    (void)pruned_before;
    (void)fetched_before;
    (void)skipped_before;
#endif
  }
}

}  // namespace
}  // namespace nfvm
