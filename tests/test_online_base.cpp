// Contract tests of the OnlineAlgorithm base class and the failure-injection
// paths of every admission driver (run_online, run_online_dynamic, run_soak,
// the serve daemon), using a controllable fake algorithm.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/online.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"
#include "sim/simulator.h"
#include "sim/soak.h"
#include "util/rng.h"

namespace nfvm::core {
namespace {

topo::Topology path_topology() {
  topo::Topology t;
  t.name = "path4";
  t.graph = graph::Graph(4);
  t.graph.add_edge(0, 1, 1.0);
  t.graph.add_edge(1, 2, 1.0);
  t.graph.add_edge(2, 3, 1.0);
  t.servers = {2};
  t.link_bandwidth = {1000, 1000, 1000};
  t.server_compute = {0, 0, 8000, 0};
  return t;
}

nfv::Request simple_request(std::uint64_t id = 1) {
  nfv::Request r;
  r.id = id;
  r.source = 0;
  r.destinations = {3};
  r.bandwidth_mbps = 100.0;
  r.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});
  return r;
}

/// Fake algorithm with scripted decisions.
class FakeAlgorithm final : public OnlineAlgorithm {
 public:
  enum class Mode { kReject, kAdmitValid, kAdmitOverCommitted, kAdmitBogusTree };

  explicit FakeAlgorithm(const topo::Topology& topo) : OnlineAlgorithm(topo) {}

  std::string_view name() const override { return "fake"; }
  Mode mode = Mode::kReject;
  /// In kAdmitBogusTree mode, requests with this id or above still get a
  /// valid tree.
  std::uint64_t valid_from_id = std::numeric_limits<std::uint64_t>::max();

 protected:
  AdmissionDecision try_admit(const nfv::Request& request) override {
    AdmissionDecision d;
    if (mode == Mode::kReject) {
      d.reject_reason = "scripted rejection";
      return d;
    }
    d.admitted = true;
    d.tree.source = request.source;
    d.tree.servers = {2};
    d.tree.cost = 3.0;
    d.tree.edge_uses = {{0, 1}, {1, 1}, {2, 1}};
    DestinationRoute route;
    route.destination = 3;
    route.server = 2;
    route.walk = {0, 1, 2, 3};
    route.server_index = 2;
    d.tree.routes = {route};
    if (mode == Mode::kAdmitBogusTree && request.id < valid_from_id) {
      d.tree.routes[0].walk = {0, 3};  // non-adjacent hop
    }
    d.footprint.bandwidth = {{0, request.bandwidth_mbps}};
    d.footprint.compute = {{2, request.compute_demand_mhz()}};
    if (mode == Mode::kAdmitOverCommitted) {
      d.footprint.bandwidth = {{0, 1e9}};  // cannot fit
    }
    return d;
  }
};

TEST(OnlineBase, CountersTrackDecisions) {
  const topo::Topology t = path_topology();
  FakeAlgorithm algo(t);
  algo.mode = FakeAlgorithm::Mode::kReject;
  algo.process(simple_request(1));
  algo.mode = FakeAlgorithm::Mode::kAdmitValid;
  algo.process(simple_request(2));
  algo.process(simple_request(3));
  EXPECT_EQ(algo.num_admitted(), 2u);
  EXPECT_EQ(algo.num_rejected(), 1u);
  EXPECT_EQ(algo.num_processed(), 3u);
}

TEST(OnlineBase, AdmissionAllocatesFootprint) {
  const topo::Topology t = path_topology();
  FakeAlgorithm algo(t);
  algo.mode = FakeAlgorithm::Mode::kAdmitValid;
  algo.process(simple_request());
  EXPECT_NEAR(algo.resources().residual_bandwidth(0), 900.0, 1e-9);
  EXPECT_LT(algo.resources().residual_compute(2), 8000.0);
}

TEST(OnlineBase, RejectionLeavesStateUntouched) {
  const topo::Topology t = path_topology();
  FakeAlgorithm algo(t);
  algo.mode = FakeAlgorithm::Mode::kReject;
  const AdmissionDecision d = algo.process(simple_request());
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reject_reason, "scripted rejection");
  EXPECT_DOUBLE_EQ(algo.resources().total_allocated_bandwidth(), 0.0);
}

TEST(OnlineBase, OverCommittedFootprintThrowsInsteadOfOverbooking) {
  // Contract violation by try_admit: process() must throw (allocate checks)
  // rather than drive residuals negative.
  const topo::Topology t = path_topology();
  FakeAlgorithm algo(t);
  algo.mode = FakeAlgorithm::Mode::kAdmitOverCommitted;
  EXPECT_THROW(algo.process(simple_request()), std::runtime_error);
  EXPECT_DOUBLE_EQ(algo.resources().total_allocated_bandwidth(), 0.0);
}

TEST(OnlineBase, MalformedRequestRejectedBeforeTryAdmit) {
  const topo::Topology t = path_topology();
  FakeAlgorithm algo(t);
  algo.mode = FakeAlgorithm::Mode::kAdmitValid;
  nfv::Request r = simple_request();
  r.destinations = {0};
  EXPECT_THROW(algo.process(r), std::invalid_argument);
  EXPECT_EQ(algo.num_processed(), 0u);
}

TEST(OnlineBase, ReleaseReturnsResources) {
  const topo::Topology t = path_topology();
  FakeAlgorithm algo(t);
  algo.mode = FakeAlgorithm::Mode::kAdmitValid;
  const AdmissionDecision d = algo.process(simple_request());
  algo.release(d.footprint);
  EXPECT_NEAR(algo.resources().total_allocated_bandwidth(), 0.0, 1e-9);
}

TEST(OnlineBase, SimulatorDetectsBogusTrees) {
  const topo::Topology t = path_topology();
  FakeAlgorithm algo(t);
  algo.mode = FakeAlgorithm::Mode::kAdmitBogusTree;
  const std::vector<nfv::Request> requests{simple_request()};
  EXPECT_THROW(sim::run_online(algo, requests), std::logic_error);
}

TEST(OnlineBase, DynamicSimulatorDetectsBogusTrees) {
  const topo::Topology t = path_topology();
  FakeAlgorithm algo(t);
  algo.mode = FakeAlgorithm::Mode::kAdmitBogusTree;
  std::vector<sim::TimedRequest> workload(1);
  workload[0].request = simple_request();
  workload[0].arrival_time = 0.0;
  workload[0].duration = 1.0;
  EXPECT_THROW(sim::run_online_dynamic(algo, workload), std::logic_error);
  // The step releases the invalid admission before it throws.
  EXPECT_DOUBLE_EQ(algo.resources().total_allocated_bandwidth(), 0.0);
}

TEST(OnlineBase, SoakDetectsBogusTrees) {
  const topo::Topology t = path_topology();
  FakeAlgorithm algo(t);
  algo.mode = FakeAlgorithm::Mode::kAdmitBogusTree;
  util::Rng gen_rng(1);
  util::Rng arrival_rng(2);
  sim::RequestGenerator gen(t, gen_rng);
  sim::SoakOptions options;
  options.num_requests = 10;
  EXPECT_THROW(sim::run_soak(algo, gen, arrival_rng, options), std::logic_error);
  EXPECT_DOUBLE_EQ(algo.resources().total_allocated_bandwidth(), 0.0);
}

TEST(OnlineBase, DaemonAnswersBogusTreeWithErrorAndServesOn) {
  const topo::Topology t = path_topology();
  FakeAlgorithm algo(t);
  algo.mode = FakeAlgorithm::Mode::kAdmitBogusTree;
  algo.valid_from_id = 2;
  std::istringstream in(serve::arrive_line(simple_request(1)) + "\n" +
                        serve::arrive_line(simple_request(2)) + "\n" +
                        serve::depart_line(1) + "\n" + serve::depart_line(2) +
                        "\n{\"cmd\":\"stats\"}\n{\"cmd\":\"snapshot\"}\n");
  serve::IstreamLineSource source(in);
  std::ostringstream out;
  serve::DaemonOptions options;
  options.snapshot_path = testing::TempDir() + "online_base_bogus_tree.snap.json";
  serve::Daemon daemon(algo, {}, options);
  const serve::DaemonStats stats = daemon.run(source, out);

  std::vector<std::string> replies;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) replies.push_back(line);
  ASSERT_EQ(replies.size(), 6u);
  EXPECT_EQ(stats.replies_emitted, 6u);
  EXPECT_EQ(stats.counters.internal_errors, 1u);
  EXPECT_EQ(replies[0].rfind("{\"ok\":false,\"error\":\"internal\"", 0), 0u) << replies[0];
  EXPECT_NE(replies[0].find("invalid pseudo-multicast tree"), std::string::npos);
  EXPECT_EQ(replies[1].rfind("{\"ok\":true", 0), 0u) << replies[1];
  EXPECT_NE(replies[1].find("\"admitted\":true"), std::string::npos) << replies[1];
  // The failed arrival holds nothing, so its depart is a no-op ack.
  EXPECT_NE(replies[2].find("\"released\":false"), std::string::npos) << replies[2];
  EXPECT_NE(replies[3].find("\"released\":true"), std::string::npos) << replies[3];
  EXPECT_EQ(replies[4].rfind("{\"ok\":true,\"cmd\":\"stats\"", 0), 0u) << replies[4];
  EXPECT_NE(replies[4].find("\"internal_errors\":1,"), std::string::npos) << replies[4];
  // The count survives a snapshot round trip; a snapshot written before the
  // field existed reads it as 0.
  serve::Snapshot snapshot = serve::load_snapshot(options.snapshot_path);
  EXPECT_EQ(snapshot.counters.internal_errors, 1u);
  std::string old_text = serve::to_json(snapshot);
  const std::string field = "\"internal_errors\":1,";
  ASSERT_NE(old_text.find(field), std::string::npos) << old_text;
  old_text.erase(old_text.find(field), field.size());
  {
    std::ofstream old_file(options.snapshot_path, std::ios::trunc);
    old_file << old_text;
  }
  EXPECT_EQ(serve::load_snapshot(options.snapshot_path).counters.internal_errors, 0u);
  EXPECT_EQ(stats.active, 0u);
  for (graph::EdgeId e = 0; e < t.graph.num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(algo.resources().residual_bandwidth(e), t.link_bandwidth[e]);
  }
  EXPECT_DOUBLE_EQ(algo.resources().residual_compute(2), t.server_compute[2]);
}

}  // namespace
}  // namespace nfvm::core
