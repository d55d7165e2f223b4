#include "workloads.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <streambuf>

#include "core/appro_multi.h"
#include "core/cost_model.h"
#include "core/online_cp.h"
#include "core/pseudo_tree.h"
#include "obs/metrics.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/trace_gen.h"
#include "sim/request_gen.h"
#include "topology/geant.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvbench {

namespace core = nfvm::core;
namespace nfv = nfvm::nfv;
namespace serve = nfvm::serve;
namespace sim = nfvm::sim;
namespace topo = nfvm::topo;
namespace util = nfvm::util;

namespace {

// --- Workload parameters ----------------------------------------------------
// The topologies are fixed instances (seed 1, the CLI default: Waxman-400
// has 818 links and 40 servers, GEANT 40 nodes and 9 servers); --seed draws
// the requests, the trace and the open-loop schedule.
constexpr std::uint64_t kTopologySeed = 1;
constexpr std::size_t kWaxmanNodes = 400;
constexpr std::size_t kOnlineArrivals = 1000;
constexpr double kChurnArrivalRate = 1.0;
constexpr double kChurnMeanHolding = 300.0;
constexpr std::size_t kServeArrivals = 5000;
constexpr double kServeMeanHolding = 200.0;
/// Open-loop offered rate for serve-geant, lines per second: about half
/// the saturated rate measured when the benchmark was defined (also stated
/// in BENCHMARK.json's workload description).
constexpr double kOpenLoopRate = 8000.0;
/// An open-loop pass is invalid when the generator's p99 lateness exceeds
/// this: the offered schedule was then not the one the latency claims.
constexpr double kMaxGenLagUs = 500.0;
constexpr std::size_t kOfflineRequests = 1000;
constexpr std::size_t kOfflineMaxServers = 3;
/// Set-up is repeated and its median reported.
constexpr int kSetupRepeats = 9;
/// Requests (online, offline) or lines (serve) run once on a throwaway
/// instance during set-up so that caches and lazy state are warm.
constexpr std::size_t kWarmup = 20;
/// After the final departures every residual must be back at its capacity
/// within this many units in the last place of the capacity: residuals are
/// accumulated doubles (allocate subtracts, release adds back).
constexpr double kResidualUlps = 64.0;
/// Error messages kept per run.
constexpr std::size_t kMaxErrors = 8;

// --- Timing helpers -----------------------------------------------------------

struct SetupTimes {
  double topology_s = 0.0;
  double workload_s = 0.0;
  double construct_s = 0.0;
  double total() const { return topology_s + workload_s + construct_s; }
};

/// Runs `once` kSetupRepeats times; returns the repeat with the median total
/// (so the three parts add up to the reported set-up time) and checks that
/// every repeat generated the same inputs.
template <typename Inputs>
std::pair<Inputs, SetupTimes> timed_setup(
    RunResult& result, const std::function<Inputs(SetupTimes&)>& once,
    const std::function<std::uint64_t(const Inputs&)>& checksum) {
  std::vector<std::pair<SetupTimes, std::uint64_t>> repeats;
  std::optional<Inputs> kept;
  for (int i = 0; i < kSetupRepeats; ++i) {
    SetupTimes times;
    Inputs inputs = once(times);
    repeats.emplace_back(times, checksum(inputs));
    if (!kept) kept.emplace(std::move(inputs));
  }
  for (const auto& [times, sum] : repeats) {
    if (sum != repeats.front().second) {
      result.fail("set-up generated different inputs from the same seed");
    }
  }
  std::sort(repeats.begin(), repeats.end(), [](const auto& a, const auto& b) {
    return a.first.total() < b.first.total();
  });
  return {std::move(*kept), repeats[repeats.size() / 2].first};
}

// --- obs::Registry counters read around a measured pass -----------------------

struct Counters {
  std::uint64_t spcache_hits = 0;
  std::uint64_t spcache_misses = 0;
  std::uint64_t keyed_evictions = 0;
  std::uint64_t dijkstra_runs = 0;
  std::uint64_t dial_runs = 0;
  std::uint64_t edges_scanned = 0;
  std::uint64_t kmb_finish_runs = 0;
  std::uint64_t view_rebuilds = 0;
  std::uint64_t view_patches = 0;

  static Counters read() {
    auto& r = nfvm::obs::Registry::global();
    const auto v = [&r](std::string_view name) { return r.counter(name)->value(); };
    return Counters{v("graph.spcache.hits"),          v("graph.spcache.misses"),
                    v("graph.spcache.keyed_evictions"), v("graph.dijkstra.runs"),
                    v("graph.dijkstra.dial_runs"),    v("graph.dijkstra.edges_scanned"),
                    v("graph.steiner.kmb_finish.runs"), v("core.online.view_rebuilds"),
                    v("core.online.view_patches")};
  }

  void add_delta(const Counters& before, const Counters& after) {
    spcache_hits += after.spcache_hits - before.spcache_hits;
    spcache_misses += after.spcache_misses - before.spcache_misses;
    keyed_evictions += after.keyed_evictions - before.keyed_evictions;
    dijkstra_runs += after.dijkstra_runs - before.dijkstra_runs;
    dial_runs += after.dial_runs - before.dial_runs;
    edges_scanned += after.edges_scanned - before.edges_scanned;
    kmb_finish_runs += after.kmb_finish_runs - before.kmb_finish_runs;
    view_rebuilds += after.view_rebuilds - before.view_rebuilds;
    view_patches += after.view_patches - before.view_patches;
  }
};

/// Everything the traced passes of one run accumulate for the per-layer
/// report.
struct LayerStats {
  std::size_t requests = 0;  ///< arrivals / offline requests in traced passes
  std::size_t records = 0;   ///< RequestRecords seen
  double classify_us = 0, closure_us = 0, eval_us = 0, realize_us = 0,
         view_patch_us = 0, total_us = 0;
  std::uint64_t servers_evaluated = 0, candidates_feasible = 0;
  std::vector<double> release_us, validate_us, parse_us, reply_us;
  Counters counters;
  std::uint64_t combos_explored = 0, combos_pruned = 0;
  bool offline = false;

  void add_record(const core::RequestRecord& r) {
    ++records;
    classify_us += r.classify_us;
    closure_us += r.closure_us;
    eval_us += r.eval_us;
    realize_us += r.realize_us;
    view_patch_us += r.view_patch_us;
    total_us += r.total_us;
    servers_evaluated += r.servers_evaluated;
    candidates_feasible += r.candidates_feasible;
  }
};

/// Times `call` into `samples` (when non-null) inside a span.
template <typename F>
auto timed(SpanRecorder& spans, const char* name, std::uint64_t id,
           std::vector<double>* samples, F&& call) {
  SpanRecorder::Scope scope(spans, name, id);
  if (samples == nullptr) return call();
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    samples->push_back(us_between(t0, Clock::now()));
  } else {
    auto value = call();
    samples->push_back(us_between(t0, Clock::now()));
    return value;
  }
}

void add_decision(Checksum& sum, std::uint64_t id, bool admitted,
                  const core::PseudoMulticastTree& tree, int reject_cause) {
  sum.add_u64(id);
  sum.add_u64(admitted ? 1 : 0);
  sum.add_u64(static_cast<std::uint64_t>(reject_cause));
  if (!admitted) return;
  sum.add_double(tree.cost);
  for (const auto v : tree.servers) sum.add_u64(v);
  for (const auto& [e, uses] : tree.edge_uses) {
    sum.add_u64(e);
    sum.add_u64(static_cast<std::uint64_t>(uses));
  }
}

/// Residuals back at capacity after the final departures (within
/// kResidualUlps); returns the largest error seen, in ulps.
double check_residuals(const nfv::ResourceState& state, const topo::Topology& t,
                       RunResult& result) {
  double worst = 0.0;
  const auto check = [&](double cap, double residual, const std::string& what) {
    if (cap <= 0.0) return;
    const double ulp = std::nextafter(cap, std::numeric_limits<double>::infinity()) - cap;
    const double error = std::abs(cap - residual) / ulp;
    worst = std::max(worst, error);
    if (error > kResidualUlps) {
      result.fail(what + " residual " + std::to_string(residual) +
                  " not back at capacity " + std::to_string(cap));
    }
  };
  for (std::size_t e = 0; e < state.num_links(); ++e) {
    check(state.bandwidth_capacity(static_cast<nfvm::graph::EdgeId>(e)),
          state.residual_bandwidth(static_cast<nfvm::graph::EdgeId>(e)),
          "link " + std::to_string(e));
  }
  for (const auto v : t.servers) {
    check(state.compute_capacity(v), state.residual_compute(v),
          "server " + std::to_string(v));
  }
  return worst;
}

void check_tree(const topo::Topology& t, const nfv::Request& request,
                const core::PseudoMulticastTree& tree, SpanRecorder& spans,
                std::vector<double>* samples, RunResult& result) {
  std::string error;
  const bool ok = timed(spans, "core.validate_pseudo_tree", request.id, samples,
                        [&] { return core::validate_pseudo_tree(t.graph, request, tree, &error); });
  if (!ok) result.fail("request " + std::to_string(request.id) + ": invalid tree: " + error);
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << value;
  return out.str();
}

/// Checks that every pass produced the same decisions.
void check_checksums(const std::vector<std::uint64_t>& sums, RunResult& result,
                     const char* what) {
  for (const std::uint64_t s : sums) {
    if (s != sums.front()) {
      result.fail(std::string(what) + " checksum differs between passes");
      return;
    }
  }
  result.notes.push_back(std::string(what) + " checksum " + hex(sums.front()) +
                         " identical over " + std::to_string(sums.size()) + " passes");
}

/// Alternates untraced (false) and traced (true) passes when tracing, else
/// runs untraced passes only, until the run's time is spent and every side
/// has its minimum number of passes.
void run_passes(const RunOptions& options, Clock::time_point start, std::size_t min_passes,
                const std::function<void(bool traced)>& pass) {
  std::size_t untraced = 0, traced = 0;
  for (;;) {
    const bool want_traced = options.trace && traced < untraced;
    pass(want_traced);
    (want_traced ? traced : untraced) += 1;
    const bool enough = untraced >= min_passes && (!options.trace || traced >= min_passes);
    if (enough && seconds_between(start, Clock::now()) >= options.seconds) return;
  }
}

// --- Metric assembly ------------------------------------------------------------

Metric metric(std::string name, double value, std::string unit, std::size_t samples = 0) {
  return Metric{std::move(name), value, std::move(unit), samples, true};
}

/// p50/p99 of `samples` as end-to-end metrics; a percentile without enough
/// samples beyond it fails the run instead of being reported.
void add_latency(RunResult& result, const std::vector<double>& samples) {
  for (const auto& [name, q] : {std::pair{"latency_us_p50", 0.50}, {"latency_us_p99", 0.99}}) {
    const std::optional<double> p = percentile(samples, q);
    if (!p) {
      result.fail(std::string(name) + ": too few samples (" +
                  std::to_string(samples.size()) + ")");
      continue;
    }
    result.metrics.push_back(metric(name, *p, "us", samples.size()));
  }
}

void add_setup_layers(RunResult& result, const SetupTimes& setup) {
  result.metrics.push_back(metric("topology.build_s", setup.topology_s, "s"));
  result.metrics.push_back(metric("sim.workload_gen_s", setup.workload_s, "s"));
  result.metrics.push_back(metric("core.online.construct_s", setup.construct_s, "s"));
}

/// Per-layer metrics from the traced passes. `serve_layers` carries the
/// metrics only serve-geant measures; absent ones are reported as not
/// applicable.
struct ServeLayers {
  double self_us_per_line = 0.0;
  std::vector<double> gen_lag_us;    ///< every open-loop pass
  std::vector<double> open_loop_us;  ///< due-to-reply, valid passes only
};

void add_layer_metrics(RunResult& result, const LayerStats& s,
                       const std::optional<ServeLayers>& serve_layers,
                       double untraced_pass_s, double traced_pass_s) {
  auto& m = result.metrics;
  const auto ratio = [&](const std::string& name, double num, double den,
                         const std::string& unit) {
    if (den > 0.0) m.push_back(metric(name, num / den, unit));
  };
  const auto pct = [&](const std::string& name, const std::vector<double>& samples, double q) {
    if (samples.empty()) return;  // the layer is not on this workload's path
    const std::optional<double> p = percentile(samples, q);
    if (!p) {
      result.fail(name + ": too few samples (" + std::to_string(samples.size()) + ")");
      return;
    }
    m.push_back(metric(name, *p, "us", samples.size()));
  };
  const auto records = static_cast<double>(s.records);
  ratio("core.phase.classify_us", s.classify_us, records, "us");
  ratio("core.phase.closure_us", s.closure_us, records, "us");
  ratio("core.phase.eval_us", s.eval_us, records, "us");
  ratio("core.phase.realize_us", s.realize_us, records, "us");
  ratio("core.phase.view_patch_us", s.view_patch_us, records, "us");
  ratio("core.phase.closure_share", s.closure_us, s.total_us, "ratio");
  ratio("core.phase.eval_share", s.eval_us, s.total_us, "ratio");
  ratio("core.online.feasible_ratio", static_cast<double>(s.candidates_feasible),
        static_cast<double>(s.servers_evaluated), "ratio");
  pct("core.online.release_us_p50", s.release_us, 0.50);
  pct("core.online.release_us_p99", s.release_us, 0.99);
  const auto requests = static_cast<double>(s.requests);
  if (!s.offline) {
    ratio("core.online.view_rebuilds_per_req", static_cast<double>(s.counters.view_rebuilds),
          requests, "count");
    ratio("core.online.view_patches_per_req", static_cast<double>(s.counters.view_patches),
          requests, "count");
  }
  pct("core.validate_us_p50", s.validate_us, 0.50);
  const Counters& c = s.counters;
  ratio("graph.spcache.hit_ratio", static_cast<double>(c.spcache_hits),
        static_cast<double>(c.spcache_hits + c.spcache_misses), "ratio");
  ratio("graph.spcache.keyed_evictions_per_req", static_cast<double>(c.keyed_evictions),
        c.spcache_hits + c.spcache_misses > 0 ? requests : 0.0, "count");
  ratio("graph.dijkstra.runs_per_req", static_cast<double>(c.dijkstra_runs), requests, "count");
  ratio("graph.dijkstra.edges_scanned_per_req", static_cast<double>(c.edges_scanned),
        requests, "count");
  ratio("graph.dijkstra.dial_ratio", static_cast<double>(c.dial_runs),
        static_cast<double>(c.dijkstra_runs), "ratio");
  ratio("graph.steiner.kmb_finish.runs_per_req", static_cast<double>(c.kmb_finish_runs),
        requests, "count");
  pct("serve.protocol.parse_us_p50", s.parse_us, 0.50);
  pct("serve.protocol.reply_us_p50", s.reply_us, 0.50);
  if (serve_layers) {
    m.push_back(metric("serve.daemon.self_us_per_line", serve_layers->self_us_per_line, "us"));
    pct("serve.gen_lag_us_p99", serve_layers->gen_lag_us, 0.99);
    pct("serve.openloop.latency_us_p50", serve_layers->open_loop_us, 0.50);
    pct("serve.openloop.latency_us_p99", serve_layers->open_loop_us, 0.99);
  }
  if (s.offline) {
    ratio("core.appro_multi.combinations_explored_per_req",
          static_cast<double>(s.combos_explored), requests, "count");
    ratio("core.appro_multi.combinations_pruned_per_req",
          static_cast<double>(s.combos_pruned), requests, "count");
    ratio("core.appro_multi.prune_ratio", static_cast<double>(s.combos_pruned),
          static_cast<double>(s.combos_explored + s.combos_pruned), "ratio");
  }
  m.push_back(metric("obs.trace_overhead_pct",
                     100.0 * (traced_pass_s / untraced_pass_s - 1.0), "%"));
}

// --- Online_CP on Waxman-400 --------------------------------------------------------

topo::Topology make_waxman400() {
  util::Rng rng(kTopologySeed);
  topo::WaxmanOptions options;
  options.target_mean_degree = 4.0;  // as nfvm-sim builds Waxman graphs
  return topo::make_waxman(kWaxmanNodes, rng, options);
}

std::vector<sim::TimedRequest> make_arrivals(const topo::Topology& t, std::uint64_t seed,
                                             bool churn) {
  util::Rng rng(seed);
  sim::RequestGenerator generator(t, rng);
  if (churn) {
    sim::DynamicWorkloadOptions dyn;
    dyn.arrival_rate = kChurnArrivalRate;
    dyn.mean_duration = kChurnMeanHolding;
    return sim::make_poisson_workload(generator, rng, kOnlineArrivals, dyn);
  }
  std::vector<sim::TimedRequest> arrivals;
  for (nfv::Request& r : generator.sequence(kOnlineArrivals)) {
    const double at = static_cast<double>(arrivals.size());
    arrivals.push_back(
        sim::TimedRequest{std::move(r), at, std::numeric_limits<double>::infinity()});
  }
  return arrivals;
}

struct OnlinePass {
  double wall_s = 0.0;  ///< the arrival loop: process() and release() calls
  std::vector<double> process_us;
  std::size_t admitted = 0;
  double cost_sum = 0.0;
  std::uint64_t checksum = 0;
  double residual_ulps = 0.0;
};

/// One pass of the arrival sequence through a fresh Online_CP, releasing
/// every departed footprint before the next arrival (run_online_dynamic's
/// order; ties in departure time release in arrival order). The remaining
/// footprints are released after the timed loop; trees are validated after
/// it too.
OnlinePass online_pass(const OnlineInputs& in, bool churn, bool traced, SpanRecorder& spans,
                       LayerStats& layers, RunResult& result) {
  core::OnlineCp algo(in.topo);
  algo.set_record_provenance(traced);
  std::vector<double>* release_samples = traced ? &layers.release_us : nullptr;

  OnlinePass pass;
  pass.process_us.reserve(in.arrivals.size());
  std::vector<core::AdmissionDecision> decisions(in.arrivals.size());
  using Departure = std::pair<double, std::size_t>;
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>> departures;
  const auto release = [&](std::size_t i) {
    ++result.attempted;
    try {
      timed(spans, "core.release", in.arrivals[i].request.id, release_samples,
            [&] { algo.release(decisions[i].footprint); });
    } catch (const std::exception& e) {
      result.fail(std::string("release threw: ") + e.what());
    }
  };

  const Counters before = Counters::read();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < in.arrivals.size(); ++i) {
    const sim::TimedRequest& arrival = in.arrivals[i];
    while (!departures.empty() && departures.top().first <= arrival.arrival_time) {
      release(departures.top().second);
      departures.pop();
    }
    ++result.attempted;
    const auto t0 = Clock::now();
    try {
      SpanRecorder::Scope scope(spans, "core.process", arrival.request.id);
      decisions[i] = algo.process(arrival.request);
    } catch (const std::exception& e) {
      result.fail(std::string("process threw: ") + e.what());
    }
    pass.process_us.push_back(us_between(t0, Clock::now()));
    if (churn && decisions[i].admitted) {
      departures.emplace(arrival.arrival_time + arrival.duration, i);
    }
  }
  pass.wall_s = seconds_between(start, Clock::now());
  if (traced) layers.counters.add_delta(before, Counters::read());

  while (!departures.empty()) {
    release(departures.top().second);
    departures.pop();
  }
  if (churn) pass.residual_ulps = check_residuals(algo.resources(), in.topo, result);

  Checksum sum;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const core::AdmissionDecision& d = decisions[i];
    const nfv::Request& request = in.arrivals[i].request;
    add_decision(sum, request.id, d.admitted, d.tree, static_cast<int>(d.reject_cause));
    if (traced) {
      ++layers.requests;
      if (d.record) layers.add_record(*d.record);
    }
    if (!d.admitted) continue;
    ++pass.admitted;
    pass.cost_sum += d.tree.cost;
    check_tree(in.topo, request, d.tree, spans, traced ? &layers.validate_us : nullptr, result);
  }
  pass.checksum = sum.value();
  return pass;
}

RunResult run_online(const RunOptions& options, SpanRecorder& spans, bool churn) {
  RunResult result;
  const std::function<OnlineInputs(SetupTimes&)> once = [&](SetupTimes& times) {
    auto t0 = Clock::now();
    OnlineInputs in{make_waxman400(), {}};
    auto t1 = Clock::now();
    in.arrivals = make_arrivals(in.topo, options.seed, churn);
    auto t2 = Clock::now();
    {
      core::OnlineCp warm(in.topo);
      for (std::size_t i = 0; i < kWarmup; ++i) warm.process(in.arrivals[i].request);
    }
    times = {seconds_between(t0, t1), seconds_between(t1, t2), seconds_between(t2, Clock::now())};
    return in;
  };
  const std::function<std::uint64_t(const OnlineInputs&)> sum =
      [](const OnlineInputs& in) { return request_checksum(in.arrivals); };
  const auto inputs = timed_setup(result, once, sum);
  const auto& [in, setup] = inputs;

  std::vector<OnlinePass> untraced;
  std::vector<double> traced_wall;
  std::vector<std::uint64_t> checksums;
  LayerStats layers;
  double worst_ulps = 0.0;
  const auto start = Clock::now();
  run_passes(options, start, 2, [&](bool traced) {
    SpanRecorder off(false);
    // Spans are kept for the first traced pass only.
    SpanRecorder& recorder = traced && traced_wall.empty() ? spans : off;
    OnlinePass pass = online_pass(in, churn, traced, recorder, layers, result);
    checksums.push_back(pass.checksum);
    if (untraced.size() == 1 && !traced) result.peak_rss_mb = peak_rss_mb();
    worst_ulps = std::max(worst_ulps, pass.residual_ulps);
    if (traced) {
      traced_wall.push_back(pass.wall_s);
    } else {
      untraced.push_back(std::move(pass));
    }
  });
  check_checksums(checksums, result, "decision");
  if (churn) {
    result.notes.push_back("largest residual error after the final departures: " +
                           std::to_string(worst_ulps) + " ulp (bound " +
                           std::to_string(kResidualUlps) + ")");
  }

  std::vector<double> wall;
  for (const OnlinePass& p : untraced) wall.push_back(p.wall_s);
  if (options.trace) {
    add_setup_layers(result, setup);
    add_layer_metrics(result, layers, std::nullopt, median(wall), median(traced_wall));
    return result;
  }
  std::vector<double> throughput, latency;
  for (const OnlinePass& p : untraced) {
    throughput.push_back(static_cast<double>(in.arrivals.size()) / p.wall_s);
    latency.insert(latency.end(), p.process_us.begin(), p.process_us.end());
  }
  const OnlinePass& first = untraced.front();
  auto& m = result.metrics;
  m.push_back(metric("setup_s", setup.total(), "s", kSetupRepeats));
  m.push_back(metric("throughput_rps", median(throughput), "1/s", throughput.size()));
  add_latency(result, latency);
  m.push_back(metric("acceptance",
                     static_cast<double>(first.admitted) / static_cast<double>(in.arrivals.size()),
                     "ratio"));
  m.push_back(metric("mean_cost", first.cost_sum / static_cast<double>(first.admitted), "cost"));
  return result;
}

// --- nfvm-serve on GEANT ------------------------------------------------------

topo::Topology make_geant() {
  util::Rng rng(kTopologySeed);
  return topo::make_geant(rng);
}

/// Fills in the arrive/depart trace and its open-loop due times.
void add_serve_trace(ServeInputs& in, std::uint64_t seed) {
  serve::TraceGenOptions trace;
  trace.num_requests = kServeArrivals;
  trace.mean_duration = kServeMeanHolding;
  util::Rng workload(seed);
  std::ostringstream out;
  const serve::TraceSummary summary = serve::write_serve_trace(out, in.topo, workload, trace);
  in.arrivals = summary.arrive_lines;
  std::istringstream text(out.str());
  in.lines.reserve(summary.total_lines);
  for (std::string line; std::getline(text, line);) in.lines.push_back(std::move(line));
  // Poisson due times for the open-loop phase, from a stream of their own.
  util::Rng schedule(seed ^ 0x6f70656e6c6f6f70ULL);
  in.due_s.reserve(in.lines.size());
  double at = 0.0;
  for (std::size_t i = 0; i < in.lines.size(); ++i) {
    at += schedule.exponential(kOpenLoopRate);
    in.due_s.push_back(at);
  }
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_current_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Hands the daemon's reader thread one trace line per next() call; with a
/// schedule, each line only when it is due, recording how late it was
/// handed over. The wait spins: on a virtual machine a sleeping thread can
/// wake milliseconds late, which would make the generator, not the daemon,
/// set the latency.
class TraceSource final : public serve::LineSource {
 public:
  TraceSource(const std::vector<std::string>& lines, const std::vector<double>* due_s,
              Clock::time_point start, int pin_cpu)
      : lines_(lines), due_s_(due_s), start_(start), pin_cpu_(pin_cpu) {
    if (due_s_ != nullptr) lag_us_.reserve(lines.size());
  }

  bool next(std::string& line) override {
    if (index_ == lines_.size()) return false;
    if (index_ == 0 && pin_cpu_ >= 0) pin_current_thread(pin_cpu_);
    if (due_s_ != nullptr) {
      const Clock::time_point due = due_time(index_);
      while (Clock::now() < due) {
      }
      lag_us_.push_back(us_between(due, Clock::now()));
    }
    line = lines_[index_++];
    return true;
  }

  Clock::time_point due_time(std::size_t i) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>((*due_s_)[i]));
  }
  const std::vector<double>& lag_us() const { return lag_us_; }

 private:
  const std::vector<std::string>& lines_;
  const std::vector<double>* due_s_;
  Clock::time_point start_;
  int pin_cpu_;
  std::size_t index_ = 0;
  std::vector<double> lag_us_;
};

/// The daemon's output stream: keeps every reply byte and stamps the time
/// each reply line was completed.
class ReplyCapture final : public std::streambuf {
 public:
  explicit ReplyCapture(std::size_t lines) {
    text_.reserve(lines * 96);
    stamps_.reserve(lines);
  }
  const std::string& text() const { return text_; }
  const std::vector<Clock::time_point>& stamps() const { return stamps_; }

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) {
      const char ch = traits_type::to_char_type(c);
      xsputn(&ch, 1);
    }
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    text_.append(s, static_cast<std::size_t>(n));
    for (std::streamsize i = 0; i < n; ++i) {
      if (s[i] == '\n') stamps_.push_back(Clock::now());
    }
    return n;
  }

 private:
  std::string text_;
  std::vector<Clock::time_point> stamps_;
};

bool is_arrive_line(const std::string& line) {
  return line.compare(0, 15, "{\"cmd\":\"arrive\"") == 0;
}

struct DaemonPass {
  double wall_s = 0.0;
  std::uint64_t checksum = 0;
  /// Saturated: time from the previous reply to each arrive reply - the
  /// daemon's service time per decision, since its queue never runs dry.
  std::vector<double> service_us;
  /// Open loop: due-to-reply time of every line, and generator lateness.
  std::vector<double> latency_us;
  std::vector<double> lag_us;
};

/// One Daemon::run over the whole trace with a fresh Online_CP: saturated
/// (every line available at once) or open-loop (each line at its due time,
/// the daemon's main thread and the spinning reader pinned to two CPUs so
/// that neither waits behind the other).
DaemonPass daemon_pass(const ServeInputs& in, bool open_loop, SpanRecorder& spans,
                       RunResult& result) {
  core::OnlineCp algo(in.topo);
  serve::Daemon daemon(algo, {}, serve::DaemonOptions{});
  const std::vector<int> cpus = allowed_cpus();
  cpu_set_t saved;
  const bool pin = open_loop && cpus.size() >= 2 &&
                   pthread_getaffinity_np(pthread_self(), sizeof saved, &saved) == 0;
  if (pin) pin_current_thread(cpus[0]);
  // Give the reader thread time to start before the first line is due.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  TraceSource source(in.lines, open_loop ? &in.due_s : nullptr, start, pin ? cpus[1] : -1);
  ReplyCapture capture(in.lines.size());
  std::ostream out(&capture);

  DaemonPass pass;
  result.attempted += in.lines.size();
  const auto t0 = Clock::now();
  serve::DaemonStats stats;
  {
    SpanRecorder::Scope scope(spans, "serve.daemon.run", 0);
    stats = daemon.run(source, out);
  }
  pass.wall_s = seconds_between(t0, Clock::now());
  if (pin) pthread_setaffinity_np(pthread_self(), sizeof saved, &saved);

  const std::vector<Clock::time_point>& stamps = capture.stamps();
  if (stats.replies_emitted != in.lines.size() || stamps.size() != in.lines.size()) {
    result.fail("daemon answered " + std::to_string(stamps.size()) + " of " +
                std::to_string(in.lines.size()) + " lines");
    return pass;
  }
  std::size_t error_replies = 0;
  std::istringstream replies(capture.text());
  for (std::string reply; std::getline(replies, reply);) {
    if (reply.rfind("{\"ok\":false", 0) == 0) ++error_replies;
  }
  if (error_replies > 0) {
    result.fail("daemon sent " + std::to_string(error_replies) + " error replies",
                error_replies);
  }
  if (stats.active != 0) result.fail("requests still active after the final departures");
  check_residuals(algo.resources(), in.topo, result);

  Checksum sum;
  sum.add(capture.text());
  pass.checksum = sum.value();
  if (open_loop) {
    pass.latency_us.reserve(stamps.size());
    for (std::size_t i = 0; i < stamps.size(); ++i) {
      pass.latency_us.push_back(us_between(source.due_time(i), stamps[i]));
    }
    pass.lag_us = source.lag_us();
  } else {
    for (std::size_t i = 1; i < stamps.size(); ++i) {
      if (is_arrive_line(in.lines[i])) pass.service_us.push_back(us_between(stamps[i - 1], stamps[i]));
    }
  }
  return pass;
}

struct DirectPass {
  double wall_s = 0.0;
  std::uint64_t checksum = 0;
  std::size_t admitted = 0;
  double cost_sum = 0.0;
};

/// The daemon's work without the daemon: parse each line, process or
/// release, build the reply - on the calling thread, with the same
/// bookkeeping, so its reply stream must equal the daemon's byte for byte.
/// Traced passes time each call and record provenance; `validate` checks
/// every admitted tree.
DirectPass direct_pass(const ServeInputs& in, bool traced, bool validate, SpanRecorder& spans,
                       LayerStats& layers, RunResult& result) {
  core::OnlineCp algo(in.topo);
  algo.set_record_provenance(traced);
  const auto samples = [traced](std::vector<double>& v) { return traced ? &v : nullptr; };
  std::map<std::uint64_t, nfv::Footprint> active;
  std::set<std::uint64_t> rejected;
  Checksum sum;
  DirectPass pass;
  std::uint64_t offset = 0;

  const Counters before = Counters::read();
  const auto start = Clock::now();
  for (std::size_t k = 0; k < in.lines.size(); ++k) {
    const std::string& line = in.lines[k];
    const serve::LinePosition position{offset, k + 1};
    offset += line.size() + 1;
    serve::ParseFailure failure;
    const std::optional<serve::Command> command =
        timed(spans, "serve.parse_command", k + 1, samples(layers.parse_us),
              [&] { return serve::parse_command(line, position, in.topo.graph, failure); });
    std::string reply;
    if (!command) {
      result.fail("line " + std::to_string(k + 1) + " did not parse: " + failure.reply);
      reply = failure.reply;
    } else if (command->kind == serve::CommandKind::kArrive) {
      const nfv::Request& request = command->request;
      core::AdmissionDecision decision;
      try {
        SpanRecorder::Scope scope(spans, "core.process", request.id);
        decision = algo.process(request);
      } catch (const std::exception& e) {
        result.fail(std::string("process threw: ") + e.what());
      }
      if (traced && decision.record) layers.add_record(*decision.record);
      if (traced) ++layers.requests;
      if (decision.admitted) {
        ++pass.admitted;
        pass.cost_sum += decision.tree.cost;
        if (validate) {
          check_tree(in.topo, request, decision.tree, spans, samples(layers.validate_us), result);
        }
        active[request.id] = decision.footprint;
      } else {
        rejected.insert(request.id);
      }
      reply = timed(spans, "serve.arrive_reply", request.id, samples(layers.reply_us),
                    [&] { return serve::arrive_reply(request.id, decision, active.size()); });
    } else if (command->kind == serve::CommandKind::kDepart) {
      const std::uint64_t id = command->request.id;
      bool released = false;
      if (const auto it = active.find(id); it != active.end()) {
        try {
          timed(spans, "core.release", id, samples(layers.release_us),
                [&] { algo.release(it->second); });
        } catch (const std::exception& e) {
          result.fail(std::string("release threw: ") + e.what());
        }
        active.erase(it);
        released = true;
      } else if (rejected.erase(id) == 0) {
        result.fail("depart for unknown id " + std::to_string(id));
      }
      reply = timed(spans, "serve.depart_reply", id, samples(layers.reply_us),
                    [&] { return serve::depart_reply(id, released, active.size()); });
    } else {
      result.fail("unexpected command on line " + std::to_string(k + 1));
    }
    sum.add(reply);
    sum.add("\n");
  }
  pass.wall_s = seconds_between(start, Clock::now());
  if (traced) layers.counters.add_delta(before, Counters::read());
  result.attempted += in.lines.size();
  if (!active.empty()) result.fail("requests still active after the final departures");
  check_residuals(algo.resources(), in.topo, result);
  pass.checksum = sum.value();
  return pass;
}

RunResult run_serve(const RunOptions& options, SpanRecorder& spans) {
  RunResult result;
  const std::function<ServeInputs(SetupTimes&)> once = [&](SetupTimes& times) {
    auto t0 = Clock::now();
    ServeInputs in;
    in.topo = make_geant();
    auto t1 = Clock::now();
    add_serve_trace(in, options.seed);
    auto t2 = Clock::now();
    {
      core::OnlineCp warm(in.topo);
      serve::Daemon daemon(warm, {}, serve::DaemonOptions{});
      const std::vector<std::string> prefix(in.lines.begin(),
                                            in.lines.begin() + static_cast<std::ptrdiff_t>(kWarmup));
      TraceSource source(prefix, nullptr, Clock::now(), -1);
      ReplyCapture capture(prefix.size());
      std::ostream out(&capture);
      daemon.run(source, out);
    }
    times = {seconds_between(t0, t1), seconds_between(t1, t2), seconds_between(t2, Clock::now())};
    return in;
  };
  const std::function<std::uint64_t(const ServeInputs&)> sum =
      [](const ServeInputs& in) { return lines_checksum(in.lines); };
  const auto inputs = timed_setup(result, once, sum);
  const auto& [in, setup] = inputs;

  LayerStats layers;
  std::vector<std::uint64_t> checksums;
  SpanRecorder off(false);
  // The reference reply stream every daemon pass must reproduce; the
  // untraced run validates every admitted tree here (the traced run does it
  // in its traced direct passes).
  const DirectPass reference = direct_pass(in, false, !options.trace, off, layers, result);
  checksums.push_back(reference.checksum);

  const auto start = Clock::now();
  const auto elapsed = [&] { return seconds_between(start, Clock::now()); };
  if (!options.trace) {
    std::vector<double> rps, service;
    do {
      const DaemonPass pass = daemon_pass(in, false, off, result);
      checksums.push_back(pass.checksum);
      rps.push_back(static_cast<double>(in.lines.size()) / pass.wall_s);
      service.insert(service.end(), pass.service_us.begin(), pass.service_us.end());
      if (rps.size() == 2) result.peak_rss_mb = peak_rss_mb();
    } while (rps.size() < 2 || elapsed() < options.seconds);
    check_checksums(checksums, result, "reply stream");
    auto& m = result.metrics;
    m.push_back(metric("setup_s", setup.total(), "s", kSetupRepeats));
    m.push_back(metric("throughput_rps", median(rps), "1/s", rps.size()));
    add_latency(result, service);
    m.push_back(metric("acceptance",
                       static_cast<double>(reference.admitted) / static_cast<double>(in.arrivals),
                       "ratio"));
    m.push_back(metric("mean_cost", reference.cost_sum / static_cast<double>(reference.admitted),
                       "cost"));
    return result;
  }

  // Traced run, first half: saturated daemon passes, each followed by an
  // untraced and a traced direct pass over the same trace.
  std::vector<double> rps, direct_wall, traced_wall;
  do {
    const DaemonPass pass = daemon_pass(in, false, off, result);
    checksums.push_back(pass.checksum);
    rps.push_back(static_cast<double>(in.lines.size()) / pass.wall_s);
    direct_wall.push_back(direct_pass(in, false, false, off, layers, result).wall_s);
    SpanRecorder& recorder = traced_wall.empty() ? spans : off;
    const DirectPass traced = direct_pass(in, true, true, recorder, layers, result);
    checksums.push_back(traced.checksum);
    traced_wall.push_back(traced.wall_s);
  } while (rps.size() < 2 || elapsed() < options.seconds / 2);

  // Second half: open-loop passes. A pass whose generator ran late is not
  // a measurement of the offered schedule; its latency is dropped.
  ServeLayers serve_layers;
  std::size_t open_passes = 0, valid_passes = 0;
  std::vector<double> lag;
  do {
    const DaemonPass pass = daemon_pass(in, true, off, result);
    checksums.push_back(pass.checksum);
    ++open_passes;
    lag.insert(lag.end(), pass.lag_us.begin(), pass.lag_us.end());
    const std::optional<double> pass_lag = percentile(pass.lag_us, 0.99);
    if (!pass_lag || *pass_lag > kMaxGenLagUs) continue;
    ++valid_passes;
    serve_layers.open_loop_us.insert(serve_layers.open_loop_us.end(), pass.latency_us.begin(),
                                     pass.latency_us.end());
  } while (elapsed() < options.seconds);
  check_checksums(checksums, result, "reply stream");
  result.notes.push_back("open loop at " + std::to_string(kOpenLoopRate) + " lines/s: " +
                         std::to_string(valid_passes) + " of " + std::to_string(open_passes) +
                         " passes valid (generator lag p99 <= " +
                         std::to_string(kMaxGenLagUs) + " us)");
  if (valid_passes == 0) {
    result.invalid = "the open-loop generator fell behind in every pass";
    return result;
  }
  const double lines = static_cast<double>(in.lines.size());
  serve_layers.self_us_per_line = 1e6 / median(rps) - 1e6 * median(direct_wall) / lines;
  serve_layers.gen_lag_us = std::move(lag);
  add_setup_layers(result, setup);
  add_layer_metrics(result, layers, serve_layers, median(direct_wall), median(traced_wall));
  return result;
}

// --- Appro_Multi on GEANT -------------------------------------------------------

struct OfflineInputs {
  topo::Topology topo;
  core::LinearCosts costs;
  std::vector<sim::TimedRequest> requests;
};

struct OfflinePass {
  double wall_s = 0.0;
  std::vector<double> call_us;
  std::size_t admitted = 0;
  double cost_sum = 0.0;
  std::uint64_t checksum = 0;
};

core::ApproMultiOptions offline_options() {
  core::ApproMultiOptions options;
  options.max_servers = kOfflineMaxServers;
  options.engine = core::ApproMultiOptions::Engine::kSharedDijkstra;
  return options;
}

OfflinePass offline_pass(const OfflineInputs& in, bool traced, SpanRecorder& spans,
                         LayerStats& layers, RunResult& result) {
  const core::ApproMultiOptions options = offline_options();
  std::vector<core::OfflineSolution> solutions(in.requests.size());
  OfflinePass pass;
  pass.call_us.reserve(in.requests.size());
  const Counters before = Counters::read();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    const nfv::Request& request = in.requests[i].request;
    ++result.attempted;
    const auto t0 = Clock::now();
    try {
      SpanRecorder::Scope scope(spans, "core.appro_multi", request.id);
      solutions[i] = core::appro_multi(in.topo, in.costs, request, options);
    } catch (const std::exception& e) {
      result.fail(std::string("appro_multi threw: ") + e.what());
    }
    pass.call_us.push_back(us_between(t0, Clock::now()));
  }
  pass.wall_s = seconds_between(start, Clock::now());
  if (traced) layers.counters.add_delta(before, Counters::read());

  Checksum sum;
  for (std::size_t i = 0; i < solutions.size(); ++i) {
    const core::OfflineSolution& s = solutions[i];
    const nfv::Request& request = in.requests[i].request;
    add_decision(sum, request.id, s.admitted, s.tree, 0);
    if (traced) {
      ++layers.requests;
      layers.combos_explored += s.combinations_explored;
      layers.combos_pruned += s.combinations_pruned;
    }
    if (!s.admitted) continue;
    ++pass.admitted;
    pass.cost_sum += s.tree.cost;
    check_tree(in.topo, request, s.tree, spans, traced ? &layers.validate_us : nullptr, result);
  }
  pass.checksum = sum.value();
  return pass;
}

RunResult run_offline(const RunOptions& options, SpanRecorder& spans) {
  RunResult result;
  const std::function<OfflineInputs(SetupTimes&)> once = [&](SetupTimes& times) {
    auto t0 = Clock::now();
    OfflineInputs in;
    in.topo = make_geant();
    util::Rng cost_rng(kTopologySeed + 2);  // nfvm-sim's cost stream
    in.costs = core::random_costs(in.topo, cost_rng);
    auto t1 = Clock::now();
    util::Rng workload(options.seed);
    sim::RequestGenerator generator(in.topo, workload);
    for (nfv::Request& r : generator.sequence(kOfflineRequests)) {
      in.requests.push_back(sim::TimedRequest{std::move(r), 0.0, 0.0});
    }
    auto t2 = Clock::now();
    for (std::size_t i = 0; i < kWarmup; ++i) {
      core::appro_multi(in.topo, in.costs, in.requests[i].request, offline_options());
    }
    times = {seconds_between(t0, t1), seconds_between(t1, t2), seconds_between(t2, Clock::now())};
    return in;
  };
  const std::function<std::uint64_t(const OfflineInputs&)> sum =
      [](const OfflineInputs& in) { return request_checksum(in.requests); };
  const auto inputs = timed_setup(result, once, sum);
  const auto& [in, setup] = inputs;

  std::vector<OfflinePass> untraced;
  std::vector<double> traced_wall;
  std::vector<std::uint64_t> checksums;
  LayerStats layers;
  layers.offline = true;
  run_passes(options, Clock::now(), 2, [&](bool traced) {
    SpanRecorder off(false);
    SpanRecorder& recorder = traced && traced_wall.empty() ? spans : off;
    OfflinePass pass = offline_pass(in, traced, recorder, layers, result);
    checksums.push_back(pass.checksum);
    if (untraced.size() == 1 && !traced) result.peak_rss_mb = peak_rss_mb();
    if (traced) {
      traced_wall.push_back(pass.wall_s);
    } else {
      untraced.push_back(std::move(pass));
    }
  });
  check_checksums(checksums, result, "solution");

  std::vector<double> wall;
  for (const OfflinePass& p : untraced) wall.push_back(p.wall_s);
  if (options.trace) {
    add_setup_layers(result, setup);
    add_layer_metrics(result, layers, std::nullopt, median(wall), median(traced_wall));
    return result;
  }
  std::vector<double> throughput, latency;
  for (const OfflinePass& p : untraced) {
    throughput.push_back(static_cast<double>(in.requests.size()) / p.wall_s);
    latency.insert(latency.end(), p.call_us.begin(), p.call_us.end());
  }
  const OfflinePass& first = untraced.front();
  auto& m = result.metrics;
  m.push_back(metric("setup_s", setup.total(), "s", kSetupRepeats));
  m.push_back(metric("throughput_rps", median(throughput), "1/s", throughput.size()));
  add_latency(result, latency);
  m.push_back(metric("acceptance",
                     static_cast<double>(first.admitted) / static_cast<double>(in.requests.size()),
                     "ratio"));
  m.push_back(metric("mean_cost", first.cost_sum / static_cast<double>(first.admitted), "cost"));
  return result;
}

}  // namespace

void RunResult::fail(const std::string& what, std::size_t count) {
  failed += count;
  if (errors.size() < kMaxErrors) errors.push_back(what);
}

OnlineInputs make_online_inputs(std::uint64_t seed, bool churn) {
  OnlineInputs in{make_waxman400(), {}};
  in.arrivals = make_arrivals(in.topo, seed, churn);
  return in;
}

ServeInputs make_serve_inputs(std::uint64_t seed) {
  ServeInputs in;
  in.topo = make_geant();
  add_serve_trace(in, seed);
  return in;
}

std::uint64_t request_checksum(const std::vector<sim::TimedRequest>& requests) {
  Checksum sum;
  for (const sim::TimedRequest& tr : requests) {
    sum.add(tr.request.to_string());
    sum.add_double(tr.request.bandwidth_mbps);
    sum.add_double(tr.arrival_time);
    sum.add_double(tr.duration);
  }
  return sum.value();
}

std::uint64_t lines_checksum(const std::vector<std::string>& lines) {
  Checksum sum;
  for (const std::string& line : lines) {
    sum.add(line);
    sum.add("\n");
  }
  return sum.value();
}

const std::vector<Workload>& workloads() {
  // Descriptions as in BENCHMARK.json.
  static const std::vector<Workload> all = {
      {"cp-static-wax400",
       "Online_CP on Waxman-400, 1000 arrivals, no departures (Figs. 8/9): closure and eval "
       "dominate a decision and the SP-tree cache hits",
       [](const RunOptions& o, SpanRecorder& s) { return run_online(o, s, false); }},
      {"cp-churn-wax400",
       "Online_CP on Waxman-400, Poisson arrivals (rate 1), holding mean 300: every "
       "release() drops the SP cache and rebuilds the view",
       [](const RunOptions& o, SpanRecorder& s) { return run_online(o, s, true); }},
      {"serve-geant",
       "nfvm-serve Daemon::run replaying a GEANT arrive/depart trace; traced run adds an "
       "open loop at 8000 lines/s; parse, replies and queue handoff show",
       run_serve},
      {"offline-k3-geant",
       "Appro_Multi K=3 with the shared-Dijkstra engine on GEANT (Figs. 5/6): the only path "
       "through combo_search and its branch-and-bound",
       run_offline},
  };
  return all;
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> all = {
      {"setup_s", "s"},           {"throughput_rps", "1/s"}, {"latency_us_p50", "us"},
      {"latency_us_p99", "us"},   {"acceptance", "ratio"},   {"mean_cost", "cost"},
      {"peak_rss_mb", "MiB"},
  };
  return all;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> all = {
      {"core.phase.classify_us", "us"},
      {"core.phase.closure_us", "us"},
      {"core.phase.eval_us", "us"},
      {"core.phase.realize_us", "us"},
      {"core.phase.view_patch_us", "us"},
      {"core.phase.closure_share", "ratio"},
      {"core.phase.eval_share", "ratio"},
      {"core.online.feasible_ratio", "ratio"},
      {"core.online.release_us_p50", "us"},
      {"core.online.release_us_p99", "us"},
      {"core.online.view_rebuilds_per_req", "count"},
      {"core.online.view_patches_per_req", "count"},
      {"core.validate_us_p50", "us"},
      {"graph.spcache.hit_ratio", "ratio"},
      {"graph.spcache.keyed_evictions_per_req", "count"},
      {"graph.dijkstra.runs_per_req", "count"},
      {"graph.dijkstra.edges_scanned_per_req", "count"},
      {"graph.dijkstra.dial_ratio", "ratio"},
      {"graph.steiner.kmb_finish.runs_per_req", "count"},
      {"serve.protocol.parse_us_p50", "us"},
      {"serve.protocol.reply_us_p50", "us"},
      {"serve.daemon.self_us_per_line", "us"},
      {"serve.gen_lag_us_p99", "us"},
      {"serve.openloop.latency_us_p50", "us"},
      {"serve.openloop.latency_us_p99", "us"},
      {"core.appro_multi.combinations_explored_per_req", "count"},
      {"core.appro_multi.combinations_pruned_per_req", "count"},
      {"core.appro_multi.prune_ratio", "ratio"},
      {"topology.build_s", "s"},
      {"sim.workload_gen_s", "s"},
      {"core.online.construct_s", "s"},
      {"obs.trace_overhead_pct", "%"},
  };
  return all;
}

}  // namespace nfvbench
