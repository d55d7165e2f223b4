// nfvbench: the repository benchmark program.
//
//   nfvbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//   nfvbench --list
//
// Runs one workload (nfvbench/workloads.h), prints every metric with its
// unit as '#' comment lines, and ends stdout with one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones; a traced run also writes <workload>.layers.json and
// <workload>.spans.json to --out-dir when one is given.
//
// Exit codes: 0 correct; 1 a correctness check failed (the JSON line is
// still printed); 2 usage error or unexpected exception; 3 invalid run (the
// open-loop generator fell behind), no result printed.
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "obs/json.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace {

using nfvbench::Metric;
using nfvbench::RunResult;

struct Args {
  std::string workload;
  nfvbench::RunOptions run;
  std::string out_dir;
  bool list = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "nfvbench: " << problem << "\n"
            << "usage: nfvbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n       nfvbench --list\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      args.list = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.run.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.run.seconds = std::stod(value);
        if (!(args.run.seconds > 0.0)) usage("--seconds must be positive");
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.run.trace = value == "1";
        have_trace = true;
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else {
        usage("unknown option " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!args.list && (args.workload.empty() || !have_seed || !have_seconds || !have_trace)) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

/// Puts the metrics in catalogue order and adds the ones the workload does
/// not reach as not applicable, so every run reports the full list.
std::vector<Metric> complete(const std::vector<Metric>& reported,
                             const std::vector<std::pair<std::string, std::string>>& catalogue,
                             RunResult& result) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : reported) {
    if (!nfvbench::valid_metric_name(m.name)) result.fail("bad metric name " + m.name);
    by_name[m.name] = m;
  }
  std::vector<Metric> out;
  for (const auto& [name, unit] : catalogue) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      out.push_back(Metric{name, 0.0, unit, 0, false});
      continue;
    }
    if (it->second.unit != unit) result.fail("metric " + name + " has unit " + it->second.unit);
    out.push_back(it->second);
    by_name.erase(it);
  }
  for (const auto& [name, m] : by_name) result.fail("metric " + name + " is not in the catalogue");
  return out;
}

void write_metrics_json(std::ostream& out, const RunResult& result,
                        const std::vector<Metric>& metrics) {
  nfvm::obs::JsonWriter w(out);
  w.begin_object();
  w.key("correct").value(result.failed == 0);
  w.key("attempted").value(static_cast<std::uint64_t>(result.attempted));
  w.key("failed").value(static_cast<std::uint64_t>(result.failed));
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

int run(const Args& args) {
  const nfvbench::Workload* workload = nullptr;
  for (const nfvbench::Workload& w : nfvbench::workloads()) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown workload " + args.workload);

  nfvm::util::ThreadPool::set_global_threads(1);
  nfvbench::SpanRecorder spans(args.run.trace);
  RunResult result = workload->run(args.run, spans);
  if (!result.invalid.empty()) {
    std::cout << "# " << workload->name << ": INVALID RUN: " << result.invalid << "\n";
    return 3;
  }
  if (!args.run.trace) {
    result.metrics.push_back(Metric{"peak_rss_mb", result.peak_rss_mb, "MiB", 0, true});
  }
  const std::vector<Metric> metrics =
      complete(result.metrics,
               args.run.trace ? nfvbench::per_layer_metrics() : nfvbench::end_to_end_metrics(),
               result);

  std::cout << "# " << workload->name << " seed=" << args.run.seed
            << " seconds=" << args.run.seconds << " trace=" << (args.run.trace ? 1 : 0) << "\n";
  for (const Metric& m : metrics) {
    std::cout << "#   " << m.name << " = ";
    if (!m.applicable) {
      std::cout << "n/a (not on this workload's path; reported as 0)\n";
      continue;
    }
    std::cout << nfvm::obs::json_number(m.value) << " " << m.unit;
    if (m.samples > 0) std::cout << " (n=" << m.samples << ")";
    std::cout << "\n";
  }
  for (const std::string& note : result.notes) std::cout << "# " << note << "\n";
  for (const std::string& error : result.errors) std::cout << "# FAILED: " << error << "\n";
  std::cout << "# " << result.failed << " failed of " << result.attempted << " operations\n";

  if (args.run.trace && !args.out_dir.empty()) {
    const std::string base = args.out_dir + "/" + workload->name;
    std::ofstream layers(base + ".layers.json");
    write_metrics_json(layers, result, metrics);
    layers << "\n";
    std::ofstream span_file(base + ".spans.json");
    spans.write_json(span_file);
    if (!layers || !span_file) {
      std::cerr << "nfvbench: cannot write " << base << ".*.json\n";
      return 2;
    }
    std::cout << "# wrote " << base << ".layers.json and " << spans.spans().size()
              << " spans to " << base << ".spans.json\n";
  }
  write_metrics_json(std::cout, result, metrics);
  std::cout << std::endl;
  return result.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.list) {
    for (const nfvbench::Workload& w : nfvbench::workloads()) {
      std::cout << w.name << "\t" << w.why << "\n";
    }
    return 0;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "nfvbench: " << e.what() << "\n";
    return 2;
  }
}
