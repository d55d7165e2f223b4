// Self-tests for the benchmark's own helpers. Built beside nfvbench;
// `python3 nfvbench/run.py --selftest` runs them. Exits 1 on any failure.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workloads.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cout << "FAIL: " << what << "\n";
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_percentile_needs_ten_beyond() {
  using nfvbench::percentile;
  // p99 of 1..1000 is rank 990: exactly ten samples lie beyond it.
  expect(percentile(ramp(1000), 0.99) == 990.0, "p99 of 1000 samples is rank 990");
  expect(!percentile(ramp(999), 0.99), "p99 of 999 samples is withheld");
  expect(percentile(ramp(20), 0.50) == 10.0, "p50 of 20 samples is rank 10");
  expect(!percentile(ramp(19), 0.50), "p50 of 19 samples is withheld");
  expect(!percentile({}, 0.50), "no percentile of no samples");
  // Order of the input does not matter.
  std::vector<double> shuffled = ramp(2000);
  std::swap(shuffled.front(), shuffled.back());
  std::swap(shuffled[7], shuffled[1500]);
  expect(percentile(shuffled, 0.99) == 1980.0, "p99 of shuffled 1..2000");
  expect(nfvbench::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(nfvbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
}

void test_metric_names() {
  using nfvbench::valid_metric_name;
  for (const auto* catalogue : {&nfvbench::end_to_end_metrics(), &nfvbench::per_layer_metrics()}) {
    for (const auto& [name, unit] : *catalogue) {
      expect(valid_metric_name(name), "catalogue name " + name);
    }
  }
  expect(!valid_metric_name(""), "empty name rejected");
  expect(!valid_metric_name("has space"), "space rejected");
  expect(!valid_metric_name(".leading_dot"), "leading dot rejected");
  expect(!valid_metric_name("slash/name"), "slash rejected");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters rejected");
  expect(valid_metric_name("graph.dijkstra.runs_per_req-2"), "dots, dashes, underscores");
  for (const nfvbench::Workload& w : nfvbench::workloads()) {
    expect(valid_metric_name(w.name), std::string("workload name ") + w.name);
  }
}

void test_same_seed_same_inputs() {
  for (const bool churn : {false, true}) {
    const auto a = nfvbench::make_online_inputs(7, churn);
    const auto b = nfvbench::make_online_inputs(7, churn);
    const auto c = nfvbench::make_online_inputs(8, churn);
    const std::string kind = churn ? "churn" : "static";
    expect(nfvbench::request_checksum(a.arrivals) == nfvbench::request_checksum(b.arrivals),
           kind + ": same seed, same request checksum");
    expect(nfvbench::request_checksum(a.arrivals) != nfvbench::request_checksum(c.arrivals),
           kind + ": another seed, another request checksum");
  }
  const auto a = nfvbench::make_serve_inputs(7);
  const auto b = nfvbench::make_serve_inputs(7);
  const auto c = nfvbench::make_serve_inputs(8);
  std::string bytes_a, bytes_b;
  for (const auto& line : a.lines) bytes_a += line + "\n";
  for (const auto& line : b.lines) bytes_b += line + "\n";
  expect(!bytes_a.empty() && bytes_a == bytes_b, "same seed, byte-identical serve trace");
  expect(a.due_s == b.due_s, "same seed, same open-loop schedule");
  expect(nfvbench::lines_checksum(a.lines) == nfvbench::lines_checksum(b.lines),
         "same seed, same trace checksum");
  expect(nfvbench::lines_checksum(a.lines) != nfvbench::lines_checksum(c.lines),
         "another seed, another trace checksum");
  expect(a.lines.size() == 2 * a.arrivals, "one depart line per arrive line");
}

void test_spans_nest() {
  nfvbench::SpanRecorder spans(true);
  {
    nfvbench::SpanRecorder::Scope outer(spans, "outer", 1);
    nfvbench::SpanRecorder::Scope inner(spans, "inner", 1);
  }
  { nfvbench::SpanRecorder::Scope next(spans, "next", 2); }
  const auto& s = spans.spans();
  expect(s.size() == 3, "three spans recorded");
  if (s.size() == 3) {
    expect(s[0].parent == -1 && s[1].parent == 0 && s[2].parent == -1, "parents");
    expect(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns, "child inside parent");
    expect(s[2].request_id == 2, "request id kept");
  }
  nfvbench::SpanRecorder off(false);
  { nfvbench::SpanRecorder::Scope scope(off, "ignored", 1); }
  expect(off.spans().empty(), "disabled recorder records nothing");
}

}  // namespace

int main() {
  test_percentile_needs_ten_beyond();
  test_metric_names();
  test_same_seed_same_inputs();
  test_spans_nest();
  std::cout << (failures == 0 ? "nfvbench self-test: all passed\n"
                              : "nfvbench self-test: " + std::to_string(failures) + " failed\n");
  return failures == 0 ? 0 : 1;
}
