// Self-tests of the benchmark's own machinery. Run from the repository
// root:
//
//   .bench_build/perfbench/perfbench_selftest
//
// Exits 0 when every check passes.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "common.hpp"
#include "pipeline.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << '\n';
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return a - b < 1e-12 && b - a < 1e-12; }

void test_percentile() {
  using perfbench::percentile;
  check(percentile({}, 0.5) == 0.0, "percentile of an empty sample is 0");
  check(percentile({7.0}, 0.99) == 7.0, "percentile of one sample");
  check(near(percentile({4, 1, 3, 2}, 0.5), 2.5), "median of 1..4 is 2.5");
  check(near(percentile({4, 1, 3, 2}, 0.0), 1.0), "p0 is the minimum");
  check(near(percentile({4, 1, 3, 2}, 1.0), 4.0), "p100 is the maximum");
  check(near(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9), 9.1),
        "p90 of 1..10 interpolates to 9.1");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  check(near(percentile(hundred, 0.99), 99.01), "p99 of 1..100 is 99.01");
}

void test_metric_names() {
  bool ok = true;
  for (const auto* list :
       {&perfbench::end_to_end_metrics(), &perfbench::per_layer_metrics()})
    for (const auto& [name, unit] : *list)
      ok = ok && perfbench::valid_metric_name(name) && !unit.empty();
  check(ok, "every metric name matches [A-Za-z0-9_.-]+");
  check(!perfbench::valid_metric_name("bad name") &&
            !perfbench::valid_metric_name("") &&
            !perfbench::valid_metric_name("a/b"),
        "names with other characters are rejected");
}

void test_sequences() {
  for (const std::string& w : perfbench::workload_names()) {
    const auto a = perfbench::request_sequence(w, 11, 2);
    const auto b = perfbench::request_sequence(w, 11, 2);
    check(!a.empty() && a == b, w + ": the same seed gives the same requests");
    if (w == "t2x2") continue;  // one fixed request: nothing to order
    const auto c = perfbench::request_sequence(w, 12, 2);
    check(a != c, w + ": another seed gives another request order");
  }
}

void test_corrupted_report() {
  const perfbench::SelectCase c = perfbench::fig2_case(
      [] {
        std::ifstream in("data/fig2.flow");
        return std::string(std::istreambuf_iterator<char>(in), {});
      }(),
      8);
  perfbench::References refs(perfbench::kRefsDir);
  const std::string report = perfbench::run_select(c.request);
  check(refs.matches(c.key, report), "a fresh fig2 report matches its reference");
  std::string corrupted = report;
  corrupted[corrupted.size() / 2] ^= 1;
  check(!refs.matches(c.key, corrupted), "a corrupted report is a failure");
  check(!refs.matches("no-such-request", report),
        "a request without a reference is a failure");

  perfbench::Report r;
  r.attempted = 3;
  r.failed = 1;
  const std::string line = perfbench::result_line(r);
  check(line.find("\"correct\": false") != std::string::npos &&
            line.find("\"failed\": 1") != std::string::npos,
        "a failed request makes the result incorrect");
}

}  // namespace

int main() {
  test_percentile();
  test_metric_names();
  test_sequences();
  test_corrupted_report();
  std::cout << (g_failures ? "FAILED " : "passed ") << g_failures
            << " failure(s)\n";
  return g_failures ? 1 : 0;
}
