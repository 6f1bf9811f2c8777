// traceseld cache economics: cold-vs-warm latency through the daemon
// (DESIGN.md §13, docs/service.md). Starts an in-process Server on a real
// Unix socket, submits each design's job cold (computes), warm (result
// index hit) and concurrently from four tenants at once, and reports the
// amortization the daemon's result index buys. Gates on the daemon's
// acceptance property: the warm report must be byte-identical to the cold
// one, and every concurrent tenant must get those same bytes.

#include <unistd.h>

#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

int main() {
  using namespace tracesel;
  using Clock = std::chrono::steady_clock;
  bench::banner("traceseld cache amortization",
                "cold vs warm vs 4-tenant-concurrent job latency through "
                "the daemon");

  service::ServerOptions opt;
  opt.socket_path =
      "/tmp/tsvc_bench_" + std::to_string(::getpid()) + ".sock";
  opt.runners = 4;
  const util::CancelToken shutdown = opt.shutdown;
  service::Server server(std::move(opt));
  const auto started = server.start();
  if (!started.ok()) {
    std::cerr << started.error().to_string() << '\n';
    return 1;
  }
  std::thread daemon([&] { server.serve(); });

  struct Case {
    const char* name;
    JobRequest request;
  };
  std::vector<Case> cases;
  {
    JobRequest fig2;
    fig2.spec = std::string(TRACESEL_DATA_DIR) + "/fig2.flow";
    fig2.buffer_width = 2;
    cases.push_back({"fig2 (2 inst)", fig2});
    JobRequest t2;
    t2.spec = "t2";
    t2.instances = 1;
    cases.push_back({"t2 scenario 1", t2});
    JobRequest usb;
    usb.spec = "usb";
    cases.push_back({"usb (2 inst)", usb});
  }

  const auto submit_ms = [&](const JobRequest& req, std::string* report) {
    auto client = service::Client::connect(server.socket_path());
    if (!client.ok()) throw std::runtime_error(client.error().to_string());
    const auto t0 = Clock::now();
    auto out = client.value().submit(req);
    if (!out.ok()) throw std::runtime_error(out.error().to_string());
    if (!out.value().ok())
      throw std::runtime_error("job status: " + out.value().status);
    if (report) *report = out.value().report_json;
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };

  util::Table table({"Workload", "Cold (ms)", "Warm (ms)", "Speedup",
                     "4 tenants warm (ms, max)", "Identical"});
  util::Json results = util::Json::array();
  bool all_identical = true;
  for (const Case& c : cases) {
    std::string cold_report, warm_report;
    const double cold_ms = submit_ms(c.request, &cold_report);
    const double warm_ms = submit_ms(c.request, &warm_report);

    // Four tenants ask for the already-cached answer at once.
    std::vector<std::thread> tenants;
    std::vector<std::string> tenant_reports(4);
    std::vector<double> tenant_ms(4);
    for (int i = 0; i < 4; ++i)
      tenants.emplace_back([&, i] {
        tenant_ms[i] = submit_ms(c.request, &tenant_reports[i]);
      });
    for (auto& t : tenants) t.join();
    double concurrent_max = 0;
    bool identical = warm_report == cold_report && !cold_report.empty();
    for (int i = 0; i < 4; ++i) {
      concurrent_max = std::max(concurrent_max, tenant_ms[i]);
      identical = identical && tenant_reports[i] == cold_report;
    }
    all_identical = all_identical && identical;

    table.add_row({c.name, util::fixed(cold_ms, 2), util::fixed(warm_ms, 2),
                   util::fixed(warm_ms > 0 ? cold_ms / warm_ms : 0.0, 1) +
                       "x",
                   util::fixed(concurrent_max, 2),
                   identical ? "yes" : "NO"});
    util::Json row = util::Json::object();
    row.set("workload", util::Json::string(c.name));
    row.set("cold_ms", util::Json::number(cold_ms));
    row.set("warm_ms", util::Json::number(warm_ms));
    row.set("concurrent_warm_max_ms", util::Json::number(concurrent_max));
    row.set("identical", util::Json::boolean(identical));
    results.push_back(std::move(row));
  }
  std::cout << table << '\n';

  const auto stats = server.stats();
  std::cout << "result index: " << stats.result_hits << " hits, "
            << stats.result_misses << " misses\n";
  bench::note("warm latency is protocol overhead only - the answer is one "
              "cache lookup; concurrent tenants share the entry without "
              "recomputing");

  shutdown.cancel();
  daemon.join();

  util::Json out = util::Json::object();
  out.set("results", std::move(results));
  out.set("result_hits",
          util::Json::number(stats.result_hits));
  if (!bench::write_json("BENCH_service.json", std::move(out))) return 1;
  if (!all_identical) {
    std::cerr << "FAIL: daemon reports diverged from the cold compute\n";
    return 1;
  }
  return 0;
}
