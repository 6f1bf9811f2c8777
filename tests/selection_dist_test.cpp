// The PR-6 acceptance property: distributed selection is bit-identical to
// the serial search on Fig.2, USB and T2 under every seeded fault schedule
// in {worker-kill, worker-hang, corrupt-frame} x {1, 2, 4 workers}, with
// retries/reassignments observable in the metrics registry. Worker
// processes are the real tracesel_cli binary in --worker mode
// (TRACESEL_WORKER_BIN, injected by tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "tracesel/tracesel.hpp"
#include "util/obs.hpp"

namespace tracesel {
namespace {

using selection::DistConfig;
using selection::DistFaultProfile;
using selection::SelectionResult;

void expect_identical(const SelectionResult& a, const SelectionResult& b) {
  EXPECT_EQ(a.combination.messages, b.combination.messages);
  EXPECT_EQ(a.combination.width, b.combination.width);
  EXPECT_EQ(a.packed, b.packed);
  // EXPECT_EQ on doubles is exact: the contract is bit-identity.
  EXPECT_EQ(a.gain, b.gain);
  EXPECT_EQ(a.gain_unpacked, b.gain_unpacked);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.coverage_unpacked, b.coverage_unpacked);
  EXPECT_EQ(a.used_width, b.used_width);
  EXPECT_EQ(a.buffer_width, b.buffer_width);
  EXPECT_FALSE(b.partial);
}

/// Pins the sharded search the distributed engine farms out: the default
/// knapsack search has no shards and runs in-process.
Session maximal(Session s) {
  s.config().mode = selection::SearchMode::kMaximal;
  return s;
}

Session fig2() {
  return maximal(Session::from_spec_file(TRACESEL_DATA_DIR "/fig2.flow"));
}

DistConfig dist_config(std::size_t workers, const DistFaultProfile& faults) {
  DistConfig dist;
  dist.workers = workers;
  dist.worker_argv = {TRACESEL_WORKER_BIN, "--worker"};
  dist.faults = faults;
  // Fast straggler detection so the hang schedule resolves well inside the
  // ctest timeout; healthy workers heartbeat every 50 ms.
  dist.unit_deadline_ms = 500;
  dist.heartbeat_ms = 50;
  // Keep retry spacing tight for tests.
  dist.backoff.initial_ms = 5;
  dist.backoff.cap_ms = 50;
  return dist;
}

/// Runs the full {fault kind} x {1,2,4 workers} matrix for one session
/// factory against its serial reference.
void run_property_matrix(const std::function<Session()>& make,
                         const char* label) {
  Session reference = make();
  const SelectionResult serial = reference.select();

  const struct {
    const char* name;
    DistFaultProfile faults;
  } kSchedules[] = {
      {"none", {}},
      {"kill", {/*kill_rate=*/0.35, 0.0, 0.0, /*seed=*/7}},
      {"hang", {0.0, /*hang_rate=*/0.35, 0.0, /*seed=*/11}},
      {"corrupt", {0.0, 0.0, /*corrupt_rate=*/0.35, /*seed=*/13}},
  };
  for (const auto& schedule : kSchedules) {
    for (const std::size_t workers : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string(label) + " faults=" + schedule.name +
                   " workers=" + std::to_string(workers));
      Session session = make();
      const auto r =
          session.run_distributed(dist_config(workers, schedule.faults));
      expect_identical(serial, r);
      const auto& stats = session.last_dist_stats();
      EXPECT_EQ(stats.units_completed + stats.units_salvaged,
                stats.units_total);
      EXPECT_GE(stats.workers_spawned, 1u);
      if (schedule.faults.enabled() && stats.faults_injected > 0) {
        // Every injected fault must have left a visible recovery trace.
        EXPECT_GT(stats.units_retried + stats.units_reassigned +
                      stats.units_salvaged,
                  0u);
      }
    }
  }
}

TEST(DistPropertyTest, Fig2BitIdenticalUnderFaultMatrix) {
  run_property_matrix([] { return fig2(); }, "fig2");
}

TEST(DistPropertyTest, UsbBitIdenticalUnderFaultMatrix) {
  run_property_matrix([] { return maximal(Session::usb()); }, "usb");
}

TEST(DistPropertyTest, T2BitIdenticalUnderFaultMatrix) {
  run_property_matrix(
      [] {
        Session s = maximal(Session::t2());
        s.scenario(1);
        return s;
      },
      "t2");
}

TEST(DistTest, RetriesObservableInMetricsRegistry) {
  obs::set_enabled(true);
  obs::reset();
  Session session = fig2();
  DistFaultProfile faults;
  faults.kill_rate = 0.6;  // high enough that some dispatch draws a kill
  faults.seed = 7;
  const auto r = session.run_distributed(dist_config(2, faults));
  obs::set_enabled(false);
  EXPECT_FALSE(r.combination.messages.empty());
  const auto& stats = session.last_dist_stats();
  ASSERT_GT(stats.faults_injected, 0u) << "seed 7 must draw at least one kill";
  EXPECT_GT(obs::registry().counter_value("dist.units.dispatched"), 0u);
  EXPECT_EQ(obs::registry().counter_value("dist.units.retried"),
            stats.units_retried);
  EXPECT_EQ(obs::registry().counter_value("dist.units.total"),
            stats.units_total);
  EXPECT_GT(stats.units_retried + stats.units_salvaged, 0u);
}

TEST(DistTest, MergedTraceHasOneLanePerProcessParentedUnderCoordinator) {
  obs::set_enabled(true);
  obs::reset();
  Session session = fig2();
  const auto r = session.run_distributed(dist_config(2, {}));
  EXPECT_FALSE(r.combination.messages.empty());

  // The coordinator's root span and trace context exist.
  const auto ctx = obs::trace_context();
  EXPECT_NE(ctx.trace_id, 0u);
  std::uint64_t coord_root = 0;
  for (const auto& e : obs::trace_events())
    if (std::string(e.name) == "selection.dist.run") coord_root = e.span_id;
  ASSERT_NE(coord_root, 0u);

  // Worker telemetry was adopted: at least one remote lane labeled
  // tracesel-worker, whose dist.unit root spans parent under the
  // coordinator's run span.
  const auto lanes = obs::adopted_telemetry();
  ASSERT_GE(lanes.size(), 1u);
  std::uint64_t adopted_units = 0;
  for (const auto& lane : lanes) {
    EXPECT_EQ(lane.label, "tracesel-worker");
    EXPECT_EQ(lane.epoch_ns, obs::trace_epoch_ns());  // rebased
    for (const auto& e : lane.events)
      if (e.name == "dist.unit") {
        ++adopted_units;
        EXPECT_EQ(e.parent_id, coord_root);
      }
  }
  EXPECT_GT(adopted_units, 0u);

  // Aggregated metrics = local + sum of every adopted lane: the workers'
  // dist.worker.units counter only exists remotely, so the aggregate must
  // equal the lane sum exactly — and equal the telemetry frame count.
  std::uint64_t lane_units = 0;
  for (const auto& lane : lanes)
    for (const auto& [name, value] : lane.metrics.counters)
      if (name == "dist.worker.units") lane_units += value;
  EXPECT_GT(lane_units, 0u);
  const std::string metrics = obs::metrics_json().dump(2);
  EXPECT_NE(
      metrics.find("\"dist.worker.units\": " + std::to_string(lane_units)),
      std::string::npos)
      << metrics;
  EXPECT_EQ(obs::registry().counter_value("dist.telemetry.frames"),
            adopted_units);

  // One Chrome lane per process: the local process plus each worker.
  const std::string trace = obs::chrome_trace_json().dump(2);
  EXPECT_NE(trace.find("\"tracesel-worker #"), std::string::npos);
  std::size_t lane_metas = 0;
  for (std::size_t pos = trace.find("\"process_name\"");
       pos != std::string::npos;
       pos = trace.find("\"process_name\"", pos + 1))
    ++lane_metas;
  EXPECT_EQ(lane_metas, 1u + lanes.size());

  obs::set_enabled(false);
  obs::reset();
  obs::set_trace_context({});
}

TEST(DistTest, KilledWorkersStillYieldWellFormedMergedTrace) {
  // A kill schedule terminates workers mid-unit: their telemetry frames
  // for completed units still merge, frames lost with the process are
  // simply absent, and the run's trace/metrics stay well-formed.
  obs::set_enabled(true);
  obs::reset();
  Session reference = fig2();
  const auto serial = reference.select();
  obs::reset();

  Session session = fig2();
  DistFaultProfile faults;
  faults.kill_rate = 0.6;
  faults.seed = 7;
  const auto r = session.run_distributed(dist_config(2, faults));
  expect_identical(serial, r);
  ASSERT_GT(session.last_dist_stats().faults_injected, 0u);

  // No rejected frames (kills drop whole connections, not partial bytes
  // through the frame reader), and whatever telemetry arrived merged.
  EXPECT_EQ(obs::registry().counter_value("dist.telemetry.rejected"), 0u);
  for (const auto& lane : obs::adopted_telemetry())
    EXPECT_EQ(lane.label, "tracesel-worker");

  // The merged trace must still be coherent: every adopted dist.unit span
  // parents under the coordinator root.
  std::uint64_t coord_root = 0;
  for (const auto& e : obs::trace_events())
    if (std::string(e.name) == "selection.dist.run") coord_root = e.span_id;
  ASSERT_NE(coord_root, 0u);
  for (const auto& lane : obs::adopted_telemetry())
    for (const auto& e : lane.events)
      if (e.name == "dist.unit") EXPECT_EQ(e.parent_id, coord_root);

  obs::set_enabled(false);
  obs::reset();
  obs::set_trace_context({});
}

TEST(DistTest, BrokenWorkerBinaryDegradesToSalvageIdentically) {
  // Workers that can never speak the protocol (exec fails, immediate
  // death): every unit exhausts its retries and is salvaged in-process.
  // The result must still be bit-identical — graceful degradation, not an
  // abort.
  Session reference = fig2();
  const auto serial = reference.select();

  Session session = fig2();
  DistConfig dist = dist_config(2, {});
  dist.worker_argv = {"/nonexistent/tracesel-worker-xyz", "--worker"};
  dist.max_retries = 1;
  const auto r = session.run_distributed(dist);
  expect_identical(serial, r);
  EXPECT_EQ(session.last_dist_stats().units_salvaged,
            session.last_dist_stats().units_total);
}

TEST(DistTest, ZeroWorkersFallsBackInProcessWithNote) {
  Session session = fig2();
  DistConfig dist;  // workers == 0, no argv
  const auto r = session.run_distributed(dist);
  EXPECT_FALSE(r.combination.messages.empty());
  EXPECT_TRUE(r.degraded());
  EXPECT_NE(r.degradation.find("fell back in-process"), std::string::npos);
}

TEST(DistTest, SequentialModesFallBackInProcess) {
  Session session = fig2();
  session.config().mode = selection::SearchMode::kGreedy;
  const auto r = session.run_distributed(dist_config(2, {}));
  EXPECT_TRUE(r.degraded());
  EXPECT_EQ(session.last_dist_stats().workers_spawned, 0u);
}

TEST(DistTest, FaultInjectorIsPureAndSeeded) {
  DistFaultProfile profile;
  profile.kill_rate = 0.3;
  profile.hang_rate = 0.2;
  profile.corrupt_rate = 0.1;
  profile.seed = 42;
  const selection::DistFaultInjector a(profile);
  const selection::DistFaultInjector b(profile);
  bool any_fault = false;
  for (std::uint64_t unit = 0; unit < 64; ++unit) {
    for (std::uint32_t attempt = 0; attempt < 4; ++attempt) {
      EXPECT_EQ(a.action(unit, attempt), b.action(unit, attempt));
      if (a.action(unit, attempt) != selection::DistFaultAction::kNone)
        any_fault = true;
    }
  }
  EXPECT_TRUE(any_fault);
  profile.seed = 43;
  const selection::DistFaultInjector c(profile);
  bool differs = false;
  for (std::uint64_t unit = 0; unit < 64 && !differs; ++unit)
    differs = a.action(unit, 0) != c.action(unit, 0);
  EXPECT_TRUE(differs) << "different seeds must give different schedules";
}

TEST(DistTest, UnitSizeOneStillMerges) {
  // Maximum fragmentation: every unit is a single seed.
  Session reference = fig2();
  const auto serial = reference.select();
  Session session = fig2();
  DistConfig dist = dist_config(2, {});
  dist.unit_size = 1;
  expect_identical(serial, session.run_distributed(dist));
}

}  // namespace
}  // namespace tracesel
