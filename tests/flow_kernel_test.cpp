// Compiled per-spec DP kernels (flow/kernel.hpp, DESIGN.md §14): the
// differential property the whole subsystem rests on — for every workload
// and every entry point, the compiled kernel produces bit-identical
// results to the generic engine. Covers path counts, consistent-path
// counts, label-target histograms, Step 2 gains, full selection results at
// --jobs 1 and > 1, the QueryCore/ArtifactStore program cache, the daemon
// (serve) path, and the JobRequest wire encoding of the kernel knob.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "flow/execution.hpp"
#include "flow/kernel.hpp"
#include "netlist/usb_design.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "soc/scenario.hpp"
#include "soc/t2_design.hpp"
#include "testutil.hpp"
#include "tracesel/query_core.hpp"
#include "tracesel/session.hpp"
#include "util/rng.hpp"

namespace tracesel {
namespace {

using test::CoherenceFixture;

flow::InterleaveOptions options_for(flow::KernelMode mode) {
  flow::InterleaveOptions opt;
  opt.kernel = mode;
  return opt;
}

/// One workload of the differential matrix: a factory producing the same
/// interleaving under a caller-chosen options struct.
struct Workload {
  std::string name;
  std::function<flow::InterleavedFlow(const flow::InterleaveOptions&)> build;
  const flow::MessageCatalog* catalog;
};

/// Full-result equality, field by field and bitwise on the doubles.
void expect_identical(const selection::SelectionResult& a,
                      const selection::SelectionResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.combination.messages, b.combination.messages) << what;
  EXPECT_EQ(a.combination.width, b.combination.width) << what;
  EXPECT_EQ(a.packed, b.packed) << what;
  EXPECT_EQ(a.gain, b.gain) << what;
  EXPECT_EQ(a.gain_unpacked, b.gain_unpacked) << what;
  EXPECT_EQ(a.coverage, b.coverage) << what;
  EXPECT_EQ(a.coverage_unpacked, b.coverage_unpacked) << what;
  EXPECT_EQ(a.used_width, b.used_width) << what;
  EXPECT_EQ(a.buffer_width, b.buffer_width) << what;
}

class KernelDifferentialTest : public ::testing::Test {
 protected:
  CoherenceFixture fx_;
  soc::T2Design t2_;
  netlist::UsbDesign usb_;

  std::vector<Workload> matrix() {
    std::vector<Workload> w;
    for (std::uint32_t n = 1; n <= 4; ++n) {
      w.push_back({"fig2@" + std::to_string(n),
                   [this, n](const flow::InterleaveOptions& opt) {
                     return flow::InterleavedFlow::build(
                         flow::make_instances({&fx_.flow_}, n), opt);
                   },
                   &fx_.catalog});
    }
    for (std::uint32_t n = 1; n <= 2; ++n) {
      w.push_back({"usb@" + std::to_string(n),
                   [this, n](const flow::InterleaveOptions& opt) {
                     return usb_.interleaving(n, opt);
                   },
                   &usb_.catalog()});
    }
    for (int id = 1; id <= 4; ++id) {
      w.push_back({"t2-scenario" + std::to_string(id),
                   [this, id](const flow::InterleaveOptions& opt) {
                     return soc::build_interleaving(
                         t2_, soc::scenario_by_id(id), opt);
                   },
                   &t2_.catalog()});
    }
    return w;
  }
};

TEST_F(KernelDifferentialTest, CountsHistogramsAndGainsBitIdentical) {
  for (const Workload& w : matrix()) {
    SCOPED_TRACE(w.name);
    const flow::InterleavedFlow ug =
        w.build(options_for(flow::KernelMode::kGeneric));
    const flow::InterleavedFlow uc =
        w.build(options_for(flow::KernelMode::kCompiled));

    // Path counts: exact, not approximate, equality.
    EXPECT_EQ(ug.count_paths(), uc.count_paths());

    // Label-target histograms (the InfoGainEngine's input).
    const auto& hg = ug.label_target_histograms();
    const auto& hc = uc.label_target_histograms();
    ASSERT_EQ(hg.size(), hc.size());
    for (std::size_t i = 0; i < hg.size(); ++i) {
      EXPECT_EQ(hg[i].label, hc[i].label);
      EXPECT_EQ(hg[i].classes, hc[i].classes);
    }

    // Consistent-path counts over projected real executions.
    const selection::MessageSelector sel_g(*w.catalog, ug);
    const std::vector<flow::MessageId>& cand = sel_g.candidates();
    util::Rng rng(42);
    for (int t = 0; t < 8; ++t) {
      const flow::Execution e = flow::random_execution(ug, rng);
      const auto obs = flow::project(e.trace(), cand);
      EXPECT_EQ(ug.count_consistent_paths(cand, obs),
                uc.count_consistent_paths(cand, obs))
          << "trace " << t;
    }
    EXPECT_EQ(ug.count_consistent_paths(cand, {}),
              uc.count_consistent_paths(cand, {}));

    // Step 2 gains: every candidate prefix, both dispatch modes on the
    // same engine, plus cross-engine.
    const selection::MessageSelector sel_c(*w.catalog, uc);
    std::vector<flow::MessageId> prefix;
    for (flow::MessageId m : cand) {
      prefix.push_back(m);
      const double g =
          sel_g.engine().info_gain(prefix, flow::KernelMode::kGeneric);
      EXPECT_EQ(g,
                sel_g.engine().info_gain(prefix,
                                         flow::KernelMode::kCompiled));
      EXPECT_EQ(g, sel_c.engine().info_gain(prefix,
                                            flow::KernelMode::kCompiled));
      EXPECT_EQ(sel_g.engine().message_contribution(
                    m, flow::KernelMode::kGeneric),
                sel_c.engine().message_contribution(
                    m, flow::KernelMode::kCompiled));
    }
  }
}

TEST_F(KernelDifferentialTest, FullSelectionBitIdenticalAcrossModesAndJobs) {
  // Reference: generic engine, serial.
  auto make_session = [&](flow::KernelMode mode, std::size_t jobs) {
    Session s = Session::t2();
    selection::SelectorConfig cfg;
    cfg.buffer_width = 32;
    cfg.mode = selection::SearchMode::kMaximal;
    cfg.kernel = mode;
    cfg.jobs = jobs;
    s.configure(cfg);
    s.scenario(3);
    return s;
  };
  const selection::SelectionResult ref =
      make_session(flow::KernelMode::kGeneric, 1).select();
  expect_identical(ref, make_session(flow::KernelMode::kCompiled, 1).select(),
                   "compiled serial");
  expect_identical(ref, make_session(flow::KernelMode::kGeneric, 4).select(),
                   "generic jobs=4");
  expect_identical(ref, make_session(flow::KernelMode::kCompiled, 4).select(),
                   "compiled jobs=4");
}

TEST_F(KernelDifferentialTest, FlowConstraintSelectionBitIdentical) {
  auto run = [&](flow::KernelMode mode) {
    Session s = Session::usb();
    selection::SelectorConfig cfg;
    cfg.buffer_width = 16;
    cfg.kernel = mode;
    s.configure(cfg);
    s.interleave(1);
    return s.select_with_flow_constraint();
  };
  expect_identical(run(flow::KernelMode::kGeneric),
                   run(flow::KernelMode::kCompiled), "usb flow-constraint");
}

// --- the compiled program itself ---

class KernelProgramTest : public ::testing::Test {
 protected:
  CoherenceFixture fx_;
};

TEST_F(KernelProgramTest, CompileStatsAreSane) {
  // Fig. 2: 15 product states, 18 edges.
  const flow::InterleavedFlow u = flow::InterleavedFlow::build(
      flow::make_instances({&fx_.flow_}, 2),
      options_for(flow::KernelMode::kCompiled));
  const flow::kernel::Program& p = u.program();
  EXPECT_EQ(p.stats().nodes, 15u);
  EXPECT_EQ(p.stats().edges, 18u);
  EXPECT_EQ(p.stats().labels, 6u);  // 3 messages x 2 instances
  EXPECT_GT(p.stats().table_bytes, 0u);
  EXPECT_GE(p.stats().compile_ms, 0.0);
  EXPECT_EQ(p.count_paths(), u.count_paths());
}

// --- the store/daemon integration ---

class KernelStoreTest : public ::testing::Test {};

TEST_F(KernelStoreTest, QueryCoreSharesResultsAcrossModes) {
  JobRequest compiled;
  compiled.spec = "t2";
  compiled.instances = 3;
  compiled.kernel = flow::KernelMode::kCompiled;
  JobRequest generic = compiled;
  generic.kernel = flow::KernelMode::kGeneric;

  ArtifactStore store;
  auto r1 = QueryCore::run(compiled, &store, util::CancelToken{});
  ASSERT_TRUE(r1.ok());

  // The kernel knob is runtime-only: the generic request must be served
  // from the result cache, bit-for-bit the same object.
  auto r2 = QueryCore::run(generic, &store, util::CancelToken{});
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.value().result_cache_hit);
  EXPECT_EQ(r2.value().result.get(), r1.value().result.get());

  // A fresh store under generic mode computes independently; results must
  // still be bit-identical.
  ArtifactStore fresh;
  auto r3 = QueryCore::run(generic, &fresh, util::CancelToken{});
  ASSERT_TRUE(r3.ok());
  expect_identical(*r1.value().result, *r3.value().result,
                   "t2@3 compiled-store vs generic-store");

  // Re-running compiled hits the workload cache.
  auto r4 = QueryCore::run(compiled, &store, util::CancelToken{});
  ASSERT_TRUE(r4.ok());
  EXPECT_TRUE(r4.value().workload_cache_hit);
}

TEST_F(KernelStoreTest, WireEncodingRoundTripsKernelMode) {
  JobRequest req;
  req.spec = "usb";
  req.kernel = flow::KernelMode::kGeneric;
  auto parsed = parse_job_request(serialize_job_request(req));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().kernel, flow::KernelMode::kGeneric);
  req.kernel = flow::KernelMode::kCompiled;
  parsed = parse_job_request(serialize_job_request(req));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().kernel, flow::KernelMode::kCompiled);
  // The knob never enters the canonical (result-cache) hash.
  JobRequest generic = req;
  generic.kernel = flow::KernelMode::kGeneric;
  EXPECT_EQ(req.canonical_hash(1), generic.canonical_hash(1));
  EXPECT_TRUE(req.same_computation(generic));
}

TEST_F(KernelStoreTest, ServeProducesIdenticalReportsAcrossModes) {
  service::ServerOptions opt;
  opt.socket_path =
      "/tmp/tskern_" + std::to_string(::getpid()) + ".sock";
  opt.runners = 2;
  util::CancelToken shutdown = opt.shutdown;
  service::Server server(std::move(opt));
  ASSERT_TRUE(server.start().ok());
  std::thread serve([&] { server.serve(); });

  auto submit = [&](flow::KernelMode mode) {
    JobRequest req;
    req.spec = "t2";
    req.instances = 3;
    req.kernel = mode;
    auto client =
        service::Client::connect("/tmp/tskern_" +
                                 std::to_string(::getpid()) + ".sock");
    EXPECT_TRUE(client.ok());
    auto outcome = client.value().submit(req, util::CancelToken{}, nullptr);
    EXPECT_TRUE(outcome.ok());
    return std::move(outcome).value();
  };
  const service::JobOutcome compiled = submit(flow::KernelMode::kCompiled);
  const service::JobOutcome generic = submit(flow::KernelMode::kGeneric);
  EXPECT_EQ(compiled.status, "ok");
  EXPECT_EQ(generic.status, "ok");
  // Byte-identical report JSON: the daemon's differential guarantee. (The
  // second submit is additionally a result-cache hit, because the kernel
  // knob is not part of the canonical hash.)
  EXPECT_EQ(compiled.report_json, generic.report_json);
  EXPECT_TRUE(generic.cache_hit);

  shutdown.cancel();
  serve.join();
}

}  // namespace
}  // namespace tracesel
