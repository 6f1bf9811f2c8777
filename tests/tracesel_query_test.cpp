// The query API: JobRequest's canonical wire format and hash, the
// ArtifactStore's workload cache, the daemon's result index, and the
// property the daemon's whole value rests on — a cache hit is
// bit-identical to a cold compute.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "debug/serialize.hpp"
#include "flow/product_grid.hpp"
#include "local_daemon.hpp"
#include "selection/localization.hpp"
#include "service/journal.hpp"
#include "testutil.hpp"
#include "tracesel/artifact_store.hpp"
#include "tracesel/job_request.hpp"
#include "tracesel/query_core.hpp"
#include "util/atomic_file.hpp"
#include "util/cancel.hpp"
#include "util/framing.hpp"

namespace tracesel {
namespace {

JobRequest fig2_request() {
  JobRequest req;
  req.spec = std::string(TRACESEL_DATA_DIR) + "/fig2.flow";
  req.instances = 2;
  req.buffer_width = 2;
  return req;
}

// --- JobRequest -------------------------------------------------------

TEST(JobRequest, SerializeParseRoundTrip) {
  JobRequest req;
  req.spec = "some/path.flow";
  req.spec_text = "flow F {\n  # inline, with newlines\n}\nend\n";
  req.instances = 3;
  req.max_nodes = 12345;
  req.kind = JobRequest::Kind::kSelectFlowConstraint;
  req.buffer_width = 24;
  req.mode = selection::SearchMode::kKnapsack;
  req.packing = false;
  req.max_combinations = 999;
  req.deadline_ms = 1500;

  const auto parsed = parse_job_request(serialize_job_request(req));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const JobRequest& p = parsed.value();
  EXPECT_EQ(p.spec, req.spec);
  EXPECT_EQ(p.spec_text, req.spec_text);
  EXPECT_EQ(p.instances, req.instances);
  EXPECT_EQ(p.max_nodes, req.max_nodes);
  EXPECT_EQ(p.kind, req.kind);
  EXPECT_EQ(p.buffer_width, req.buffer_width);
  EXPECT_EQ(p.mode, req.mode);
  EXPECT_EQ(p.packing, req.packing);
  EXPECT_EQ(p.max_combinations, req.max_combinations);
  EXPECT_EQ(p.deadline_ms, req.deadline_ms);
  EXPECT_TRUE(p.same_computation(req));
}

TEST(JobRequest, OldDefaultMaximalRecordReplaysToTheSameBytes) {
  // Requests written while `maximal` was the default search mode spell it
  // out: serialize_job_request always writes the mode line, so making
  // knapsack the default rewrites no request and needs no
  // JobRequest::kVersion bump. Such a record parses back to the maximal
  // search, re-serializes to itself, and reports the bytes it always did,
  // which for this workload are also the new default's bytes.
  const std::string record = util::encode_envelope(
      "tracesel-job", JobRequest::kVersion,
      "kind select\nspec " + std::string(TRACESEL_DATA_DIR) +
          "/fig2.flow\ninstances 2\nmax_nodes 2000000\nbuffer_width 2\n"
          "mode maximal\npacking 1\nmax_combinations 4194304\n"
          "deadline_ms 0\ntrace_id 0\nparent_span_id 0\ntenant -\n"
          "spec_text 0\n\nend\n");

  JobRequest maximal = fig2_request();
  maximal.mode = selection::SearchMode::kMaximal;
  EXPECT_EQ(fig2_request().mode, selection::SearchMode::kKnapsack);
  const auto report = [](const JobRequest& req) {
    const auto r = QueryCore::run(req, nullptr, {});
    EXPECT_TRUE(r.ok());
    return r.ok() ? selection::to_json(*r.value().workload->catalog,
                                       *r.value().result)
                        .dump(2)
                  : std::string();
  };
  const auto parsed = parse_job_request(record);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().mode, selection::SearchMode::kMaximal);
  EXPECT_EQ(serialize_job_request(parsed.value()), record);
  EXPECT_TRUE(parsed.value().same_computation(maximal));

  const std::string replayed = report(parsed.value());
  EXPECT_EQ(replayed, report(maximal));
  EXPECT_EQ(replayed, report(fig2_request()));
}

TEST(JobRequest, Version2DropsTheRetiredEngineLines) {
  // The envelope has one version. It carries none of the lines versions 1
  // and 2 did; an envelope of either old version, or a retired line in
  // today's, fails to parse with kParse.
  const std::string wire = serialize_job_request(fig2_request());
  EXPECT_EQ(wire.rfind("tracesel-job " + std::to_string(JobRequest::kVersion) +
                           " ",
                       0),
            0u);
  const auto body = util::decode_envelope(wire, "tracesel-job",
                                          JobRequest::kVersion, "job request");
  ASSERT_TRUE(body.ok());
  for (const std::uint32_t old : {1u, 2u}) {
    SCOPED_TRACE(old);
    const auto parsed = parse_job_request(
        util::encode_envelope("tracesel-job", old, std::string(body.value())));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, util::ErrorCode::kParse);
  }
  for (const std::string line : {"symmetry_reduction 1", "mem_budget_mb 0",
                                 "kernel compiled", "jobs 4"}) {
    SCOPED_TRACE(line);
    EXPECT_EQ(wire.find("\n" + line.substr(0, line.find(' ')) + " "),
              std::string::npos);
    const auto parsed = parse_job_request(util::encode_envelope(
        "tracesel-job", JobRequest::kVersion,
        line + "\n" + std::string(body.value())));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, util::ErrorCode::kParse);
  }
}

TEST(JobRequest, CanonicalHashIgnoresRuntimeKnobsOnly) {
  const std::uint64_t source = 0x1234abcdu;
  JobRequest a;
  const std::uint64_t base = a.canonical_hash(source);

  // Runtime knobs: identical answers under any deadline, so they must not
  // fragment the cache.
  JobRequest b = a;
  b.deadline_ms = 10;
  // The node cap only decides whether a product build fails, and the
  // symmetry_reduction field is ignored.
  b.max_nodes = 10;
  b.symmetry_reduction = false;
  EXPECT_EQ(b.canonical_hash(source), base);
  EXPECT_TRUE(b.same_computation(a));

  // Every structural knob must move the key.
  JobRequest c = a;
  c.buffer_width = 16;
  EXPECT_NE(c.canonical_hash(source), base);
  EXPECT_FALSE(c.same_computation(a));
  c = a;
  c.instances = 3;
  EXPECT_NE(c.canonical_hash(source), base);
  c = a;
  c.mode = selection::SearchMode::kExhaustive;
  EXPECT_NE(c.canonical_hash(source), base);
  c = a;
  c.packing = false;
  EXPECT_NE(c.canonical_hash(source), base);
  c = a;
  c.kind = JobRequest::Kind::kSelectFlowConstraint;
  EXPECT_NE(c.canonical_hash(source), base);
  EXPECT_NE(a.canonical_hash(source ^ 1), base);
}

TEST(JobRequest, ParseRejectsGarbage) {
  EXPECT_FALSE(parse_job_request("not a job request").ok());
  JobRequest req;  // neither spec nor spec_text
  req.spec.clear();
  EXPECT_FALSE(parse_job_request(serialize_job_request(req)).ok());
}

TEST(JobRequest, WireRejectsOutOfRangeFields) {
  // instances and buffer_width are u32: a wider value is malformed, never
  // truncated.
  const std::string wire = serialize_job_request(fig2_request());
  const auto payload = util::decode_envelope(wire, "tracesel-job",
                                             JobRequest::kVersion, "job");
  ASSERT_TRUE(payload.ok());
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string body(payload.value());
    const std::size_t at = body.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    body.replace(at, from.size(), to);
    return parse_job_request(
        util::encode_envelope("tracesel-job", JobRequest::kVersion, body));
  };
  for (const char* field : {"instances", "buffer_width"}) {
    const std::string line = std::string(field) + " 2\n";
    const auto wide = with(line, std::string(field) + " 4294967296\n");
    ASSERT_FALSE(wide.ok()) << field;
    EXPECT_EQ(wide.error().code, util::ErrorCode::kParse);
    EXPECT_NE(wide.error().message.find(field), std::string::npos);
    const auto max = with(line, std::string(field) + " 4294967295\n");
    ASSERT_TRUE(max.ok()) << max.error().to_string();
  }
  EXPECT_EQ(with("instances 2\n", "instances 4294967295\n").value().instances,
            4294967295u);
  // A flag is 0 or 1, not any integer.
  EXPECT_EQ(with("packing 1\n", "packing 2\n").error().code,
            util::ErrorCode::kParse);
}

// --- ArtifactStore ----------------------------------------------------

TEST(ArtifactStore, ThrowingBuildersAreNotCached) {
  ArtifactStore store;
  bool hit = true;
  // A throwing builder surfaces to its caller and leaves the key vacant.
  EXPECT_THROW(store.workload(7,
                              []() -> std::shared_ptr<const Workload> {
                                throw std::runtime_error("boom");
                              },
                              &hit),
               std::runtime_error);
  EXPECT_FALSE(hit);
  EXPECT_EQ(store.stats().workload_entries, 0u);
  // The key still works afterwards, and then serves its first build.
  const auto good =
      store.workload(7, [] { return std::make_shared<const Workload>(); }, &hit);
  ASSERT_TRUE(good);
  EXPECT_FALSE(hit);
  const auto again =
      store.workload(7, [] { return std::make_shared<const Workload>(); }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(again.get(), good.get());
  const auto s = store.stats();
  EXPECT_EQ(s.workload_entries, 1u);
  EXPECT_EQ(s.workload_hits, 1u);
  EXPECT_EQ(s.workload_misses, 2u);
  EXPECT_EQ(s.result_hits + s.result_misses, 0u);
}

TEST(ArtifactStore, EvictsTheOldestWorkloadPastTheCap) {
  // One key past the cap: the first key is evicted, every later one is
  // still served from the cache.
  ArtifactStore store;
  const auto build = [] { return std::make_shared<const Workload>(); };
  constexpr std::uint64_t kKeys = ArtifactStore::kMaxWorkloads + 1;
  for (std::uint64_t key = 1; key <= kKeys; ++key) store.workload(key, build);
  EXPECT_EQ(store.stats().workload_entries, ArtifactStore::kMaxWorkloads);
  bool hit = false;
  for (std::uint64_t key = kKeys; key >= 2; --key) {
    store.workload(key, build, &hit);
    EXPECT_TRUE(hit) << "key " << key;
  }
  store.workload(1, build, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(store.stats().workload_entries, ArtifactStore::kMaxWorkloads);
}

TEST(ArtifactStore, ConcurrentMissesShareTheFirstInsert) {
  // Requesters that miss one key at once may each build, but the first
  // insert wins: every caller gets the one cached workload.
  ArtifactStore store;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const Workload>> got(8);
  for (int i = 0; i < 8; ++i)
    threads.emplace_back([&, i] {
      got[i] =
          store.workload(99, [] { return std::make_shared<const Workload>(); });
    });
  for (auto& t : threads) t.join();
  const auto cached = store.workload(99, [] { return nullptr; });
  for (int i = 0; i < 8; ++i) EXPECT_EQ(got[i].get(), cached.get());
  EXPECT_EQ(store.stats().workload_entries, 1u);
}

// --- the daemon's result index ------------------------------------------

TEST(ResultIndex, CachesResultsByKeyWithCollisionGuard) {
  // A journal that was never opened keeps the result index in memory:
  // completed() indexes a report without writing anything.
  service::JobJournal index;
  const JobRequest req = fig2_request();
  index.completed(1, 42, req, "first");
  auto hit = index.load_result(42, req);
  ASSERT_TRUE(hit.ok()) << hit.error().to_string();
  EXPECT_EQ(hit.value(), "first");

  // Same key, different computation: a hash collision is a miss, never
  // the other job's answer, and the original entry is untouched.
  JobRequest other = req;
  other.buffer_width = 8;
  EXPECT_FALSE(other.same_computation(req));
  EXPECT_FALSE(index.load_result(42, other).ok());
  hit = index.load_result(42, req);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value(), "first");

  // A partial or failed job completes without a report and is not served.
  index.completed(2, 43);
  EXPECT_FALSE(index.load_result(43, req).ok());
  EXPECT_FALSE(index.enabled());
  EXPECT_EQ(index.bytes(), 0u);
  EXPECT_EQ(index.records_appended(), 0u);

  // Through a journal-less daemon: a repeat is a cache hit.
  test::expect_repeat_served_from_index(req, req);
}

// --- QueryCore through the store -------------------------------------

/// The acceptance property: a repeat answers from a cache, and its
/// serialized report is byte-identical to a storeless compute. QueryCore
/// runs share the workload through the store; a journal-less daemon
/// serves the repeat from its result index.
void expect_cached_run_bit_identical(const JobRequest& req) {
  ArtifactStore store;
  const auto cold = QueryCore::run(req, &store, {});
  ASSERT_TRUE(cold.ok()) << cold.error().to_string();
  EXPECT_FALSE(cold.value().workload_cache_hit);

  const auto warm = QueryCore::run(req, &store, {});
  ASSERT_TRUE(warm.ok()) << warm.error().to_string();
  EXPECT_TRUE(warm.value().workload_cache_hit);
  EXPECT_EQ(warm.value().workload.get(), cold.value().workload.get());

  const auto dump = [](const QueryCore::Outcome& o) {
    return selection::to_json(*o.workload->catalog, *o.result).dump(2);
  };
  const std::string direct = test::direct_report(req);
  EXPECT_EQ(dump(cold.value()), direct);
  EXPECT_EQ(dump(warm.value()), direct);

  const auto s = store.stats();
  EXPECT_EQ(s.workload_hits, 1u);
  EXPECT_EQ(s.workload_misses, 1u);

  test::expect_repeat_served_from_index(req, req);
}

TEST(QueryCore, CacheHitBitIdenticalFig2) {
  expect_cached_run_bit_identical(fig2_request());
}

TEST(QueryCore, CacheHitBitIdenticalT2Builtin) {
  JobRequest req;
  req.spec = "t2";
  req.instances = 1;  // t2: scenario id
  expect_cached_run_bit_identical(req);
}

TEST(QueryCore, CacheHitBitIdenticalUsbBuiltin) {
  JobRequest req;
  req.spec = "usb";
  req.instances = 2;
  expect_cached_run_bit_identical(req);
}

TEST(QueryCore, MissingSpecFileIsATypedError) {
  JobRequest req;
  req.spec = "/no/such/spec.flow";
  const auto r = QueryCore::run(req, nullptr, {});
  ASSERT_FALSE(r.ok());
}

TEST(QueryCore, InstanceCountAboveTheCapFailsBeforeBuilding) {
  JobRequest req = fig2_request();
  req.instances = 4294967295u;
  try {
    (void)QueryCore::run(req, nullptr, {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the cap"),
              std::string::npos);
  }
  req.instances = flow::kMaxInstancesPerFlow + 1;
  EXPECT_THROW((void)QueryCore::run(req, nullptr, {}), std::invalid_argument);
}

TEST(QueryCore, CancelledBuildDoesNotPoisonTheStore) {
  ArtifactStore store;
  const JobRequest req = fig2_request();
  auto cancelled = util::CancelToken::make();
  cancelled.cancel();
  EXPECT_THROW(
      { auto r = QueryCore::run(req, &store, cancelled); },
      util::CancelledError);
  EXPECT_EQ(store.stats().workload_entries, 0u);
  // The same request afterwards computes cleanly.
  const auto ok = QueryCore::run(req, &store, {});
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(ok.value().workload_cache_hit);
}

// --- QueryCore::run against the product path ---------------------------

TEST(QueryCore, SpecWorkloadSelectsLikeTheProductPath) {
  test::CoherenceFixture fx;
  const auto u = fx.two_instance_interleaving();
  selection::SelectorConfig cfg;
  cfg.buffer_width = 2;
  cfg.mode = selection::SearchMode::kMaximal;
  const auto reference = selection::MessageSelector(fx.catalog, u).select(cfg);

  // The same Fig. 2 pipeline through QueryCore's closed-form statistics;
  // data/fig2.flow declares the fixture's messages in the fixture's order.
  JobRequest req = fig2_request();
  req.mode = cfg.mode;
  const auto run = QueryCore::run(req, nullptr, {});
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const Workload& w = *run.value().workload;
  const selection::SelectionResult& got = *run.value().result;
  EXPECT_EQ(w.catalog->get(fx.reqE).name, "ReqE");
  EXPECT_EQ(w.catalog->get(fx.gntE).name, "GntE");
  EXPECT_EQ(got.combination.messages, reference.combination.messages);
  EXPECT_EQ(got.packed, reference.packed);
  EXPECT_EQ(got.gain, reference.gain);
  EXPECT_EQ(got.coverage, reference.coverage);
  EXPECT_EQ(got.used_width, reference.used_width);

  // Localization counts on the grid of the same instances.
  const std::vector<flow::IndexedMessage> observed{
      {fx.reqE, 1}, {fx.gntE, 1}, {fx.reqE, 2}};
  const auto loc = selection::localize(
      flow::ProductGrid::build(w.selector->stats().instances()),
      got.observable(), observed);
  EXPECT_EQ(loc.consistent_paths, 1.0);
}

TEST(QueryCore, T2WorkloadSelectsPerScenarioAndRejectsMisuse) {
  JobRequest req;
  req.spec = "t2";
  req.instances = 99;  // no such scenario
  EXPECT_THROW((void)QueryCore::run(req, nullptr, {}), std::out_of_range);
  req.instances = 1;
  const auto first = QueryCore::run(req, nullptr, {});
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().result->combination.messages.empty());
  const auto again = QueryCore::run(req, nullptr, {});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(first.value().result->combination.messages,
            again.value().result->combination.messages);
  EXPECT_EQ(first.value().result->gain, again.value().result->gain);
}

}  // namespace
}  // namespace tracesel
