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
  EXPECT_EQ(p.version, JobRequest::kVersion);
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
  // Journal records and wire requests written while `maximal` was the
  // default search mode spell it out: serialize_job_request always writes
  // the mode line, so making knapsack the default rewrites no existing
  // record and needs no JobRequest::kVersion bump. Such a record must
  // parse back to the maximal search and report the bytes it always did,
  // which for this workload are also the new default's bytes. Records of
  // that era also carry the retired "jobs N" line, which parses and is
  // dropped: re-serializing yields the record minus that line.
  const auto old_record = [](const std::string& jobs_line) {
    return util::encode_envelope(
        "tracesel-job", 1,
        "kind select\nspec " + std::string(TRACESEL_DATA_DIR) +
            "/fig2.flow\ninstances 2\nsymmetry_reduction 1\n"
            "max_nodes 2000000\nbuffer_width 2\nmode maximal\npacking 1\n"
            "max_combinations 4194304\nmem_budget_mb 0\n" +
            jobs_line +
            "deadline_ms 0\nkernel compiled\ntrace_id 0\nparent_span_id 0\n"
            "tenant -\nspec_text 0\n\nend\n");
  };

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
  for (const std::string jobs_line : {"jobs 1\n", "jobs 4\n"}) {
    SCOPED_TRACE(jobs_line);
    const auto parsed = parse_job_request(old_record(jobs_line));
    ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
    EXPECT_EQ(parsed.value().mode, selection::SearchMode::kMaximal);
    EXPECT_EQ(serialize_job_request(parsed.value()), old_record(""));
    EXPECT_TRUE(parsed.value().same_computation(maximal));

    const std::string replayed = report(parsed.value());
    EXPECT_EQ(replayed, report(maximal));
    EXPECT_EQ(replayed, report(fig2_request()));
  }
}

TEST(JobRequest, Version1RecordWithRetiredEngineLinesReplaysToReferenceBytes) {
  // A version-1 record written with the symmetry-reduced engine switched
  // off and a memory budget set: both lines are dropped on parse, and the
  // job reports the committed reference bytes.
  const std::string record = util::encode_envelope(
      "tracesel-job", 1,
      "kind select\nspec " + std::string(TRACESEL_DATA_DIR) +
          "/fig2.flow\ninstances 2\nsymmetry_reduction 0\n"
          "max_nodes 2000000\nbuffer_width 8\nmode knapsack\npacking 1\n"
          "max_combinations 4194304\nmem_budget_mb 512\ndeadline_ms 0\n"
          "kernel compiled\ntrace_id 0\nparent_span_id 0\ntenant -\n"
          "spec_text 0\n\nend\n");
  const auto parsed = parse_job_request(record);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().version, 1u);
  JobRequest current = fig2_request();
  current.buffer_width = 8;
  EXPECT_TRUE(parsed.value().same_computation(current));
  EXPECT_EQ(parsed.value().canonical_hash(7), current.canonical_hash(7));

  const auto r = QueryCore::run(parsed.value(), nullptr, {});
  ASSERT_TRUE(r.ok());
  const auto reference =
      util::read_file_capped(std::string(TRACESEL_DATA_DIR) +
                                 "/../perfbench/refs/fig2-i2-w8.json",
                             1u << 20);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(selection::to_json(*r.value().workload->catalog,
                               *r.value().result)
                .dump(2),
            reference.value());
}

TEST(JobRequest, Version2DropsTheRetiredEngineLines) {
  // Neither a version-2 record nor today's envelope carries the two
  // interleave-engine lines of version 1.
  JobRequest v2 = fig2_request();
  v2.version = 2;
  for (const JobRequest& req : {v2, fig2_request()}) {
    const std::string wire = serialize_job_request(req);
    EXPECT_EQ(wire.rfind("tracesel-job " + std::to_string(req.version) + " ",
                         0),
              0u);
    EXPECT_EQ(wire.find("symmetry_reduction"), std::string::npos);
    EXPECT_EQ(wire.find("mem_budget_mb"), std::string::npos);
  }
}

TEST(JobRequest, Version2KernelGenericRecordReplaysToReferenceBytes) {
  // A version-2 record written with the generic engine selected: the line
  // parses and is dropped (re-serializing writes it back at its default),
  // and the job reports the committed reference bytes.
  const auto record = [](const std::string& kernel) {
    return util::encode_envelope(
        "tracesel-job", 2,
        "kind select\nspec " + std::string(TRACESEL_DATA_DIR) +
            "/fig2.flow\ninstances 2\nmax_nodes 2000000\nbuffer_width 8\n"
            "mode knapsack\npacking 1\nmax_combinations 4194304\n"
            "deadline_ms 0\nkernel " +
            kernel +
            "\ntrace_id 0\nparent_span_id 0\ntenant -\nspec_text 0\n\n"
            "end\n");
  };
  const auto parsed = parse_job_request(record("generic"));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().version, 2u);
  EXPECT_EQ(serialize_job_request(parsed.value()), record("compiled"));
  JobRequest current = fig2_request();
  current.buffer_width = 8;
  EXPECT_TRUE(parsed.value().same_computation(current));

  const auto r = QueryCore::run(parsed.value(), nullptr, {});
  ASSERT_TRUE(r.ok());
  const auto reference =
      util::read_file_capped(std::string(TRACESEL_DATA_DIR) +
                                 "/../perfbench/refs/fig2-i2-w8.json",
                             1u << 20);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(selection::to_json(*r.value().workload->catalog,
                               *r.value().result)
                .dump(2),
            reference.value());
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
  c.mode = selection::SearchMode::kGreedy;
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

TEST(QueryCore, JobsKnobSharesTheCacheEntry) {
  // A request from an older client still carries the retired "jobs N"
  // line; it parses to the same computation, so a repeat without the line
  // is answered from the cache entry the old request filled.
  const JobRequest req = fig2_request();
  const std::string wire = serialize_job_request(req);
  const auto body = util::decode_envelope(wire, "tracesel-job",
                                          JobRequest::kVersion, "job request");
  ASSERT_TRUE(body.ok());
  const auto old = parse_job_request(util::encode_envelope(
      "tracesel-job", JobRequest::kVersion,
      "jobs 4\n" + std::string(body.value())));
  ASSERT_TRUE(old.ok()) << old.error().to_string();
  test::expect_repeat_served_from_index(old.value(), req);
}

TEST(QueryCore, MissingSpecFileIsATypedError) {
  JobRequest req;
  req.spec = "/no/such/spec.flow";
  const auto r = QueryCore::run(req, nullptr, {});
  ASSERT_FALSE(r.ok());
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

// --- direct QueryCore calls (the CLI's select path) ----------------------

TEST(QueryCore, SpecWorkloadSelectsLikeTheProductPath) {
  test::CoherenceFixture fx;
  const auto u = fx.two_instance_interleaving();
  selection::SelectorConfig cfg;
  cfg.buffer_width = 2;
  cfg.mode = selection::SearchMode::kMaximal;
  const auto reference = selection::MessageSelector(fx.catalog, u).select(cfg);

  // The same Fig. 2 pipeline through QueryCore's closed-form statistics.
  flow::ParsedSpec spec;
  const auto reqE = spec.catalog.add("ReqE", 1, "IP1", "Dir");
  const auto gntE = spec.catalog.add("GntE", 1, "Dir", "IP1");
  const auto ack = spec.catalog.add("Ack", 1, "IP1", "Dir");
  spec.flows.push_back(
      test::CoherenceFixture::make_flow(spec.catalog, reqE, gntE, ack));
  const auto w = QueryCore::workload_from_spec(std::move(spec));
  QueryCore::interleave(*w, 2, {});
  const auto got = QueryCore::select(*w, cfg, false);
  EXPECT_EQ(got.combination.messages, reference.combination.messages);
  EXPECT_EQ(got.packed, reference.packed);
  EXPECT_EQ(got.gain, reference.gain);
  EXPECT_EQ(got.coverage, reference.coverage);
  EXPECT_EQ(got.used_width, reference.used_width);

  // Localization counts on the grid of the same instances.
  const std::vector<flow::IndexedMessage> observed{
      {reqE, 1}, {gntE, 1}, {reqE, 2}};
  const auto loc = selection::localize(
      flow::ProductGrid::build(w->selector->stats().instances()),
      got.observable(), observed);
  EXPECT_EQ(loc.consistent_paths, 1.0);
}

TEST(QueryCore, T2WorkloadSelectsPerScenarioAndRejectsMisuse) {
  const auto w = QueryCore::workload_t2();
  EXPECT_THROW((void)QueryCore::select(*w, {}, false), std::logic_error);
  EXPECT_THROW(QueryCore::interleave(*w, 99, {}), std::out_of_range);
  QueryCore::interleave(*w, 1, {});
  const auto first = QueryCore::select(*w, {}, false);
  EXPECT_FALSE(first.combination.messages.empty());
  const auto again = QueryCore::select(*w, {}, false);
  EXPECT_EQ(first.combination.messages, again.combination.messages);
  EXPECT_EQ(first.gain, again.gain);
}

}  // namespace
}  // namespace tracesel
