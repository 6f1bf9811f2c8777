#pragma once
// An in-process traceseld with no journal directory, for tests of the
// daemon's result index: its repeats must be served from the index, byte
// for byte, without touching the workload cache.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "debug/serialize.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "tracesel/query_core.hpp"

namespace tracesel::test {

/// A live journal-less daemon on a fresh /tmp socket; drained on
/// destruction.
struct LocalDaemon {
  LocalDaemon() {
    static std::atomic<int> counter{0};
    service::ServerOptions opt;
    opt.socket_path = "/tmp/tsvc_local_" + std::to_string(::getpid()) + "_" +
                      std::to_string(counter.fetch_add(1)) + ".sock";
    shutdown = opt.shutdown;
    server = std::make_unique<service::Server>(std::move(opt));
    const auto st = server->start();
    if (!st.ok()) throw std::runtime_error(st.error().to_string());
    thread = std::thread([this] { server->serve(); });
  }
  ~LocalDaemon() {
    shutdown.cancel();
    thread.join();
  }

  service::JobOutcome submit(const JobRequest& req) {
    auto client = service::Client::connect(server->socket_path());
    if (!client.ok()) throw std::runtime_error(client.error().to_string());
    auto out = client.value().submit(req);
    if (!out.ok()) throw std::runtime_error(out.error().to_string());
    return std::move(out).value();
  }

  /// Workload-cache lookups so far (hits plus misses).
  std::uint64_t workload_lookups() {
    const auto s = server->store().stats();
    return s.workload_hits + s.workload_misses;
  }

  util::CancelToken shutdown;
  std::unique_ptr<service::Server> server;
  std::thread thread;
};

/// The report bytes `tracesel select --json` prints for `req`.
inline std::string direct_report(const JobRequest& req) {
  const auto out = QueryCore::run(req, nullptr, {});
  EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().to_string());
  if (!out.ok()) return {};
  return selection::to_json(*out.value().workload->catalog,
                            *out.value().result)
      .dump(2);
}

/// `repeat` after `first` lands on the result index's entry for `first`:
/// equal canonical hashes, the same computation, and a journal-less
/// daemon serves it as a cache hit with the direct compute's bytes and no
/// new workload lookup.
inline void expect_repeat_served_from_index(const JobRequest& first,
                                            const JobRequest& repeat) {
  const auto source = QueryCore::source_hash(first);
  ASSERT_TRUE(source.ok()) << source.error().to_string();
  EXPECT_EQ(repeat.canonical_hash(source.value()),
            first.canonical_hash(source.value()));
  EXPECT_TRUE(repeat.same_computation(first));

  const std::string expected = direct_report(first);
  LocalDaemon daemon;
  const service::JobOutcome cold = daemon.submit(first);
  EXPECT_EQ(cold.status, "ok");
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(cold.report_json, expected);
  const std::uint64_t lookups = daemon.workload_lookups();
  const service::JobOutcome hit = daemon.submit(repeat);
  EXPECT_EQ(hit.status, "ok");
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.report_json, expected);
  EXPECT_EQ(daemon.workload_lookups(), lookups);
}

}  // namespace tracesel::test
