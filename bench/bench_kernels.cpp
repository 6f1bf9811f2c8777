// Compiled per-spec DP kernels (DESIGN.md §14): Step-2 scoring speedup
// and bit-identity gate.
//
// Two workloads, both gated:
//
//   t2 @ 3        the full T2 uncore at scenario/instances 3 — the same
//                 workload `tracesel submit t2 --instances 3` denotes
//                 (interleaving every t2.flow flow at 3 indexed instances
//                 each exceeds 100M product states and is not buildable);
//   t2.flow @ 2   the full data/t2.flow catalog, every flow at 2 indexed
//                 instances — the largest shipped spec workload.
//
// For each, the bench pre-enumerates the fitting combinations of the
// Step 1 space (up to a cap), then times the Step 2 gain-scoring loop
// under the generic engine (per-message hash-map lookups) and the
// compiled kernel (dense per-spec contribution table). The bench is a gate, not just a report: it exits nonzero
// unless (a) every compiled gain is bit-identical to the generic one and
// (b) the compiled scoring loop is at least 2x faster. Informational rows
// cover the kernel compile itself (t2 @ 3 only: selection reads the
// closed-form statistics, and the t2.flow @ 2 product, 238M states, is
// never built) and the full select() pipeline.

#include <chrono>
#include <cstdint>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "flow/kernel.hpp"
#include "tracesel/tracesel.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace tracesel;

constexpr std::uint32_t kBufferWidth = 32;
constexpr std::size_t kMaxCombos = 200'000;
/// Target scoring operations per timed pass, so small Step 1 spaces still
/// produce ms-scale (noise-free) wall times.
constexpr std::size_t kTargetOps = 2'000'000;

double best_of_ms(int repeats, const auto& fn) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

/// The Step 1 combination space, flattened: combo i is
/// messages[offsets[i] .. offsets[i+1]). Flat storage so the scoring loops
/// measure scoring, not vector-of-vector pointer chasing.
struct ComboSet {
  std::vector<flow::MessageId> messages;
  std::vector<std::size_t> offsets{0};
  std::size_t size() const { return offsets.size() - 1; }
  std::span<const flow::MessageId> operator[](std::size_t i) const {
    return {messages.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
};

/// Enumerates fitting combinations exactly like the Step 1 DFS (ascending
/// candidate order, width-capped), up to `cap` of them.
ComboSet enumerate_fitting(const flow::MessageCatalog& catalog,
                           const std::vector<flow::MessageId>& candidates,
                           std::uint32_t budget, std::size_t cap) {
  ComboSet set;
  std::vector<flow::MessageId> current;
  auto dfs = [&](auto&& self, std::size_t start,
                 std::uint32_t width) -> bool {
    for (std::size_t i = start; i < candidates.size(); ++i) {
      const std::uint32_t w = catalog.get(candidates[i]).trace_width();
      if (width + w > budget) continue;
      current.push_back(candidates[i]);
      set.messages.insert(set.messages.end(), current.begin(), current.end());
      set.offsets.push_back(set.messages.size());
      if (set.size() >= cap) return false;
      if (!self(self, i + 1, width + w)) return false;
      current.pop_back();
    }
    return true;
  };
  dfs(dfs, 0, 0);
  return set;
}

bool identical(const selection::SelectionResult& a,
               const selection::SelectionResult& b) {
  return a.combination.messages == b.combination.messages &&
         a.combination.width == b.combination.width && a.packed == b.packed &&
         a.gain == b.gain && a.gain_unpacked == b.gain_unpacked &&
         a.coverage == b.coverage &&
         a.coverage_unpacked == b.coverage_unpacked &&
         a.used_width == b.used_width && a.buffer_width == b.buffer_width;
}

/// Runs the gate over one prepared session. Appends JSON rows; returns the
/// number of gate failures (speedup < 2x or any non-bit-identical result).
int run_workload(const std::string& name, Session& session,
                 bool compile_product, util::Json& workloads) {
  int failures = 0;
  std::optional<flow::kernel::CompileStats> cs;
  std::cout << "Workload " << name << ": "
            << session.stats().num_product_states() << " product states";
  if (compile_product) {
    cs = session.interleaving().program().stats();
    std::cout << ", " << cs->edges << " edges, " << cs->labels
              << " distinct labels; kernel compile "
              << util::fixed(cs->compile_ms, 2) << " ms, "
              << cs->table_bytes / 1024 << " KiB of tables";
  }
  std::cout << '\n';

  const selection::MessageSelector selector(session.catalog(),
                                            session.stats());
  const selection::InfoGainEngine& engine = selector.engine();
  const ComboSet combos = enumerate_fitting(
      session.catalog(), selector.candidates(), kBufferWidth, kMaxCombos);
  const std::size_t reps = std::max<std::size_t>(
      1, kTargetOps / std::max<std::size_t>(1, combos.size()));
  std::cout << "Step 1 space: " << combos.size() << " fitting combinations ("
            << selector.candidates().size() << " candidate messages, buffer "
            << kBufferWidth << "), timed x" << reps << "\n\n";

  // --- gate: the Step 2 scoring loop ---
  std::vector<double> gains_generic(combos.size());
  std::vector<double> gains_compiled(combos.size());
  const double generic_ms = best_of_ms(5, [&] {
    for (std::size_t r = 0; r < reps; ++r)
      for (std::size_t i = 0; i < combos.size(); ++i)
        gains_generic[i] =
            engine.info_gain(combos[i], flow::KernelMode::kGeneric);
  });
  const double compiled_ms = best_of_ms(5, [&] {
    for (std::size_t r = 0; r < reps; ++r)
      for (std::size_t i = 0; i < combos.size(); ++i)
        gains_compiled[i] =
            engine.info_gain(combos[i], flow::KernelMode::kCompiled);
  });
  bool bit_identical = true;
  for (std::size_t i = 0; i < combos.size(); ++i)
    if (gains_generic[i] != gains_compiled[i]) bit_identical = false;
  const double speedup = generic_ms / compiled_ms;

  // --- informational: the full pipeline under both modes ---
  session.config().kernel = flow::KernelMode::kGeneric;
  auto ref = session.select();
  const double select_generic_ms =
      best_of_ms(3, [&] { ref = session.select(); });
  session.config().kernel = flow::KernelMode::kCompiled;
  auto got = session.select();
  const double select_compiled_ms =
      best_of_ms(3, [&] { got = session.select(); });
  const bool select_identical = identical(ref, got);

  util::Table table({"Path", "Wall ms", "Speedup", "Identical"});
  table.add_row({"Step 2 scoring, generic", util::fixed(generic_ms, 2),
                 "1.00", "ref"});
  table.add_row({"Step 2 scoring, compiled", util::fixed(compiled_ms, 2),
                 util::fixed(speedup, 2), bit_identical ? "yes" : "NO"});
  table.add_row({"select() end-to-end, generic",
                 util::fixed(select_generic_ms, 2), "1.00", "ref"});
  table.add_row({"select() end-to-end, compiled",
                 util::fixed(select_compiled_ms, 2),
                 util::fixed(select_generic_ms / select_compiled_ms, 2),
                 select_identical ? "yes" : "NO"});
  std::cout << table << '\n';

  if (!bit_identical || !select_identical) {
    std::cerr << "GATE FAILED (" << name
              << "): compiled results differ from generic\n";
    ++failures;
  }
  if (speedup < 2.0) {
    std::cerr << "GATE FAILED (" << name << "): Step 2 scoring speedup "
              << speedup << "x < 2x\n";
    ++failures;
  }

  util::Json jw = util::Json::object();
  jw.set("workload", util::Json::string(name));
  jw.set("combinations", util::Json::number(std::uint64_t{combos.size()}));
  jw.set("repeats", util::Json::number(std::uint64_t{reps}));
  if (cs) {
    util::Json kernel = util::Json::object();
    kernel.set("compile_ms", util::Json::number(cs->compile_ms));
    kernel.set("table_bytes",
               util::Json::number(std::uint64_t{cs->table_bytes}));
    kernel.set("nodes", util::Json::number(std::uint64_t{cs->nodes}));
    kernel.set("edges", util::Json::number(std::uint64_t{cs->edges}));
    kernel.set("labels", util::Json::number(std::uint64_t{cs->labels}));
    jw.set("kernel", std::move(kernel));
  }
  util::Json rows = util::Json::array();
  auto record = [&](const char* path, double ms, double sp, bool ok) {
    util::Json jr = util::Json::object();
    jr.set("path", util::Json::string(path));
    jr.set("wall_ms", util::Json::number(ms));
    jr.set("speedup", util::Json::number(sp));
    jr.set("identical", util::Json::boolean(ok));
    rows.push_back(std::move(jr));
  };
  record("step2_generic", generic_ms, 1.0, true);
  record("step2_compiled", compiled_ms, speedup, bit_identical);
  record("select_generic", select_generic_ms, 1.0, true);
  record("select_compiled", select_compiled_ms,
         select_generic_ms / select_compiled_ms, select_identical);
  jw.set("rows", std::move(rows));
  jw.set("speedup", util::Json::number(speedup));
  jw.set("bit_identical",
         util::Json::boolean(bit_identical && select_identical));
  workloads.push_back(std::move(jw));
  return failures;
}

}  // namespace

int main() {
  bench::banner("Kernels",
                "compiled per-spec DP kernels vs the generic engine");
  bench::note("the end-to-end select() rows are informational: they include "
              "Step 1 enumeration and Step 3 packing, which the kernel does "
              "not accelerate");
  std::cout << '\n';

  int failures = 0;
  util::Json workloads = util::Json::array();
  {
    auto session = Session::t2();
    session.config().buffer_width = kBufferWidth;
    session.scenario(3);
    failures += run_workload("t2 @ instances 3", session,
                             /*compile_product=*/true, workloads);
  }
  {
    auto session = Session::from_spec_file(TRACESEL_DATA_DIR "/t2.flow");
    session.config().buffer_width = kBufferWidth;
    session.interleave(2);
    failures += run_workload("t2.flow @ 2 instances", session,
                             /*compile_product=*/false, workloads);
  }

  util::Json out = util::Json::object();
  out.set("buffer_width", util::Json::number(std::uint64_t{kBufferWidth}));
  out.set("workloads", std::move(workloads));
  out.set("gate_passed", util::Json::boolean(failures == 0));
  bench::write_json("BENCH_kernels.json", std::move(out));

  if (failures) return 1;
  std::cout << "Gate passed: >=2x Step 2 scoring speedup on every workload, "
               "bit-identical.\n";
  return 0;
}
