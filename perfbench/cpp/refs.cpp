#include "refs.hpp"

#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

std::string fig2_text() {
  std::ifstream in("data/fig2.flow", std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::shared_ptr<const selection::SelectionResult> compute(
    const tracesel::JobRequest& req) {
  auto out = tracesel::QueryCore::run(req, nullptr, {});
  if (!out.ok()) throw std::runtime_error(out.error().to_string());
  return out.value().result;
}

}  // namespace

int write_references() {
  References refs(kRefsDir);
  for (const SelectCase& c : reference_cases(fig2_text())) {
    std::cerr << "reference " << c.key << '\n';
    if (!refs.write(c.key, run_select(c.request))) return 2;
  }
  const soc::T2Design design;
  for (const DebugCase& c : reference_debug_cases()) {
    std::cerr << "reference " << c.key << '\n';
    if (!refs.write(c.key, run_case(design, c))) return 2;
  }
  return 0;
}

int oracle_check() {
  int disagreements = 0;
  for (const SelectCase& c : reference_cases(fig2_text())) {
    // t2flow-i2 (8.9M nodes reduced) has no affordable unreduced oracle.
    if (c.request.buffer_width > 64 || c.key.rfind("t2flow-i2", 0) == 0)
      continue;
    tracesel::JobRequest oracle = c.request;
    oracle.mode = selection::SearchMode::kExhaustive;
    oracle.symmetry_reduction = false;
    const auto got = compute(c.request);
    std::shared_ptr<const selection::SelectionResult> want;
    try {
      want = compute(oracle);
    } catch (const std::exception& e) {
      std::cout << c.key << ": oracle skipped (" << e.what() << ")\n";
      continue;
    }
    const bool same_value = got->gain == want->gain &&
                            got->coverage == want->coverage &&
                            got->used_width == want->used_width;
    const bool same_set = got->combination == want->combination &&
                          got->observable() == want->observable();
    std::cout << c.key << ": "
              << (same_value ? "gain/coverage/width agree" : "DISAGREE")
              << (same_set ? ", same messages" : ", different messages")
              << '\n';
    if (!same_value) ++disagreements;
  }

  tracesel::JobRequest paper;
  paper.spec.clear();
  paper.spec_text = fig2_text();
  paper.instances = 2;
  paper.buffer_width = 2;
  const auto fig2 = compute(paper);
  const bool gain_ok = std::fabs(fig2->gain - 1.073) < 5e-4;
  const bool coverage_ok = std::fabs(fig2->coverage - 11.0 / 15.0) < 1e-12;
  std::cout << "fig2 paper values: I = " << fig2->gain << " (paper 1.073), "
            << "coverage = " << fig2->coverage << " (paper 11/15): "
            << (gain_ok && coverage_ok ? "agree" : "DISAGREE") << '\n';
  if (!gain_ok || !coverage_ok) ++disagreements;
  return disagreements == 0 ? 0 : 1;
}

}  // namespace perfbench
