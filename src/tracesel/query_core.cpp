#include "tracesel/query_core.hpp"

#include <utility>
#include <vector>

#include "flow/indexed_flow.hpp"
#include "soc/scenario.hpp"
#include "util/atomic_file.hpp"
#include "util/obs.hpp"

namespace tracesel {

namespace {

constexpr std::size_t kMaxSpecBytes = 64u << 20;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= 0x100000001B3ull;
  }
}

/// The spec a request names, read once: the text to compile (inline text
/// or the spec file's bytes) or a builtin design, and the FNV-1a hash of
/// exactly that content, so a cache key always matches the bytes that
/// were actually compiled.
struct ResolvedSpec {
  std::string text;
  std::string file;     ///< the spec path parse errors name; empty inline
  std::string builtin;  ///< "t2", "usb" or empty
  std::uint64_t hash = 0;
};

util::Result<ResolvedSpec> resolve_spec(const JobRequest& req) {
  ResolvedSpec out;
  if (!req.spec_text.empty()) {
    out.text = req.spec_text;
  } else if (req.spec == "t2" || req.spec == "usb") {
    out.builtin = req.spec;
  } else if (req.spec.empty()) {
    return util::Result<ResolvedSpec>::err(
        util::ErrorCode::kInvalidArgument,
        "job request names no spec (set spec or spec_text)");
  } else {
    auto bytes = util::read_file_capped(req.spec, kMaxSpecBytes);
    if (!bytes.ok()) return bytes.error();
    out.text = std::move(bytes).value();
    out.file = req.spec;
  }
  out.hash = out.builtin.empty() ? util::fnv1a64(out.text)
                                 : util::fnv1a64("builtin:" + out.builtin);
  return out;
}

/// Parses or instantiates `spec`, then computes the statistics of its
/// interleaving (spec/usb: `instances` indexed instances per flow; t2:
/// scenario id) in closed form and the selector over them. Throws
/// util::CancelledError when `cancel` has fired before the statistics.
std::shared_ptr<const Workload> build_workload(
    const ResolvedSpec& spec, std::uint32_t instances,
    const util::CancelToken& cancel) {
  auto w = std::make_shared<Workload>();
  w->source_hash = spec.hash;
  if (spec.builtin == "t2") {
    w->t2 = std::make_unique<soc::T2Design>();
    w->catalog = &w->t2->catalog();
  } else if (spec.builtin == "usb") {
    w->usb = std::make_unique<netlist::UsbDesign>();
    w->catalog = &w->usb->catalog();
  } else {
    w->spec = std::make_unique<flow::ParsedSpec>(
        flow::parse_flow_spec(spec.text, spec.file));
    w->catalog = &w->spec->catalog;
  }

  OBS_SPAN("session.interleave");
  std::vector<flow::IndexedFlow> indexed;
  if (w->t2) {
    indexed = soc::scenario_instances(
        *w->t2, soc::scenario_by_id(static_cast<int>(instances)));
  } else if (w->usb) {
    indexed = flow::make_instances({&w->usb->rx_flow(), &w->usb->tx_flow()},
                                   instances);
  } else {
    std::vector<const flow::Flow*> flows;
    for (const flow::Flow& f : w->spec->flows) flows.push_back(&f);
    indexed = flow::make_instances(flows, instances);
  }
  w->selector = std::make_unique<selection::MessageSelector>(
      *w->catalog, flow::ProductStats::build(std::move(indexed), cancel));
  return w;
}

}  // namespace

util::Result<std::uint64_t> QueryCore::source_hash(const JobRequest& req) {
  auto spec = resolve_spec(req);
  if (!spec.ok()) return spec.error();
  return spec.value().hash;
}

util::Result<QueryCore::Outcome> QueryCore::run(const JobRequest& req,
                                                ArtifactStore* store,
                                                util::CancelToken cancel) {
  const auto resolved = resolve_spec(req);
  if (!resolved.ok()) return resolved.error();
  const ResolvedSpec& spec = resolved.value();

  Outcome out;
  const auto build = [&] {
    return build_workload(spec, req.instances, cancel);
  };
  if (store == nullptr) {
    out.workload = build();
  } else {
    // The workload key: source hash + instance count.
    std::uint64_t key = 0xCBF29CE484222325ull;
    fnv_mix(key, spec.hash);
    fnv_mix(key, req.instances);
    out.workload = store->workload(key, build, &out.workload_cache_hit);
  }

  OBS_SPAN("session.select");
  selection::SelectorConfig cfg = req.selector_config();
  cfg.cancel = std::move(cancel);
  const selection::MessageSelector& selector = *out.workload->selector;
  out.result = std::make_shared<selection::SelectionResult>(
      req.kind == JobRequest::Kind::kSelectFlowConstraint
          ? selector.select_with_flow_constraint(cfg)
          : selector.select(cfg));
  return out;
}

}  // namespace tracesel
