#include "tracesel/query_core.hpp"

#include <stdexcept>
#include <utility>

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

}  // namespace

std::unique_ptr<Workload> QueryCore::workload_from_spec(flow::ParsedSpec spec) {
  auto w = std::make_unique<Workload>();
  w->spec = std::make_unique<flow::ParsedSpec>(std::move(spec));
  w->catalog = &w->spec->catalog;
  return w;
}

std::unique_ptr<Workload> QueryCore::workload_t2() {
  auto w = std::make_unique<Workload>();
  w->t2 = std::make_unique<soc::T2Design>();
  w->catalog = &w->t2->catalog();
  return w;
}

std::unique_ptr<Workload> QueryCore::workload_usb() {
  auto w = std::make_unique<Workload>();
  w->usb = std::make_unique<netlist::UsbDesign>();
  w->catalog = &w->usb->catalog();
  return w;
}

void QueryCore::interleave(Workload& w, std::uint32_t instances,
                           const util::CancelToken& cancel) {
  OBS_SPAN("session.interleave");
  std::vector<flow::IndexedFlow> indexed;
  if (w.t2) {
    indexed = soc::scenario_instances(
        *w.t2, soc::scenario_by_id(static_cast<int>(instances)));
  } else if (w.usb) {
    indexed = flow::make_instances({&w.usb->rx_flow(), &w.usb->tx_flow()},
                                   instances);
  } else if (w.spec) {
    std::vector<const flow::Flow*> flows;
    for (const flow::Flow& f : w.spec->flows) flows.push_back(&f);
    indexed = flow::make_instances(flows, instances);
  } else {
    throw std::logic_error(
        "QueryCore::interleave: workload owns no spec or design");
  }
  w.u.reset();
  w.selector = std::make_unique<selection::MessageSelector>(
      *w.catalog, flow::ProductStats::build(std::move(indexed), cancel));
}

util::Result<std::uint64_t> QueryCore::source_hash(const JobRequest& req) {
  if (!req.spec_text.empty()) return util::fnv1a64(req.spec_text);
  if (req.spec == "t2") return util::fnv1a64("builtin:t2");
  if (req.spec == "usb") return util::fnv1a64("builtin:usb");
  if (req.spec.empty())
    return util::Result<std::uint64_t>::err(
        util::ErrorCode::kInvalidArgument,
        "job request names no spec (set spec or spec_text)");
  auto bytes = util::read_file_capped(req.spec, kMaxSpecBytes);
  if (!bytes.ok()) return bytes.error();
  return util::fnv1a64(bytes.value());
}

std::uint64_t QueryCore::workload_key(const JobRequest& req,
                                      std::uint64_t source_hash) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  fnv_mix(h, source_hash);
  fnv_mix(h, req.instances);
  return h;
}

std::unique_ptr<Workload> QueryCore::build_workload(const JobRequest& req,
                                                    util::CancelToken cancel) {
  std::unique_ptr<Workload> w;
  std::uint64_t hash = 0;
  if (!req.spec_text.empty()) {
    w = workload_from_spec(flow::parse_flow_spec(req.spec_text));
    hash = util::fnv1a64(req.spec_text);
  } else if (req.spec == "t2") {
    w = workload_t2();
    hash = util::fnv1a64("builtin:t2");
  } else if (req.spec == "usb") {
    w = workload_usb();
    hash = util::fnv1a64("builtin:usb");
  } else if (!req.spec.empty()) {
    // One read serves both the parse and the content hash, so the cache
    // key always matches the bytes that were actually compiled.
    auto bytes = util::read_file_capped(req.spec, kMaxSpecBytes);
    if (!bytes.ok()) throw std::runtime_error(bytes.error().message);
    hash = util::fnv1a64(bytes.value());
    flow::ParsedSpec spec = flow::parse_flow_spec(bytes.value());
    w = workload_from_spec(std::move(spec));
  } else {
    throw std::invalid_argument(
        "job request names no spec (set spec or spec_text)");
  }
  w->source_hash = hash;

  interleave(*w, req.instances, cancel);
  return w;
}

selection::SelectionResult QueryCore::select(
    const Workload& w, const selection::SelectorConfig& config,
    bool flow_constraint) {
  OBS_SPAN("session.select");
  if (!w.selector)
    throw std::logic_error("QueryCore::select: workload has no selector");
  return flow_constraint ? w.selector->select_with_flow_constraint(config)
                         : w.selector->select(config);
}

selection::SelectionResult QueryCore::select(const Workload& w,
                                             const JobRequest& req,
                                             util::CancelToken cancel) {
  selection::SelectorConfig cfg = req.selector_config();
  cfg.cancel = std::move(cancel);
  return select(w, cfg, req.kind == JobRequest::Kind::kSelectFlowConstraint);
}

util::Result<QueryCore::Outcome> QueryCore::run(const JobRequest& req,
                                                ArtifactStore* store,
                                                util::CancelToken cancel,
                                                bool memoize_result) {
  auto src = source_hash(req);
  if (!src.ok()) return src.error();

  Outcome out;
  auto build_shared = [&]() -> std::shared_ptr<const Workload> {
    return std::shared_ptr<const Workload>(build_workload(req, cancel));
  };

  if (store == nullptr) {
    out.workload = build_shared();
    out.result = std::make_shared<selection::SelectionResult>(
        select(*out.workload, req, cancel));
    return out;
  }

  const std::uint64_t wkey = workload_key(req, src.value());
  out.workload = store->workload(wkey, build_shared, &out.workload_cache_hit);
  if (!out.workload) {
    // An in-flight builder on another thread failed; its failure is its
    // job's, not ours — build privately.
    out.workload = build_shared();
    out.workload_cache_hit = false;
  }
  if (!memoize_result) {
    out.result = std::make_shared<selection::SelectionResult>(
        select(*out.workload, req, cancel));
    return out;
  }

  const std::uint64_t rkey = req.canonical_hash(src.value());
  std::shared_ptr<const selection::SelectionResult> partial;
  out.result = store->result(
      rkey, req,
      [&]() -> std::shared_ptr<const selection::SelectionResult> {
        auto res = std::make_shared<selection::SelectionResult>(
            select(*out.workload, req, cancel));
        if (res->partial) {
          // Interrupted searches are champions of the *explored* region —
          // caching one would hand later jobs a truncated answer.
          partial = std::move(res);
          return nullptr;
        }
        return res;
      },
      &out.result_cache_hit);
  if (!out.result) {
    if (partial) {
      out.result = std::move(partial);
    } else {
      // Waiter on a builder that failed or went partial: run privately.
      out.result = std::make_shared<selection::SelectionResult>(
          select(*out.workload, req, cancel));
      out.result_cache_hit = false;
    }
  }
  return out;
}

}  // namespace tracesel
