#include "tracesel/job_request.hpp"

#include <sstream>

#include "util/framing.hpp"

namespace tracesel {

namespace {

constexpr char kJobTag[] = "tracesel-job";

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= 0x100000001B3ull;
  }
}

util::Result<JobRequest> malformed(const std::string& what) {
  return util::Result<JobRequest>::err(util::ErrorCode::kParse,
                                       "job request: " + what);
}

}  // namespace

selection::SelectorConfig JobRequest::selector_config() const {
  selection::SelectorConfig cfg;
  cfg.buffer_width = buffer_width;
  cfg.packing = packing;
  cfg.mode = mode;
  cfg.max_combinations = static_cast<std::size_t>(max_combinations);
  return cfg;
}

flow::InterleaveOptions JobRequest::interleave_options() const {
  flow::InterleaveOptions opt;
  opt.max_nodes = static_cast<std::size_t>(max_nodes);
  return opt;
}

std::uint64_t JobRequest::canonical_hash(std::uint64_t source_hash) const {
  std::uint64_t h = 0xCBF29CE484222325ull;
  fnv_mix(h, kVersion);
  fnv_mix(h, source_hash);
  fnv_mix(h, instances);
  fnv_mix(h, static_cast<std::uint64_t>(kind));
  fnv_mix(h, buffer_width);
  fnv_mix(h, static_cast<std::uint64_t>(mode));
  fnv_mix(h, packing ? 1 : 0);
  fnv_mix(h, max_combinations);
  return h;
}

bool JobRequest::same_computation(const JobRequest& other) const {
  return spec == other.spec && spec_text == other.spec_text &&
         instances == other.instances && kind == other.kind &&
         buffer_width == other.buffer_width && mode == other.mode &&
         packing == other.packing &&
         max_combinations == other.max_combinations;
}

std::string_view to_string(selection::SearchMode mode) {
  switch (mode) {
    case selection::SearchMode::kExhaustive: return "exhaustive";
    case selection::SearchMode::kMaximal: return "maximal";
    case selection::SearchMode::kKnapsack: return "knapsack";
  }
  return "maximal";
}

util::Result<selection::SearchMode> parse_search_mode(std::string_view name) {
  if (name == "exhaustive") return selection::SearchMode::kExhaustive;
  if (name == "maximal") return selection::SearchMode::kMaximal;
  if (name == "knapsack") return selection::SearchMode::kKnapsack;
  return util::Result<selection::SearchMode>::err(
      util::ErrorCode::kInvalidArgument,
      "unknown search mode '" + std::string(name) +
          "' (expected exhaustive|maximal|knapsack)");
}

std::string serialize_job_request(const JobRequest& req) {
  std::ostringstream body;
  body << "kind "
       << (req.kind == JobRequest::Kind::kSelectFlowConstraint
               ? "select-flow-constraint"
               : "select")
       << '\n';
  body << "spec " << (req.spec.empty() ? "-" : req.spec) << '\n';
  body << "instances " << req.instances << '\n';
  body << "max_nodes " << req.max_nodes << '\n';
  body << "buffer_width " << req.buffer_width << '\n';
  body << "mode " << to_string(req.mode) << '\n';
  body << "packing " << (req.packing ? 1 : 0) << '\n';
  body << "max_combinations " << req.max_combinations << '\n';
  body << "deadline_ms " << req.deadline_ms << '\n';
  body << "trace_id " << req.trace_id << '\n';
  body << "parent_span_id " << req.parent_span_id << '\n';
  // Tenant labels are single tokens on the wire ("-" = none); spaces would
  // desynchronize the key/value line discipline.
  std::string tenant = req.tenant.empty() ? "-" : req.tenant;
  for (char& c : tenant)
    if (c == ' ' || c == '\n' || c == '\r') c = '_';
  body << "tenant " << tenant << '\n';
  // The inline spec rides as a length-prefixed raw block (it is multi-line
  // text, so the "key value" line discipline cannot carry it).
  body << "spec_text " << req.spec_text.size() << '\n';
  body << req.spec_text;
  body << "\nend\n";
  return util::encode_envelope(kJobTag, JobRequest::kVersion, body.str());
}

util::Result<JobRequest> parse_job_request(std::string_view text) {
  const auto payload = util::decode_envelope(text, kJobTag,
                                             JobRequest::kVersion,
                                             "job request");
  if (!payload.ok()) return payload.error();
  std::string_view body = payload.value();

  JobRequest req;
  // Reset string defaults: an omitted "spec" line must read back as empty,
  // not as the struct's convenience default.
  req.spec.clear();

  while (true) {
    const std::string_view block = body;  // where a spec_text block starts
    std::string_view line;
    if (!util::take_line(body, line))
      return malformed("truncated (no 'end' marker)");
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;

    const std::size_t sp = line.find(' ');
    const std::string_view key = line.substr(0, sp);
    const std::string_view value =
        sp == std::string_view::npos ? std::string_view{} : line.substr(sp + 1);

    if (key == "end") break;

    if (key == "kind") {
      if (value == "select") {
        req.kind = JobRequest::Kind::kSelect;
      } else if (value == "select-flow-constraint") {
        req.kind = JobRequest::Kind::kSelectFlowConstraint;
      } else {
        return malformed("unknown kind '" + std::string(value) + "'");
      }
    } else if (key == "spec") {
      req.spec = value == "-" ? "" : std::string(value);
    } else if (key == "tenant") {
      req.tenant = value == "-" ? "" : std::string(value);
    } else if (key == "mode") {
      auto mode = parse_search_mode(value);
      if (!mode.ok()) return mode.error();
      req.mode = mode.value();
    } else if (key == "spec_text") {
      // The inline spec is one length-prefixed block, "end" follows it.
      body = block;
      std::string_view text;
      if (!util::take_block(body, "spec_text", text))
        return malformed("bad spec_text block");
      req.spec_text = text;
    } else if (key == "instances" || key == "buffer_width") {
      std::uint32_t& field =
          key == "instances" ? req.instances : req.buffer_width;
      if (!util::parse_number(value, field))
        return malformed("bad value for '" + std::string(key) + "'");
    } else {
      std::uint64_t v = 0;
      if (!util::parse_number(value, v))
        return malformed("bad value for '" + std::string(key) + "'");
      if (key == "max_nodes") {
        req.max_nodes = v;
      } else if (key == "packing") {
        if (v > 1) return malformed("bad value for 'packing'");
        req.packing = v != 0;
      } else if (key == "max_combinations") {
        req.max_combinations = v;
      } else if (key == "deadline_ms") {
        req.deadline_ms = v;
      } else if (key == "trace_id") {
        req.trace_id = v;
      } else if (key == "parent_span_id") {
        req.parent_span_id = v;
      } else {
        return malformed("unknown field '" + std::string(key) + "'");
      }
    }
  }

  if (req.spec.empty() && req.spec_text.empty())
    return malformed("neither a spec reference nor inline spec text");
  return req;
}

}  // namespace tracesel
