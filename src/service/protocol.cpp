#include "service/protocol.hpp"

#include <sstream>

#include "util/framing.hpp"

namespace tracesel::service {

namespace {

util::Result<Message> malformed(const std::string& what) {
  return util::Result<Message>::err(util::ErrorCode::kParse,
                                    "service message: " + what);
}

std::string header(MessageType type) {
  std::string h = kProtocolTag;
  h += ' ';
  h += to_string(type);
  h += ' ';
  h += std::to_string(kProtocolVersion);
  h += '\n';
  return h;
}

/// Appends "name <size>\n<raw bytes>\n" — the length-prefixed block used
/// for payloads that may contain anything (JSON, error text).
void append_block(std::string& out, std::string_view name,
                  std::string_view bytes) {
  out += name;
  out += ' ';
  out += std::to_string(bytes.size());
  out += '\n';
  out += bytes;
  out += '\n';
}

/// Consumes "name <size>\n<raw>\n" from `body`.
bool take_block(std::string_view& body, std::string_view name,
                std::string& out) {
  const std::size_t eol = body.find('\n');
  if (eol == std::string_view::npos) return false;
  std::string_view line = body.substr(0, eol);
  if (!line.starts_with(name) || line.size() <= name.size() ||
      line[name.size()] != ' ')
    return false;
  std::uint64_t n = 0;
  if (!util::parse_u64(line.substr(name.size() + 1), n)) return false;
  body.remove_prefix(eol + 1);
  if (n > body.size()) return false;
  out.assign(body.substr(0, static_cast<std::size_t>(n)));
  body.remove_prefix(static_cast<std::size_t>(n));
  if (!body.empty() && body.front() == '\n') body.remove_prefix(1);
  return true;
}

}  // namespace

std::string_view to_string(MessageType type) {
  switch (type) {
    case MessageType::kSubmit: return "submit";
    case MessageType::kCancel: return "cancel";
    case MessageType::kStats: return "stats";
    case MessageType::kTelemetry: return "telemetry";
    case MessageType::kStop: return "stop";
    case MessageType::kPing: return "ping";
    case MessageType::kEvent: return "event";
    case MessageType::kResult: return "result";
    case MessageType::kStatsResult: return "stats-result";
    case MessageType::kTelemetryResult: return "telemetry-result";
    case MessageType::kPong: return "pong";
    case MessageType::kOk: return "ok";
    case MessageType::kError: return "error";
    case MessageType::kRetryAfter: return "retry-after";
  }
  return "ping";
}

std::string encode_submit(const JobRequest& request) {
  return header(MessageType::kSubmit) + serialize_job_request(request);
}

std::string encode_simple(MessageType type) { return header(type); }

std::string encode_event(std::string_view status, std::uint64_t position) {
  std::string out = header(MessageType::kEvent);
  out += "status ";
  out += status;
  out += "\nposition ";
  out += std::to_string(position);
  out += '\n';
  return out;
}

std::string encode_result(const JobOutcome& outcome) {
  std::string out = header(MessageType::kResult);
  out += "status " + outcome.status + '\n';
  out += "job_id " + std::to_string(outcome.job_id) + '\n';
  out += "cache_hit " + std::string(outcome.cache_hit ? "1" : "0") + '\n';
  out += "workload_cache_hit " +
         std::string(outcome.workload_cache_hit ? "1" : "0") + '\n';
  out += "elapsed_ms " + std::to_string(outcome.elapsed_ms) + '\n';
  append_block(out, "error", outcome.error);
  append_block(out, "metrics", outcome.metrics_json);
  append_block(out, "report", outcome.report_json);
  // Appended after the original three blocks so a version-1 reader that
  // stops at its known blocks keeps parsing results from newer daemons.
  append_block(out, "telemetry", outcome.telemetry);
  out += "end\n";
  return out;
}

std::string encode_stats_result(std::string_view stats_json) {
  std::string out = header(MessageType::kStatsResult);
  append_block(out, "stats", stats_json);
  return out;
}

std::string encode_telemetry_result(std::string_view telemetry_json) {
  std::string out = header(MessageType::kTelemetryResult);
  append_block(out, "telemetry", telemetry_json);
  return out;
}

std::string encode_error(std::string_view message) {
  std::string out = header(MessageType::kError);
  append_block(out, "message", message);
  return out;
}

std::string encode_retry_after(std::uint64_t retry_after_ms,
                               std::string_view reason) {
  std::string out = header(MessageType::kRetryAfter);
  out += "retry_after_ms " + std::to_string(retry_after_ms) + '\n';
  append_block(out, "reason", reason);
  return out;
}

util::Result<Message> parse_message(std::string_view payload) {
  const std::size_t eol = payload.find('\n');
  const std::string_view head =
      eol == std::string_view::npos ? payload : payload.substr(0, eol);
  std::string_view body =
      eol == std::string_view::npos ? std::string_view{}
                                    : payload.substr(eol + 1);

  std::istringstream hs{std::string(head)};
  std::string tag, verb;
  std::uint32_t version = 0;
  if (!(hs >> tag >> verb >> version) || tag != kProtocolTag)
    return malformed("bad header line");
  if (version != kProtocolVersion)
    return util::Result<Message>::err(
        util::ErrorCode::kParse,
        "service message version " + std::to_string(version) +
            " is not supported (expected " +
            std::to_string(kProtocolVersion) + ")");

  Message m;
  if (verb == "submit") {
    m.type = MessageType::kSubmit;
    auto req = parse_job_request(body);
    if (!req.ok()) return req.error();
    m.request = std::move(req).value();
    return m;
  }
  if (verb == "cancel") { m.type = MessageType::kCancel; return m; }
  if (verb == "stats") { m.type = MessageType::kStats; return m; }
  if (verb == "telemetry") { m.type = MessageType::kTelemetry; return m; }
  if (verb == "stop") { m.type = MessageType::kStop; return m; }
  if (verb == "ping") { m.type = MessageType::kPing; return m; }
  if (verb == "pong") { m.type = MessageType::kPong; return m; }
  if (verb == "ok") { m.type = MessageType::kOk; return m; }

  if (verb == "event") {
    m.type = MessageType::kEvent;
    std::istringstream bs{std::string(body)};
    std::string line;
    while (std::getline(bs, line)) {
      if (line.starts_with("status ")) {
        m.text = line.substr(7);
      } else if (line.starts_with("position ")) {
        std::uint64_t v = 0;
        if (!util::parse_u64(std::string_view(line).substr(9), v))
          return malformed("bad event position");
        m.position = v;
      }
    }
    if (m.text.empty()) return malformed("event without status");
    return m;
  }

  if (verb == "result") {
    m.type = MessageType::kResult;
    // Fixed-order fields, then the three length-prefixed blocks.
    while (!body.empty() && !body.starts_with("error ")) {
      const std::size_t le = body.find('\n');
      if (le == std::string_view::npos) return malformed("truncated result");
      std::string_view line = body.substr(0, le);
      body.remove_prefix(le + 1);
      const std::size_t sp = line.find(' ');
      if (sp == std::string_view::npos) return malformed("bad result field");
      const std::string_view key = line.substr(0, sp);
      const std::string_view value = line.substr(sp + 1);
      std::uint64_t v = 0;
      if (key == "status") {
        m.outcome.status = std::string(value);
      } else if (key == "job_id") {
        if (!util::parse_u64(value, v)) return malformed("bad job_id");
        m.outcome.job_id = v;
      } else if (key == "cache_hit") {
        m.outcome.cache_hit = value == "1";
      } else if (key == "workload_cache_hit") {
        m.outcome.workload_cache_hit = value == "1";
      } else if (key == "elapsed_ms") {
        if (!util::parse_u64(value, v)) return malformed("bad elapsed_ms");
        m.outcome.elapsed_ms = v;
      } else {
        return malformed("unknown result field '" + std::string(key) + "'");
      }
    }
    if (!take_block(body, "error", m.outcome.error) ||
        !take_block(body, "metrics", m.outcome.metrics_json) ||
        !take_block(body, "report", m.outcome.report_json))
      return malformed("bad result blocks");
    // Optional (absent from version-1 daemons): take_block leaves `body`
    // untouched on a name mismatch, so tolerating absence is safe.
    (void)take_block(body, "telemetry", m.outcome.telemetry);
    if (!body.starts_with("end")) return malformed("result has no end marker");
    return m;
  }

  if (verb == "stats-result") {
    m.type = MessageType::kStatsResult;
    if (!take_block(body, "stats", m.text))
      return malformed("bad stats block");
    return m;
  }

  if (verb == "telemetry-result") {
    m.type = MessageType::kTelemetryResult;
    if (!take_block(body, "telemetry", m.text))
      return malformed("bad telemetry block");
    return m;
  }

  if (verb == "error") {
    m.type = MessageType::kError;
    if (!take_block(body, "message", m.text))
      return malformed("bad error block");
    return m;
  }

  if (verb == "retry-after") {
    m.type = MessageType::kRetryAfter;
    if (!body.starts_with("retry_after_ms "))
      return malformed("retry-after without a hint");
    const std::size_t le = body.find('\n');
    if (le == std::string_view::npos) return malformed("truncated retry-after");
    if (!util::parse_u64(body.substr(15, le - 15), m.retry_after_ms))
      return malformed("bad retry_after_ms");
    body.remove_prefix(le + 1);
    if (!take_block(body, "reason", m.text))
      return malformed("bad retry-after reason block");
    return m;
  }

  return malformed("unknown verb '" + verb + "'");
}

}  // namespace tracesel::service
