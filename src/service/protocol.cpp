#include "service/protocol.hpp"

#include <utility>

#include "util/framing.hpp"
#include "util/obs.hpp"

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
  OBS_SPAN("svc.frame.encode");
  return header(MessageType::kSubmit) + serialize_job_request(request);
}

std::string encode_simple(MessageType type) {
  OBS_SPAN("svc.frame.encode");
  return header(type);
}

std::string encode_event(std::string_view status, std::uint64_t position) {
  OBS_SPAN("svc.frame.encode");
  std::string out = header(MessageType::kEvent);
  out += "status ";
  out += status;
  out += "\nposition ";
  out += std::to_string(position);
  out += '\n';
  return out;
}

std::string encode_result(const JobOutcome& outcome) {
  OBS_SPAN("svc.frame.encode");
  std::string out = header(MessageType::kResult);
  out += "status " + outcome.status + '\n';
  out += "job_id " + std::to_string(outcome.job_id) + '\n';
  out += "cache_hit " + std::string(outcome.cache_hit ? "1" : "0") + '\n';
  out += "workload_cache_hit " +
         std::string(outcome.workload_cache_hit ? "1" : "0") + '\n';
  out += "elapsed_ms " + std::to_string(outcome.elapsed_ms) + '\n';
  util::append_block(out, "error", outcome.error);
  util::append_block(out, "metrics", outcome.metrics_json);
  util::append_block(out, "report", outcome.report_json);
  // Appended after the original three blocks so a version-1 reader that
  // stops at its known blocks keeps parsing results from newer daemons.
  util::append_block(out, "telemetry", outcome.telemetry);
  out += "end\n";
  return out;
}

std::string encode_stats_result(std::string_view stats_json) {
  OBS_SPAN("svc.frame.encode");
  std::string out = header(MessageType::kStatsResult);
  util::append_block(out, "stats", stats_json);
  return out;
}

std::string encode_telemetry_result(std::string_view telemetry_json) {
  OBS_SPAN("svc.frame.encode");
  std::string out = header(MessageType::kTelemetryResult);
  util::append_block(out, "telemetry", telemetry_json);
  return out;
}

std::string encode_error(std::string_view message) {
  OBS_SPAN("svc.frame.encode");
  std::string out = header(MessageType::kError);
  util::append_block(out, "message", message);
  return out;
}

std::string encode_retry_after(std::uint64_t retry_after_ms,
                               std::string_view reason) {
  OBS_SPAN("svc.frame.encode");
  std::string out = header(MessageType::kRetryAfter);
  out += "retry_after_ms " + std::to_string(retry_after_ms) + '\n';
  util::append_block(out, "reason", reason);
  return out;
}

util::Result<Message> parse_message(std::string_view payload) {
  OBS_SPAN("svc.frame.decode");
  std::string_view body = payload;
  std::string_view head;
  if (!util::take_line(body, head)) head = std::exchange(body, {});

  const std::string_view tag = util::take_token(head);
  const std::string_view verb = util::take_token(head);
  std::uint32_t version = 0;
  if (tag != kProtocolTag ||
      !util::parse_number(util::take_token(head), version) ||
      !util::take_token(head).empty())
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
    std::string_view line;
    while (util::take_line(body, line)) {
      if (line.starts_with("status ")) {
        m.text = line.substr(7);
      } else if (line.starts_with("position ") &&
                 !util::parse_number(line.substr(9), m.position)) {
        return malformed("bad event position");
      }
    }
    if (m.text.empty()) return malformed("event without status");
    return m;
  }

  if (verb == "result") {
    m.type = MessageType::kResult;
    // Fixed-order fields, then the three length-prefixed blocks.
    while (!body.empty() && !body.starts_with("error ")) {
      std::string_view line;
      if (!util::take_line(body, line)) return malformed("truncated result");
      const std::size_t sp = line.find(' ');
      if (sp == std::string_view::npos) return malformed("bad result field");
      const std::string_view key = line.substr(0, sp);
      const std::string_view value = line.substr(sp + 1);
      if (key == "status") {
        m.outcome.status = std::string(value);
      } else if (key == "job_id") {
        if (!util::parse_number(value, m.outcome.job_id))
          return malformed("bad job_id");
      } else if (key == "cache_hit" || key == "workload_cache_hit") {
        if (value != "0" && value != "1")
          return malformed("bad " + std::string(key));
        (key == "cache_hit" ? m.outcome.cache_hit
                            : m.outcome.workload_cache_hit) = value == "1";
      } else if (key == "elapsed_ms") {
        if (!util::parse_number(value, m.outcome.elapsed_ms))
          return malformed("bad elapsed_ms");
      } else {
        return malformed("unknown result field '" + std::string(key) + "'");
      }
    }
    std::string_view error, metrics, report, telemetry;
    if (!util::take_block(body, "error", error) ||
        !util::take_block(body, "metrics", metrics) ||
        !util::take_block(body, "report", report))
      return malformed("bad result blocks");
    // Optional (absent from version-1 daemons): take_block leaves `body`
    // untouched on a name mismatch, so tolerating absence is safe.
    (void)util::take_block(body, "telemetry", telemetry);
    if (!body.starts_with("end")) return malformed("result has no end marker");
    m.outcome.error = error;
    m.outcome.metrics_json = metrics;
    m.outcome.report_json = report;
    m.outcome.telemetry = telemetry;
    return m;
  }

  // The verbs whose body is one block, carried in m.text.
  const auto text_block = [&](MessageType type,
                              std::string_view name) -> util::Result<Message> {
    m.type = type;
    std::string_view text;
    if (!util::take_block(body, name, text))
      return malformed("bad " + std::string(name) + " block");
    m.text = text;
    return std::move(m);
  };
  if (verb == "stats-result")
    return text_block(MessageType::kStatsResult, "stats");
  if (verb == "telemetry-result")
    return text_block(MessageType::kTelemetryResult, "telemetry");
  if (verb == "error") return text_block(MessageType::kError, "message");
  if (verb == "retry-after") {
    std::string_view line;
    if (!util::take_line(body, line) || !line.starts_with("retry_after_ms ") ||
        !util::parse_number(line.substr(15), m.retry_after_ms))
      return malformed("bad retry_after_ms line");
    return text_block(MessageType::kRetryAfter, "reason");
  }

  return malformed("unknown verb '" + std::string(verb) + "'");
}

}  // namespace tracesel::service
