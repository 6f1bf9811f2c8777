#include "flow/parser.hpp"

#include <utility>

#include "flow/flow_builder.hpp"
#include "util/atomic_file.hpp"
#include "util/cancel.hpp"
#include "util/framing.hpp"
#include "util/obs.hpp"

namespace tracesel::flow {

const Flow& ParsedSpec::flow(std::string_view name) const {
  for (const Flow& f : flows) {
    if (f.name() == name) return f;
  }
  throw std::out_of_range("ParsedSpec: unknown flow '" + std::string(name) +
                          "'");
}

namespace {

// Input caps (DESIGN.md §11): a fuzzed or hostile .flow file must produce
// a typed file:line diagnostic, never unbounded allocation. The limits are
// far above any real collateral (the full T2 uncore spec is ~120 lines).
constexpr std::size_t kMaxSpecBytes = 64u << 20;   ///< whole-file cap
constexpr std::size_t kMaxLineLength = 64u << 10;  ///< bytes per line
constexpr std::size_t kMaxMessages = 65536;
constexpr std::size_t kMaxFlows = 4096;
constexpr std::size_t kMaxLinesPerFlow = 1u << 17; ///< states + transitions

/// A WIDTH or beats count: decimal digits only, 1..2^32-1.
std::uint32_t parse_u32(std::string_view tok, std::size_t line,
                        const char* what) {
  std::uint32_t v = 0;
  if (!util::parse_number(tok, v) || v == 0)
    throw ParseError(line, std::string("expected positive integer for ") +
                               what + ", got '" + std::string(tok) + "'");
  return v;
}

struct PendingSubgroup {
  std::string parent, name;
  std::uint32_t width;
  std::size_t line;
};

/// One implementation serves both modes. Strict (sink == nullptr): the
/// first error throws a ParseError carrying `file`. Lenient: every error
/// is appended to `sink` and parsing recovers at the construct boundary —
/// a malformed line is skipped, a flow that cannot be built is dropped.
ParsedSpec parse_impl(std::string_view text, const std::string& file,
                      std::vector<ParseDiagnostic>* sink,
                      const util::CancelToken* cancel) {
  OBS_SPAN("flow.parse");
  const bool lenient = sink != nullptr;
  ParsedSpec spec;
  std::vector<PendingSubgroup> pending_subgroups;
  // Message definitions are collected first (subgroups may reference
  // messages declared later), then flows are built in a second pass over
  // recorded flow bodies.
  struct FlowBody {
    std::string name;
    std::size_t line;
    /// Header was malformed (lenient mode): parse the body for further
    /// diagnostics but never attempt to build the flow.
    bool poisoned = false;
    /// Body hit kMaxLinesPerFlow: further lines are dropped unrecorded.
    bool truncated = false;
    /// Over-kMaxFlows body (lenient mode): consume lines, keep nothing.
    bool discard = false;
    /// (line number, text without its comment), split again at build.
    std::vector<std::pair<std::size_t, std::string_view>> lines;
  };
  std::vector<FlowBody> bodies;
  // Over-cap flows in lenient mode still need their '{...}' consumed so the
  // parser stays synchronized; their lines land in this throwaway body.
  FlowBody discard_body{"<discarded>", 0, true, false, true, {}};
  std::vector<Message> messages;
  std::vector<std::size_t> message_lines;  // parallel to `messages`

  // Runs one construct-level action; on ParseError either rethrows with
  // the file attached (strict) or records the diagnostic and reports
  // failure so the caller can recover (lenient).
  const auto guard = [&](auto&& fn) -> bool {
    try {
      fn();
      return true;
    } catch (const ParseError& e) {
      if (!lenient) throw ParseError(file, e.line(), e.detail());
      sink->push_back(ParseDiagnostic{file, e.line(), e.detail()});
      return false;
    }
  };

  std::string_view rest = text;
  std::vector<std::string_view> tokens;
  std::size_t lineno = 0;
  FlowBody* open = nullptr;
  // Each count cap is reported once; repeating it per excess line would
  // turn a pathological input into a pathological diagnostic list.
  bool message_cap_reported = false;
  bool flow_cap_reported = false;

  auto handle_message = [&](const std::vector<std::string_view>& t,
                            std::size_t line) {
    // message NAME WIDTH SRC -> DST [beats N]
    if (t.size() != 6 && t.size() != 8)
      throw ParseError(line,
                       "message syntax: message NAME WIDTH SRC -> DST "
                       "[beats N]");
    if (t[4] != "->")
      throw ParseError(line, "expected '->' between source and destination");
    Message m;
    m.name = t[1];
    m.width = parse_u32(t[2], line, "width");
    m.source_ip = t[3];
    m.dest_ip = t[5];
    if (t.size() == 8) {
      if (t[6] != "beats")
        throw ParseError(line,
                         "expected 'beats', got '" + std::string(t[6]) + "'");
      m.beats = parse_u32(t[7], line, "beats");
    }
    messages.push_back(std::move(m));
    message_lines.push_back(line);
  };

  auto handle_subgroup = [&](const std::vector<std::string_view>& t,
                             std::size_t line) {
    // subgroup PARENT NAME WIDTH
    if (t.size() != 4)
      throw ParseError(line, "subgroup syntax: subgroup PARENT NAME WIDTH");
    pending_subgroups.push_back(PendingSubgroup{
        std::string(t[1]), std::string(t[2]), parse_u32(t[3], line, "width"),
        line});
  };

  while (!rest.empty()) {
    std::string_view raw;
    // The last line may lack its '\n'.
    if (!util::take_line(rest, raw)) raw = std::exchange(rest, {});
    ++lineno;
    if (cancel != nullptr && (lineno & 0xFFF) == 0 && cancel->cancelled())
      throw util::CancelledError("flow.parse");
    if (raw.size() > kMaxLineLength) {
      guard([&] {
        throw ParseError(lineno, "line exceeds the length cap of " +
                                     std::to_string(kMaxLineLength) +
                                     " bytes");
      });
      continue;  // lenient: drop the line, stay synchronized
    }
    raw = raw.substr(0, raw.find('#'));
    util::split_tokens(raw, tokens);
    if (tokens.empty()) continue;

    // Messages and subgroups may stand at top level or inside a flow.
    if (tokens[0] == "message") {
      if (messages.size() < kMaxMessages) {
        guard([&] { handle_message(tokens, lineno); });
      } else if (!message_cap_reported) {
        message_cap_reported = true;
        guard([&] {
          throw ParseError(lineno, "message count exceeds the cap of " +
                                       std::to_string(kMaxMessages));
        });
      }
    } else if (tokens[0] == "subgroup") {
      guard([&] { handle_subgroup(tokens, lineno); });
    } else if (open == nullptr) {
      if (tokens[0] == "flow") {
        const bool well_formed = tokens.size() == 3 && tokens[2] == "{";
        guard([&] {
          if (!well_formed)
            throw ParseError(lineno, "flow syntax: flow NAME {");
        });
        if (bodies.size() >= kMaxFlows) {
          if (!flow_cap_reported) {
            flow_cap_reported = true;
            guard([&] {
              throw ParseError(lineno, "flow count exceeds the cap of " +
                                           std::to_string(kMaxFlows));
            });
          }
          if (lenient) open = &discard_body;  // consume the block body
        } else if (well_formed || lenient) {
          // Lenient recovery: still open a (poisoned) body so its lines
          // are linted instead of cascading "expected 'message'..." noise.
          bodies.push_back(FlowBody{
              tokens.size() > 1 ? std::string(tokens[1]) : "<anonymous>",
              lineno, !well_formed, false, false, {}});
          open = &bodies.back();
        }
      } else {
        guard([&] {
          throw ParseError(lineno, "expected 'message', 'subgroup' or "
                                   "'flow', got '" +
                                       std::string(tokens[0]) + "'");
        });
      }
    } else if (tokens[0] == "}") {
      guard([&] {
        if (tokens.size() != 1)
          throw ParseError(lineno, "unexpected tokens after '}'");
      });
      open = nullptr;
    } else if (open->discard) {
      // Over-cap flow: swallow the body without recording anything.
    } else if (open->lines.size() >= kMaxLinesPerFlow) {
      if (!open->truncated) {
        open->truncated = true;
        open->poisoned = true;  // a truncated body must never build
        guard([&] {
          throw ParseError(lineno, "flow body '" + open->name +
                                       "' exceeds the cap of " +
                                       std::to_string(kMaxLinesPerFlow) +
                                       " lines");
        });
      }
    } else {
      open->lines.emplace_back(lineno, raw);
    }
  }
  if (open != nullptr) {
    FlowBody* unterminated = open;
    guard([&] {
      throw ParseError(lineno, "unterminated flow block '" +
                                   unterminated->name + "'");
    });
  }

  // Attach subgroups, then register messages.
  for (const PendingSubgroup& sg : pending_subgroups) {
    guard([&] {
      for (Message& m : messages) {
        if (m.name == sg.parent) {
          m.subgroups.push_back(Subgroup{sg.name, sg.width});
          return;
        }
      }
      throw ParseError(sg.line, "subgroup references unknown message '" +
                                    sg.parent + "'");
    });
  }
  for (std::size_t i = 0; i < messages.size(); ++i) {
    guard([&] {
      try {
        spec.catalog.add(std::move(messages[i]));
      } catch (const std::invalid_argument& e) {
        throw ParseError(message_lines[i], e.what());
      }
    });
  }

  // Build the flows.
  for (const FlowBody& body : bodies) {
    if (body.poisoned) continue;
    FlowBuilder builder(body.name);
    bool body_ok = true;
    for (const auto& [l, raw] : body.lines) {
      util::split_tokens(raw, tokens);
      const auto& tt = tokens;
      const bool line_ok = guard([&] {
        if (tt[0] == "state") {
          // state NAME [initial] [stop] [atomic]...
          if (tt.size() < 2)
            throw ParseError(l, "state syntax: state NAME [initial] "
                                "[stop] [atomic]");
          std::uint8_t flags = FlowBuilder::kNone;
          for (std::size_t i = 2; i < tt.size(); ++i) {
            if (tt[i] == "initial") flags |= FlowBuilder::kInitial;
            else if (tt[i] == "stop") flags |= FlowBuilder::kStop;
            else if (tt[i] == "atomic") flags |= FlowBuilder::kAtomic;
            else
              throw ParseError(l, "unknown state flag '" +
                                      std::string(tt[i]) + "'");
          }
          builder.state(std::string(tt[1]), flags);
        } else if (tt.size() == 5 && tt[1] == "->" && tt[3] == "on") {
          // FROM -> TO on MESSAGE
          const auto id = spec.catalog.find(tt[4]);
          if (!id)
            throw ParseError(l, "transition references unknown message '" +
                                    std::string(tt[4]) + "'");
          try {
            builder.transition(tt[0], *id, tt[2]);
          } catch (const std::invalid_argument& e) {
            throw ParseError(l, e.what());
          }
        } else {
          throw ParseError(l, "expected 'state NAME ...' or "
                              "'FROM -> TO on MESSAGE'");
        }
      });
      body_ok = body_ok && line_ok;
    }
    guard([&] {
      try {
        spec.flows.push_back(builder.build(spec.catalog));
      } catch (const std::invalid_argument& e) {
        // A flow whose body already had errors will often fail to build;
        // reporting that again would be cascade noise.
        if (body_ok) throw ParseError(body.line, e.what());
      }
    });
  }
  OBS_COUNT("parse.flows", spec.flows.size());
  OBS_COUNT("parse.messages", spec.catalog.size());
  if (sink != nullptr) OBS_COUNT("parse.diagnostics", sink->size());
  return spec;
}

}  // namespace

ParsedSpec parse_flow_spec(std::string_view text, std::string_view file,
                           const util::CancelToken* cancel) {
  return parse_impl(text, std::string(file), nullptr, cancel);
}

LenientParseResult parse_flow_spec_lenient(std::string_view text,
                                           std::string_view file,
                                           const util::CancelToken* cancel) {
  LenientParseResult result;
  result.spec = parse_impl(text, std::string(file), &result.errors, cancel);
  return result;
}

ParsedSpec parse_flow_spec_file(const std::string& path,
                                const util::CancelToken* cancel) {
  auto text = util::read_file_capped(path, kMaxSpecBytes);
  if (!text.ok())
    throw std::runtime_error("parse_flow_spec_file: " +
                             text.error().to_string());
  return parse_flow_spec(text.value(), path, cancel);
}

LenientParseResult parse_flow_spec_file_lenient(
    const std::string& path, const util::CancelToken* cancel) {
  auto text = util::read_file_capped(path, kMaxSpecBytes);
  if (!text.ok()) {
    LenientParseResult result;
    result.errors.push_back(
        ParseDiagnostic{path, 0, text.error().to_string()});
    return result;
  }
  return parse_flow_spec_lenient(text.value(), path, cancel);
}

}  // namespace tracesel::flow
