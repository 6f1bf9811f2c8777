#include "soc/monitor.hpp"

namespace tracesel::soc {

namespace {

/// Splits "<message>_<kind>" at the last underscore; returns false when the
/// signal has no suffix.
bool split_signal(const std::string& signal, std::string& base,
                  std::string& kind) {
  const auto pos = signal.rfind('_');
  if (pos == std::string::npos || pos == 0 || pos + 1 >= signal.size())
    return false;
  base = signal.substr(0, pos);
  kind = signal.substr(pos + 1);
  return true;
}

/// The *_dst wire carries the soc::Ip ordinal of the destination, and 6
/// for any name outside the six IPs.
std::uint64_t encode_dst(std::string_view name) {
  std::uint64_t code = 0;
  while (code < 6 && to_string(static_cast<Ip>(code)) != name) ++code;
  return code;
}

std::string decode_dst(std::uint64_t code) {
  return code < 6 ? ip_name(static_cast<Ip>(code)) : "?";
}

}  // namespace

Monitor::Monitor(const flow::MessageCatalog& catalog) : catalog_(&catalog) {}

std::optional<TimedMessage> Monitor::on_event(const SignalEvent& event) {
  std::string base, kind;
  if (!split_signal(event.signal, base, kind)) {
    ++ignored_;
    return std::nullopt;
  }
  const auto id = catalog_->find(base);
  if (!id) {
    ++ignored_;
    return std::nullopt;
  }

  Partial& p = partial_[base];
  if (kind == "data") {
    p.data = event.value;
  } else if (kind == "tag") {
    p.tag = static_cast<std::uint32_t>(event.value);
  } else if (kind == "sess") {
    p.session = static_cast<std::uint32_t>(event.value);
  } else if (kind == "dst") {
    p.dst = decode_dst(event.value);
  } else if (kind == "valid") {
    const flow::Message& m = catalog_->get(*id);
    TimedMessage tm;
    tm.msg = flow::IndexedMessage{*id, p.tag};
    tm.cycle = event.cycle;
    tm.value = p.data;
    tm.src = m.source_ip;
    tm.dst = p.dst.empty() ? m.dest_ip : p.dst;
    tm.session = p.session;
    partial_.erase(base);
    messages_.push_back(tm);
    return tm;
  } else {
    ++ignored_;
  }
  return std::nullopt;
}

void Monitor::clear() {
  partial_.clear();
  messages_.clear();
  ignored_ = 0;
}

std::string monitored_dst(std::string_view ip) {
  return decode_dst(encode_dst(ip));
}

std::vector<SignalEvent> signal_burst(const flow::Message& message,
                                      const TimedMessage& tm) {
  return {
      SignalEvent{message.name + "_data", tm.value, tm.cycle},
      SignalEvent{message.name + "_tag", tm.msg.index, tm.cycle},
      SignalEvent{message.name + "_sess", tm.session, tm.cycle},
      SignalEvent{message.name + "_dst", encode_dst(tm.dst), tm.cycle},
      SignalEvent{message.name + "_valid", 1, tm.cycle},
  };
}

std::vector<SignalEvent> signal_trace(
    const flow::MessageCatalog& catalog,
    const std::vector<TimedMessage>& messages) {
  std::vector<SignalEvent> events;
  events.reserve(messages.size() * 5);
  for (const TimedMessage& tm : messages) {
    for (SignalEvent& ev : signal_burst(catalog.get(tm.msg.message), tm))
      events.push_back(std::move(ev));
  }
  return events;
}

}  // namespace tracesel::soc
