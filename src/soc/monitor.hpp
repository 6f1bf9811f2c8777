#pragma once
// The System-Verilog-monitor equivalent of the paper's Fig. 4: the design
// under simulation toggles interface *signals*; monitors watch those
// signals and reassemble application-level flow messages from them.
//
// A message beat is a burst of signal events on the message's interface:
//   <name>_data  — content value
//   <name>_tag   — flow instance index (the architectural tagging support)
//   <name>_sess  — test session ordinal
//   <name>_dst   — destination IP (routing; misroute bugs change it)
//   <name>_valid — strobe; completes the beat
// The Monitor buffers partial beats per message and publishes a
// TimedMessage when the valid strobe arrives, exactly how the RTL monitors
// of the paper convert OpenSPARC T2 signals to flow messages.
//
// The simulator emits each TimedMessage as a Monitor would rebuild it from
// the burst; signal_trace re-expands messages into bursts (VCD, tests).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "flow/message.hpp"
#include "flow/types.hpp"
#include "soc/ip.hpp"

namespace tracesel::soc {

/// One signal-level event observed on the interface.
struct SignalEvent {
  std::string signal;
  std::uint64_t value = 0;
  std::uint64_t cycle = 0;
};

/// One reconstructed application-level message occurrence.
struct TimedMessage {
  flow::IndexedMessage msg;
  std::uint64_t cycle = 0;
  std::uint64_t value = 0;
  std::string src;
  std::string dst;  ///< actual routed destination (may differ under bugs)
  std::uint32_t session = 0;

  friend bool operator==(const TimedMessage&, const TimedMessage&) = default;
};

/// Reassembles messages from interface signal events.
class Monitor {
 public:
  explicit Monitor(const flow::MessageCatalog& catalog);

  /// Feeds one signal event; returns the completed message when the event
  /// was a valid strobe, std::nullopt otherwise. Unknown signals are
  /// ignored (monitors only watch declared interfaces).
  std::optional<TimedMessage> on_event(const SignalEvent& event);

  /// All messages completed so far, in strobe order.
  const std::vector<TimedMessage>& messages() const { return messages_; }

  /// Number of events that referenced no catalog message.
  std::size_t ignored_events() const { return ignored_; }

  void clear();

 private:
  struct Partial {
    std::uint64_t data = 0;
    std::uint32_t tag = 0;
    std::uint32_t session = 0;
    std::string dst;
  };

  const flow::MessageCatalog* catalog_;
  std::unordered_map<std::string, Partial> partial_;
  std::vector<TimedMessage> messages_;
  std::size_t ignored_ = 0;
};

/// The destination a Monitor rebuilds for a message routed to `ip`: `ip`
/// for the six soc::Ip names, "?" for any other (the *_dst wire's codes).
std::string monitored_dst(std::string_view ip);

/// The five signal events of one message beat.
std::vector<SignalEvent> signal_burst(const flow::Message& message,
                                      const TimedMessage& tm);

/// The signal bursts of a message stream, in order. A Monitor fed this
/// stream rebuilds `messages` when every dst is already monitored_dst.
std::vector<SignalEvent> signal_trace(
    const flow::MessageCatalog& catalog,
    const std::vector<TimedMessage>& messages);

}  // namespace tracesel::soc
