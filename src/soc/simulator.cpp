#include "soc/simulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/bits.hpp"
#include "util/obs.hpp"

namespace tracesel::soc {

namespace {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Per-instance execution state within one session.
struct InstanceState {
  const flow::Flow* flow = nullptr;
  std::uint32_t index = 0;
  flow::StateId state = 0;
  bool stalled = false;   ///< a drop bug killed a required message
  bool poisoned = false;  ///< wrong-decode: later content corrupted
  bool tainted = false;   ///< carried corrupted/misrouted traffic
  int stall_bug = -1;
  int poison_bug = -1;
  int taint_bug = -1;
};

}  // namespace

SocSimulator::SocSimulator(const T2Design& design, const Scenario& scenario)
    : catalog_(&design.catalog()),
      flows_(scenario_flows(design, scenario)),
      instances_per_flow_(scenario.instances_per_flow) {}

SocSimulator::SocSimulator(const flow::MessageCatalog& catalog,
                           std::vector<const flow::Flow*> flows,
                           std::uint32_t instances_per_flow)
    : catalog_(&catalog),
      flows_(std::move(flows)),
      instances_per_flow_(instances_per_flow) {
  if (flows_.empty())
    throw std::invalid_argument("SocSimulator: no flows");
  if (instances_per_flow_ == 0)
    throw std::invalid_argument("SocSimulator: zero instances per flow");
}

void SocSimulator::inject(bug::Bug bug) { bugs_.push_back(std::move(bug)); }

void SocSimulator::clear_bugs() { bugs_.clear(); }

std::uint64_t SocSimulator::golden_value(flow::MessageId m,
                                         std::uint32_t index,
                                         std::uint32_t session,
                                         std::uint32_t occurrence,
                                         std::uint32_t width) {
  const std::uint64_t key = (static_cast<std::uint64_t>(m) << 48) ^
                            (static_cast<std::uint64_t>(index) << 40) ^
                            (static_cast<std::uint64_t>(session) << 20) ^
                            occurrence;
  return mix(key) & util::max_value_for_width(width);
}

SimResult SocSimulator::run(const SimOptions& options) const {
  SimResult result;
  util::Rng rng(options.seed);
  std::uint64_t cycle = 0;
  // Occurrence counters per (message, instance index), reset each session.
  std::vector<std::uint32_t> occ(catalog_->size() * instances_per_flow_);
  std::vector<std::size_t> enabled;

  for (std::uint32_t session = 0; session < options.sessions; ++session) {
    // Fresh flow instances each session, indexed 1..k per flow (Def. 4).
    std::vector<InstanceState> insts;
    for (const flow::Flow* f : flows_) {
      for (std::uint32_t i = 1; i <= instances_per_flow_; ++i) {
        InstanceState s;
        s.flow = f;
        s.index = i;
        s.state = f->initial_states().front();
        insts.push_back(s);
      }
    }
    std::fill(occ.begin(), occ.end(), 0);

    for (std::uint32_t step = 0; step < options.max_steps_per_session;
         ++step) {
      // Def. 5 scheduling: if some instance occupies an atomic state, only
      // it may move; otherwise any unfinished instance may.
      std::size_t atomic_holder = insts.size();
      for (std::size_t i = 0; i < insts.size(); ++i) {
        if (!insts[i].stalled &&
            insts[i].flow->is_atomic(insts[i].state)) {
          atomic_holder = i;
          break;
        }
      }
      enabled.clear();
      for (std::size_t i = 0; i < insts.size(); ++i) {
        const InstanceState& s = insts[i];
        if (s.stalled || s.flow->is_stop(s.state)) continue;
        if (s.flow->outgoing(s.state).empty()) continue;
        if (atomic_holder != insts.size() && atomic_holder != i) continue;
        enabled.push_back(i);
      }
      if (enabled.empty()) break;  // session complete (or globally stalled)

      const std::size_t chosen_idx = enabled[rng.index(enabled.size())];
      InstanceState& inst = insts[chosen_idx];
      const auto& out = inst.flow->outgoing(inst.state);
      // Branch choice is a pure function of (seed, session, instance,
      // state), NOT of the shared scheduling stream: golden and buggy runs
      // then take identical per-instance paths (unless a bug stalls one),
      // which keeps the trace diff meaningful on branching flows.
      std::size_t branch = 0;
      if (out.size() > 1) {
        const std::uint64_t key =
            options.seed ^ (static_cast<std::uint64_t>(session) << 40) ^
            (static_cast<std::uint64_t>(chosen_idx) << 20) ^ inst.state;
        branch = static_cast<std::size_t>(mix(key) % out.size());
      }
      const flow::Transition& t = inst.flow->transitions()[out[branch]];
      const flow::Message& msg = catalog_->get(t.message);
      std::uint32_t& occurrences =
          occ[std::size_t{t.message} * instances_per_flow_ + inst.index - 1];
      const std::uint32_t occurrence = occurrences++;

      TimedMessage tm;
      tm.msg = flow::IndexedMessage{t.message, inst.index};
      tm.value = golden_value(t.message, inst.index, session, occurrence,
                              msg.width);
      tm.src = msg.source_ip;
      tm.dst = msg.dest_ip;
      tm.session = session;

      // Bug effects on this emission. A corruption mask is always reduced
      // to the message width and forced nonzero so a "corrupting" effect
      // really changes the observable content.
      const auto effective_mask = [&](std::uint64_t mask) {
        mask &= util::max_value_for_width(msg.width);
        return mask ? mask : 1ull;
      };
      // Wrong-decode poisons everything the instance emits *after* the
      // mis-decoded message; remember the state before this emission.
      const bool was_poisoned = inst.poisoned;
      bool dropped = false;
      for (const bug::Bug& b : bugs_) {
        if (b.target != t.message) continue;
        if (session < b.trigger_session) continue;
        if (!rng.chance(b.trigger_probability)) continue;
        switch (b.effect) {
          case bug::BugEffect::kCorruptValue:
            tm.value ^= effective_mask(b.corrupt_mask);
            inst.tainted = true;
            inst.taint_bug = b.id;
            break;
          case bug::BugEffect::kDropMessage:
            dropped = true;
            inst.stalled = true;
            inst.stall_bug = b.id;
            break;
          case bug::BugEffect::kMisroute:
            tm.dst = b.misroute_dest.empty() ? tm.dst : b.misroute_dest;
            inst.tainted = true;
            inst.taint_bug = b.id;
            break;
          case bug::BugEffect::kWrongDecode:
            tm.value ^= effective_mask(b.corrupt_mask);
            inst.poisoned = true;
            inst.poison_bug = b.id;
            break;
        }
      }
      if (was_poisoned && !dropped) {
        // Receiver decoded an earlier message wrongly; everything it
        // produces afterwards in this flow instance is garbage.
        tm.value ^=
            effective_mask(mix(0xBADDECllu + inst.poison_bug));
      }

      cycle += rng.between(1, 16);  // variable message latency
      tm.cycle = cycle;

      if (!dropped) {
        // Emit the message as the Fig. 4 monitor rebuilds it from the
        // signal burst (its *_dst wire carries only the six T2 IPs).
        tm.dst = monitored_dst(tm.dst);
        result.messages.push_back(std::move(tm));
      }

      inst.state = t.to;
    }

    // Session post-mortem: stalls are hangs, poisoned completions are bad
    // traps. Record only the first failure (the symptom the validator sees).
    if (!result.failed) {
      for (const InstanceState& s : insts) {
        if (s.stalled) {
          result.failed = true;
          result.fail_session = session;
          result.fail_cycle = cycle;
          result.failure = failure_text(s.stall_bug);
          break;
        }
        if (s.poisoned && s.flow->is_stop(s.state)) {
          result.failed = true;
          result.fail_session = session;
          result.fail_cycle = cycle;
          result.failure = failure_text(s.poison_bug);
          break;
        }
        if (s.tainted && s.flow->is_stop(s.state)) {
          // The garbage content reached its consumer; the test detects the
          // wrong architectural outcome at the end of the session.
          result.failed = true;
          result.fail_session = session;
          result.fail_cycle = cycle;
          result.failure = failure_text(s.taint_bug);
          break;
        }
        if (!s.flow->is_stop(s.state)) {
          result.failed = true;
          result.fail_session = session;
          result.fail_cycle = cycle;
          result.failure = "HANG: scenario deadlock";
          break;
        }
      }
      if (result.failed)
        result.messages_to_symptom = result.messages.size();
    }

    cycle += rng.between(20, 60);  // inter-session quiescence
  }

  result.total_cycles = cycle;
  OBS_COUNT("soc.sim.messages", result.messages.size());
  return result;
}

std::string SocSimulator::failure_text(int bug_id) const {
  for (const bug::Bug& b : bugs_) {
    if (b.id == bug_id && !b.symptom.empty()) return b.symptom;
  }
  return "FAIL: Bad Trap";
}

}  // namespace tracesel::soc
