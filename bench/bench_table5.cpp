// Regenerates Table 5: per-message bug coverage (fraction of injected bugs
// affecting the message), message importance (1 / bug coverage), whether
// our method selects the message, and in which usage scenarios.
//
// Bug coverage is measured exactly as Sec. 5.5 defines it: a message is
// affected by a bug if its value (or presence/routing) in an execution of
// the buggy design differs from the bug-free design.

#include <iostream>
#include <map>
#include <set>
#include <sstream>

#include "bench_util.hpp"
#include "debug/case_study.hpp"

using namespace tracesel;

namespace {

/// Messages whose golden/buggy streams differ (value, count or routing).
std::set<flow::MessageId> affected_messages(const soc::T2Design& design,
                                            const soc::Scenario& scenario,
                                            const bug::Bug& bug) {
  soc::SocSimulator golden(design, scenario);
  soc::SocSimulator buggy(design, scenario);
  bug::Bug armed = bug;
  armed.trigger_session = 0;
  buggy.inject(armed);
  soc::SimOptions opt;
  opt.sessions = 2;
  opt.seed = 4242;
  const auto g = golden.run(opt);
  const auto b = buggy.run(opt);

  // Align per (message, index, session) streams and diff.
  using Key = std::tuple<flow::MessageId, std::uint32_t, std::uint32_t>;
  std::map<Key, std::vector<const soc::TimedMessage*>> gs, bs;
  for (const auto& tm : g.messages)
    gs[{tm.msg.message, tm.msg.index, tm.session}].push_back(&tm);
  for (const auto& tm : b.messages)
    bs[{tm.msg.message, tm.msg.index, tm.session}].push_back(&tm);

  std::set<flow::MessageId> affected;
  for (const auto& [key, gseq] : gs) {
    const auto it = bs.find(key);
    const std::size_t blen = it == bs.end() ? 0 : it->second.size();
    if (blen != gseq.size()) {
      affected.insert(std::get<0>(key));
      continue;
    }
    for (std::size_t i = 0; i < gseq.size(); ++i) {
      if (gseq[i]->value != it->second[i]->value ||
          gseq[i]->dst != it->second[i]->dst)
        affected.insert(std::get<0>(key));
    }
  }
  return affected;
}

}  // namespace

int main() {
  bench::banner("Table 5", "selection of important messages (bug coverage "
                           "and message importance)");

  soc::T2Design design;
  const auto bugs = soc::standard_bugs(design);
  const auto scenarios = soc::all_scenarios();

  // affecting[m] = set of bug ids whose effect reaches message m.
  std::map<flow::MessageId, std::set<int>> affecting;
  for (const bug::Bug& b : bugs) {
    for (const soc::Scenario& s : scenarios) {
      bool relevant = false;
      for (const auto* f : soc::scenario_flows(design, s)) {
        if (f->uses_message(b.target)) relevant = true;
      }
      if (!relevant) continue;
      for (flow::MessageId m : affected_messages(design, s, b))
        affecting[m].insert(b.id);
    }
  }

  // Which messages does the method select (WP, 32-bit buffer), per scenario?
  std::map<flow::MessageId, std::vector<int>> selected_in;
  for (const soc::Scenario& s : scenarios) {
    const selection::MessageSelector selector(
        design.catalog(),
        flow::ProductStats::build(soc::scenario_instances(design, s)));
    const auto r = selector.select({});
    for (flow::MessageId m : r.observable()) selected_in[m].push_back(s.id);
  }

  util::Table table({"Message", "Affecting Bug IDs", "Bug coverage",
                     "Message importance", "Selected Y/N", "Usage scenario"});
  const double total_bugs = static_cast<double>(bugs.size());
  for (flow::MessageId m = 0; m < design.catalog().size(); ++m) {
    const auto& name = design.catalog().get(m).name;
    std::ostringstream ids;
    const auto it = affecting.find(m);
    const std::size_t count = it == affecting.end() ? 0 : it->second.size();
    if (it != affecting.end()) {
      bool first = true;
      for (int id : it->second) {
        if (!first) ids << ", ";
        ids << id;
        first = false;
      }
    }
    const double coverage = static_cast<double>(count) / total_bugs;
    std::ostringstream scen;
    const auto sit = selected_in.find(m);
    if (sit != selected_in.end()) {
      bool first = true;
      for (int s : sit->second) {
        if (!first) scen << ", ";
        scen << s;
        first = false;
      }
    }
    table.add_row({name, count ? ids.str() : "-",
                   count ? util::fixed(coverage, 2) : "-",
                   count ? util::fixed(1.0 / coverage, 2) : "-",
                   sit != selected_in.end() ? "Y" : "N",
                   sit != selected_in.end() ? scen.str() : "-"});
  }
  std::cout << table << "\n";

  bench::note("reproduced claims: bugs are subtle (each affects few "
              "messages, so most messages have low bug coverage / high "
              "importance), and wide messages (dmusiidata 20b, ncuupreq "
              "16b) are only selectable through packing - the paper's m9 / "
              "m15 'too wide to select' rows correspond to the unselected "
              "wide messages here");
  return 0;
}
