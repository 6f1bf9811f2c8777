#include "debug/serialize.hpp"

#include "util/obs.hpp"

namespace tracesel::selection {

namespace {

util::Json message_names(const flow::MessageCatalog& catalog,
                         const std::vector<flow::MessageId>& ids) {
  util::Json arr = util::Json::array();
  for (const flow::MessageId m : ids)
    arr.push_back(util::Json::string(catalog.get(m).name));
  return arr;
}

util::Json packed_groups(const flow::MessageCatalog& catalog,
                         const std::vector<PackedGroup>& packed) {
  util::Json arr = util::Json::array();
  for (const PackedGroup& pg : packed) {
    util::Json obj = util::Json::object();
    obj.set("parent", util::Json::string(catalog.get(pg.parent).name));
    obj.set("subgroup", util::Json::string(pg.subgroup_name));
    obj.set("width", util::Json::number(std::uint64_t{pg.width}));
    arr.push_back(std::move(obj));
  }
  return arr;
}

}  // namespace

util::Json to_json(const flow::MessageCatalog& catalog,
                   const SelectionResult& result) {
  util::Json obj = util::Json::object();
  obj.set("messages", message_names(catalog, result.combination.messages));
  obj.set("packed", packed_groups(catalog, result.packed));
  obj.set("gain", util::Json::number(result.gain));
  obj.set("gain_unpacked", util::Json::number(result.gain_unpacked));
  obj.set("coverage", util::Json::number(result.coverage));
  obj.set("coverage_unpacked",
          util::Json::number(result.coverage_unpacked));
  obj.set("used_width", util::Json::number(std::uint64_t{result.used_width}));
  obj.set("buffer_width",
          util::Json::number(std::uint64_t{result.buffer_width}));
  obj.set("utilization", util::Json::number(result.utilization()));
  // Resilience fields are emitted unconditionally so every report has the
  // same schema, interrupted or not (docs/resilience.md). No stage
  // degrades; "degradation" stays in the schema, always empty.
  obj.set("partial", util::Json::boolean(result.partial));
  obj.set("explored_fraction", util::Json::number(result.explored_fraction));
  obj.set("degradation", util::Json::string(""));
  return obj;
}

std::string report_text(const flow::MessageCatalog& catalog,
                        const SelectionResult& result) {
  OBS_SPAN("report.serialize");
  return to_json(catalog, result).dump(2);
}

util::Json to_json(const flow::MessageCatalog& catalog,
                   const MultiScenarioResult& result) {
  util::Json obj = util::Json::object();
  obj.set("messages", message_names(catalog, result.combination.messages));
  obj.set("packed", packed_groups(catalog, result.packed));
  obj.set("weighted_gain", util::Json::number(result.weighted_gain));
  util::Json cov = util::Json::array();
  for (const double c : result.per_scenario_coverage)
    cov.push_back(util::Json::number(c));
  obj.set("per_scenario_coverage", std::move(cov));
  obj.set("used_width", util::Json::number(std::uint64_t{result.used_width}));
  obj.set("buffer_width",
          util::Json::number(std::uint64_t{result.buffer_width}));
  return obj;
}

}  // namespace tracesel::selection

namespace tracesel::debug {

util::Json to_json(const flow::MessageCatalog& catalog,
                   const WorkbenchResult& result) {
  util::Json obj = util::Json::object();
  obj.set("selection", selection::to_json(catalog, result.selection));

  util::Json symptom = util::Json::object();
  symptom.set("failed", util::Json::boolean(result.buggy.failed));
  symptom.set("failure", util::Json::string(result.buggy.failure));
  symptom.set("fail_session",
              util::Json::number(std::uint64_t{result.buggy.fail_session}));
  symptom.set("messages_to_symptom",
              util::Json::number(result.buggy.messages_to_symptom));
  obj.set("symptom", std::move(symptom));

  util::Json observation = util::Json::object();
  for (const auto& [m, status] : result.observation.status)
    observation.set(catalog.get(m).name,
                    util::Json::string(to_string(status)));
  obj.set("observation", std::move(observation));

  util::Json steps = util::Json::array();
  for (const auto& st : result.report.steps) {
    util::Json step = util::Json::object();
    step.set("message",
             util::Json::string(catalog.get(st.investigated).name));
    step.set("found", util::Json::string(to_string(st.found)));
    step.set("plausible_causes",
             util::Json::number(st.plausible_causes));
    step.set("candidate_pairs", util::Json::number(st.candidate_pairs));
    steps.push_back(std::move(step));
  }
  obj.set("investigation", std::move(steps));

  util::Json causes = util::Json::array();
  for (const auto& c : result.report.final_causes) {
    util::Json cause = util::Json::object();
    cause.set("id", util::Json::number(std::int64_t{c.id}));
    cause.set("ip", util::Json::string(c.ip));
    cause.set("description", util::Json::string(c.description));
    causes.push_back(std::move(cause));
  }
  obj.set("plausible_causes", std::move(causes));
  obj.set("pruned_fraction",
          util::Json::number(result.report.pruned_fraction()));

  util::Json localization = util::Json::object();
  localization.set("total_paths",
                   util::Json::number(result.localization.total_paths));
  localization.set("consistent_paths",
                   util::Json::number(result.localization.consistent_paths));
  localization.set("fraction",
                   util::Json::number(result.localization.fraction));
  localization.set(
      "confidence",
      util::Json::number(result.robust_localization.confidence));
  localization.set("degraded",
                   util::Json::boolean(result.robust_localization.degraded));
  obj.set("localization", std::move(localization));

  util::Json ranked = util::Json::array();
  for (const ScoredCause& sc : result.ranked_causes) {
    util::Json cause = util::Json::object();
    cause.set("id", util::Json::number(std::int64_t{sc.cause.id}));
    cause.set("ip", util::Json::string(sc.cause.ip));
    cause.set("score", util::Json::number(sc.score));
    cause.set("mismatches", util::Json::number(sc.mismatches));
    ranked.push_back(std::move(cause));
  }
  obj.set("ranked_causes", std::move(ranked));

  util::Json capture = util::Json::object();
  capture.set("quality", util::Json::number(result.observation.quality()));
  capture.set("valid_records",
              util::Json::number(result.observation.valid_records));
  capture.set("invalid_records",
              util::Json::number(result.observation.invalid_records));
  capture.set("attempts", util::Json::number(result.capture_attempts));
  capture.set("degraded", util::Json::boolean(result.capture_degraded));
  util::Json injected = util::Json::object();
  for (const soc::FaultKind k : soc::all_fault_kinds())
    injected.set(soc::to_string(k),
                 util::Json::number(result.fault_stats.injected
                                        [static_cast<std::size_t>(k)]));
  capture.set("injected_faults", std::move(injected));
  obj.set("capture", std::move(capture));
  return obj;
}

std::string report_text(const flow::MessageCatalog& catalog,
                        const WorkbenchResult& result) {
  OBS_SPAN("report.serialize");
  return to_json(catalog, result).dump(2);
}

}  // namespace tracesel::debug
