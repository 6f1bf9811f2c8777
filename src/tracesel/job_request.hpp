#pragma once
// tracesel::JobRequest — the one versioned description of a selection job.
//
// Before PR 7 the knobs of a run were smeared across four structs that grew
// organically: selection::SelectorConfig (search), flow::InterleaveOptions
// (product build), provenance fields riding inside SelectorConfig, and
// ad-hoc CLI flag plumbing. Every consumer — the CLI,
// the daemon wire protocol, the artifact cache — needed its own partial
// copy, and nothing guaranteed the copies agreed.
//
// A JobRequest is the consolidation: one flat, versioned struct holding
//
//   - the workload:   which spec ("t2", "usb" or a .flow path — or inline
//                     spec text for daemon clients without a shared
//                     filesystem) and how many instances to interleave;
//   - the structure:  every knob that can change the *bits* of the result
//                     (buffer width, search mode, packing, combination cap);
//   - the runtime:    knobs that change only whether a run finishes
//                     (the deadline) — excluded from the canonical
//                     hash, because failed or partial runs are never
//                     cached.
//
// The same struct feeds three consumers from one source of truth:
//   canonical_hash()     -> the daemon's result-index key,
//   serialize/parse      -> the daemon wire encoding (util envelope codec),
//   selector_config() /
//   interleave_options() -> the legacy engine structs.

#include <cstdint>
#include <string>
#include <string_view>

#include "flow/indexed_flow.hpp"
#include "selection/selector.hpp"
#include "util/result.hpp"

namespace tracesel {

struct JobRequest {
  /// 2: version 1's two interleave-engine lines are gone.
  /// 3: the "kernel" line is gone.
  static constexpr std::uint32_t kVersion = 3;
  /// The envelope version this request was parsed from; serialization
  /// writes the same one, so version-1 and -2 records round-trip byte for
  /// byte.
  std::uint32_t version = kVersion;

  /// Which selection entry point runs. kSelectFlowConstraint adds the
  /// every-flow-represented repair (MessageSelector::
  /// select_with_flow_constraint) on top of the plain Step 1-3 pipeline.
  enum class Kind : std::uint32_t { kSelect = 0, kSelectFlowConstraint = 1 };

  // --- workload (hashed via the resolved spec content) ---
  /// "t2", "usb", or a .flow spec path. Ignored when spec_text is set.
  std::string spec = "t2";
  /// Inline .flow spec text; lets daemon clients submit jobs without a
  /// filesystem shared with the server. Takes precedence over `spec`.
  std::string spec_text;
  /// interleave(n) count for spec/usb workloads; scenario id for t2.
  std::uint32_t instances = 2;

  /// Ignored: selection no longer builds a product, so there is nothing
  /// to reduce. Kept only so the benchmark's sources still compile.
  bool symmetry_reduction = true;

  // --- structural: search (hashed) ---
  Kind kind = Kind::kSelect;
  std::uint32_t buffer_width = 32;
  selection::SearchMode mode = selection::SearchMode::kKnapsack;
  bool packing = true;
  std::uint64_t max_combinations = 1u << 22;

  // --- runtime knobs (never hashed: a deadline either leaves the result
  //     complete or marks it partial — and partial results are never
  //     cached) ---
  /// Ignored: selection counts every valid spec in closed form and builds
  /// no product. Still on the wire, because journals carry it, and handed
  /// out by interleave_options() to callers (the benchmark) that build a
  /// product themselves.
  std::uint64_t max_nodes = 2'000'000;
  /// 0 = no deadline. Mapped onto a util::CancelToken deadline by the
  /// daemon; the engine returns the best-so-far partial result when it
  /// fires.
  std::uint64_t deadline_ms = 0;
  /// Distributed trace identity (obs::TraceContext; 0 = client not
  /// tracing). Runtime-only: identical jobs from traced and untraced
  /// clients share a cache line, and the daemon's telemetry reply is keyed
  /// to the connection, not the result bits.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  /// Free-form tenant label for the daemon's per-tenant accounting
  /// (telemetry surface); empty = unattributed. Never hashed.
  std::string tenant;

  /// The engine structs this request denotes. Conversion is one-way by
  /// design: JobRequest is the source of truth, the legacy structs are the
  /// derived view.
  selection::SelectorConfig selector_config() const;
  flow::InterleaveOptions interleave_options() const;

  /// The result-index key: FNV-1a over the format version, every
  /// structural field and `source_hash` — the caller-resolved hash of the
  /// actual spec *content* (file bytes, inline text, or a builtin tag), so
  /// two paths to the same bytes share a cache line and an edited spec
  /// misses. Runtime knobs are deliberately absent; see above.
  std::uint64_t canonical_hash(std::uint64_t source_hash) const;

  /// True when the two requests denote the same computation (all hashed
  /// fields equal). Used by the result index to guard against hash
  /// collisions.
  bool same_computation(const JobRequest& other) const;
};

/// Search-mode names used by the wire format and the CLI (--mode).
std::string_view to_string(selection::SearchMode mode);
util::Result<selection::SearchMode> parse_search_mode(std::string_view name);

/// Wire encoding: a "tracesel-job <version> <checksum>" envelope (the
/// shared util codec) over "key value" lines, with the inline spec text as
/// a trailing length-prefixed block. parse_job_request still accepts
/// version-1 and -2 envelopes and the retired "jobs N", interleave-engine
/// and "kernel" lines, which it drops, so records written by older clients
/// and journals replay.
std::string serialize_job_request(const JobRequest& req);
util::Result<JobRequest> parse_job_request(std::string_view text);

}  // namespace tracesel
