#pragma once
// tracesel::resilience — one include for the long-running-job survival
// surface (docs/resilience.md): cooperative cancellation and deadlines,
// and the conventional process exit codes.
//
//   auto token = tracesel::resilience::CancelToken::make();
//   config.cancel = token;                // a selection::SelectorConfig
//   ...                                   // SIGINT handler: token.cancel()
//   auto result = tracesel::QueryCore::select(*workload, config, false);
//                                         // result.partial on interruption
//
// The cancellation types are aliases for symbols in util/cancel.hpp; this
// header only gathers the embedding-application surface in one place.

#include "util/cancel.hpp"

namespace tracesel::resilience {

// --- cancellation ---
using util::CancelledError;
using util::CancelToken;

// --- process exit codes (the CLI contract; useful for wrappers) ---
/// Success.
inline constexpr int kExitOk = 0;
/// Bad usage (no or unknown subcommand, missing operand).
inline constexpr int kExitUsage = 1;
/// Runtime failure (unreadable spec, capacity exceeded, I/O error) or an
/// option error (unknown option, missing or malformed value).
inline constexpr int kExitFailure = 2;
/// Interrupted: the run was cancelled (signal or deadline) and produced a
/// partial result instead of a full answer.
inline constexpr int kExitInterrupted = 3;

}  // namespace tracesel::resilience
