#pragma once
// Crash-safe file output and checksummed reads (DESIGN.md §11).
//
// Every artifact the pipeline writes — BENCH_*.json, --metrics-out /
// --trace-out sinks, the daemon's journal and stored results — must
// survive the writer being killed mid-write: an interrupted run may leave
// *no* file or the *old* file, never a truncated one. atomic_write_file implements the standard
// write-to-temp + rename protocol (rename(2) is atomic on POSIX when
// source and target share a filesystem, which a sibling temp guarantees).

#include <cstdint>
#include <string>
#include <string_view>

#include "util/result.hpp"

namespace tracesel::util {

/// FNV-1a 64-bit over raw bytes; the checksum used by the text envelopes.
std::uint64_t fnv1a64(std::string_view bytes);

/// Writes `contents` to `path` atomically and durably: the data lands in a
/// sibling temporary, is fsync'd, and only then renamed over `path`; the
/// parent directory is fsync'd after the rename so the entry survives a
/// power loss. On any failure the temporary is removed and `path` is left
/// untouched (old content or absent — never truncated).
Status atomic_write_file(const std::string& path, std::string_view contents);

/// Reads a whole file; a typed error when it cannot be opened or exceeds
/// `max_bytes` (guards spec/result loads against pathological inputs).
Result<std::string> read_file_capped(const std::string& path,
                                     std::size_t max_bytes);

}  // namespace tracesel::util
