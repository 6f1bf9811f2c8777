#pragma once
// Maintenance of the committed reference outputs (perfbench/refs/).

namespace perfbench {

/// Recomputes every reference through the user path and writes it.
/// Returns a process exit code.
int write_references();

/// Cross-checks the references against independent oracles: exhaustive
/// search over the unreduced product (symmetry_reduction = false) for every
/// reference request of at most 64 bits, and the paper's worked Fig. 2
/// values (I = 1.073, coverage 11/15 at a 2-bit buffer). Prints one line
/// per check; returns a process exit code.
int oracle_check();

}  // namespace perfbench
