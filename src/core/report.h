// Per-circuit path classification report: the Figure 3 hierarchy
// rendered as numbers, plus the paper's fault-coverage metric.
//
// For an enumerable circuit every logical path is placed in exactly
// one band of the hierarchy
//
//     robust ⊆ non-robust testable (T) ⊆ kept by σ^π ⊆ FS ⊆ all,
//
// giving five disjoint counts.  Fault coverage follows Section III's
// discussion: testable kept paths / all kept paths — the quantity that
// improves as the chosen σ^π shrinks (Example 3), and the DFT list is
// the remainder.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/classify.h"
#include "core/input_sort.h"
#include "netlist/circuit.h"
#include "paths/path.h"

namespace rd {

struct PathClassReport {
  std::uint64_t total_logical = 0;

  // Disjoint hierarchy bands (sum == total_logical).
  std::uint64_t robust = 0;            // robustly testable
  std::uint64_t nonrobust_only = 0;    // in T(C) but not robust
  std::uint64_t kept_only = 0;         // kept by σ^π but outside T(C)
  std::uint64_t fs_only = 0;           // FS but pruned by σ^π (RD!)
  std::uint64_t unsensitizable = 0;    // outside FS (FUS band)

  // Derived.
  std::uint64_t kept_total = 0;        // robust + nonrobust_only + kept_only
  std::uint64_t rd_total = 0;          // fs_only + unsensitizable
  double fault_coverage_percent = 0.0; // (robust+nonrobust_only)/kept_total

  /// Kept paths that are not even non-robustly testable — the DFT
  /// candidates of Example 3.
  std::vector<LogicalPath> dft_candidates;
};

struct ReportOptions {
  /// Hard cap on enumerated logical paths (throws std::runtime_error
  /// beyond — reports need full enumeration to be meaningful).
  std::uint64_t max_paths = 1u << 20;

  /// Node budget per robust and per non-robust ATPG query; a query
  /// that exhausts it makes classify_report throw GuardTrippedError.
  std::uint64_t max_atpg_nodes = 1u << 22;
};

/// Builds the full report for the σ^π induced by `sort`.
PathClassReport classify_report(const Circuit& circuit, const InputSort& sort,
                                const ReportOptions& options = {});

/// Pretty-prints the hierarchy bands.
std::string report_to_string(const PathClassReport& report);

}  // namespace rd
