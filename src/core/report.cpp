#include "core/report.h"

#include <set>
#include <sstream>
#include <stdexcept>

#include "atpg/nonrobust.h"
#include "atpg/robust.h"
#include "core/classify.h"
#include "paths/counting.h"

namespace rd {

namespace {

/// True if the search found a test; an aborted search throws its typed
/// cause, since the report's bands need every verdict.
template <typename Search>
bool found_test(const Search& search) {
  if (search.verdict == AtpgVerdict::kAborted)
    throw GuardTrippedError(search.abort_reason);
  return search.verdict == AtpgVerdict::kTestable;
}

}  // namespace

PathClassReport classify_report(const Circuit& circuit, const InputSort& sort,
                                const ReportOptions& options) {
  // Kept-path keys from the classifier.
  ClassifyOptions classify_options;
  classify_options.criterion = Criterion::kInputSort;
  classify_options.sort = &sort;
  classify_options.collect_paths_limit = options.max_paths;
  const ClassifyResult kept = classify_paths(circuit, classify_options);
  if (!kept.completed || kept.kept_paths > options.max_paths)
    throw std::runtime_error("classify_report: circuit too large");
  std::set<std::vector<std::uint32_t>> kept_keys(kept.kept_keys.begin(),
                                                 kept.kept_keys.end());

  classify_options.criterion = Criterion::kFunctionalSensitizable;
  classify_options.sort = nullptr;
  const ClassifyResult fs = classify_paths(circuit, classify_options);
  if (!fs.completed || fs.kept_paths > options.max_paths)
    throw std::runtime_error("classify_report: circuit too large");
  std::set<std::vector<std::uint32_t>> fs_keys(fs.kept_keys.begin(),
                                               fs.kept_keys.end());

  PathClassReport report;
  std::uint64_t enumerated = 0;
  const bool complete = enumerate_paths(
      circuit,
      [&](const PhysicalPath& physical) {
        for (const bool final_value : {false, true}) {
          ++enumerated;
          const LogicalPath path{physical, final_value};
          const auto key = path.key();
          if (!fs_keys.count(key)) {
            ++report.unsensitizable;
            continue;
          }
          if (!kept_keys.count(key)) {
            ++report.fs_only;
            continue;
          }
          // Kept: subclassify by testability.
          if (found_test(search_robust_test(circuit, path,
                                            options.max_atpg_nodes))) {
            ++report.robust;
          } else if (found_test(search_nonrobust_test(
                         circuit, path, options.max_atpg_nodes))) {
            ++report.nonrobust_only;
          } else {
            ++report.kept_only;
            report.dft_candidates.push_back(path);
          }
        }
      },
      options.max_paths / 2 + 1);
  if (!complete) throw std::runtime_error("classify_report: too many paths");

  report.total_logical = enumerated;
  report.kept_total =
      report.robust + report.nonrobust_only + report.kept_only;
  report.rd_total = report.fs_only + report.unsensitizable;
  if (report.kept_total > 0)
    report.fault_coverage_percent =
        100.0 *
        static_cast<double>(report.robust + report.nonrobust_only) /
        static_cast<double>(report.kept_total);
  return report;
}

std::string report_to_string(const PathClassReport& report) {
  std::ostringstream out;
  out << "logical paths                : " << report.total_logical << "\n"
      << "  robustly testable          : " << report.robust << "\n"
      << "  non-robustly testable only : " << report.nonrobust_only << "\n"
      << "  kept but untestable (DFT)  : " << report.kept_only << "\n"
      << "  robust dependent (FS \\ LP) : " << report.fs_only << "\n"
      << "  functionally unsensitizable: " << report.unsensitizable << "\n"
      << "must-test |LP(sigma^pi)|     : " << report.kept_total << "\n"
      << "robust dependent total       : " << report.rd_total << "\n"
      << "fault coverage               : " << report.fault_coverage_percent
      << " %\n";
  return out.str();
}

}  // namespace rd
