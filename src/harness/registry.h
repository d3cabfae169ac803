// Index registry: one factory per surveyed index, shared by the
// conformance tests and every benchmark so indexes are always constructed
// the same way.

#ifndef PMI_HARNESS_REGISTRY_H_
#define PMI_HARNESS_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/index.h"

namespace pmi {

/// Construction recipe and applicability flags for one index.
struct IndexSpec {
  std::string name;
  /// True when the index only supports discrete distance functions
  /// (BKT, FQT; Table 1).
  bool discrete_only = false;
  /// True for category-3 (disk) indexes plus CPT's disk component.
  bool uses_disk = false;
  /// Minimum number of pivots required (M-index* needs >= 2 for
  /// hyperplane partitioning; Fig. 18 omits it at |P| = 1).
  uint32_t min_pivots = 1;
  /// True if the index ignores the shared pivot set's identity (EPT,
  /// EPT*, BKT pick their own pivots; only |P| is honored).
  bool own_pivots = false;
  std::function<std::unique_ptr<MetricIndex>(const IndexOptions&)> make;
};

/// All indexes of the survey, in the paper's presentation order:
/// LAESA, EPT, EPT*, CPT, BKT, FQT, VPT, MVPT, PM-tree, Omni-seq,
/// OmniB+-tree, OmniR-tree, M-index, M-index*, SPB-tree (+ AESA).
const std::vector<IndexSpec>& AllIndexSpecs();

/// The nine indexes of the paper's query-performance figures
/// (Figs. 16-18): EPT*, CPT, BKT, FQT, MVPT, SPB-tree, M-index*,
/// PM-tree, OmniR-tree.
const std::vector<IndexSpec>& FigureIndexSpecs();

/// Recoverable factory by display name: kNotFound for unknown names,
/// kInvalidArgument when `options` fail ValidateOptions or when
/// `pivot_count` (if given) violates the index's min_pivots or, for the
/// SPB-tree, SpbTree::CheckGrid.  This is the
/// constructor the facade layer uses; pass kAnyPivotCount to skip the
/// pivot check when the pivot set is not known yet.
inline constexpr uint32_t kAnyPivotCount = UINT32_MAX;
StatusOr<std::unique_ptr<MetricIndex>> TryMakeIndex(
    const std::string& name, const IndexOptions& options = {},
    uint32_t pivot_count = kAnyPivotCount);

/// Factory by display name; aborts on unknown names (the harness/bench
/// contract).  Routed through TryMakeIndex.
std::unique_ptr<MetricIndex> MakeIndex(const std::string& name,
                                       const IndexOptions& options = {});

/// Spec by display name, or nullptr.  Covers every spec of AllIndexSpecs
/// plus "LinearScan" (the brute-force baseline -- constructible by name
/// for the facade, but deliberately absent from the survey spec lists so
/// the paper-reproduction harness is unchanged).
const IndexSpec* FindIndexSpec(const std::string& name);

}  // namespace pmi

#endif  // PMI_HARNESS_REGISTRY_H_
