#include "src/harness/registry.h"

#include <cassert>
#include <cstdlib>

#include "src/core/linear_scan.h"
#include "src/external/ept_disk.h"
#include "src/external/m_index.h"
#include "src/external/omni.h"
#include "src/external/pm_tree.h"
#include "src/external/spb_tree.h"
#include "src/tables/aesa.h"
#include "src/tables/cpt.h"
#include "src/tables/ept.h"
#include "src/tables/laesa.h"
#include "src/trees/bkt.h"
#include "src/trees/fqa.h"
#include "src/trees/fqt.h"
#include "src/trees/mvpt.h"

namespace pmi {
namespace {

std::vector<IndexSpec> BuildSpecs() {
  std::vector<IndexSpec> specs;
  specs.push_back({"AESA", false, false, 1, true,
                   [](const IndexOptions& o) {
                     return std::make_unique<Aesa>(o);
                   }});
  specs.push_back({"LAESA", false, false, 1, false,
                   [](const IndexOptions& o) {
                     return std::make_unique<Laesa>(o);
                   }});
  specs.push_back({"EPT", false, false, 1, true,
                   [](const IndexOptions& o) {
                     return std::make_unique<Ept>(Ept::Variant::kClassic, o);
                   }});
  specs.push_back({"EPT*", false, false, 1, true,
                   [](const IndexOptions& o) {
                     return std::make_unique<Ept>(Ept::Variant::kStar, o);
                   }});
  specs.push_back({"CPT", false, true, 1, false,
                   [](const IndexOptions& o) {
                     return std::make_unique<Cpt>(o);
                   }});
  specs.push_back({"BKT", true, false, 1, true,
                   [](const IndexOptions& o) {
                     return std::make_unique<Bkt>(o);
                   }});
  specs.push_back({"FQT", true, false, 1, false,
                   [](const IndexOptions& o) {
                     return std::make_unique<Fqt>(o);
                   }});
  specs.push_back({"FQA", true, false, 1, false,
                   [](const IndexOptions& o) {
                     return std::make_unique<Fqa>(o);
                   }});
  specs.push_back({"VPT", false, false, 1, false,
                   [](const IndexOptions& o) {
                     return std::make_unique<Mvpt>(o, /*arity_override=*/2);
                   }});
  specs.push_back({"MVPT", false, false, 1, false,
                   [](const IndexOptions& o) {
                     return std::make_unique<Mvpt>(o);
                   }});
  specs.push_back({"PM-tree", false, true, 1, false,
                   [](const IndexOptions& o) {
                     return std::make_unique<PmTree>(o);
                   }});
  specs.push_back({"OmniSeq", false, true, 1, false,
                   [](const IndexOptions& o) {
                     return std::make_unique<OmniSequential>(o);
                   }});
  specs.push_back({"OmniB+tree", false, true, 1, false,
                   [](const IndexOptions& o) {
                     return std::make_unique<OmniBTree>(o);
                   }});
  specs.push_back({"OmniR-tree", false, true, 1, false,
                   [](const IndexOptions& o) {
                     return std::make_unique<OmniRTree>(o);
                   }});
  specs.push_back({"M-index", false, true, 2, false,
                   [](const IndexOptions& o) {
                     return std::make_unique<MIndex>(MIndex::Variant::kBasic,
                                                     o);
                   }});
  specs.push_back({"M-index*", false, true, 2, false,
                   [](const IndexOptions& o) {
                     return std::make_unique<MIndex>(MIndex::Variant::kStar,
                                                     o);
                   }});
  specs.push_back({"SPB-tree", false, true, 1, false,
                   [](const IndexOptions& o) {
                     return std::make_unique<SpbTree>(o);
                   }});
  // Section 7 future-work extension: EPT* as a disk-based index.
  specs.push_back({"EPT*-disk", false, true, 1, true,
                   [](const IndexOptions& o) {
                     return std::make_unique<EptDisk>(o);
                   }});
  return specs;
}

}  // namespace

const std::vector<IndexSpec>& AllIndexSpecs() {
  static const std::vector<IndexSpec>* specs =
      new std::vector<IndexSpec>(BuildSpecs());
  return *specs;
}

const std::vector<IndexSpec>& FigureIndexSpecs() {
  static const std::vector<IndexSpec>* specs = [] {
    auto* out = new std::vector<IndexSpec>();
    for (const char* name : {"EPT*", "CPT", "BKT", "FQT", "MVPT", "SPB-tree",
                             "M-index*", "PM-tree", "OmniR-tree"}) {
      const IndexSpec* s = FindIndexSpec(name);
      if (s != nullptr) out->push_back(*s);
    }
    return out;
  }();
  return *specs;
}

const IndexSpec* FindIndexSpec(const std::string& name) {
  for (const IndexSpec& s : AllIndexSpecs()) {
    if (s.name == name) return &s;
  }
  // Baseline specs constructible by name but excluded from the survey
  // lists (AllIndexSpecs drives the equal-footing experiments; adding
  // LinearScan there would perturb every figure and table).
  static const std::vector<IndexSpec>* extras = new std::vector<IndexSpec>{
      {"LinearScan", false, false, 0, true,
       [](const IndexOptions& o) { return std::make_unique<LinearScan>(o); }},
  };
  for (const IndexSpec& s : *extras) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

StatusOr<std::unique_ptr<MetricIndex>> TryMakeIndex(
    const std::string& name, const IndexOptions& options,
    uint32_t pivot_count) {
  const IndexSpec* spec = FindIndexSpec(name);
  if (spec == nullptr) {
    return NotFoundError("unknown index name: \"" + name + "\"");
  }
  PMI_RETURN_IF_ERROR(ValidateOptions(options));
  if (pivot_count != kAnyPivotCount && pivot_count < spec->min_pivots) {
    return InvalidArgumentError(
        name + " requires at least " + std::to_string(spec->min_pivots) +
        " pivots, got " + std::to_string(pivot_count));
  }
  // The SPB-tree's Hilbert grid must fit a 63-bit key; past that, keys
  // overflow and answers go silently wrong.
  if (spec->name == "SPB-tree" && pivot_count != kAnyPivotCount) {
    PMI_RETURN_IF_ERROR(SpbTree::CheckGrid(options, pivot_count));
  }
  return spec->make(options);
}

std::unique_ptr<MetricIndex> MakeIndex(const std::string& name,
                                       const IndexOptions& options) {
  auto index = TryMakeIndex(name, options);
  if (!index.ok()) {
    std::fprintf(stderr, "MakeIndex(%s): %s\n", name.c_str(),
                 index.status().ToString().c_str());
    std::abort();
  }
  return std::move(index).value();
}

}  // namespace pmi
