// One immutable published state of a database.
//
// The single writer builds each new state as a TableVersion (sharing
// unchanged 256-row pivot-table blocks with its predecessor via
// PivotTable's copy-on-write storage) and publishes it by swapping a
// shared_ptr.  Readers pin a version by copying that shared_ptr; a
// superseded version is freed by whichever holder drops it last.

#ifndef PMI_CORE_VERSION_H_
#define PMI_CORE_VERSION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/dataset.h"
#include "src/core/index.h"
#include "src/core/metric.h"
#include "src/core/pivots.h"

namespace pmi {

/// One immutable published state: the index snapshot plus everything it
/// references and the liveness/sequence bookkeeping a reader needs to
/// interpret results.  Never mutated after publication.
struct TableVersion {
  std::shared_ptr<const Dataset> data;
  std::shared_ptr<const Metric> metric;
  std::shared_ptr<const PivotSet> pivots;
  std::shared_ptr<const MetricIndex> index;
  std::vector<uint8_t> live;  // liveness bitmap, one byte per object id
  uint64_t sequence = 0;      // WAL sequence this version reflects
};

}  // namespace pmi

#endif  // PMI_CORE_VERSION_H_
