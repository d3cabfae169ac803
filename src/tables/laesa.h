// LAESA -- Linear AESA (Mico, Oncina, Carrasco [19]; Section 3.1).
//
// Stores the distances from every object to each of the |P| shared pivots
// in a flat table.  MRQ computes the |P| query-pivot distances, then scans
// the table pruning with Lemma 1; MkNNQ scans in storage order with a
// radius tightened by the running kth-NN distance -- the paper notes this
// order is suboptimal, and the measured costs reflect that faithfully.
//
// The table, its query bodies, and deletion are the scan-table engine
// shared with EPT (src/tables/scan_table.h); LAESA supplies the shared-
// pivot build and maps a query to phi(q).  Decisions and results are
// identical to the naive row-major scan, only faster (see
// src/core/pivot_table.h and bench/bench_micro_scan.cc).

#ifndef PMI_TABLES_LAESA_H_
#define PMI_TABLES_LAESA_H_

#include <vector>

#include "src/tables/scan_table.h"

namespace pmi {

/// Pivot table over the shared pivot set.
class Laesa final : public ScanTableIndex {
 public:
  explicit Laesa(IndexOptions options = {}) : ScanTableIndex(options) {}

  std::string name() const override { return "LAESA"; }
  bool disk_based() const override { return false; }
  std::unique_ptr<MetricIndex> Clone() const override;
  size_t memory_bytes() const override;
  void MapQuery(const ObjectView& q, const DistanceComputer& d,
                std::vector<double>* out) const override;

 protected:
  void BuildImpl() override;
  void InsertImpl(ObjectId id) override;
  Status SaveImpl(ByteSink* out) const override;
  Status LoadImpl(ByteSource* in) override;
};

}  // namespace pmi

#endif  // PMI_TABLES_LAESA_H_
