// LAESA -- Linear AESA (Mico, Oncina, Carrasco [19]; Section 3.1).
//
// Stores the distances from every object to each of the |P| shared pivots
// in a flat table.  MRQ computes the |P| query-pivot distances, then scans
// the table pruning with Lemma 1; MkNNQ scans in storage order with a
// radius tightened by the running kth-NN distance -- the paper notes this
// order is suboptimal, and the measured costs reflect that faithfully.
//
// The table is held in the columnar PivotTable layout and survivors are
// verified with the threshold-aware distance kernels; both decisions and
// results are identical to the naive row-major scan, only faster (see
// src/core/pivot_table.h and bench/bench_micro_scan.cc).
//
// Deletion scans the id column for the victim row (the sequential-deletion
// cost the paper attributes to the table-based indexes in Section 6.3),
// then compacts by swapping the last row in -- scan tables are
// order-independent, so no O(n) shift is needed.

#ifndef PMI_TABLES_LAESA_H_
#define PMI_TABLES_LAESA_H_

#include <vector>

#include "src/core/index.h"
#include "src/core/pivot_table.h"

namespace pmi {

/// Pivot table over the shared pivot set.
class Laesa final : public MetricIndex {
 public:
  explicit Laesa(IndexOptions options = {}) : MetricIndex(options) {}

  std::string name() const override { return "LAESA"; }
  bool disk_based() const override { return false; }
  std::unique_ptr<MetricIndex> Clone() const override;
  size_t memory_bytes() const override;

  /// Read-only view of the distance table (thread-invariance tests pin
  /// its contents bit-for-bit against the serial build).
  const PivotTable& table() const { return table_; }

 protected:
  void BuildImpl() override;
  void RangeImpl(const ObjectView& q, double r,
                 std::vector<ObjectId>* out) const override;
  void KnnImpl(const ObjectView& q, size_t k,
               std::vector<Neighbor>* out) const override;
  void InsertImpl(ObjectId id) override;
  void RemoveImpl(ObjectId id) override;
  // Batches of two or more run block-major: one pivot-table pass for the
  // whole batch (src/core/pivot_table.h ScanBlockMajor), bit-identical
  // to the query-major loop.
  bool RangeBatchBlockImpl(const std::vector<ObjectView>& queries,
                           const double* radii,
                           std::vector<std::vector<ObjectId>>* out,
                           PerfCounters* per_query) const override;
  bool KnnBatchBlockImpl(const std::vector<ObjectView>& queries,
                         const size_t* ks,
                         std::vector<std::vector<Neighbor>>* out,
                         PerfCounters* per_query) const override;
  Status SaveImpl(ByteSink* out) const override;
  Status LoadImpl(ByteSource* in) override;

 private:
  std::vector<ObjectId> oids_;  // row -> object id
  PivotTable table_;            // columnar |rows| x |P|
};

}  // namespace pmi

#endif  // PMI_TABLES_LAESA_H_
