// The query engine shared by LAESA and EPT/EPT* (Sections 3.1-3.2).
//
// Both indexes are a PivotTable whose row i describes object oids_[i]:
// a query maps to its query-side vector, the table filters every row
// with Lemma 1, and the survivors are verified in memory with the
// threshold-aware distance kernels.  They differ only in which pivots a
// row stores -- the shared pivot set (LAESA) or per-object picks from a
// pivot pool (EPT/EPT*) -- and the table resolves that layout itself.  So
// a subclass supplies the build, the insert, the snapshot, and MapQuery;
// every query body and the deletion live here once.
//
// MRQ and MkNNQ run the same scan: MRQ at a fixed radius, MkNNQ at the
// radius of its shrinking kNN heap (src/core/pivot_table.h ScanDynamic).
// Batches of two or more run block-major (ScanBlockMajor), one table
// pass per query chunk, bit-identical to the query-major loop.
//
// Deletion scans the id column for the victim row (the sequential-
// deletion cost the paper attributes to the table-based indexes in
// Section 6.3), then compacts by swapping the last row in -- scan tables
// are order-independent, so no O(n) shift is needed.

#ifndef PMI_TABLES_SCAN_TABLE_H_
#define PMI_TABLES_SCAN_TABLE_H_

#include <vector>

#include "src/core/index.h"
#include "src/core/pivot_table.h"

namespace pmi {

/// In-memory pivot-table index: the shared query and delete bodies of
/// LAESA and EPT/EPT*.
class ScanTableIndex : public MetricIndex {
 public:
  using MetricIndex::MetricIndex;

  /// Read-only view of the distance table (thread-invariance tests pin
  /// its contents bit-for-bit against the serial build).
  const PivotTable& table() const { return table_; }

  /// Writes the query-side vector of table()'s layout for `q` into
  /// `out`, counting distances through `d`: phi(q) over the shared
  /// pivots (LAESA), or d(q, p) for every pool pivot p (EPT/EPT*).
  virtual void MapQuery(const ObjectView& q, const DistanceComputer& d,
                        std::vector<double>* out) const = 0;

 protected:
  void RangeImpl(const ObjectView& q, double r,
                 std::vector<ObjectId>* out) const override;
  void KnnImpl(const ObjectView& q, size_t k,
               std::vector<Neighbor>* out) const override;
  void RemoveImpl(ObjectId id) override;
  bool RangeBatchBlockImpl(const std::vector<ObjectView>& queries,
                           const double* radii,
                           std::vector<std::vector<ObjectId>>* out,
                           PerfCounters* per_query) const override;
  bool KnnBatchBlockImpl(const std::vector<ObjectView>& queries,
                         const size_t* ks,
                         std::vector<std::vector<Neighbor>>* out,
                         PerfCounters* per_query) const override;

  std::vector<ObjectId> oids_;  // row -> object id
  PivotTable table_;

 private:
  /// One query through ScanDynamic into collector `c` (a KnnHeap or a
  /// fixed-radius range collector: radius() and Push(id, dist)).
  template <typename Collector>
  void Scan(const ObjectView& q, Collector* c) const;

  /// A batch through ScanBlockMajor, one table pass per query chunk;
  /// make(i) builds query i's collector and finish(i, &c) takes its
  /// answer.
  template <typename Make, typename Finish>
  void ScanBatch(const std::vector<ObjectView>& queries,
                 PerfCounters* per_query, Make&& make, Finish&& finish) const;
};

}  // namespace pmi

#endif  // PMI_TABLES_SCAN_TABLE_H_
