// CPT -- Clustered Pivot Table (Mosko, Lokoc, Skopal [20]; Section 3.3).
//
// Keeps the LAESA distance table in main memory but moves the objects
// themselves into a disk-resident M-tree so similar objects cluster on
// the same pages.  Each table row carries a pointer to the M-tree leaf
// holding its object; a candidate that survives Lemma 1 is verified by
// reading that leaf page (the per-candidate I/O the paper charges CPT
// for).  Updates must maintain both structures, which is why Table 6
// ranks CPT near the bottom.
//
// The in-memory half is LAESA's shared-pivot PivotTable and runs the
// same scans (ScanDynamic for MRQ and MkNNQ, ScanBlockMajor for MRQ
// batches); only verification differs, since CPT reads each candidate
// from disk instead of from the dataset.

#ifndef PMI_TABLES_CPT_H_
#define PMI_TABLES_CPT_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/index.h"
#include "src/core/pivot_table.h"
#include "src/storage/mtree.h"
#include "src/storage/paged_file.h"

namespace pmi {

/// In-memory pivot table + on-disk M-tree object store.
class Cpt final : public MetricIndex {
 public:
  explicit Cpt(IndexOptions options = {}) : MetricIndex(options) {}

  std::string name() const override { return "CPT"; }
  bool disk_based() const override { return true; }
  std::unique_ptr<MetricIndex> Clone() const override;
  size_t memory_bytes() const override;
  size_t disk_bytes() const override;

  /// Read-only view of the in-memory distance table (see Laesa).
  const PivotTable& table() const { return table_; }

 protected:
  void BuildImpl() override;
  void RangeImpl(const ObjectView& q, double r,
                 std::vector<ObjectId>* out) const override;
  void KnnImpl(const ObjectView& q, size_t k,
               std::vector<Neighbor>* out) const override;
  void InsertImpl(ObjectId id) override;
  void RemoveImpl(ObjectId id) override;
  // Batch MRQs of two or more queries run block-major over the in-memory
  // table half; the disk verification phase then replays the query-major
  // page-access sequence exactly.  MkNNQ batches stay query-major (no
  // KnnBatchBlockImpl): the shrinking radius interleaves verification
  // I/O with the scan, so reordering would change which buffer-pool
  // accesses miss -- and PA is an accounted cost here, not a hint.
  bool RangeBatchBlockImpl(const std::vector<ObjectView>& queries,
                           const double* radii,
                           std::vector<std::vector<ObjectId>>* out,
                           PerfCounters* per_query) const override;
  Status SaveImpl(ByteSink* out) const override;
  Status LoadImpl(ByteSource* in) override;

 private:
  /// The M-tree's placement callback: keeps leaf_of_ current.
  std::function<void(ObjectId, PageId)> LeafPointerUpdater() {
    return [this](ObjectId oid, PageId page) { leaf_of_[oid] = page; };
  }

  /// Reads object `id` from its M-tree leaf (charging the page access)
  /// and returns its distance to `q`, early-abandoning past `upper` (see
  /// Metric::BoundedDistance).
  double VerifyFromDisk(const ObjectView& q, ObjectId id,
                        double upper) const;

  std::vector<ObjectId> oids_;
  PivotTable table_;  // columnar in-memory half (same layout as LAESA)
  std::unordered_map<ObjectId, PageId> leaf_of_;  // the table's "ptr" column

  std::unique_ptr<PagedFile> file_;
  std::unique_ptr<MTree> mtree_;
};

}  // namespace pmi

#endif  // PMI_TABLES_CPT_H_
