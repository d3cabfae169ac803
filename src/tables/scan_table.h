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
//
// PagedPivotTable is the same table kept on sequential pages: the
// Omni-sequential-file ("LAESA stored on disk", Section 5.2) in the
// shared-pivot layout and EPT*-disk in the per-row-pivot layout.  A page
// holds rows_per_page = page_size / row_bytes rows, with row_bytes =
// 16 + 8l (shared) or 16 + 12l (per-row), stored column-major:
//
//   [oid u32 x rpp][raf len u32 x rpp][raf off u64 x rpp]
//   [dist f64 x rpp] x l                     (slot 0 .. l-1)
//   [pool index u32 x rpp] x l               (per-row layout only)
//
// A removed row keeps its cells with oid = kInvalidObjectId (a
// tombstone).  A scan pins each page once and narrows the page's live
// rows with the scan engine's exact f64 refine kernels; the objects
// themselves live in the index's RecordFile, which the caller's verify
// step reads.

#ifndef PMI_TABLES_SCAN_TABLE_H_
#define PMI_TABLES_SCAN_TABLE_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "src/core/index.h"
#include "src/core/pivot_table.h"
#include "src/core/simd.h"
#include "src/storage/paged_file.h"
#include "src/storage/raf.h"

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

/// Pivot table on sequential pages (the page layout is above): the one
/// table and query scan of OmniSeq and EPT*-disk.  Like PivotTable it
/// resolves its layout itself; the index supplies the query vector of
/// that layout and the RAF verification.
class PagedPivotTable {
 public:
  PagedPivotTable() = default;
  /// An empty table of `width` pivot slots per row on a new sequential
  /// file with `options`' page size, cache and pool, charging
  /// `counters`.  `per_row_pivots` selects the EPT layout.
  PagedPivotTable(const IndexOptions& options, PerfCounters* counters,
                  uint32_t width, bool per_row_pivots);

  /// This table over a copy-on-write clone of its file
  /// (PagedFile::Clone), charging `counters`.
  PagedPivotTable Clone(PerfCounters* counters) const;

  uint32_t width() const { return width_; }
  size_t disk_bytes() const { return seq_ ? seq_->bytes() : 0; }

  /// Appends the row of object `id`, whose record is at `ref`: slot j
  /// holds dist[j], the distance to shared pivot j or, in the per-row
  /// layout, to pool pivot pidx[j].  Flush after the last append.
  void Append(ObjectId id, const RafRef& ref, const double* dist,
              const uint32_t* pidx = nullptr);
  /// Tombstones the row of `id`, found by a scan of the id columns (the
  /// sequential deletion of Section 6.3), and flushes.
  void Remove(ObjectId id);
  void Flush() { seq_->Flush(); }

  /// The one query scan, behind MRQ (constant radius()) and MkNNQ (the
  /// heap's shrinking radius()).  `q` is the query vector of the layout,
  /// as for PivotTable.  Each page is pinned once; its live rows are
  /// narrowed at the radius read on entering the page, and each
  /// survivor reaches verify(id, ref) in row order, re-checked on the
  /// f64 columns only if radius() has shrunk since (as
  /// PivotTable::ScanDynamic does).  So verification order, results,
  /// compdists and PA equal those of a row-by-row Lemma 1 loop.
  template <typename RadiusFn, typename VerifyFn>
  void Scan(const std::vector<double>& q, RadiusFn&& radius,
            VerifyFn&& verify) const {
    std::vector<uint32_t> surv(rows_per_page_ + kSurvWriteSlack);
    for (uint32_t first = 0, page = 0; first < rows_;
         first += rows_per_page_, ++page) {
      const PageHandle h = seq_->Read(page);
      const char* p = h.data();
      const double entry_r = radius();
      const size_t n = FilterPage(p, std::min(rows_per_page_, rows_ - first),
                                  q.data(), entry_r, surv.data());
      const ObjectId* oid = Column<ObjectId>(p, 0);
      for (size_t s = 0; s < n; ++s) {
        const uint32_t i = surv[s];
        const double r = radius();
        if (r != entry_r && !RowSurvives(p, i, q.data(), r)) continue;
        verify(oid[i], RafRef{Column<uint64_t>(p, OffsetColumn())[i],
                              Column<uint32_t>(p, LengthColumn())[i]});
      }
    }
  }

 private:
  // Byte offsets of the columns within a page.
  size_t LengthColumn() const { return 4 * size_t(rows_per_page_); }
  size_t OffsetColumn() const { return 8 * size_t(rows_per_page_); }
  size_t DistColumn(uint32_t j) const {
    return (16 + 8 * size_t(j)) * rows_per_page_;
  }
  size_t PivotColumn(uint32_t j) const {
    return (16 + 8 * size_t(width_) + 4 * size_t(j)) * rows_per_page_;
  }

  /// A column of a pinned page.  Frames are 16-byte aligned and every
  /// column starts at a multiple of its cell size.
  template <typename T>
  static const T* Column(const char* page, size_t offset) {
    return reinterpret_cast<const T*>(page + offset);
  }

  /// Writes the ascending page-local indices of the live rows among the
  /// first `count` of page `p` that pass Lemma 1 at radius `r` into
  /// `surv` (kSurvWriteSlack past `count` of room); returns how many.
  size_t FilterPage(const char* p, uint32_t count, const double* q, double r,
                    uint32_t* surv) const;
  /// Lemma 1 on row `i` of page `p` at radius `r`, on the f64 columns.
  bool RowSurvives(const char* p, uint32_t i, const double* q,
                   double r) const;

  std::unique_ptr<PagedFile> seq_;
  uint32_t width_ = 0;
  bool per_row_ = false;
  uint32_t rows_per_page_ = 0;
  uint32_t rows_ = 0;  // including tombstones
};

}  // namespace pmi

#endif  // PMI_TABLES_SCAN_TABLE_H_
