// Columnar pivot-distance table -- the one scan engine of the flat
// table-based indexes (LAESA, EPT/EPT*, CPT's in-memory half).
//
// The paper's cost model makes the n x l table scan the dominant CPU term
// of the table indexes.  A row-major layout walks l-doubles-strided memory
// and re-decides "pruned?" with a branchy per-row loop; since Lemma-1
// pruning usually triggers on the *first* pivot, almost all of that
// traffic is wasted.  This table stores the mapping column-major and scans
// in blocks of kScanBlock rows.
//
// Storage is chunked into immutable-sharable blocks: each TableBlock
// holds kScanBlock rows of every column (double distances, the derived
// f32 filter mirror, and -- in per-row-pivot mode -- the pool-index
// column), with column `slot` occupying the contiguous sub-slab
// [slot * kScanBlock, (slot + 1) * kScanBlock).  Blocks are held by
// shared_ptr and copied lazily: copying a PivotTable shares every block
// (O(blocks) pointer copies), and a mutation first deep-copies the one
// 256-row block it touches (MutableBlock).  This is what makes an index
// Clone cheap: a writer clones the index, mutates a handful of blocks,
// and publishes, while readers pinned to the previous version keep
// scanning its shared, now-frozen blocks.  Whether this table owns a
// block is tracked in an explicit owned_ bitmap (cleared in BOTH tables
// by a copy) -- never inferred from use_count(), whose relaxed load
// cannot order against a concurrent reader's last access.
//
// The filter runs over a derived float32 *filter column* per double
// column (64-byte-aligned, conservatively comparable -- see
// src/core/simd.h) with the runtime-dispatched SIMD kernels:
//
//   1. pivot slot 0 sweeps one contiguous f32 column slab 4-16 lanes at
//      a time into a block mask;
//   2. later pivot slots narrow that mask while it is dense, then refine
//      the compacted survivor list against the double columns;
//   3. rows the f32 test cannot settle either way fall back to the
//      double columns inside the kernels.
//
// Every stage makes the exact double-predicate decision per row, so
// survivor lists, query results, verification decisions, and compdists
// are bit-identical to the row-major double loop at every dispatch level
// -- while the bulk of the scan touches 4 bytes per row instead of 8 and
// runs 4-16 lanes wide (the win bench_micro_scan measures).
//
// The table has two layouts, and it resolves which one a scan runs from
// per_row_pivots(); callers hand every scan the query-side vector of
// their layout and never pick a kernel family:
//   - shared pivots (LAESA/CPT): column p holds d(o, p_p); the query
//     vector is phi(q) = <d(q,p_1), ..., d(q,p_l)>.
//   - per-row pivots (EPT/EPT*): column j holds d(o, p_{c_j(o)}) plus a
//     parallel uint32 column of pool indices c_j(o); the query vector
//     holds d(q, pool[c]) for every pool pivot c, and the gather kernels
//     look each row's value up through the index column.

#ifndef PMI_CORE_PIVOT_TABLE_H_
#define PMI_CORE_PIVOT_TABLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/simd.h"

namespace pmi {

/// Column-major n x l pivot-distance table with blocked, SIMD-filtered
/// Lemma-1 scans and block-granular copy-on-write sharing.
class PivotTable {
 public:
  /// Rows per scan block: 256 rows = one 1 KB f32 column slab, small
  /// enough that the pivot-0 slab plus the survivor scratch stay
  /// L1-resident.  Also the copy-on-write sharing granule.
  static constexpr uint32_t kScanBlock = 256;

  /// Queries per block-major scan tile.  The block-major scans carry
  /// ~1.4 KB of mask + survivor scratch per query; an unbounded batch
  /// would grow that working set past the caches the engine exists to
  /// exploit (and thrash every block against it).  Batches larger than
  /// this stream the table once per tile instead -- the amortization
  /// saturates long before 256 queries, so the extra passes cost
  /// nothing measurable while the scratch stays ~350 KB.
  static constexpr size_t kScanBatchTile = 256;

  PivotTable() = default;

  /// Copies share every block; both tables drop ownership, so the first
  /// mutation on either side copies the touched block out.  The blocks
  /// a copy holds are frozen from its point of view -- the contract the
  /// versioned readers scan under.
  PivotTable(const PivotTable& o)
      : width_(o.width_),
        rows_(o.rows_),
        per_row_(o.per_row_),
        blocks_(o.blocks_) {
    owned_.assign(blocks_.size(), 0);
    std::fill(o.owned_.begin(), o.owned_.end(), 0);
  }
  PivotTable& operator=(const PivotTable& o) {
    if (this == &o) return *this;
    width_ = o.width_;
    rows_ = o.rows_;
    per_row_ = o.per_row_;
    blocks_ = o.blocks_;
    owned_.assign(blocks_.size(), 0);
    std::fill(o.owned_.begin(), o.owned_.end(), 0);
    return *this;
  }
  PivotTable(PivotTable&&) = default;
  PivotTable& operator=(PivotTable&&) = default;

  /// Clears the table and sets the number of pivot slots per row.
  /// `per_row_pivots` selects the EPT-style layout with a parallel
  /// pool-index column per slot.
  void Reset(uint32_t width, bool per_row_pivots = false) {
    width_ = width;
    rows_ = 0;
    per_row_ = per_row_pivots;
    blocks_.clear();
    owned_.clear();
  }

  void Reserve(size_t rows) {
    const size_t nb = (rows + kScanBlock - 1) / kScanBlock;
    blocks_.reserve(nb);
    owned_.reserve(nb);
  }

  /// Preallocates `rows` zeroed rows for index-addressed filling via
  /// SetRow -- the parallel-build form of AppendRow.  rows() becomes
  /// `rows` immediately, and every block is owned (so the parallel fill
  /// never copies).
  void ResizeRows(size_t rows) {
    const size_t nb = (rows + kScanBlock - 1) / kScanBlock;
    blocks_.clear();
    blocks_.reserve(nb);
    for (size_t b = 0; b < nb; ++b) blocks_.push_back(NewBlock());
    owned_.assign(nb, 1);
    rows_ = rows;
  }

  uint32_t width() const { return width_; }
  size_t rows() const { return rows_; }
  bool per_row_pivots() const { return per_row_; }

  /// Appends a row in shared-pivot form: phi[p] = d(o, p_p).
  void AppendRow(const double* phi) {
    TableBlock& b = AppendBlockFor(rows_);
    const size_t o = rows_ % kScanBlock;
    for (uint32_t p = 0; p < width_; ++p) {
      b.d[size_t(p) * kScanBlock + o] = phi[p];
      b.f[size_t(p) * kScanBlock + o] = FilterValue(phi[p]);
    }
    ++rows_;
  }

  /// Appends a row in per-row-pivot form: slot j holds distance pdist[j]
  /// to pool pivot pidx[j].
  void AppendRow(const double* pdist, const uint32_t* pidx) {
    TableBlock& b = AppendBlockFor(rows_);
    const size_t o = rows_ % kScanBlock;
    for (uint32_t j = 0; j < width_; ++j) {
      b.d[size_t(j) * kScanBlock + o] = pdist[j];
      b.f[size_t(j) * kScanBlock + o] = FilterValue(pdist[j]);
      b.pidx[size_t(j) * kScanBlock + o] = pidx[j];
    }
    ++rows_;
  }

  /// Writes row `row` (< rows(), preallocated via ResizeRows) in
  /// shared-pivot form.  A row's cells are element-private (including
  /// the derived f32 mirror) and ResizeRows leaves every block owned,
  /// so concurrent SetRow calls on distinct rows are race-free -- the
  /// contract the parallel table fills rely on.
  void SetRow(size_t row, const double* phi) {
    TableBlock& b = MutableBlock(row / kScanBlock);
    const size_t o = row % kScanBlock;
    for (uint32_t p = 0; p < width_; ++p) {
      b.d[size_t(p) * kScanBlock + o] = phi[p];
      b.f[size_t(p) * kScanBlock + o] = FilterValue(phi[p]);
    }
  }

  /// Per-row-pivot form of SetRow.
  void SetRow(size_t row, const double* pdist, const uint32_t* pidx) {
    TableBlock& b = MutableBlock(row / kScanBlock);
    const size_t o = row % kScanBlock;
    for (uint32_t j = 0; j < width_; ++j) {
      b.d[size_t(j) * kScanBlock + o] = pdist[j];
      b.f[size_t(j) * kScanBlock + o] = FilterValue(pdist[j]);
      b.pidx[size_t(j) * kScanBlock + o] = pidx[j];
    }
  }

  /// Removes row `row` by moving the last row into its place (the scan
  /// tables are order-independent, so deletion is O(l) instead of the
  /// O(n*l) erase-and-shift of the row-major layout).  Copies at most
  /// one block; the vacated tail cell is left stale in a possibly-shared
  /// block (never read: scans bound themselves by rows()).
  void RemoveRowSwap(size_t row) {
    const size_t last = rows_ - 1;
    if (row != last) {
      TableBlock& dst = MutableBlock(row / kScanBlock);
      // Source ref taken after MutableBlock: when both rows live in the
      // same block, the copy-out must not leave `src` dangling.
      const TableBlock& src = *blocks_[last / kScanBlock];
      const size_t so = last % kScanBlock;
      const size_t dof = row % kScanBlock;
      for (uint32_t p = 0; p < width_; ++p) {
        dst.d[size_t(p) * kScanBlock + dof] = src.d[size_t(p) * kScanBlock + so];
        dst.f[size_t(p) * kScanBlock + dof] = src.f[size_t(p) * kScanBlock + so];
      }
      if (per_row_) {
        for (uint32_t p = 0; p < width_; ++p) {
          dst.pidx[size_t(p) * kScanBlock + dof] =
              src.pidx[size_t(p) * kScanBlock + so];
        }
      }
    }
    rows_ = last;
    if (rows_ % kScanBlock == 0 && !blocks_.empty()) {
      blocks_.pop_back();  // the trailing block emptied out
      owned_.pop_back();
    }
  }

  /// Cell-level writers (snapshot loading); row must be < rows().  The
  /// f32 filter cell is derived here too, which is what keeps snapshot
  /// loads format-free: the filter columns are never serialized, only
  /// rebuilt.
  void SetCell(size_t row, uint32_t slot, double v) {
    TableBlock& b = MutableBlock(row / kScanBlock);
    const size_t o = row % kScanBlock;
    b.d[size_t(slot) * kScanBlock + o] = v;
    b.f[size_t(slot) * kScanBlock + o] = FilterValue(v);
  }
  void SetPivotIndex(size_t row, uint32_t slot, uint32_t v) {
    MutableBlock(row / kScanBlock).pidx[size_t(slot) * kScanBlock +
                                        row % kScanBlock] = v;
  }

  double distance(size_t row, uint32_t slot) const {
    return blocks_[row / kScanBlock]
        ->d[size_t(slot) * kScanBlock + row % kScanBlock];
  }
  uint32_t pivot_index(size_t row, uint32_t slot) const {
    return blocks_[row / kScanBlock]
        ->pidx[size_t(slot) * kScanBlock + row % kScanBlock];
  }
  /// Derived f32 filter cell (what the bulk filter compares).
  float filter_value(size_t row, uint32_t slot) const {
    return blocks_[row / kScanBlock]
        ->f[size_t(slot) * kScanBlock + row % kScanBlock];
  }

  /// Contiguous per-slot distance slab of the block containing
  /// block-aligned row `base`; valid for min(kScanBlock, rows() - base)
  /// rows.  (Columns are no longer contiguous across blocks -- callers
  /// iterate block by block, which every scan already did.)
  const double* block_column(uint32_t slot, size_t base) const {
    return ColD(*blocks_[base / kScanBlock], slot);
  }
  /// f32 filter form of block_column (64-byte-aligned slab).
  const float* block_filter_column(uint32_t slot, size_t base) const {
    return ColF(*blocks_[base / kScanBlock], slot);
  }

  /// How many storage blocks this table currently shares with `o`
  /// (copy-on-write introspection for tests).
  size_t blocks_shared_with(const PivotTable& o) const {
    size_t shared = 0;
    for (const auto& b : blocks_) {
      for (const auto& ob : o.blocks_) shared += b == ob ? 1 : 0;
    }
    return shared;
  }

  /// Every scan takes the query-side vector `q` in the table's own
  /// layout: phi(q) = <d(q,p_1), ..., d(q,p_l)> (width() entries) on a
  /// shared-pivot table, d(q, pool[c]) (one entry per pool pivot, every
  /// stored pivot index below q.size()) on a per-row-pivot table.

  /// Range scan: appends every row index whose stored distances pass the
  /// Lemma-1 test at radius `r` to `survivors`, in ascending row order.
  /// Decisions are made on the double columns (the f32 filter only
  /// pre-narrows), so the output is bit-identical at every SIMD dispatch
  /// level.
  void RangeScan(const std::vector<double>& q, double r,
                 std::vector<uint32_t>* survivors) const {
    ScanDynamic(q, [r] { return r; }, [&](size_t row) {
      survivors->push_back(static_cast<uint32_t>(row));
    });
  }

  /// Blocked scan with a possibly shrinking radius -- the one query scan
  /// behind MRQ (constant radius) and MkNNQ (heap radius).  `radius()` is
  /// read at block entry for the exact block filter, whose survivors pass
  /// the double Lemma-1 test at that radius.  Each survivor then reaches
  /// `verify(row)` in row order, re-checked on the double columns only
  /// when radius() has shrunk since block entry: a block-entry radius is
  /// never smaller than the one the row-major loop used at that row (the
  /// heap only tightens), so verification decisions, results and
  /// compdists all match the row-major double loop bit for bit, and a
  /// constant radius costs no re-check at all.
  ///
  /// `prefetch(row)` runs for every survivor of a block before any of
  /// the block's verifications: the batched-verification hook, which
  /// pulls the survivors' objects toward cache ahead of the
  /// BoundedDistance calls.  It is only a hint, so prefetching a row
  /// the re-check later drops is harmless.
  template <typename RadiusFn, typename VerifyFn, typename PrefetchFn>
  void ScanDynamic(const std::vector<double>& q, RadiusFn&& radius,
                   VerifyFn&& verify, PrefetchFn&& prefetch) const {
    uint32_t surv[kScanBlock + kSurvWriteSlack];
    FilterQuery fq;
    PrepareFilterQuery(q, &fq);
    for (size_t base = 0; base < rows_; base += kScanBlock) {
      const size_t count = std::min<size_t>(kScanBlock, rows_ - base);
      UpdateFilterRadius(radius(), &fq);
      const size_t n = FilterBlock(fq, base, count, surv);
      VerifyBlock(fq, base, surv, n, radius, verify, prefetch);
    }
  }

  template <typename RadiusFn, typename VerifyFn>
  void ScanDynamic(const std::vector<double>& q, RadiusFn&& radius,
                   VerifyFn&& verify) const {
    ScanDynamic(q, radius, verify, [](size_t) {});
  }

  /// Block-major batch scan, the core of the batch query engine: for
  /// each kScanBlock row block, runs the filter cascade for ALL queries
  /// `qs` while the block's column slabs are cache-resident -- one slab
  /// load amortized over the whole batch (FilterBlockMulti), instead of
  /// re-streaming every column once per query as a query-major loop
  /// does.
  ///
  /// Per query the execution is EXACTLY the ScanDynamic sequence:
  /// radius(qi) is read at block entry for the block filter (the MkNNQ
  /// re-entry point -- a shrinking heap radius is picked up block by
  /// block), and the block's survivors reach verify(qi, row) through the
  /// same re-check, after prefetch(qi, row) has run for each of them.
  /// Queries only interleave at block boundaries and share no state, so
  /// per-query filter decisions, verification calls (count and order),
  /// and results are bit-identical to running ScanDynamic query by
  /// query, at every SIMD dispatch level.  Batches beyond kScanBatchTile
  /// are tiled: each tile runs the full block loop on its own bounded
  /// scratch (a query's own block order -- the MkNNQ radius chain -- is
  /// untouched by tiling).
  template <typename RadiusFn, typename VerifyFn, typename PrefetchFn>
  void ScanBlockMajor(const std::vector<std::vector<double>>& qs,
                      RadiusFn&& radius, VerifyFn&& verify,
                      PrefetchFn&& prefetch) const {
    const size_t nq = qs.size();
    if (nq == 0 || rows_ == 0) return;
    const size_t sstride = kScanBlock + kSurvWriteSlack;
    const size_t tile = std::min(nq, kScanBatchTile);
    std::vector<FilterQuery> fqs(tile);
    std::vector<uint8_t> keep(tile * size_t(kScanBlock));
    std::vector<uint32_t> surv(tile * sstride);
    std::vector<size_t> counts(tile);
    for (size_t t0 = 0; t0 < nq; t0 += tile) {
      const size_t m = std::min(tile, nq - t0);
      for (size_t j = 0; j < m; ++j) PrepareFilterQuery(qs[t0 + j], &fqs[j]);
      for (size_t base = 0; base < rows_; base += kScanBlock) {
        const size_t count = std::min<size_t>(kScanBlock, rows_ - base);
        for (size_t j = 0; j < m; ++j) {
          UpdateFilterRadius(radius(t0 + j), &fqs[j]);
        }
        FilterBlockMulti(fqs.data(), m, base, count, keep.data(),
                         surv.data(), counts.data());
        for (size_t j = 0; j < m; ++j) {
          const size_t qi = t0 + j;
          VerifyBlock(
              fqs[j], base, surv.data() + j * sstride, counts[j],
              [&] { return radius(qi); },
              [&](size_t row) { verify(qi, row); },
              [&](size_t row) { prefetch(qi, row); });
        }
      }
    }
  }

  /// Logical footprint of the stored rows (block padding and sharing
  /// excluded: this is the per-table cost model the paper's memory
  /// comparisons use).
  size_t memory_bytes() const {
    return size_t(rows_) * width_ *
           (sizeof(double) + sizeof(float) +
            (per_row_pivots() ? sizeof(uint32_t) : 0));
  }

 private:
  /// One kScanBlock-row chunk of every column.  Arrays are full capacity
  /// (width * kScanBlock) regardless of how many rows are in use, so a
  /// block's slab layout never changes and SIMD lane over-reads within
  /// the slab stay in bounds.  Immutable once shared between tables.
  struct TableBlock {
    std::vector<double, AlignedAllocator<double, 64>> d;
    FilterColumn f;
    std::vector<uint32_t> pidx;  // per-row-pivot mode only (else empty)
  };

  static const double* ColD(const TableBlock& b, uint32_t slot) {
    return b.d.data() + size_t(slot) * kScanBlock;
  }
  static const float* ColF(const TableBlock& b, uint32_t slot) {
    return b.f.data() + size_t(slot) * kScanBlock;
  }
  static const uint32_t* ColI(const TableBlock& b, uint32_t slot) {
    return b.pidx.data() + size_t(slot) * kScanBlock;
  }

  std::shared_ptr<TableBlock> NewBlock() const {
    auto b = std::make_shared<TableBlock>();
    b->d.assign(size_t(width_) * kScanBlock, 0.0);
    b->f.assign(size_t(width_) * kScanBlock, 0.0f);
    if (per_row_) b->pidx.assign(size_t(width_) * kScanBlock, 0);
    return b;
  }

  /// Write access to block `bi`: deep-copies it first when it is shared
  /// with another table.  Reading owned_ is the only cross-block check,
  /// so concurrent writers to distinct rows of an owned block stay
  /// race-free (the parallel-build contract).
  TableBlock& MutableBlock(size_t bi) {
    if (!owned_[bi]) {
      blocks_[bi] = std::make_shared<TableBlock>(*blocks_[bi]);
      owned_[bi] = 1;
    }
    return *blocks_[bi];
  }

  /// The block AppendRow writes row `row` into, growing storage when the
  /// row starts a new block.
  TableBlock& AppendBlockFor(size_t row) {
    if (row % kScanBlock == 0 && row / kScanBlock == blocks_.size()) {
      blocks_.push_back(NewBlock());
      owned_.push_back(1);
      return *blocks_.back();
    }
    return MutableBlock(row / kScanBlock);
  }

  /// Per-query float-filter state: f32 casts of the query-side values
  /// plus the two-sided (wide/narrow) radii of the exact f32 filter.
  /// Prepared once per scan; the radii are refreshed per block when the
  /// dynamic radius moves.
  struct FilterQuery {
    std::vector<float> qf;   // f32 casts of q
    std::vector<float> rw;   // wide radii (shared: per slot; indirect: [0])
    std::vector<float> rn;   // narrow radii, same shape
    const double* qd = nullptr;     // q itself
    double qmax_abs = 0;            // indirect form only: max |q[c]|
    double r_cached = std::numeric_limits<double>::quiet_NaN();
    bool indirect = false;          // the table's per_row_pivots()
    const SimdOps* ops = nullptr;   // dispatch table, fetched once per scan
  };

  void PrepareFilterQuery(const std::vector<double>& q,
                          FilterQuery* fq) const;
  /// Recomputes the two-sided radii for radius `r` (no-op when
  /// unchanged).
  static void UpdateFilterRadius(double r, FilterQuery* fq);

  /// The kernel inputs of pivot slot `p` of block `b`, one per layout.
  static ExactSlot SharedSlot(const FilterQuery& fq, const TableBlock& b,
                              uint32_t p);
  static ExactSlotGather GatherSlot(const FilterQuery& fq,
                                    const TableBlock& b, uint32_t p);

  /// Single-row Lemma-1 test at radius `r` on the exact double columns
  /// (the re-check of a survivor after the radius shrank mid-block).
  bool RowSurvives(size_t row, const double* q, double r) const {
    const TableBlock& b = *blocks_[row / kScanBlock];
    const size_t o = row % kScanBlock;
    for (uint32_t p = 0; p < width_; ++p) {
      const size_t at = size_t(p) * kScanBlock + o;
      const double qv = per_row_ ? q[b.pidx[at]] : q[p];
      if (std::fabs(b.d[at] - qv) > r) return false;
    }
    return true;
  }

  /// Hands block `base`'s `n` survivors (block-local, ascending) to
  /// verify in row order after prefetching them all.  A survivor passed
  /// the exact double test at fq.r_cached, so RowSurvives runs only once
  /// radius() has moved off that value.
  template <typename RadiusFn, typename VerifyFn, typename PrefetchFn>
  void VerifyBlock(const FilterQuery& fq, size_t base, const uint32_t* surv,
                   size_t n, RadiusFn&& radius, VerifyFn&& verify,
                   PrefetchFn&& prefetch) const {
    for (size_t j = 0; j < n; ++j) prefetch(base + surv[j]);
    for (size_t j = 0; j < n; ++j) {
      const size_t row = base + surv[j];
      const double r = radius();
      if (r == fq.r_cached || RowSurvives(row, fq.qd, r)) verify(row);
    }
  }

  /// Exact block filter: writes the block-local indices (0-based within
  /// [base, base+count)) of the rows surviving all pivot slots at the
  /// prepared radius into `surv` (ascending); returns how many.  The
  /// decisions equal the double predicate row for row -- the f32
  /// columns are only the fast path (see src/core/simd.h) -- so the
  /// output is bit-identical to the row-major double loop at every
  /// dispatch level.  `surv` needs kSurvWriteSlack extra capacity past
  /// `count`.
  size_t FilterBlock(const FilterQuery& fq, size_t base, size_t count,
                     uint32_t* surv) const;

  /// The cascade stages after the pivot-0 sweep -- dense mask-ANDs while
  /// profitable, compaction, then f64 refines over the sparse survivor
  /// list.  ONE implementation shared by FilterBlock and the per-query
  /// continuations of FilterBlockMulti, so the block-major == query-major
  /// bit-identity holds by construction, not by parallel maintenance.
  /// `n` is the pivot-0 survivor count over `keep`; returns the final
  /// count with survivors in `surv`.
  size_t ContinueCascade(const FilterQuery& fq, size_t base, size_t count,
                         size_t n, uint8_t* keep, uint32_t* surv) const;

  /// Batch form of FilterBlock: one block, `nq` prepared queries.  The
  /// pivot-0 sweep runs through the multi-query kernels in tiles of
  /// kMultiQueryTile (one slab load per row chunk for the whole tile);
  /// each query's cascade then continues exactly as in FilterBlock, so
  /// query qi's survivor row (surv + qi * (kScanBlock + kSurvWriteSlack),
  /// count in counts[qi]) is identical to what FilterBlock would return
  /// for that query alone.  `keep` is nq * kScanBlock scratch bytes.
  void FilterBlockMulti(const FilterQuery* fqs, size_t nq, size_t base,
                        size_t count, uint8_t* keep, uint32_t* surv,
                        size_t* counts) const;

  uint32_t width_ = 0;
  size_t rows_ = 0;
  bool per_row_ = false;
  /// ceil(rows_ / kScanBlock) blocks; block b holds rows
  /// [b * kScanBlock, min((b + 1) * kScanBlock, rows_)).
  std::vector<std::shared_ptr<TableBlock>> blocks_;
  /// owned_[b] == 1 iff this table is the only holder allowed to mutate
  /// blocks_[b] in place.  Mutable because the copy constructor must
  /// drop the SOURCE's ownership too (both sides now share).
  mutable std::vector<uint8_t> owned_;
};

}  // namespace pmi

#endif  // PMI_CORE_PIVOT_TABLE_H_
