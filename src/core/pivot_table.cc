#include "src/core/pivot_table.h"

#include <cassert>
#include <cmath>

namespace pmi {

// Scan-side query preparation.  The f32 casts are made once per scan;
// the two-sided (wide/narrow) radii depend on the (possibly shrinking)
// radius, so UpdateFilterRadius refreshes them at block entry and
// short-circuits when the radius has not moved -- the common case, since
// a kNN heap tightens only when a closer neighbor is found.

void PivotTable::PrepareFilterQuery(const std::vector<double>& q,
                                    FilterQuery* fq) const {
  assert(per_row_ || q.size() >= width_);
  fq->ops = &SimdDispatch();
  fq->indirect = per_row_;
  // NaN compares unequal to every radius, so the first UpdateFilterRadius
  // after a (re-)prepare always recomputes rw/rn -- a reused FilterQuery
  // (the batch tiling loop) must never keep radii derived from the
  // previous occupant's query values.
  fq->r_cached = std::numeric_limits<double>::quiet_NaN();
  fq->qd = q.data();
  fq->qf.resize(q.size());
  fq->qmax_abs = 0;
  for (size_t i = 0; i < q.size(); ++i) {
    fq->qf[i] = FilterValue(q[i]);
    if (per_row_) fq->qmax_abs = std::max(fq->qmax_abs, std::fabs(q[i]));
  }
  // Shared pivots get one radius pair per slot; per-row pivots one pair
  // for the whole pool (see UpdateFilterRadius).
  fq->rw.resize(per_row_ ? 1 : width_);
  fq->rn.resize(fq->rw.size());
}

void PivotTable::UpdateFilterRadius(double r, FilterQuery* fq) {
  if (r == fq->r_cached) return;
  fq->r_cached = r;
  if (fq->indirect) {
    // One radius pair covers every row: the per-row query value is
    // bounded by the largest pool distance.
    fq->rw[0] = ConservativeFilterRadius(fq->qmax_abs, r);
    fq->rn[0] = CertificateFilterRadius(fq->qmax_abs, r);
    return;
  }
  for (size_t p = 0; p < fq->rw.size(); ++p) {
    const double qa = std::fabs(fq->qd[p]);
    fq->rw[p] = ConservativeFilterRadius(qa, r);
    fq->rn[p] = CertificateFilterRadius(qa, r);
  }
}

namespace {

// Dense/sparse strategy switch: while enough of the block survives
// (per-level dense_divisor), narrowing by contiguous lane-parallel f32
// mask-ANDs beats walking the survivor list (which pays a gather per
// survivor); below that the short list is cheaper to refine directly
// against the double columns -- a sparse access pulls a whole cache
// line either way, so f32 saves nothing there.  The threshold only
// picks the evaluation strategy: both paths make the exact
// double-predicate decision per row, so the output is identical either
// way.
inline bool DenseEnough(unsigned divisor, size_t n, size_t count) {
  return divisor != 0 && n * divisor >= count;
}

}  // namespace

ExactSlot PivotTable::SharedSlot(const FilterQuery& fq, const TableBlock& b,
                                 uint32_t p) {
  ExactSlot s;
  s.colf = ColF(b, p);
  s.cold = ColD(b, p);
  s.qf = fq.qf[p];
  s.rw = fq.rw[p];
  s.rn = fq.rn[p];
  s.qd = fq.qd[p];
  s.rd = fq.r_cached;
  return s;
}

ExactSlotGather PivotTable::GatherSlot(const FilterQuery& fq,
                                       const TableBlock& b, uint32_t p) {
  ExactSlotGather s;
  s.colf = ColF(b, p);
  s.cold = ColD(b, p);
  s.idx = ColI(b, p);
  s.qf_pool = fq.qf.data();
  s.qd_pool = fq.qd;
  s.rw = fq.rw[0];
  s.rn = fq.rn[0];
  s.rd = fq.r_cached;
  return s;
}

// Each stage picks the kernel family of the table's layout: the
// contiguous kernels for shared pivots, the *_gather ones (the query
// value looked up per row through the pool-index column) for per-row
// pivots.

size_t PivotTable::ContinueCascade(const FilterQuery& fq, size_t base,
                                   size_t count, size_t n, uint8_t* keep,
                                   uint32_t* surv) const {
  if (n == 0) return 0;
  const SimdOps& ops = *fq.ops;
  const TableBlock& blk = *blocks_[base / kScanBlock];
  const unsigned divisor =
      fq.indirect ? ops.dense_divisor_gather : ops.dense_divisor;
  uint32_t p = 1;
  for (; p < width_ && DenseEnough(divisor, n, count); ++p) {
    n = fq.indirect ? ops.mask_and_gather(GatherSlot(fq, blk, p), count, keep)
                    : ops.mask_and(SharedSlot(fq, blk, p), count, keep);
    if (n == 0) return 0;
  }
  n = ops.compact(keep, count, surv);
  for (; p < width_ && n > 0; ++p) {
    n = fq.indirect ? ops.refine_f64_gather(ColD(blk, p), ColI(blk, p), fq.qd,
                                            fq.r_cached, surv, n)
                    : ops.refine_f64(ColD(blk, p), fq.qd[p], fq.r_cached,
                                     surv, n);
  }
  return n;
}

size_t PivotTable::FilterBlock(const FilterQuery& fq, size_t base,
                               size_t count, uint32_t* surv) const {
  if (width_ == 0) {  // no pivots: nothing prunes
    for (size_t i = 0; i < count; ++i) surv[i] = static_cast<uint32_t>(i);
    return count;
  }
  const SimdOps& ops = *fq.ops;
  const TableBlock& blk = *blocks_[base / kScanBlock];
  uint8_t keep[kScanBlock];
  const size_t n =
      fq.indirect ? ops.mask_sweep_gather(GatherSlot(fq, blk, 0), count, keep)
                  : ops.mask_sweep(SharedSlot(fq, blk, 0), count, keep);
  return ContinueCascade(fq, base, count, n, keep, surv);
}

void PivotTable::FilterBlockMulti(const FilterQuery* fqs, size_t nq,
                                  size_t base, size_t count, uint8_t* keep,
                                  uint32_t* surv, size_t* counts) const {
  const size_t sstride = kScanBlock + kSurvWriteSlack;
  if (width_ == 0) {  // no pivots: nothing prunes, for any query
    for (size_t qi = 0; qi < nq; ++qi) {
      uint32_t* sq = surv + qi * sstride;
      for (size_t i = 0; i < count; ++i) sq[i] = static_cast<uint32_t>(i);
      counts[qi] = count;
    }
    return;
  }
  const SimdOps& ops = *fqs[0].ops;
  const TableBlock& blk = *blocks_[base / kScanBlock];
  // Stage 0: the pivot-0 sweep for every query, one kMultiQueryTile
  // group at a time -- the slab-load amortization the block-major
  // engine exists for.
  for (size_t t = 0; t < nq; t += kMultiQueryTile) {
    const size_t m = std::min(kMultiQueryTile, nq - t);
    uint8_t* tile_keep = keep + t * size_t(kScanBlock);
    if (per_row_) {
      ExactSlotGather slots[kMultiQueryTile];
      for (size_t j = 0; j < m; ++j) slots[j] = GatherSlot(fqs[t + j], blk, 0);
      ops.mask_sweep_gather_multi(slots, m, count, tile_keep, kScanBlock,
                                  counts + t);
    } else {
      ExactSlot slots[kMultiQueryTile];
      for (size_t j = 0; j < m; ++j) slots[j] = SharedSlot(fqs[t + j], blk, 0);
      ops.mask_sweep_multi(slots, m, count, tile_keep, kScanBlock,
                           counts + t);
    }
  }
  // Per-query continuation: the exact FilterBlock cascade, over column
  // slabs the stage-0 pass just made block-resident.
  for (size_t qi = 0; qi < nq; ++qi) {
    counts[qi] =
        ContinueCascade(fqs[qi], base, count, counts[qi],
                        keep + qi * size_t(kScanBlock), surv + qi * sstride);
  }
}

}  // namespace pmi
