#include "src/tables/scan_table.h"

#include <cmath>
#include <cstring>

#include "src/core/knn_heap.h"
#include "src/core/simd.h"
#include "src/core/thread_pool.h"

namespace pmi {

template <typename Collector>
void ScanTableIndex::Scan(const ObjectView& q, Collector* c) const {
  DistanceComputer d = dist();
  std::vector<double> qv;
  MapQuery(q, d, &qv);
  table_.ScanDynamic(
      qv, [&] { return c->radius(); },
      [&](size_t row) {
        const ObjectId id = oids_[row];
        c->Push(id, d.Bounded(q, data().view(id), c->radius()));
      },
      [&](size_t row) {
        PrefetchRead(data().view(oids_[row]).payload_ptr());
      });
}

// Queries are fixed-partitioned into contiguous chunks (one per pool
// slot); each chunk maps its queries, then streams the table ONCE for
// the whole chunk -- every 1 KB column slab filters all chunk queries
// while cache-resident.  Per query the mapping and the verification
// calls (one Bounded per survivor, ascending row order, at the
// collector's current radius) are exactly what Scan performs, counted
// into that query's shard.
template <typename Make, typename Finish>
void ScanTableIndex::ScanBatch(const std::vector<ObjectView>& queries,
                               PerfCounters* per_query, Make&& make,
                               Finish&& finish) const {
  ParallelQueryChunks(queries.size(), [&](size_t qb, size_t qe) {
    const size_t m = qe - qb;
    // Worker-private counter shards, folded into the (cache-line-
    // adjacent, cross-worker) per_query array once at chunk end -- the
    // hot path never writes a line another worker touches.
    std::vector<PerfCounters> local(m);
    std::vector<std::vector<double>> qv(m);
    std::vector<decltype(make(qb))> cs;
    cs.reserve(m);
    for (size_t j = 0; j < m; ++j) {
      MapQuery(queries[qb + j], DistanceComputer(&metric(), &local[j]),
               &qv[j]);
      cs.push_back(make(qb + j));
    }
    table_.ScanBlockMajor(
        qv, [&](size_t j) { return cs[j].radius(); },
        [&](size_t j, size_t row) {
          const ObjectId id = oids_[row];
          DistanceComputer d(&metric(), &local[j]);
          cs[j].Push(id, d.Bounded(queries[qb + j], data().view(id),
                                   cs[j].radius()));
        },
        [&](size_t, size_t row) {
          PrefetchRead(data().view(oids_[row]).payload_ptr());
        });
    for (size_t j = 0; j < m; ++j) {
      finish(qb + j, &cs[j]);
      per_query[qb + j] += local[j];
    }
  });
}

void ScanTableIndex::RangeImpl(const ObjectView& q, double r,
                               std::vector<ObjectId>* out) const {
  RangeCollector c{r, out};
  Scan(q, &c);
}

void ScanTableIndex::KnnImpl(const ObjectView& q, size_t k,
                             std::vector<Neighbor>* out) const {
  KnnHeap heap(k);
  Scan(q, &heap);
  heap.TakeSorted(out);
}

bool ScanTableIndex::RangeBatchBlockImpl(
    const std::vector<ObjectView>& queries, const double* radii,
    std::vector<std::vector<ObjectId>>* out, PerfCounters* per_query) const {
  ScanBatch(
      queries, per_query,
      [&](size_t i) { return RangeCollector{radii[i], &(*out)[i]}; },
      [](size_t, RangeCollector*) {});
  return true;
}

bool ScanTableIndex::KnnBatchBlockImpl(
    const std::vector<ObjectView>& queries, const size_t* ks,
    std::vector<std::vector<Neighbor>>* out, PerfCounters* per_query) const {
  ScanBatch(
      queries, per_query, [&](size_t i) { return KnnHeap(ks[i]); },
      [&](size_t i, KnnHeap* heap) { heap->TakeSorted(&(*out)[i]); });
  return true;
}

void ScanTableIndex::RemoveImpl(ObjectId id) {
  for (size_t i = 0; i < oids_.size(); ++i) {
    if (oids_[i] != id) continue;
    oids_[i] = oids_.back();
    oids_.pop_back();
    table_.RemoveRowSwap(i);
    return;
  }
}

// -- PagedPivotTable ----------------------------------------------------------

PagedPivotTable::PagedPivotTable(const IndexOptions& options,
                                 PerfCounters* counters, uint32_t width,
                                 bool per_row_pivots)
    : seq_(std::make_unique<PagedFile>(options.page_size, options.cache_bytes,
                                       counters, options.buffer_pool)),
      width_(width),
      per_row_(per_row_pivots),
      rows_per_page_(options.page_size /
                     (16 + (per_row_pivots ? 12 : 8) * width)) {}

PagedPivotTable PagedPivotTable::Clone(PerfCounters* counters) const {
  PagedPivotTable t;
  t.seq_ = seq_->Clone(counters);
  t.width_ = width_;
  t.per_row_ = per_row_;
  t.rows_per_page_ = rows_per_page_;
  t.rows_ = rows_;
  return t;
}

void PagedPivotTable::Append(ObjectId id, const RafRef& ref,
                             const double* dist, const uint32_t* pidx) {
  const uint32_t page = rows_ / rows_per_page_;
  const size_t i = rows_ % rows_per_page_;
  if (page == seq_->num_pages()) seq_->Allocate();
  PageHandle h = seq_->Write(page, /*load=*/i != 0);
  char* p = h.mutable_data();
  std::memcpy(p + 4 * i, &id, 4);
  std::memcpy(p + LengthColumn() + 4 * i, &ref.length, 4);
  std::memcpy(p + OffsetColumn() + 8 * i, &ref.offset, 8);
  for (uint32_t j = 0; j < width_; ++j) {
    std::memcpy(p + DistColumn(j) + 8 * i, &dist[j], 8);
    if (per_row_) std::memcpy(p + PivotColumn(j) + 4 * i, &pidx[j], 4);
  }
  ++rows_;
}

size_t PagedPivotTable::FilterPage(const char* p, uint32_t count,
                                   const double* q, double r,
                                   uint32_t* surv) const {
  const ObjectId* oid = Column<ObjectId>(p, 0);
  size_t n = 0;
  for (uint32_t i = 0; i < count; ++i) {
    surv[n] = i;
    n += oid[i] != kInvalidObjectId;
  }
  const SimdOps& ops = SimdDispatch();
  for (uint32_t j = 0; j < width_ && n > 0; ++j) {
    const double* dist = Column<double>(p, DistColumn(j));
    n = per_row_ ? ops.refine_f64_gather(
                       dist, Column<uint32_t>(p, PivotColumn(j)), q, r, surv, n)
                 : ops.refine_f64(dist, q[j], r, surv, n);
  }
  return n;
}

bool PagedPivotTable::RowSurvives(const char* p, uint32_t i, const double* q,
                                  double r) const {
  for (uint32_t j = 0; j < width_; ++j) {
    const double qv =
        per_row_ ? q[Column<uint32_t>(p, PivotColumn(j))[i]] : q[j];
    if (std::fabs(Column<double>(p, DistColumn(j))[i] - qv) > r) return false;
  }
  return true;
}

void PagedPivotTable::Remove(ObjectId id) {
  for (uint32_t first = 0, page = 0; first < rows_;
       first += rows_per_page_, ++page) {
    const uint32_t count = std::min(rows_per_page_, rows_ - first);
    const PageHandle h = seq_->Read(page);
    const ObjectId* oid = Column<ObjectId>(h.data(), 0);
    const size_t i = std::find(oid, oid + count, id) - oid;
    if (i == count) continue;
    const ObjectId dead = kInvalidObjectId;
    std::memcpy(seq_->Write(page).mutable_data() + 4 * i, &dead, 4);
    break;
  }
  seq_->Flush();
}

}  // namespace pmi
