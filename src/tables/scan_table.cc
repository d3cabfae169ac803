#include "src/tables/scan_table.h"

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

}  // namespace pmi
