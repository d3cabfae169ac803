#include "src/tables/laesa.h"

#include <cassert>

#include "src/core/knn_heap.h"
#include "src/core/simd.h"
#include "src/core/thread_pool.h"

namespace pmi {

void Laesa::BuildImpl() {
  const uint32_t l = pivots_.size();
  const uint32_t n = data().size();
  // The n x l fill is embarrassingly parallel: rows are preallocated and
  // each worker maps its contiguous chunk of objects into its own rows,
  // counting into a per-slot shard folded at the barrier.  Table
  // contents, oids_, and build compdists are identical at any thread
  // count.
  oids_.resize(n);
  table_.Reset(l);
  table_.ResizeRows(n);
  ThreadPool& pool = ThreadPool::Global();
  std::vector<CounterShard> shards(pool.size());
  ParallelFor(pool, n, [&](size_t begin, size_t end, unsigned slot) {
    DistanceComputer d(&metric(), &shards[slot].counters);
    std::vector<double> phi;
    for (size_t id = begin; id < end; ++id) {
      pivots_.Map(data().view(ObjectId(id)), d, &phi);
      oids_[id] = ObjectId(id);
      table_.SetRow(id, phi.data());
    }
  });
  FoldCounters(shards, &counters_);
}

void Laesa::RangeImpl(const ObjectView& q, double r,
                      std::vector<ObjectId>* out) const {
  DistanceComputer d = dist();
  std::vector<double> phi_q;
  pivots_.Map(q, d, &phi_q);
  std::vector<uint32_t> candidates;
  table_.RangeScan(phi_q.data(), r, &candidates);
  VerifyCandidatesWithPrefetch(candidates, oids_, data(), d, q, r, out);
}

void Laesa::KnnImpl(const ObjectView& q, size_t k,
                    std::vector<Neighbor>* out) const {
  DistanceComputer d = dist();
  std::vector<double> phi_q;
  pivots_.Map(q, d, &phi_q);
  KnnHeap heap(k);
  table_.ScanDynamic(
      phi_q.data(), [&] { return heap.radius(); },
      [&](size_t row) {
        const ObjectId id = oids_[row];
        heap.Push(id, d.Bounded(q, data().view(id), heap.radius()));
      },
      [&](size_t row) {
        PrefetchRead(data().view(oids_[row]).payload_ptr());
      });
  heap.TakeSorted(out);
}

// Block-major batch MRQ: queries are fixed-partitioned into contiguous
// chunks (one per pool slot); each chunk maps its queries, then streams
// the pivot table ONCE for the whole chunk via ScanBlockMajor -- every
// 1 KB column slab filters all chunk queries while cache-resident.  Per
// query the mapping (|P| compdists) and the verification calls (one
// Bounded per exact survivor, ascending row order) are exactly what
// RangeImpl performs, counted into that query's shard.
bool Laesa::RangeBatchBlockImpl(const std::vector<ObjectView>& queries,
                                const double* radii,
                                std::vector<std::vector<ObjectId>>* out,
                                PerfCounters* per_query) const {
  ParallelQueryChunks(queries.size(), [&](size_t qb, size_t qe) {
    const size_t m = qe - qb;
    // Worker-private counter shards, folded into the (cache-line-
    // adjacent, cross-worker) per_query array once at chunk end --
    // the hot path never writes a line another worker touches.
    std::vector<PerfCounters> local(m);
    std::vector<std::vector<double>> phi(m);
    for (size_t j = 0; j < m; ++j) {
      DistanceComputer d(&metric(), &local[j]);
      pivots_.Map(queries[qb + j], d, &phi[j]);
    }
    table_.ScanBlockMajor(
        m, [&](size_t j) { return phi[j].data(); },
        [&](size_t j) { return radii[qb + j]; },
        [&](size_t j, size_t row) {
          const size_t i = qb + j;
          const ObjectId id = oids_[row];
          DistanceComputer d(&metric(), &local[j]);
          if (d.Bounded(queries[i], data().view(id), radii[i]) <=
              radii[i]) {
            (*out)[i].push_back(id);
          }
        },
        [&](size_t, size_t row) {
          PrefetchRead(data().view(oids_[row]).payload_ptr());
        });
    for (size_t j = 0; j < m; ++j) per_query[qb + j] += local[j];
  });
  return true;
}

// Block-major batch MkNNQ: same chunking; each query carries its own
// heap, whose shrinking radius re-enters the filter at every block
// boundary exactly as in the single-query ScanDynamic.
bool Laesa::KnnBatchBlockImpl(const std::vector<ObjectView>& queries,
                              const size_t* ks,
                              std::vector<std::vector<Neighbor>>* out,
                              PerfCounters* per_query) const {
  ParallelQueryChunks(queries.size(), [&](size_t qb, size_t qe) {
    const size_t m = qe - qb;
    std::vector<PerfCounters> local(m);  // see RangeBatchBlockImpl
    std::vector<std::vector<double>> phi(m);
    std::vector<KnnHeap> heaps;
    heaps.reserve(m);
    for (size_t j = 0; j < m; ++j) {
      DistanceComputer d(&metric(), &local[j]);
      pivots_.Map(queries[qb + j], d, &phi[j]);
      heaps.emplace_back(ks[qb + j]);
    }
    table_.ScanBlockMajor(
        m, [&](size_t j) { return phi[j].data(); },
        [&](size_t j) { return heaps[j].radius(); },
        [&](size_t j, size_t row) {
          const size_t i = qb + j;
          const ObjectId id = oids_[row];
          DistanceComputer d(&metric(), &local[j]);
          heaps[j].Push(
              id, d.Bounded(queries[i], data().view(id),
                            heaps[j].radius()));
        },
        [&](size_t, size_t row) {
          PrefetchRead(data().view(oids_[row]).payload_ptr());
        });
    for (size_t j = 0; j < m; ++j) {
      heaps[j].TakeSorted(&(*out)[qb + j]);
      per_query[qb + j] += local[j];
    }
  });
  return true;
}

void Laesa::InsertImpl(ObjectId id) {
  DistanceComputer d = dist();
  std::vector<double> phi;
  pivots_.Map(data().view(id), d, &phi);
  oids_.push_back(id);
  table_.AppendRow(phi.data());
}

void Laesa::RemoveImpl(ObjectId id) {
  // Sequential scan for the victim row (the deletion behaviour of a scan
  // table), then O(l) swap-with-last compaction.
  for (size_t i = 0; i < oids_.size(); ++i) {
    if (oids_[i] != id) continue;
    oids_[i] = oids_.back();
    oids_.pop_back();
    table_.RemoveRowSwap(i);
    return;
  }
}

std::unique_ptr<MetricIndex> Laesa::Clone() const {
  auto clone = std::make_unique<Laesa>(options_);
  clone->CopyBaseFrom(*this);
  clone->oids_ = oids_;
  clone->table_ = table_;  // copy-on-write: shares all 256-row blocks
  return clone;
}

Status Laesa::SaveImpl(ByteSink* out) const {
  out->PutVector(oids_);
  SerializePivotTable(table_, out);
  return OkStatus();
}

Status Laesa::LoadImpl(ByteSource* in) {
  // Pure state restore: the distance table is read back verbatim, so a
  // load performs zero distance computations.
  PMI_RETURN_IF_ERROR(in->GetVector(&oids_));
  PMI_RETURN_IF_ERROR(DeserializePivotTable(in, &table_));
  if (table_.per_row_pivots() || table_.width() != pivots_.size() ||
      table_.rows() != oids_.size()) {
    return DataLossError("LAESA snapshot state is inconsistent");
  }
  for (ObjectId id : oids_) {
    if (id >= data().size()) {
      return DataLossError("LAESA snapshot references object " +
                           std::to_string(id) + " outside the dataset");
    }
  }
  return OkStatus();
}

size_t Laesa::memory_bytes() const {
  return table_.memory_bytes() + oids_.size() * sizeof(ObjectId) +
         pivots_.memory_bytes() + data().total_payload_bytes();
}

}  // namespace pmi
