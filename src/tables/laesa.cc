#include "src/tables/laesa.h"

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

void Laesa::MapQuery(const ObjectView& q, const DistanceComputer& d,
                     std::vector<double>* out) const {
  pivots_.Map(q, d, out);
}

void Laesa::InsertImpl(ObjectId id) {
  DistanceComputer d = dist();
  std::vector<double> phi;
  pivots_.Map(data().view(id), d, &phi);
  oids_.push_back(id);
  table_.AppendRow(phi.data());
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
