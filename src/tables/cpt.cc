#include "src/tables/cpt.h"

#include <cassert>

#include "src/core/knn_heap.h"
#include "src/core/thread_pool.h"

namespace pmi {

void Cpt::BuildImpl() {
  const uint32_t l = pivots_.size();
  const uint32_t n = data().size();
  leaf_of_.clear();
  file_ = std::make_unique<PagedFile>(options_.page_size, options_.cache_bytes,
                                      &counters_, options_.buffer_pool);
  MTree::Options mo;
  mo.seed = options_.seed;
  mtree_ = std::make_unique<MTree>(file_.get(), data_, dist(), mo,
                                   LeafPointerUpdater());

  // The in-memory pivot-table half fills in parallel (same fixed
  // partitioning as LAESA); the M-tree half stays serial because every
  // insert mutates the shared buffer pool and the split sampling RNG.
  // The insert sequence is unchanged, so tree shape, leaf pointers, and
  // total build cost are identical at any thread count.
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
  for (ObjectId id = 0; id < n; ++id) mtree_->Insert(id, {});
  file_->Flush();
}

double Cpt::VerifyFromDisk(const ObjectView& q, ObjectId id,
                           double upper) const {
  auto it = leaf_of_.find(id);
  assert(it != leaf_of_.end());
  MTreeNode node = mtree_->LoadNode(it->second);
  DistanceComputer d = dist();
  for (const auto& e : node.leaves) {
    if (e.oid == id) return d.Bounded(q, mtree_->ViewOf(e.obj), upper);
  }
  assert(false && "leaf pointer out of date");
  return 0;
}

// Both queries run the table's one scan (the bulk filter on the f32 SIMD
// path, like LAESA's) and verify each survivor from its M-tree leaf page
// through the buffer pool, so LAESA's in-memory object prefetch does not
// apply here.

void Cpt::RangeImpl(const ObjectView& q, double r,
                    std::vector<ObjectId>* out) const {
  DistanceComputer d = dist();
  std::vector<double> phi_q;
  pivots_.Map(q, d, &phi_q);
  table_.ScanDynamic(phi_q, [r] { return r; }, [&](size_t row) {
    const ObjectId id = oids_[row];
    if (VerifyFromDisk(q, id, r) <= r) out->push_back(id);
  });
}

void Cpt::KnnImpl(const ObjectView& q, size_t k,
                  std::vector<Neighbor>* out) const {
  DistanceComputer d = dist();
  std::vector<double> phi_q;
  pivots_.Map(q, d, &phi_q);
  KnnHeap heap(k);
  table_.ScanDynamic(
      phi_q, [&] { return heap.radius(); },
      [&](size_t row) {
        const ObjectId id = oids_[row];
        heap.Push(id, VerifyFromDisk(q, id, heap.radius()));
      });
  heap.TakeSorted(out);
}

// Block-major batch MRQ, in two phases.  Phase 1 (pure main memory, no
// page accesses): map every query, then stream the in-memory table once
// for the whole batch, collecting each query's exact candidate rows.
// Phase 2: verify from disk query by query, in batch order -- the same
// VerifyFromDisk calls, in the same order, as a query-major loop, so
// the logical LRU hit/miss pattern and the PA accounting are replayed
// exactly, not just the results.  The whole batch runs on the calling
// thread, which keeps the logical access order deterministic (the
// parallel query-major path cannot promise that; see index.h).
bool Cpt::RangeBatchBlockImpl(const std::vector<ObjectView>& queries,
                              const double* radii,
                              std::vector<std::vector<ObjectId>>* out,
                              PerfCounters* per_query) const {
  const size_t nq = queries.size();
  std::vector<std::vector<double>> phi(nq);
  for (size_t i = 0; i < nq; ++i) {
    DistanceComputer d(&metric(), &per_query[i]);
    pivots_.Map(queries[i], d, &phi[i]);
  }
  std::vector<std::vector<uint32_t>> candidates(nq);
  table_.ScanBlockMajor(
      phi, [&](size_t i) { return radii[i]; },
      [&](size_t i, size_t row) {
        candidates[i].push_back(static_cast<uint32_t>(row));
      },
      [](size_t, size_t) {});
  for (size_t i = 0; i < nq; ++i) {
    // VerifyFromDisk counts distances through dist(); the scope routes
    // them -- and the M-tree page accesses, both logical and physical --
    // to this query's shard.
    CounterScope scope(&per_query[i]);
    for (uint32_t row : candidates[i]) {
      const ObjectId id = oids_[row];
      if (VerifyFromDisk(queries[i], id, radii[i]) <= radii[i]) {
        (*out)[i].push_back(id);
      }
    }
  }
  return true;
}

void Cpt::InsertImpl(ObjectId id) {
  DistanceComputer d = dist();
  std::vector<double> phi;
  pivots_.Map(data().view(id), d, &phi);
  oids_.push_back(id);
  table_.AppendRow(phi.data());
  mtree_->Insert(id, {});
  file_->Flush();
}

void Cpt::RemoveImpl(ObjectId id) {
  for (size_t i = 0; i < oids_.size(); ++i) {
    if (oids_[i] != id) continue;
    oids_[i] = oids_.back();
    oids_.pop_back();
    table_.RemoveRowSwap(i);
    break;
  }
  mtree_->Remove(id);
  leaf_of_.erase(id);
  file_->Flush();
}

std::unique_ptr<MetricIndex> Cpt::Clone() const {
  auto clone = std::make_unique<Cpt>(options_);
  clone->CopyBaseFrom(*this);
  clone->oids_ = oids_;
  clone->table_ = table_;  // copy-on-write: shares all 256-row blocks
  clone->leaf_of_ = leaf_of_;
  clone->file_ = file_->Clone(&clone->counters_);
  clone->mtree_ = std::make_unique<MTree>(
      *mtree_, clone->file_.get(),
      DistanceComputer(metric_, &clone->counters_),
      clone->LeafPointerUpdater());
  return clone;
}

Status Cpt::SaveImpl(ByteSink* out) const {
  out->PutVector(oids_);
  SerializePivotTable(table_, out);
  out->PutU64(leaf_of_.size());
  for (const auto& [oid, page] : leaf_of_) {
    out->PutU32(oid);
    out->PutU32(page);
  }
  // The disk half is copied wholesale: raw page images plus the M-tree's
  // root/height/size.  Raw access bypasses the buffer pool, so saving
  // charges no page accesses.
  out->PutU32(file_->page_size());
  out->PutU32(file_->num_pages());
  for (PageId p = 0; p < file_->num_pages(); ++p) {
    out->Raw(file_->RawPage(p), file_->page_size());
  }
  out->PutU32(mtree_->root());
  out->PutU32(mtree_->height());
  out->PutU64(mtree_->size());
  return OkStatus();
}

Status Cpt::LoadImpl(ByteSource* in) {
  PMI_RETURN_IF_ERROR(in->GetVector(&oids_));
  PMI_RETURN_IF_ERROR(DeserializePivotTable(in, &table_));
  if (table_.per_row_pivots() || table_.width() != pivots_.size() ||
      table_.rows() != oids_.size()) {
    return DataLossError("CPT snapshot state is inconsistent");
  }
  uint64_t entries = 0;
  PMI_RETURN_IF_ERROR(in->GetU64(&entries));
  if (entries > data().size()) {
    return DataLossError("CPT snapshot has more leaf pointers than objects");
  }
  leaf_of_.clear();
  leaf_of_.reserve(entries);
  for (uint64_t i = 0; i < entries; ++i) {
    uint32_t oid = 0, page = 0;
    PMI_RETURN_IF_ERROR(in->GetU32(&oid));
    PMI_RETURN_IF_ERROR(in->GetU32(&page));
    leaf_of_[oid] = page;
  }
  uint32_t page_size = 0, num_pages = 0;
  PMI_RETURN_IF_ERROR(in->GetU32(&page_size));
  PMI_RETURN_IF_ERROR(in->GetU32(&num_pages));
  if (page_size != options_.page_size) {
    return DataLossError("CPT snapshot page_size does not match options");
  }
  file_ = std::make_unique<PagedFile>(options_.page_size, options_.cache_bytes,
                                      &counters_, options_.buffer_pool);
  MTree::Options mo;
  mo.seed = options_.seed;
  mtree_ = std::make_unique<MTree>(file_.get(), data_, dist(), mo,
                                   LeafPointerUpdater());
  // The MTree constructor allocates a fresh root; drop it and refill the
  // file with the snapshot's page images (no PA charged), then point the
  // tree at the restored root.
  file_->ResetPages();
  for (uint32_t p = 0; p < num_pages; ++p) {
    PMI_RETURN_IF_ERROR(in->Raw(file_->AppendRawPage(), page_size));
  }
  uint32_t root = 0, height = 0;
  uint64_t size = 0;
  PMI_RETURN_IF_ERROR(in->GetU32(&root));
  PMI_RETURN_IF_ERROR(in->GetU32(&height));
  PMI_RETURN_IF_ERROR(in->GetU64(&size));
  if (root >= num_pages) {
    return DataLossError("CPT snapshot M-tree root outside the page file");
  }
  for (const auto& [oid, page] : leaf_of_) {
    if (page >= num_pages || oid >= data().size()) {
      return DataLossError("CPT snapshot leaf pointer is out of range");
    }
  }
  // Every table row is verified through its leaf pointer at query time
  // (VerifyFromDisk dereferences the map hit unchecked under NDEBUG), so
  // a row without one must fail here, not at the first query.
  for (ObjectId id : oids_) {
    if (id >= data().size() || leaf_of_.find(id) == leaf_of_.end()) {
      return DataLossError(
          "CPT snapshot row references an object without a leaf pointer");
    }
  }
  mtree_->RestoreState(root, height, size);
  return OkStatus();
}

size_t Cpt::memory_bytes() const {
  return table_.memory_bytes() + oids_.size() * sizeof(ObjectId) +
         leaf_of_.size() * (sizeof(ObjectId) + sizeof(PageId) + 16) +
         pivots_.memory_bytes();
}

size_t Cpt::disk_bytes() const { return file_ ? file_->bytes() : 0; }

}  // namespace pmi
