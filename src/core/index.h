// The common interface of all pivot-based metric indexes.
//
// Every index in the survey implements MetricIndex: build over a dataset +
// metric + shared pivot set, answer metric range queries (Definition 1)
// and metric k-nearest-neighbor queries (Definition 2), support the
// update operation of Section 6.3 (delete an object, insert it back), and
// report storage split into main-memory (I) and disk (D) bytes (Table 4).
//
// Cost accounting follows the template-method pattern: the public
// non-virtual entry points wrap each *Impl call in a stopwatch and a
// counter sink, so all indexes report compdists / PA / CPU time
// identically.  Queries count only into operation-local CounterScope
// shards and never write the index, so any number of threads may query
// one instance concurrently; the cumulative per-index counters_ belong
// to the writer-side operations (Build, Insert, Remove, LoadState).

#ifndef PMI_CORE_INDEX_H_
#define PMI_CORE_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/counters.h"
#include "src/core/dataset.h"
#include "src/core/knn_heap.h"
#include "src/core/metric.h"
#include "src/core/object.h"
#include "src/core/pivots.h"
#include "src/core/serialize.h"
#include "src/core/status.h"
#include "src/core/thread_pool.h"
#include "src/storage/buffer_pool.h"

namespace pmi {

/// Tuning knobs.  Defaults reproduce the paper's setup (Section 6.1).
struct IndexOptions {
  /// Disk page size.  4 KB default; the paper uses 40 KB for CPT and the
  /// PM-tree on high-dimensional datasets (Color, Synthetic) because those
  /// two store objects inside tree nodes.
  uint32_t page_size = 4096;

  /// LRU buffer-pool capacity (bytes); 128 KB per the paper.  Sizes the
  /// logical PA simulation of every PagedFile the index creates, and the
  /// private physical pool when `buffer_pool` is not set.
  uint32_t cache_bytes = 128 * 1024;

  /// Shared physical page cache.  When set, every PagedFile of the index
  /// serves its page bytes through this pool (one cache budget across
  /// indexes and shards); when null, each PagedFile creates a private
  /// pool of `cache_bytes`.  Physical pool size never changes logical PA
  /// -- the paper-conformance quantity -- only pa_physical().  Held as a
  /// shared_ptr because read snapshots can outlive the facade that
  /// configured them.
  std::shared_ptr<BufferPool> buffer_pool;

  /// Seed for any internal randomized decision (BKT pivots, M-tree split
  /// sampling, ...).
  uint64_t seed = 42;

  // -- pivot-based trees ----------------------------------------------------
  /// MVPT arity m; the paper sets m = 5 (Section 4.3).
  uint32_t mvpt_arity = 5;
  /// Max objects in a tree leaf before splitting (BKT/FQT/MVPT).
  uint32_t tree_leaf_capacity = 16;
  /// BKT/FQT: number of equal-width distance buckets per node, used when
  /// the discrete distance domain is large (Section 4.1 discussion).
  uint32_t tree_fanout = 16;

  // -- EPT / EPT* -----------------------------------------------------------
  /// EPT group size m (pivots per random group).  0 = estimate via the
  /// cost model of Equation (1).
  uint32_t ept_group_size = 0;
  /// Candidate outlier count for PSA ("cp_scale is set to 40").
  uint32_t ept_cp_scale = 40;
  /// Sample size |S| used by PSA and by EPT's mu estimation.
  uint32_t ept_sample_size = 64;

  // -- M-index --------------------------------------------------------------
  /// Cluster split threshold ("maxnum, set to 1,600 in this paper").
  uint32_t mindex_maxnum = 1600;

  // -- SPB-tree -------------------------------------------------------------
  /// Bits per pivot dimension for the SFC grid. 0 = auto (<= 63 total).
  uint32_t spb_bits_per_dim = 0;
};

/// The single validation point for IndexOptions: every facade entry point
/// (and TryMakeIndex) routes options through here so bad knobs surface as
/// kInvalidArgument instead of undefined behavior deep in the storage
/// layer.  The harness constructors stay unchecked by design -- experiment
/// code uses the defaults.
Status ValidateOptions(const IndexOptions& options);

/// Costs of one build / query / update operation: the PerfCounters of
/// the operation plus its wall-clock time.  page_reads/page_writes are
/// the paper's logical PA; pool_hits/physical_reads/physical_writes are
/// what actually crossed the buffer-pool seam (see counters.h).
struct OpStats : PerfCounters {
  double seconds = 0;

  using PerfCounters::operator+=;
  OpStats& operator+=(const OpStats& o) {
    PerfCounters::operator+=(o);
    seconds += o.seconds;
    return *this;
  }
};

/// Abstract pivot-based metric index.
class MetricIndex {
 public:
  explicit MetricIndex(IndexOptions options = {}) : options_(options) {}
  virtual ~MetricIndex() = default;

  MetricIndex(const MetricIndex&) = delete;
  MetricIndex& operator=(const MetricIndex&) = delete;

  /// Short display name, e.g. "LAESA" or "M-index*".
  virtual std::string name() const = 0;

  /// True for the pivot-based external indexes (category 3).
  virtual bool disk_based() const = 0;

  /// Builds the index over every object of `data`.  The dataset, metric,
  /// and pivots must outlive the index.  Returns the construction cost.
  OpStats Build(const Dataset& data, const Metric& metric,
                const PivotSet& pivots) {
    data_ = &data;
    metric_ = &metric;
    pivots_ = pivots;
    return Measure([&] { BuildImpl(); });
  }

  /// MRQ(q, r): appends all ids o with d(q,o) <= r to `out` (unordered).
  OpStats RangeQuery(const ObjectView& q, double r,
                     std::vector<ObjectId>* out) const {
    out->clear();
    return MeasureQuery([&] { RangeImpl(q, r, out); });
  }

  /// MkNNQ(q, k): the k nearest objects, ascending by distance.
  OpStats KnnQuery(const ObjectView& q, size_t k,
                   std::vector<Neighbor>* out) const {
    out->clear();
    return MeasureQuery([&] { KnnImpl(q, k, out); });
  }

  /// Copies this built index into an independent instance bound to the
  /// same (data, metric, pivots).  The clone answers queries and applies
  /// updates exactly as the source would -- results, compdists and
  /// logical PA -- and its mutations never affect the source.  Pivot
  /// tables (256-row blocks) and disk pages (PagedFile::Clone) are
  /// shared copy-on-write, so an update copies only what it touches.
  /// This is the shadow-copy primitive of the concurrency layer (the
  /// writer clones, applies, publishes).
  virtual std::unique_ptr<MetricIndex> Clone() const = 0;

  /// Batch MRQ descriptor form: answers MRQ(queries[i], radii[i]) into
  /// (*out)[i] for every i -- per-query thresholds, so callers can mix
  /// selectivities in one batch.  A batch of two or more queries is
  /// offered to the index's block-major hook (RangeBatchBlockImpl); a
  /// batch of one, or one the hook declines, runs the query-major loop
  /// of RangeImpl calls across the global ThreadPool (inline when
  /// another region holds the pool, see ParallelQueryChunks).  A single
  /// query gains nothing from block-major amortization and pays its
  /// tiling overhead, so the batch size picks the engine.  Per-query
  /// result buffers are element-private and every distance computation
  /// and page access is counted into a per-query shard, so results and
  /// compdists (total and `per_query`) equal those of one RangeQuery
  /// call per query, at any batch size, thread count and SIMD dispatch
  /// level (tests/batch_invariance_test.cc pins this).  A disk index's
  /// logical PA also depends on the order in which queries reach its LRU
  /// simulation, so it is pinned only for serial execution.  Per-query
  /// stats carry the counters; `seconds` is meaningful only on the batch
  /// total (wall clock of the whole batch, the QPS denominator).  The
  /// cost of a batch is returned, never accumulated into the index: no
  /// member is written, so any number of threads may batch-query one
  /// instance concurrently (the concurrency layer's readers all query
  /// the same published version).
  OpStats RangeQueryBatch(const std::vector<ObjectView>& queries,
                          const std::vector<double>& radii,
                          std::vector<std::vector<ObjectId>>* out,
                          std::vector<OpStats>* per_query = nullptr) const;

  /// Former name of RangeQueryBatch, kept for existing callers.
  OpStats RangeQueryBatchShared(const std::vector<ObjectView>& queries,
                                const std::vector<double>& radii,
                                std::vector<std::vector<ObjectId>>* out) const {
    return RangeQueryBatch(queries, radii, out);
  }

  /// Uniform-radius convenience form of the batch MRQ descriptor.
  OpStats RangeQueryBatch(const std::vector<ObjectView>& queries, double r,
                          std::vector<std::vector<ObjectId>>* out) const {
    return RangeQueryBatch(queries, std::vector<double>(queries.size(), r),
                           out);
  }

  /// Batch MkNNQ descriptor form; same contract as RangeQueryBatch, with
  /// per-query neighbor counts.  The block-major path re-enters each
  /// block with every query's current (shrinking) heap radius.
  OpStats KnnQueryBatch(const std::vector<ObjectView>& queries,
                        const std::vector<size_t>& ks,
                        std::vector<std::vector<Neighbor>>* out,
                        std::vector<OpStats>* per_query = nullptr) const;

  /// Former name of KnnQueryBatch, kept for existing callers.
  OpStats KnnQueryBatchShared(const std::vector<ObjectView>& queries,
                              const std::vector<size_t>& ks,
                              std::vector<std::vector<Neighbor>>* out) const {
    return KnnQueryBatch(queries, ks, out);
  }

  /// Uniform-k convenience form of the batch MkNNQ descriptor.
  OpStats KnnQueryBatch(const std::vector<ObjectView>& queries, size_t k,
                        std::vector<std::vector<Neighbor>>* out) const {
    return KnnQueryBatch(queries, std::vector<size_t>(queries.size(), k),
                         out);
  }

  /// Serializes the post-build state of this index into `out` so a later
  /// LoadState can restore it without recomputing any distances.  Indexes
  /// that have not implemented persistence return kUnimplemented (the
  /// facade then marks the snapshot "rebuild on open").  The dataset,
  /// metric, and shared pivots are NOT part of this payload -- the caller
  /// persists those once at the database level.
  Status SaveState(ByteSink* out) const { return SaveImpl(out); }

  /// Counterpart of Build for a persisted snapshot: binds the index to
  /// (data, metric, pivots) -- which must outlive it, exactly as with
  /// Build -- and restores the state written by SaveState.  On success
  /// the index answers queries identically to the instance that was
  /// saved; table indexes restore with zero distance computations (the
  /// optional `stats` out-param measures the restore like Build measures
  /// construction, so callers can verify that).  On failure the index is
  /// left unbuilt and must not be queried.
  Status LoadState(const Dataset& data, const Metric& metric,
                   const PivotSet& pivots, ByteSource* in,
                   OpStats* stats = nullptr) {
    data_ = &data;
    metric_ = &metric;
    pivots_ = pivots;
    Status status;
    const OpStats op = Measure([&] { status = LoadImpl(in); });
    if (stats != nullptr) *stats = op;
    return status;
  }

  /// Re-inserts dataset object `id` (previously removed).
  OpStats Insert(ObjectId id) {
    return Measure([&] { InsertImpl(id); });
  }

  /// Removes dataset object `id` from the index.
  OpStats Remove(ObjectId id) {
    return Measure([&] { RemoveImpl(id); });
  }

  /// Main-memory footprint in bytes (the paper's "I" storage).
  virtual size_t memory_bytes() const = 0;

  /// Disk footprint in bytes (the paper's "D" storage); 0 for categories
  /// 1-2 except CPT.
  virtual size_t disk_bytes() const { return 0; }

  const IndexOptions& options() const { return options_; }
  const PivotSet& pivots() const { return pivots_; }

 protected:
  /// Copies the base-class binding and bookkeeping from `o` into this
  /// fresh instance -- the first step of every Clone() implementation.
  /// The clone starts from the source's cumulative counters so build
  /// cost attribution survives the shadow-copy chain.
  void CopyBaseFrom(const MetricIndex& o) {
    data_ = o.data_;
    metric_ = o.metric_;
    pivots_ = o.pivots_;
    options_ = o.options_;
    counters_ = o.counters_;
  }

  virtual void BuildImpl() = 0;
  /// Query hooks.  They must write no member: scratch stays local, pages
  /// are read through pinned buffer-pool handles, and costs go through
  /// dist() and CounterScope::Active.  tests/concurrent_stress_test.cc
  /// runs every index's queries from many threads at once under TSan.
  virtual void RangeImpl(const ObjectView& q, double r,
                         std::vector<ObjectId>* out) const = 0;
  virtual void KnnImpl(const ObjectView& q, size_t k,
                       std::vector<Neighbor>* out) const = 0;
  virtual void InsertImpl(ObjectId id) = 0;
  virtual void RemoveImpl(ObjectId id) = 0;

  /// Snapshot hooks (see SaveState/LoadState).  Implemented by LAESA,
  /// EPT/EPT*, CPT, VPT/MVPT, and LinearScan; the default keeps every
  /// other index snapshot-free without touching it.
  virtual Status SaveImpl(ByteSink* out) const {
    (void)out;
    return UnimplementedError(name() + " does not implement snapshots");
  }
  virtual Status LoadImpl(ByteSource* in) {
    (void)in;
    return UnimplementedError(name() + " does not implement snapshots");
  }

  /// Block-major batch hooks, offered every batch of two or more
  /// queries.  An index overrides these to answer the whole batch in one
  /// block-major pass: the pivot table is walked block by block with
  /// every query filtered against each cache-resident column slab,
  /// instead of being re-streamed once per query.  Returning false (the
  /// default) sends the batch down the query-major loop.  `per_query`
  /// points at one PerfCounters shard per query: every distance
  /// computation must be counted into its query's shard (the entry point
  /// sums them into the batch total and derives the per-query stats),
  /// and query i's results must be bit-identical -- contents and order --
  /// to what RangeImpl/KnnImpl would produce for that query alone.
  virtual bool RangeBatchBlockImpl(const std::vector<ObjectView>& queries,
                                   const double* radii,
                                   std::vector<std::vector<ObjectId>>* out,
                                   PerfCounters* per_query) const {
    (void)queries;
    (void)radii;
    (void)out;
    (void)per_query;
    return false;
  }
  virtual bool KnnBatchBlockImpl(const std::vector<ObjectView>& queries,
                                 const size_t* ks,
                                 std::vector<std::vector<Neighbor>>* out,
                                 PerfCounters* per_query) const {
    (void)queries;
    (void)ks;
    (void)out;
    (void)per_query;
    return false;
  }

  /// Counting distance computer bound to the innermost open CounterScope
  /// shard -- every query entry opens one -- or, on the writer-side
  /// operations, to this index's cumulative counters.
  DistanceComputer dist() const {
    return DistanceComputer(metric_, CounterScope::Active(&counters_));
  }

  const Dataset& data() const { return *data_; }
  const Metric& metric() const { return *metric_; }

  const Dataset* data_ = nullptr;
  const Metric* metric_ = nullptr;
  PivotSet pivots_;
  IndexOptions options_;
  mutable PerfCounters counters_;

 private:
  /// Writer-side measurement: the delta of the cumulative counters.
  template <typename Fn>
  OpStats Measure(Fn&& fn) {
    const PerfCounters before = counters_;
    Stopwatch watch;
    fn();
    return OpStats{counters_ - before, watch.Seconds()};
  }

  /// Query measurement: counts into an operation-local shard only.
  template <typename Fn>
  static OpStats MeasureQuery(Fn&& fn) {
    OpStats s;
    Stopwatch watch;
    {
      CounterScope scope(&s);
      fn();
    }
    s.seconds = watch.Seconds();
    return s;
  }
};

}  // namespace pmi

#endif  // PMI_CORE_INDEX_H_
