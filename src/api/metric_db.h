// MetricDB -- the stable public facade over the survey harness.
//
// The inner MetricIndex API is built for the paper's equal-footing
// experiments: it borrows the dataset, metric, and pivots from the
// caller, aborts on programmer error, and reports results through
// out-params.  That contract is exactly right for benchmarks and exactly
// wrong for a service: callers must hand-manage four lifetimes, cannot
// recover from bad input, and must rebuild every index on process start.
//
// MetricDB closes that gap without touching the harness:
//   * it OWNS its Dataset, Metric, PivotSet, and MetricIndex -- build one
//     from a config plus a dataset and the dangling-reference footgun is
//     gone;
//   * every entry point returns Status / StatusOr instead of aborting,
//     with options validated up front (ValidateOptions, TryMakeIndex);
//   * queries go through one descriptor pair -- QueryRequest in,
//     QueryResult (by value) out -- with batches fanning out over the
//     parallel batch engine;
//   * Save/Open persist the whole database as one versioned snapshot
//     file (src/api/snapshot.h), so indexes that implement persistence
//     restore with zero distance computations.
//
// Concurrency model (see README "Concurrency model"): every database
// publishes its state as immutable TableVersions.  Readers call
// Query/GetReadView from any number of threads: each pins the current
// version by copying its shared_ptr under a short mutex and runs the
// const batch engine against it.  The single writer (Apply/Insert/
// Remove, serialized on an internal writer lock) clones the index --
// copy-on-write, sharing untouched pivot-table blocks and disk pages --
// applies the batch to the clone, and publishes it by swapping the
// pointer; a superseded version is freed by whichever holder drops it
// last.  Checkpoint snapshots a pinned version concurrently with both
// readers and the writer.  A database whose write path went read-only
// (WAL fault) keeps serving reads from the last published version.

#ifndef PMI_API_METRIC_DB_H_
#define PMI_API_METRIC_DB_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/dataset.h"
#include "src/core/index.h"
#include "src/core/metric.h"
#include "src/core/pivots.h"
#include "src/core/status.h"
#include "src/core/version.h"
#include "src/storage/env.h"
#include "src/storage/wal.h"

namespace pmi {

/// Build recipe for a MetricDB.  Plain fields plus chainable setters:
///
///   MetricDB::Create(MetricDBConfig()
///                        .WithMetric("L2")
///                        .WithIndex("MVPT")
///                        .WithPivots(5),
///                    std::move(dataset));
struct MetricDBConfig {
  /// Metric name: "L1", "L2", "Linf" (vector datasets) or "edit"
  /// (string datasets).
  std::string metric_name = "L2";
  /// Per-coordinate domain width (vector metrics) or maximum string
  /// length (edit).  0 = derive from the dataset at build time -- a
  /// coordinate scan, no distance computations.
  double metric_param = 0;
  /// Index display name as known to the registry ("LAESA", "EPT*",
  /// "MVPT", "SPB-tree", ..., or "LinearScan" for the brute-force
  /// baseline).
  std::string index_name = "MVPT";
  /// Shared pivots: how many and how to pick them ("hfi" -- the paper's
  /// shared strategy -- or "hf" or "random").
  uint32_t pivot_count = 5;
  std::string pivot_method = "hfi";
  /// When set, this exact pivot set is used (copied -- a PivotSet owns
  /// its objects) and pivot_count/pivot_method are ignored.  Lets
  /// several databases over the same data share one selection pass, and
  /// pivot-free baselines (LinearScan) skip selection entirely.
  std::optional<PivotSet> pivot_set;
  IndexOptions options;

  MetricDBConfig& WithMetric(std::string name, double param = 0) {
    metric_name = std::move(name);
    metric_param = param;
    return *this;
  }
  MetricDBConfig& WithIndex(std::string name) {
    index_name = std::move(name);
    return *this;
  }
  MetricDBConfig& WithPivots(uint32_t count) {
    pivot_count = count;
    return *this;
  }
  MetricDBConfig& WithPivotMethod(std::string method) {
    pivot_method = std::move(method);
    return *this;
  }
  MetricDBConfig& WithPivotSet(PivotSet set) {
    pivot_set = std::move(set);
    return *this;
  }
  MetricDBConfig& WithOptions(const IndexOptions& o) {
    options = o;
    return *this;
  }
};

/// Resolves the metric parameter Create would instantiate for
/// (metric_name, data): an explicit positive `param` passes through
/// unchanged; 0 derives it from the data (the same coordinate scan /
/// max-string-length pass Create runs -- no distance computations).
/// The sharded service (src/service/) pins ONE parameter derived from
/// the full dataset across every shard of a partition, so per-shard
/// metrics -- including FQA's max_distance-based quantization step --
/// match the unsharded oracle exactly.
StatusOr<double> ResolveMetricParam(const std::string& metric_name,
                                    const Dataset& data, double param = 0);

/// What a query asks for.  One descriptor covers single and batch,
/// range and kNN -- facade callers never touch out-param pairs.
enum class QueryType { kRange, kKnn };

struct QueryRequest {
  QueryType type = QueryType::kRange;
  /// Range queries: the search radius (>= 0, finite), applied to every
  /// batch element unless `radii` is set.
  double radius = 0;
  /// kNN queries: the neighbor count (>= 1), applied to every batch
  /// element unless `ks` is set.
  size_t k = 0;
  /// The query objects; views must stay valid for the duration of the
  /// Query call.  An empty batch is a valid no-op.
  std::vector<ObjectView> batch;
  /// Per-query descriptors.  When non-empty, radii[i] / ks[i] answers
  /// batch[i] and the uniform radius / k above is ignored; the size must
  /// match the batch and every element is validated like its uniform
  /// counterpart.  A range request with `ks` set (or a kNN request with
  /// `radii`) is rejected as kInvalidArgument.
  std::vector<double> radii;
  std::vector<size_t> ks;

  static QueryRequest Range(const ObjectView& q, double radius) {
    QueryRequest r;
    r.type = QueryType::kRange;
    r.radius = radius;
    r.batch = {q};
    return r;
  }
  static QueryRequest RangeBatch(std::vector<ObjectView> qs, double radius) {
    QueryRequest r;
    r.type = QueryType::kRange;
    r.radius = radius;
    r.batch = std::move(qs);
    return r;
  }
  /// Batch with one radius per query.
  static QueryRequest RangeBatch(std::vector<ObjectView> qs,
                                 std::vector<double> radii) {
    QueryRequest r;
    r.type = QueryType::kRange;
    r.batch = std::move(qs);
    r.radii = std::move(radii);
    return r;
  }
  static QueryRequest Knn(const ObjectView& q, size_t k) {
    QueryRequest r;
    r.type = QueryType::kKnn;
    r.k = k;
    r.batch = {q};
    return r;
  }
  static QueryRequest KnnBatch(std::vector<ObjectView> qs, size_t k) {
    QueryRequest r;
    r.type = QueryType::kKnn;
    r.k = k;
    r.batch = std::move(qs);
    return r;
  }
  /// Batch with one neighbor count per query.
  static QueryRequest KnnBatch(std::vector<ObjectView> qs,
                               std::vector<size_t> ks) {
    QueryRequest r;
    r.type = QueryType::kKnn;
    r.batch = std::move(qs);
    r.ks = std::move(ks);
    return r;
  }
};

/// Everything a query returns, by value.  ids[i] / neighbors[i] answers
/// batch[i]; only the member matching the request type is populated.
/// `stats` covers the whole batch (seconds is wall clock, the QPS
/// denominator).
struct QueryResult {
  std::vector<std::vector<ObjectId>> ids;        // kRange
  std::vector<std::vector<Neighbor>> neighbors;  // kKnn
  OpStats stats;
};

/// One update: re-insert a (previously removed) dataset object, or
/// remove a live one -- the update operation of the paper's Section
/// 6.3, surfaced on the facade so it can be validated, logged, and
/// recovered.
struct UpdateOp {
  WalOp op = WalOp::kInsert;
  ObjectId id = 0;

  static UpdateOp Insert(ObjectId id) { return {WalOp::kInsert, id}; }
  static UpdateOp Remove(ObjectId id) { return {WalOp::kRemove, id}; }
};

/// Typed failure of MetricDB::ApplyOptions::expected_sequence:
/// kFailedPrecondition with a machine-recognizable message recording
/// both sequences.  Nothing was logged or applied.
Status SequenceFenceError(uint64_t at, uint64_t expected);
/// True iff `s` came from SequenceFenceError.
bool IsSequenceFenceMismatch(const Status& s);

/// Durability knobs for CreateDurable/OpenDurable.
struct DurabilityOptions {
  /// When acknowledged updates reach stable storage (see
  /// src/storage/wal.h for the exact guarantee per mode).
  SyncMode sync_mode = SyncMode::kAlways;
  /// kInterval only: fsync every this many commits.
  uint32_t sync_interval_commits = 32;
  /// I/O seam; nullptr = Env::Default().  Must outlive the database.
  Env* env = nullptr;

  /// Reads PMI_WAL_SYNC ("always" | "interval" | "never") and
  /// PMI_WAL_SYNC_INTERVAL; unset or unparsable values keep the
  /// defaults.
  static DurabilityOptions FromEnv();
};

/// An owned, persistable metric database: dataset + metric + pivots +
/// index behind one handle.
class MetricDB {
 public:
  /// Builds a database from scratch: derives the metric, selects pivots,
  /// constructs and builds the index.  `data` is consumed.  Errors:
  /// kInvalidArgument (empty dataset, bad options, metric/dataset kind
  /// mismatch, pivot recipe), kNotFound (unknown metric or index name),
  /// kFailedPrecondition (index needs a discrete metric).
  static StatusOr<MetricDB> Create(const MetricDBConfig& config,
                                   Dataset data);

  /// Restores a database from a Save()d snapshot.  Indexes implementing
  /// persistence restore without recomputing distances (see
  /// build_stats()); the rest rebuild from the persisted dataset.
  static StatusOr<MetricDB> Open(const std::string& path);

  /// Persists the database (config, dataset, pivots, index state) to one
  /// snapshot file.  kUnimplemented index persistence degrades to a
  /// "rebuild on open" snapshot, never to an error.  The file is
  /// crash-durable when Save returns OK: temp file fsynced before the
  /// atomic rename, parent directory fsynced after.
  Status Save(const std::string& path) const;

  // -- durability ---------------------------------------------------------

  /// Create() plus a durability home: `dir` receives a checkpoint
  /// snapshot and a write-ahead log, and from then on every
  /// acknowledged update survives a crash (at the DurabilityOptions
  /// sync_mode's guarantee level).
  static StatusOr<MetricDB> CreateDurable(const MetricDBConfig& config,
                                          Dataset data,
                                          const std::string& dir,
                                          const DurabilityOptions& dopts = {});

  /// Crash recovery: loads the newest valid checkpoint in `dir` (falling
  /// back to the previous one if the newest is corrupt), replays the WAL
  /// tail on top of it -- truncating torn trailing records, refusing
  /// sequence gaps as kDataLoss -- and re-checkpoints so the recovered
  /// state is itself durable.  Recovers to exactly the last acknowledged
  /// update under SyncMode::kAlways; under kInterval/kNever to some
  /// valid prefix of the update history, never to a non-prefix state.
  static StatusOr<MetricDB> OpenDurable(const std::string& dir,
                                        const DurabilityOptions& dopts = {});

  /// Re-inserts dataset object `id` (must be removed) / removes a live
  /// one.  On a durable database the op is WAL-logged before it is
  /// applied; OK means it is recoverable per the sync mode.  Errors:
  /// kInvalidArgument (id out of range), kFailedPrecondition (liveness
  /// mismatch, or the database went read-only after an I/O fault),
  /// kUnavailable (the logging I/O itself failed -- the op is NOT
  /// applied and the database is read-only from then on).
  Status Insert(ObjectId id) { return Apply({UpdateOp::Insert(id)}); }
  Status Remove(ObjectId id) { return Apply({UpdateOp::Remove(id)}); }

  /// Group commit: validates and applies `ops` as one WAL commit (one
  /// write + at most one fsync for the whole batch).  All-or-nothing:
  /// on any validation or logging error no op is applied.
  Status Apply(const std::vector<UpdateOp>& ops);

  /// Optional preconditions for Apply.
  struct ApplyOptions {
    /// Sequence fence: commit only if last_sequence() still equals this
    /// value (checked inside the writer lock, before validation or
    /// logging).  A mismatch returns SequenceFenceError and applies
    /// nothing.  This is the idempotence primitive for retried batches:
    /// a batch whose WAL record survived a "failed" commit and was
    /// replayed by recovery has advanced the sequence, so a fenced
    /// retry refuses instead of double-applying (see service/retry.h).
    std::optional<uint64_t> expected_sequence;
  };

  /// Apply with preconditions; Apply(ops) == Apply(ops, {}).
  Status Apply(const std::vector<UpdateOp>& ops, const ApplyOptions& aopts);

  /// Durable databases only: writes a fresh checkpoint of the current
  /// state, starts a new WAL generation, and prunes generations older
  /// than the fallback window (previous checkpoint + its log).  The
  /// snapshot serializes a pinned version OUTSIDE the writer lock, so
  /// updates and queries proceed while the checkpoint file is being
  /// written.
  Status Checkpoint();

  /// Shuts the database down: refuses new queries and updates, syncs and
  /// closes the WAL (skipped once write_status() is non-OK), and
  /// releases the directory LOCK file.  Idempotent; in-flight queries
  /// holding a pinned version finish normally.  The destructor releases
  /// the LOCK too, so Close() is only needed when the final WAL sync
  /// outcome or early lock release matters.  Close() does NOT wait for
  /// concurrent calls: it only makes later entry attempts fail fast.
  Status Close();

  /// Destruction does not synchronize with concurrent calls: like any
  /// C++ object, the destructor may only run once every thread's
  /// Query/GetReadView/Apply/Checkpoint call on this instance has
  /// RETURNED.  Close() is not enough -- a thread already past the
  /// closed check but not yet holding its version pin would touch freed
  /// state -- so quiesce (join) reader threads before dropping the
  /// database.  A ReadView co-owns its pinned version independently of
  /// the facade, so it may outlive it.
  ~MetricDB();

  /// True when this database was opened with CreateDurable/OpenDurable.
  bool durable() const { return durable_; }

  /// Sequence number of the last applied update (0 = none yet).  After
  /// OpenDurable this is exactly the prefix of update history the
  /// recovered state contains.  Read from the published version, so it
  /// is safe from any thread.
  uint64_t last_sequence() const { return ReadView(PinVersion()).sequence(); }

  /// Liveness of dataset object `id` under the applied update history,
  /// read from the published version like last_sequence().
  bool alive(ObjectId id) const { return ReadView(PinVersion()).alive(id); }

  /// Non-OK once a write-path I/O fault put the database in read-only
  /// mode (queries still work; updates are refused with this status).
  /// Safe from any thread.
  Status write_status() const;

  /// Answers `request`; batches fan out across the thread pool.  Safe to
  /// call from any number of threads concurrently with Apply/Checkpoint;
  /// each call is GetReadView() followed by ReadView::Query, so it
  /// answers against one consistent pinned version.
  StatusOr<QueryResult> Query(const QueryRequest& request) const;

  /// A consistent snapshot of the database for multi-query read
  /// transactions: every Query through the view -- and its alive()/
  /// sequence() -- answers against the same pinned version, no matter
  /// how many updates the writer publishes meanwhile.  Copyable and
  /// cheap; the underlying version stays alive until the last view
  /// drops.  kFailedPrecondition when the database is closed.
  class ReadView {
   public:
    /// Sequence number of the pinned version (same meaning as
    /// MetricDB::last_sequence()).
    uint64_t sequence() const { return version_->sequence; }

    /// Liveness of `id` at the pinned version.
    bool alive(ObjectId id) const {
      return id < version_->live.size() && version_->live[id] != 0;
    }

    /// Same contract as MetricDB::Query, answered at the pinned version.
    StatusOr<QueryResult> Query(const QueryRequest& request) const;

   private:
    friend class MetricDB;
    explicit ReadView(std::shared_ptr<const TableVersion> version)
        : version_(std::move(version)) {}

    std::shared_ptr<const TableVersion> version_;
  };

  StatusOr<ReadView> GetReadView() const;

  /// Single-query conveniences.
  StatusOr<QueryResult> RangeQuery(const ObjectView& q, double radius) const {
    return Query(QueryRequest::Range(q, radius));
  }
  StatusOr<QueryResult> KnnQuery(const ObjectView& q, size_t k) const {
    return Query(QueryRequest::Knn(q, k));
  }

  const MetricDBConfig& config() const { return config_; }
  const Dataset& dataset() const { return *data_; }
  const Metric& metric() const { return *metric_; }
  const PivotSet& pivots() const { return *pivots_; }
  const MetricIndex& index() const { return *index_; }

  /// Cost of Create's index build -- or of Open (zero distance
  /// computations when the index restored from persisted state).
  const OpStats& build_stats() const { return build_stats_; }

  /// True when this database was restored from persisted index state
  /// rather than (re)built.
  bool restored_from_snapshot() const { return restored_; }

  MetricDB(MetricDB&&) = default;
  MetricDB& operator=(MetricDB&&) = default;
  MetricDB(const MetricDB&) = delete;
  MetricDB& operator=(const MetricDB&) = delete;

 private:
  MetricDB() = default;

  /// Validates `request` against dataset `data` (batch views, uniform
  /// and per-query descriptors).
  static Status ValidateRequest(const QueryRequest& request,
                                const Dataset& data);

  /// Answers an already-validated `request` against a pinned version's
  /// `index`.
  static QueryResult Answer(const MetricIndex& index,
                            const QueryRequest& request);

  /// Publishes the writer's state (index_, live_, seq_) as the current
  /// version: at the end of Create, Open and OpenDurable (after WAL
  /// replay), and by every Apply.  The superseded version is dropped
  /// after the version lock is released.
  void PublishVersion();

  /// Copies the current version's shared_ptr under the version lock.
  std::shared_ptr<const TableVersion> PinVersion() const;

  /// Puts the database in read-only mode with `cause` (writer lock
  /// held) and returns it.
  Status FailWrites(Status cause);

  /// Serializes database state (config, dataset, pivots, `index` state,
  /// `live` bitmap, `seq`) into the snapshot payload.  Parameterized so
  /// a checkpoint can serialize a pinned version while the live members
  /// move on.
  Status ComposePayload(const MetricIndex& index,
                        const std::vector<uint8_t>& live, uint64_t seq,
                        ByteSink* payload) const;

  /// Rebuilds a database from a snapshot payload (shared by Open and
  /// checkpoint recovery).
  static StatusOr<MetricDB> FromPayload(const std::string& payload);

  /// Save through a specific Env (durable temp-write + rename + dir
  /// sync) of the currently published version.
  Status SaveTo(const std::string& path, Env* env) const;

  /// SaveTo for one explicit state triple.
  Status SaveStateTo(const MetricIndex& index,
                     const std::vector<uint8_t>& live, uint64_t seq,
                     const std::string& path, Env* env) const;

  /// Applies one already-validated, already-logged update to `index`
  /// and to the liveness/sequence bookkeeping: Apply's clone, or index_
  /// itself during WAL replay, before the first version is published.
  void ApplyToIndex(MetricIndex* index, const UpdateOp& op);

  /// Replays wal-<g> for g = first_gen, first_gen+1, ... on top of the
  /// current state; kDataLoss on sequence gaps or liveness-inconsistent
  /// records.
  Status ReplayWalGenerations(Env* env, const std::string& dir,
                              uint64_t first_gen);

  /// Writes ckpt-(gen+1), opens wal-(gen+1), prunes generation gen-1.
  Status RotateCheckpoint();

  /// Deletes the ckpt-/wal- generations below `keep_from`; best-effort.
  void PruneGenerationsBelow(uint64_t keep_from);

  MetricDBConfig config_;
  // Metric parameters as actually instantiated (param derived from the
  // data when config_.metric_param == 0); persisted so Open rebuilds the
  // exact same metric without re-deriving.
  double metric_param_used_ = 0;
  bool metric_discrete_ = false;
  // shared_ptrs keep the addresses the index borrowed stable across
  // moves of the facade object AND let published TableVersions share
  // ownership, so a pinned reader outlives even the facade's members.
  std::shared_ptr<Dataset> data_;
  std::shared_ptr<Metric> metric_;
  std::shared_ptr<PivotSet> pivots_;
  // The writer's working index.  This exact object is what the current
  // TableVersion references; Apply never mutates it -- it clones,
  // applies to the clone, publishes, and reseats this pointer, so every
  // published version stays immutable forever.
  std::shared_ptr<MetricIndex> index_;
  OpStats build_stats_;
  bool restored_ = false;

  // -- concurrency core ---------------------------------------------------
  // Heap-allocated so MetricDB stays movable (mutexes and atomics are
  // not).  Null only in a moved-from facade.
  struct Concurrency {
    /// Serializes the write path (Apply, checkpoint's WAL rotation,
    /// Close).
    std::mutex writer_mu;
    /// Serializes whole Checkpoint calls against each other without
    /// blocking the writer for the slow serialization phase.
    std::mutex checkpoint_mu;
    /// Guards `version` only: held for one shared_ptr copy or swap.
    std::mutex version_mu;
    /// The published version; set by PublishVersion, copied by
    /// PinVersion.
    std::shared_ptr<const TableVersion> version;
    /// Guards write_status_ against readers off the writer thread; the
    /// writer sets it holding both writer_mu and status_mu.
    std::mutex status_mu;
    /// Flipped by Close(); checked (acquire) at every entry point.
    std::atomic<bool> closed{false};
    /// Held kernel advisory lock on dir_'s LOCK file; null when this
    /// instance does not own the directory.
    std::unique_ptr<FileLock> dir_lock;
  };
  std::unique_ptr<Concurrency> cc_ = std::make_unique<Concurrency>();

  // -- update/durability state --------------------------------------------
  // live_ mirrors the index's membership (1 = present); seq_ numbers the
  // applied update history.  Maintained on every database; persisted in
  // the snapshot payload tail so recovery can validate WAL replay.
  std::vector<uint8_t> live_;
  uint64_t seq_ = 0;
  Status write_status_;

  // Durable databases only.
  bool durable_ = false;
  std::string dir_;
  Env* env_ = nullptr;  // borrowed; outlives the database
  DurabilityOptions dopts_;
  uint64_t checkpoint_gen_ = 0;
  std::unique_ptr<WalWriter> wal_;
};

}  // namespace pmi

#endif  // PMI_API_METRIC_DB_H_
