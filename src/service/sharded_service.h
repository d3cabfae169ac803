// ShardedService -- the multi-writer scaling layer over MetricDB.
//
// One logical metric database, hash-partitioned by object id across N
// independent MetricDB shards (ShardRouter decides placement).  Each
// shard has its own single writer, its own published versions, and --
// in durable mode -- its own WAL/checkpoint directory, so N shards give
// N concurrent writer streams where one MetricDB gives one.
//
// Request path: every Query/Apply passes a bounded FIFO admission gate
// (src/service/admission.h) and then runs on the calling thread.  A
// full wait line is typed backpressure -- kResourceExhausted, never
// unbounded queueing -- and a per-request deadline turns stragglers
// into typed kDeadlineExceeded.
// The deadline budget is propagated INTO per-shard work: queries are
// executed in bounded chunks with the budget re-checked between chunks
// (chunking is bit-identical by the batch split-invariance guarantee),
// and Apply re-checks before each shard's sub-commit, so a request
// cannot overrun its deadline inside a slow shard.
//
// Reads scatter/gather: the caller pins a ReadView per shard
// (MetricDB::GetReadView, a shared_ptr copy under a short mutex), runs
// the batch engine inside each shard in shard order, and merges --
// union for MRQ, a k-way merge with (distance, id) tie-break for MkNN
// -- so results are bit-identical to an unsharded MetricDB
// holding the same data (see result_merger.h for why).
//
// Self-healing: each shard lives in a hot-swappable slot
// (shared_ptr<MetricDB> + ShardHealth).  When a write fault makes a
// shard sticky read-only, the ShardSupervisor (supervisor.h)
// quarantines it -- reads continue from a stale pinned view, writes
// return typed kUnavailable carrying the shard id and a retry-after
// hint -- then recovers it in place from its own WAL/checkpoint chain
// and swaps the fresh MetricDB into the slot.  Healthy shards and any
// in-flight ReadViews are untouched.  Enable with
// ServiceOptions::self_heal on a durable service.
//
// Consistency model: per-shard sequences.  A shard is internally
// consistent (its ReadView is one published version); across shards a
// gather observes each shard at whatever version its pin caught --
// there is no global sequence and no cross-shard atomicity.  Apply
// routes each op to its owning shard and commits per shard: a batch
// touching several shards is atomic WITHIN each shard, and ApplyResult
// reports one Status per shard so a single read-only shard (WAL fault)
// is a typed partial failure while healthy shards keep accepting both
// reads and writes.

#ifndef PMI_SERVICE_SHARDED_SERVICE_H_
#define PMI_SERVICE_SHARDED_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/api/metric_db.h"
#include "src/service/admission.h"
#include "src/service/backoff.h"
#include "src/service/shard_router.h"
#include "src/service/supervisor.h"

namespace pmi {

/// Service shape: shard count plus admission knobs.
struct ServiceOptions {
  /// Independent MetricDB shards (>= 1).  Every shard must own at least
  /// one object, so num_shards cannot exceed the dataset size.
  uint32_t num_shards = 4;
  /// Requests running at once (>= 1); each runs on its caller's thread.
  uint32_t workers = 4;
  /// Requests that may wait for a turn (>= 1); a submit beyond it
  /// returns kResourceExhausted.
  uint32_t max_queue = 64;
  /// Default per-request deadline in milliseconds; negative = none.
  double default_deadline_ms = -1;
  /// Durable services only: run a ShardSupervisor that quarantines and
  /// recovers write-faulted shards in place (supervisor.h).
  bool self_heal = false;
  SupervisorOptions supervisor;
};

/// Per-request overrides.
struct RequestOptions {
  /// Deadline in milliseconds from submission.  Unset = the service
  /// default; >= 0 = hard deadline (0 is already expired -- useful for
  /// deterministic timeout tests); negative = no deadline.
  std::optional<double> deadline_ms;
  /// Per-shard sequence fences for Apply (ignored by Query).  When
  /// entry s is set, shard s's sub-batch commits only if the shard's
  /// last_sequence() still equals the fence; a mismatch is a typed
  /// SequenceFenceError and applies nothing to that shard.  Empty (the
  /// default) = no fences.  This is how retry.h makes retried batches
  /// idempotent.
  std::vector<std::optional<uint64_t>> sequence_fences;
};

/// Outcome of a routed update batch: one Status per shard.  Shards the
/// batch did not touch report OK.  Commit is atomic per shard, not
/// across shards -- a non-OK entry means that shard rejected (or could
/// not log) ITS sub-batch while other entries committed normally.
struct ApplyResult {
  std::vector<Status> shard_status;

  bool all_ok() const {
    for (const Status& s : shard_status) {
      if (!s.ok()) return false;
    }
    return true;
  }
  /// First non-OK shard status, or OK when every shard committed.
  Status Collapse() const {
    for (const Status& s : shard_status) {
      if (!s.ok()) return s;
    }
    return OkStatus();
  }
};

/// The typed error a quarantined / recovering / pinned shard returns
/// for writes (and for reads only when no stale view is available):
/// kUnavailable carrying the shard id and a retry-after hint.
/// retry_after_ms < 0 marks the pinned-read-only terminal state.
Status ShardUnavailableError(uint32_t shard, double retry_after_ms,
                             const std::string& detail);

class ShardedService {
 public:
  /// Request-layer counters: admission queue stats plus the number of
  /// requests that expired in queue (kDeadlineExceeded).
  struct ServiceStats {
    AdmissionQueue::Stats admission;
    uint64_t deadline_expired = 0;
  };

  /// Builds an in-memory sharded service: partitions `data` by id with
  /// ShardRouter, resolves the metric parameter ONCE from the full
  /// dataset (so every shard -- and FQA's quantization -- matches an
  /// unsharded oracle exactly), then MetricDB::Create()s each shard.
  static StatusOr<std::unique_ptr<ShardedService>> Create(
      const MetricDBConfig& config, Dataset data,
      const ServiceOptions& sopts = {});

  /// Create() plus a durability home: `dir` gets a small SERVICE meta
  /// file (shard count + object count, enough to rebuild the router)
  /// and one `shard-NNN/` durable MetricDB directory per shard, each
  /// with its own WAL and checkpoints.
  static StatusOr<std::unique_ptr<ShardedService>> CreateDurable(
      const MetricDBConfig& config, Dataset data, const std::string& dir,
      const ServiceOptions& sopts = {}, const DurabilityOptions& dopts = {});

  /// Crash recovery: reads the SERVICE meta, rebuilds the deterministic
  /// router, and MetricDB::OpenDurable()s every shard -- each shard
  /// recovers independently to its own acknowledged prefix.
  /// sopts.num_shards is ignored (the meta file decides).
  static StatusOr<std::unique_ptr<ShardedService>> OpenDurable(
      const std::string& dir, const ServiceOptions& sopts = {},
      const DurabilityOptions& dopts = {});

  /// Shuts the service down: stops the supervisor, refuses new
  /// requests, waits for admitted requests (running or waiting) to
  /// finish, closes every shard.  Idempotent; returns the first shard
  /// Close error.
  Status Close();

  ~ShardedService();
  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  /// Answers `request` through admission + scatter/gather, on the
  /// calling thread.
  /// Errors: kResourceExhausted (queue full), kDeadlineExceeded,
  /// kFailedPrecondition (closed), kUnavailable (a shard is under
  /// recovery with no stale view), plus anything a shard query returns.
  /// Safe from any number of client threads.
  StatusOr<QueryResult> Query(const QueryRequest& request,
                              const RequestOptions& opts = {}) const;

  /// Routes `ops` to their owning shards and group-commits one
  /// sub-batch per shard (see ApplyResult for the atomicity contract).
  /// The outer StatusOr rejects the whole batch untouched:
  /// kInvalidArgument (id out of range), kResourceExhausted,
  /// kDeadlineExceeded, kFailedPrecondition (closed).  Per-shard
  /// statuses: kUnavailable while the supervisor has the shard
  /// (quarantined/recovering/pinned -- message carries shard id +
  /// retry-after), kDeadlineExceeded when the budget expired before
  /// that shard's dispatch (nothing applied there), SequenceFenceError
  /// on a stale fence, or the shard's own commit error.
  StatusOr<ApplyResult> Apply(const std::vector<UpdateOp>& ops,
                              const RequestOptions& opts = {});

  /// Single-op conveniences; collapse the per-shard result.
  Status Insert(ObjectId id);
  Status Remove(ObjectId id);

  /// Durable services only: checkpoints every shard; first error wins.
  Status Checkpoint();

  /// A consistent per-shard snapshot bundle: one pinned ReadView per
  /// shard, taken in shard order.  Queries through it bypass admission
  /// (direct read path) and answer against exactly these versions; the
  /// view may outlive the service.  kFailedPrecondition when the
  /// service is closed.
  class ReadView {
   public:
    /// Per-shard pinned sequences (the service's consistency token).
    std::vector<uint64_t> sequences() const;

    /// Liveness of global `id` at its shard's pinned version.
    bool alive(ObjectId id) const;

    /// Scatter/gather against the pinned versions -- the same gather
    /// (and oracle equivalence) as ShardedService::Query, without a
    /// deadline.
    StatusOr<QueryResult> Query(const QueryRequest& request) const;

   private:
    friend class ShardedService;
    ReadView(std::shared_ptr<const ShardRouter> router,
             std::vector<MetricDB::ReadView> shards)
        : router_(std::move(router)), shards_(std::move(shards)) {}

    std::shared_ptr<const ShardRouter> router_;
    std::vector<MetricDB::ReadView> shards_;
  };

  StatusOr<ReadView> GetReadView() const;

  // -- self-healing --------------------------------------------------------

  /// Per-shard health snapshot (healthy / quarantined / recovering /
  /// pinned-read-only), in shard order.
  std::vector<ShardHealthReport> health() const;

  /// Manual circuit-breaker reset: re-arms recovery on a pinned (or
  /// quarantined) shard -- attempts and backoff restart from zero and
  /// the supervisor retries immediately.  kFailedPrecondition when the
  /// shard is healthy or the service has no supervisor; kInvalidArgument
  /// for a bad shard id.
  Status ResetShard(uint32_t shard);

  /// The supervisor, when self_heal is on (else nullptr).  Borrowed.
  const ShardSupervisor* supervisor() const { return supervisor_.get(); }

  // -- introspection -------------------------------------------------------

  uint32_t num_shards() const { return router_->num_shards(); }
  const ShardRouter& router() const { return *router_; }
  const ServiceOptions& options() const { return sopts_; }
  /// The effective per-shard config (metric param already resolved).
  const MetricDBConfig& config() const;

  /// Each shard's published version, like MetricDB::last_sequence()/
  /// alive(): safe from any thread, and up to date once no Apply is in
  /// flight.  During recovery a shard answers from its stale quarantine
  /// view.
  bool alive(ObjectId id) const;
  std::vector<uint64_t> sequences() const;
  /// Per-shard write availability: OK iff the shard is healthy AND its
  /// MetricDB write_status() is OK; a supervised shard reports its
  /// typed kUnavailable while quarantined/recovering/pinned.
  std::vector<Status> write_statuses() const;

  /// Objects owned per shard (router view -- placement, not liveness).
  std::vector<uint32_t> shard_sizes() const;

  ServiceStats stats() const;

 private:
  friend class ShardSupervisor;

  using Deadline = std::optional<std::chrono::steady_clock::time_point>;

  /// A hot-swappable shard: the live MetricDB (shared so in-flight
  /// requests keep their instance across a swap), its health state, and
  /// the stale pinned view that serves reads while the instance is
  /// closed for recovery.  The slot mutex guards only the fields --
  /// shard work (Apply/Query) runs on a copied shared_ptr outside it.
  struct ShardSlot {
    mutable std::mutex mu;
    std::shared_ptr<MetricDB> db;
    ShardHealth health = ShardHealth::kHealthy;
    std::optional<MetricDB::ReadView> stale_view;
    Status last_error;
    uint32_t attempts = 0;
    /// Advertised delay until the next recovery attempt (< 0: pinned).
    double retry_after_ms = 0;
    std::chrono::steady_clock::time_point next_attempt{};
    std::chrono::steady_clock::time_point fault_detected_at{};
    std::unique_ptr<Backoff> backoff;  // armed at quarantine time
  };

  ShardedService() = default;

  static StatusOr<std::unique_ptr<ShardedService>> Build(
      const MetricDBConfig& config, Dataset data, const ServiceOptions& sopts,
      const std::string& dir, const DurabilityOptions& dopts, bool durable);

  Deadline ResolveDeadline(const RequestOptions& opts) const;
  static bool Expired(const Deadline& d) {
    return d.has_value() && std::chrono::steady_clock::now() >= *d;
  }

  /// Runs `fn` on the calling thread once the admission gate lets it
  /// in; a refusal or a deadline that passed while waiting returns the
  /// typed error without running `fn`.  T is the StatusOr result type.
  template <typename T, typename Fn>
  T Submit(const Deadline& deadline, const Fn& fn) const;

  /// Pins shard `s` for a read: a fresh view while the shard is
  /// healthy, else its stale quarantine-time view, else typed
  /// kUnavailable.
  StatusOr<MetricDB::ReadView> PinShard(uint32_t s) const;
  /// PinShard for every shard, in shard order.
  StatusOr<std::vector<MetricDB::ReadView>> PinShards() const;

  /// The scatter/gather behind Query and ReadView::Query: queries each
  /// pinned view in shard order -- in bounded chunks when `deadline` is
  /// set, re-checking it between shards and chunks and counting an
  /// expiry in `*expired` -- and merges.
  static StatusOr<QueryResult> Gather(
      const ShardRouter& router, const std::vector<MetricDB::ReadView>& views,
      const QueryRequest& request, const Deadline& deadline,
      std::atomic<uint64_t>* expired);
  StatusOr<ApplyResult> ExecuteApply(const std::vector<UpdateOp>& ops,
                                     const RequestOptions& opts,
                                     const Deadline& deadline);

  /// Snapshot of a slot for one request (copied under the slot mutex).
  struct SlotView {
    std::shared_ptr<MetricDB> db;
    ShardHealth health = ShardHealth::kHealthy;
    std::optional<MetricDB::ReadView> stale_view;
    double retry_after_ms = 0;
  };
  SlotView SnapshotSlot(uint32_t shard) const;

  /// Directory of shard `s` (durable services).
  std::string ShardDir(uint32_t s) const;

  ServiceOptions sopts_;
  MetricDBConfig shard_config_;  // metric param resolved at build time
  std::shared_ptr<const ShardRouter> router_;
  std::vector<std::unique_ptr<ShardSlot>> slots_;
  std::unique_ptr<AdmissionQueue> queue_;
  std::unique_ptr<ShardSupervisor> supervisor_;
  std::atomic<bool> closed_{false};
  mutable std::atomic<uint64_t> deadline_expired_{0};

  // Durable services only.
  bool durable_ = false;
  std::string dir_;
  DurabilityOptions dopts_;  // env_ kept in sync below
  Env* env_ = nullptr;       // borrowed; outlives the service
};

}  // namespace pmi

#endif  // PMI_SERVICE_SHARDED_SERVICE_H_
