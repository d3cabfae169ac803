// ShardSupervisor -- the self-healing loop of the sharded service.
//
// A MetricDB shard that hits a write-path I/O fault goes sticky
// read-only (write_status() non-OK) and, before this supervisor
// existed, stayed that way forever.  The supervisor closes the loop:
// a background thread health-checks every shard's sticky write status,
// quarantines a faulted shard, and recovers it IN PLACE from its own
// WAL/checkpoint chain -- close the faulted instance (releasing the
// directory LOCK), run MetricDB::OpenDurable on the shard directory,
// and atomically hot-swap the fresh instance into the shard slot.
// Healthy shards are never touched, so their in-flight ReadViews stay
// valid; the victim keeps serving reads from a stale pinned view
// captured at quarantine time (MetricDB ReadViews co-own their version
// and outlive the facade).
//
// Shard lifecycle (see also README "Self-healing & retries"):
//
//        +-----------+  write fault   +---------------+
//        |  healthy  | -------------> |  quarantined  | <---+
//        +-----------+                +---------------+     | attempt
//              ^                        | backoff due       | failed
//              | OpenDurable ok         v                   |
//              |                      +---------------+ ----+
//              +--------------------- |  recovering   |
//                                     +---------------+
//                                       | attempts >= N (circuit breaker)
//                                       v
//                                 +------------------+
//                                 | pinned read-only |  (manual
//                                 +------------------+   ResetShard)
//
// Recovery attempts run under capped exponential backoff with
// deterministic seeded jitter (retry.h Backoff): schedules are exactly
// reproducible for a fixed SupervisorOptions::seed.  After
// max_recovery_attempts consecutive failures the circuit breaker pins
// the shard read-only: reads keep flowing from the stale view, writes
// return typed kUnavailable naming the shard and "manual reset
// required", and only ShardedService::ResetShard re-arms recovery.

#ifndef PMI_SERVICE_SUPERVISOR_H_
#define PMI_SERVICE_SUPERVISOR_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "src/core/status.h"

namespace pmi {

class ShardedService;

/// Where a shard sits in the self-healing lifecycle.
enum class ShardHealth : uint8_t {
  kHealthy = 0,        ///< serving reads and writes from a live MetricDB
  kQuarantined,        ///< fault detected; reads from stale view, writes
                       ///< typed kUnavailable; next recovery scheduled
  kRecovering,         ///< recovery attempt in flight (old instance
                       ///< closed, OpenDurable running)
  kPinnedReadOnly,     ///< circuit breaker tripped; ResetShard required
};

const char* ShardHealthName(ShardHealth h);

/// Supervisor knobs.  The defaults suit tests and the chaos harness
/// (millisecond-scale convergence); a real deployment would stretch the
/// poll interval and backoff by a few orders of magnitude.
struct SupervisorOptions {
  /// Health-check cadence (the loop also wakes early when nudged by a
  /// write path that just observed a fault).
  double poll_interval_ms = 2.0;
  /// First retry delay after a failed recovery attempt.
  double initial_backoff_ms = 1.0;
  /// Backoff cap; delays are jittered in [0.75, 1.25) of nominal.
  double max_backoff_ms = 100.0;
  double backoff_multiplier = 2.0;
  /// Circuit breaker: consecutive failed recoveries before the shard is
  /// pinned read-only awaiting ShardedService::ResetShard.
  uint32_t max_recovery_attempts = 8;
  /// Seed for the deterministic backoff jitter (per shard the stream is
  /// seeded with seed ^ shard id, so schedules never sync up).
  uint64_t seed = 0x9e3779b97f4a7c15ull;
};

/// Per-shard health snapshot (ShardedService::health()).
struct ShardHealthReport {
  ShardHealth health = ShardHealth::kHealthy;
  /// The sticky fault that caused quarantine, or the last failed
  /// recovery attempt's status.  OK while healthy.
  Status last_error;
  /// Failed recovery attempts since the current fault was detected.
  uint32_t attempts = 0;
  /// Advertised delay until the next recovery attempt; < 0 once the
  /// circuit breaker has tripped (manual reset required).
  double retry_after_ms = 0;
};

class ShardSupervisor {
 public:
  struct Stats {
    uint64_t health_checks = 0;    ///< full sweeps of every shard
    uint64_t faults_detected = 0;  ///< healthy -> quarantined edges
    uint64_t recoveries = 0;       ///< successful hot-swaps
    uint64_t failed_attempts = 0;  ///< OpenDurable attempts that failed
    uint64_t breaker_trips = 0;    ///< quarantined -> pinned edges
    double last_recovery_ms = 0;   ///< fault detection -> healthy swap
  };

  /// `service` owns this supervisor and must outlive it; Start() spawns
  /// the loop, Stop() joins it (idempotent, called by the destructor
  /// and by ShardedService::Close BEFORE shards are closed, so a
  /// recovery attempt never races shutdown).
  ShardSupervisor(ShardedService* service, const SupervisorOptions& opts);
  ~ShardSupervisor();

  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  void Start();
  void Stop();

  /// Wakes the loop immediately -- called by a write path that just saw
  /// a shard fault so quarantine does not wait out the poll interval.
  void Nudge();

  Stats stats() const;
  const SupervisorOptions& options() const { return opts_; }

 private:
  void Loop();
  /// One health sweep over every shard; performs at most one state
  /// transition per shard per sweep.
  void PollOnce();

  ShardedService* service_;  // borrowed; outlives the supervisor
  SupervisorOptions opts_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool started_ = false;
  uint64_t nudges_ = 0;  // wakeup generation counter
  std::thread thread_;
  Stats stats_;
};

}  // namespace pmi

#endif  // PMI_SERVICE_SUPERVISOR_H_
