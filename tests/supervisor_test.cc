// Supervisor + retry-layer conformance: the self-healing loop's edge
// cases, each deterministic and fast.
//
//   - backoff schedules are bit-identical under a fixed seed (and
//     capped, and Reset()-reproducible);
//   - a write-faulted shard is quarantined and recovered IN PLACE, and
//     post-recovery answers match a LinearScan oracle at the recovered
//     liveness;
//   - a ReadView bundle pinned on the victim BEFORE the fault keeps
//     answering bit-identically across the hot-swap;
//   - the circuit breaker pins a shard whose recovery keeps failing,
//     writes carry "manual reset required", and ResetShard re-arms
//     recovery to full health;
//   - a quarantined shard serves stale reads and typed kUnavailable
//     writes (shard id + retry-after parseable);
//   - recovery racing Close() neither deadlocks nor crashes, across a
//     spread of interleavings;
//   - ApplyWithRetry never double-applies a batch whose "failed" WAL
//     commit was recovered from the orphaned record (sequence-fence
//     idempotence, sequence-verified).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/metric_db.h"
#include "src/core/rng.h"
#include "src/data/generators.h"
#include "src/harness/workload.h"
#include "src/service/backoff.h"
#include "src/service/retry.h"
#include "src/service/sharded_service.h"
#include "src/storage/env.h"
#include "src/storage/fault_env.h"

namespace pmi {
namespace {

constexpr uint64_t kSeed = 20260809;

std::string NewDir(const std::string& name) {
  return ::testing::TempDir() + "pmi_sup_" + name;
}

// Service directories nest shard directories: depth-2 removal.
void RemoveTree(const std::string& dir) {
  Env* env = Env::Default();
  StatusOr<std::vector<std::string>> names = env->ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      const std::string path = JoinPath(dir, name);
      if (env->RemoveFile(path).ok()) continue;
      RemoveTree(path);
    }
  }
  ::rmdir(dir.c_str());
}

/// Polls `pred` (a cheap service introspection) until it holds or
/// `timeout_ms` elapses; returns whether it held.
bool WaitFor(const std::function<bool()>& pred, double timeout_ms = 5000) {
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::duration<double, std::milli>(timeout_ms);
  while (std::chrono::steady_clock::now() < end) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

bool AllWritable(const ShardedService& svc) {
  for (const Status& s : svc.write_statuses()) {
    if (!s.ok()) return false;
  }
  return true;
}

/// Supervisor tuned for millisecond-scale test convergence.
SupervisorOptions FastSupervisor() {
  SupervisorOptions o;
  o.poll_interval_ms = 1;
  o.initial_backoff_ms = 1;
  o.max_backoff_ms = 8;
  o.max_recovery_attempts = 200;  // tests that want the breaker lower it
  o.seed = kSeed;
  return o;
}

struct Rig {
  std::string dir;
  std::unique_ptr<FaultInjectingEnv> fenv;
  std::unique_ptr<ShardedService> svc;
  Dataset data = Dataset::Vectors(1);  // the full dataset (oracle input)

  Rig() = default;
  Rig(Rig&&) = default;
  Rig& operator=(Rig&&) = default;

  ~Rig() {
    if (svc != nullptr) svc->Close();
    svc.reset();
    RemoveTree(dir);
  }
};

/// A 3-shard durable self-healing service over a fault env, indexing
/// with `index`.
Rig MakeRig(const std::string& name, SupervisorOptions sup = FastSupervisor(),
            uint32_t n = 120, const std::string& index = "LAESA") {
  Rig rig;
  rig.dir = NewDir(name);
  RemoveTree(rig.dir);
  rig.fenv = std::make_unique<FaultInjectingEnv>(Env::Default());

  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, n, 4242);
  rig.data = bd.data;  // copy for oracle construction

  ServiceOptions sopts;
  sopts.num_shards = 3;
  sopts.workers = 2;
  sopts.max_queue = 64;
  sopts.self_heal = true;
  sopts.supervisor = sup;
  DurabilityOptions dopts;
  dopts.env = rig.fenv.get();
  auto svc_or = ShardedService::CreateDurable(
      MetricDBConfig().WithMetric("Linf").WithIndex(index).WithPivots(4),
      std::move(bd.data), rig.dir, sopts, dopts);
  EXPECT_TRUE(svc_or.ok()) << svc_or.status().ToString();
  if (svc_or.ok()) rig.svc = std::move(*svc_or);
  return rig;
}

/// LinearScan oracle at the service's CURRENT liveness: brute force,
/// no index smarts to share a bug with.
StatusOr<MetricDB> OracleAtServiceState(const Rig& rig) {
  StatusOr<MetricDB> oracle = MetricDB::Create(
      MetricDBConfig().WithMetric("Linf").WithIndex("LinearScan"),
      Dataset(rig.data));
  if (!oracle.ok()) return oracle;
  for (ObjectId id = 0; id < rig.data.size(); ++id) {
    if (!rig.svc->alive(id)) {
      PMI_RETURN_IF_ERROR(oracle->Remove(id));
    }
  }
  return oracle;
}

void ExpectMatchesOracle(const Rig& rig) {
  StatusOr<MetricDB> oracle = OracleAtServiceState(rig);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  Rng rng(kSeed ^ 0xabc);
  std::vector<ObjectView> queries;
  for (int i = 0; i < 6; ++i) {
    queries.push_back(rig.data.view(rng() % rig.data.size()));
  }
  const double radius = 0.4;
  StatusOr<QueryResult> omrq =
      oracle->Query(QueryRequest::RangeBatch(queries, radius));
  StatusOr<QueryResult> smrq =
      rig.svc->Query(QueryRequest::RangeBatch(queries, radius));
  ASSERT_TRUE(omrq.ok()) << omrq.status().ToString();
  ASSERT_TRUE(smrq.ok()) << smrq.status().ToString();
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<ObjectId> want = omrq->ids[q];
    std::sort(want.begin(), want.end());
    EXPECT_EQ(smrq->ids[q], want) << "MRQ mismatch at query " << q;
  }
  StatusOr<QueryResult> oknn =
      oracle->Query(QueryRequest::KnnBatch(queries, size_t{5}));
  StatusOr<QueryResult> sknn =
      rig.svc->Query(QueryRequest::KnnBatch(queries, size_t{5}));
  ASSERT_TRUE(oknn.ok()) << oknn.status().ToString();
  ASSERT_TRUE(sknn.ok()) << sknn.status().ToString();
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(sknn->neighbors[q].size(), oknn->neighbors[q].size());
    for (size_t i = 0; i < oknn->neighbors[q].size(); ++i) {
      EXPECT_EQ(sknn->neighbors[q][i].id, oknn->neighbors[q][i].id);
      EXPECT_EQ(sknn->neighbors[q][i].dist, oknn->neighbors[q][i].dist);
    }
  }
}

// -- backoff determinism ------------------------------------------------------

TEST(BackoffTest, ScheduleDeterministicUnderFixedSeed) {
  BackoffPolicy policy{1.0, 64.0, 2.0};
  Backoff a(policy, 77);
  Backoff b(policy, 77);
  std::vector<double> da, db;
  for (int i = 0; i < 12; ++i) {
    da.push_back(a.NextDelayMs());
    db.push_back(b.NextDelayMs());
  }
  EXPECT_EQ(da, db) << "same seed must give a bit-identical schedule";

  // Capped exponential shape with jitter in [0.75, 1.25).
  for (int i = 0; i < 12; ++i) {
    const double nominal = std::min(64.0, 1.0 * (1 << i));
    EXPECT_GE(da[i], 0.75 * nominal) << "attempt " << i;
    EXPECT_LT(da[i], 1.25 * nominal) << "attempt " << i;
  }

  // Reset() replays the schedule exactly.
  a.Reset();
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(a.NextDelayMs(), da[i]) << "attempt " << i;
  }

  // A different seed jitters differently somewhere.
  Backoff c(policy, 78);
  bool any_diff = false;
  for (int i = 0; i < 12; ++i) {
    if (c.NextDelayMs() != da[i]) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// -- typed-error plumbing -----------------------------------------------------

TEST(RetryPolicyTest, ErrorClassificationAndParsing) {
  const Status quarantined =
      ShardUnavailableError(2, 12.5, "quarantined after a write fault");
  EXPECT_EQ(quarantined.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsRetryableError(quarantined, /*query=*/false));
  ASSERT_TRUE(ParseRetryAfterMs(quarantined).has_value());
  EXPECT_DOUBLE_EQ(*ParseRetryAfterMs(quarantined), 12.5);
  ASSERT_TRUE(ParseUnavailableShard(quarantined).has_value());
  EXPECT_EQ(*ParseUnavailableShard(quarantined), 2u);

  const Status pinned = ShardUnavailableError(
      1, -1, "pinned read-only by the circuit breaker");
  EXPECT_FALSE(IsRetryableError(pinned, /*query=*/false))
      << "pinned shards are terminal until manual reset";
  EXPECT_LT(*ParseRetryAfterMs(pinned), 0);

  EXPECT_TRUE(IsRetryableError(ResourceExhaustedError("queue full"), false));
  EXPECT_TRUE(IsRetryableError(
      DeadlineExceededError("request deadline expired while queued"), false));
  EXPECT_TRUE(IsRetryableError(
      DeadlineExceededError("request deadline expired before dispatch to "
                            "shard 1"),
      false));
  EXPECT_FALSE(IsRetryableError(
      DeadlineExceededError("request deadline expired mid-gather"), false))
      << "a mid-gather Apply expiry is not provably pre-dispatch";
  EXPECT_TRUE(IsRetryableError(
      DeadlineExceededError("request deadline expired mid-gather"), true))
      << "reads are idempotent";
  EXPECT_FALSE(IsRetryableError(FailedPreconditionError("closed"), false));
  EXPECT_FALSE(IsRetryableError(InvalidArgumentError("bad id"), false));

  const Status fence = SequenceFenceError(7, 5);
  EXPECT_TRUE(IsSequenceFenceMismatch(fence));
  EXPECT_FALSE(IsRetryableError(fence, false))
      << "fence mismatches route through the liveness probe, not blind "
         "retry";
}

// -- recovery happy path ------------------------------------------------------

TEST(SupervisorTest, RecoversFaultedShardInPlace) {
  Rig rig = MakeRig("recover");
  ASSERT_NE(rig.svc, nullptr);
  const uint32_t victim = 1;
  const ObjectId a = rig.svc->router().members(victim)[0];
  const ObjectId b = rig.svc->router().members(victim)[1];

  rig.fenv->Arm({FaultKind::kFailedSync, /*trigger=*/0, /*seed=*/kSeed});
  StatusOr<ApplyResult> faulted =
      rig.svc->Apply({UpdateOp::Remove(a), UpdateOp::Remove(b)});
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_EQ(faulted->shard_status[victim].code(), StatusCode::kUnavailable)
      << faulted->shard_status[victim].ToString();

  // Heal the env and let the supervisor close the loop.
  rig.fenv->Arm({FaultKind::kNone, 0, kSeed});
  ASSERT_TRUE(WaitFor([&] { return AllWritable(*rig.svc); }))
      << "service did not converge back to all-shards-writable";

  const ShardSupervisor::Stats stats = rig.svc->supervisor()->stats();
  EXPECT_GE(stats.faults_detected, 1u);
  EXPECT_GE(stats.recoveries, 1u);
  EXPECT_GT(stats.last_recovery_ms, 0);

  // The failed-sync batch reached the WAL before the sync fault, so
  // recovery replays it: the shard recovered PAST the acked prefix, to
  // a valid prefix of issued history (the PR 6 contract).
  EXPECT_FALSE(rig.svc->alive(a));
  EXPECT_FALSE(rig.svc->alive(b));
  EXPECT_EQ(rig.svc->sequences()[victim], 2u);

  // Writable again, and answers match a LinearScan oracle at the
  // recovered liveness.
  ASSERT_TRUE(rig.svc->Insert(a).ok());
  ASSERT_TRUE(rig.svc->Remove(a).ok());
  ExpectMatchesOracle(rig);
  for (const ShardHealthReport& h : rig.svc->health()) {
    EXPECT_EQ(h.health, ShardHealth::kHealthy) << ShardHealthName(h.health);
  }
}

// -- idempotent retries -------------------------------------------------------

TEST(SupervisorTest, RetriedApplyNeverDoubleAppliesAfterOrphanReplay) {
  Rig rig = MakeRig("idempotent");
  ASSERT_NE(rig.svc, nullptr);
  const uint32_t victim = 1;
  const ObjectId a = rig.svc->router().members(victim)[0];
  const ObjectId b = rig.svc->router().members(victim)[1];
  ASSERT_EQ(rig.svc->sequences()[victim], 0u);

  rig.fenv->Arm({FaultKind::kFailedSync, /*trigger=*/0, /*seed=*/kSeed});

  // Retry in a client thread; the orchestrator heals the env once the
  // fault has fired, and the supervisor recovers the shard mid-retry.
  RetryPolicy policy;
  policy.max_attempts = 200;
  policy.backoff = {1.0, 8.0, 2.0};
  policy.seed = kSeed;
  RetryStats rstats;
  StatusOr<ApplyResult> result = InternalError("not run");
  std::thread client([&] {
    result = ApplyWithRetry(*rig.svc, {UpdateOp::Remove(a), UpdateOp::Remove(b)},
                            policy, {}, &rstats);
  });
  ASSERT_TRUE(WaitFor([&] { return rig.fenv->triggered(); }));
  rig.fenv->Arm({FaultKind::kNone, 0, kSeed});
  client.join();

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->all_ok()) << result->Collapse().ToString();
  EXPECT_GE(rstats.attempts, 2u) << "first attempt must have failed";

  // Sequence-verified: the batch is applied EXACTLY once.  The orphaned
  // WAL record advanced the shard to sequence 2 during recovery; a
  // blind retry would have pushed it to 4 (or double-removed).  The
  // fence caught it as an idempotent skip instead.
  ASSERT_TRUE(WaitFor([&] { return AllWritable(*rig.svc); }));
  EXPECT_EQ(rig.svc->sequences()[victim], 2u);
  EXPECT_EQ(rstats.idempotent_skips, 1u);
  EXPECT_FALSE(rig.svc->alive(a));
  EXPECT_FALSE(rig.svc->alive(b));
  ExpectMatchesOracle(rig);
}

// -- hot swap vs pinned views -------------------------------------------------

TEST(SupervisorTest, HotSwapPreservesPinnedReadViews) {
  Rig rig = MakeRig("pinned_views");
  ASSERT_NE(rig.svc, nullptr);
  const uint32_t victim = 0;
  const ObjectId a = rig.svc->router().members(victim)[0];

  StatusOr<ShardedService::ReadView> bundle = rig.svc->GetReadView();
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  const std::vector<uint64_t> pinned_seqs = bundle->sequences();
  Rng rng(kSeed ^ 0x77);
  std::vector<ObjectView> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(rig.data.view(rng() % rig.data.size()));
  }
  StatusOr<QueryResult> before =
      bundle->Query(QueryRequest::KnnBatch(queries, size_t{4}));
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  rig.fenv->Arm({FaultKind::kFailedSync, /*trigger=*/0, /*seed=*/kSeed});
  StatusOr<ApplyResult> faulted = rig.svc->Apply({UpdateOp::Remove(a)});
  ASSERT_TRUE(faulted.ok());
  EXPECT_FALSE(faulted->all_ok());
  rig.fenv->Arm({FaultKind::kNone, 0, kSeed});
  ASSERT_TRUE(WaitFor([&] { return AllWritable(*rig.svc); }));

  // The bundle predates the fault; the hot-swap must not invalidate it.
  EXPECT_EQ(bundle->sequences(), pinned_seqs);
  StatusOr<QueryResult> after =
      bundle->Query(QueryRequest::KnnBatch(queries, size_t{4}));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(after->neighbors[q].size(), before->neighbors[q].size());
    for (size_t i = 0; i < before->neighbors[q].size(); ++i) {
      EXPECT_EQ(after->neighbors[q][i].id, before->neighbors[q][i].id);
      EXPECT_EQ(after->neighbors[q][i].dist, before->neighbors[q][i].dist);
    }
  }
  // And the service itself moved on (the orphaned remove replayed).
  EXPECT_FALSE(rig.svc->alive(a));
  EXPECT_TRUE(bundle->alive(a)) << "pinned view must predate the fault";
}

// -- circuit breaker + manual reset -------------------------------------------

TEST(SupervisorTest, CircuitBreakerTripsAndManualResetRecovers) {
  SupervisorOptions sup = FastSupervisor();
  sup.max_recovery_attempts = 2;
  Rig rig = MakeRig("breaker", sup);
  ASSERT_NE(rig.svc, nullptr);
  const uint32_t victim = 2;
  const ObjectId a = rig.svc->router().members(victim)[0];

  // A torn write crashes the whole fault env: every later mutation --
  // including the supervisor's OpenDurable attempts -- fails until the
  // env is re-armed, so the breaker trips deterministically.  Only the
  // victim shard sees writes, so only it quarantines.
  rig.fenv->Arm({FaultKind::kTornWrite, /*trigger=*/0, /*seed=*/kSeed});
  StatusOr<ApplyResult> faulted = rig.svc->Apply({UpdateOp::Remove(a)});
  ASSERT_TRUE(faulted.ok());
  EXPECT_FALSE(faulted->all_ok());

  ASSERT_TRUE(WaitFor([&] {
    return rig.svc->health()[victim].health == ShardHealth::kPinnedReadOnly;
  })) << "circuit breaker never tripped";

  const ShardHealthReport pinned = rig.svc->health()[victim];
  EXPECT_EQ(pinned.attempts, 2u);
  EXPECT_LT(pinned.retry_after_ms, 0);
  EXPECT_FALSE(pinned.last_error.ok());
  EXPECT_GE(rig.svc->supervisor()->stats().breaker_trips, 1u);

  // Pinned: writes are terminal typed kUnavailable naming the shard...
  Status refused = rig.svc->Remove(a);
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable) << refused.ToString();
  EXPECT_EQ(ParseUnavailableShard(refused).value_or(999), victim);
  EXPECT_LT(ParseRetryAfterMs(refused).value_or(0), 0);
  EXPECT_FALSE(IsRetryableError(refused, /*query=*/false));
  // ...and reads still flow from the stale quarantine view.
  EXPECT_TRUE(rig.svc->alive(a));
  StatusOr<QueryResult> read = rig.svc->Query(
      QueryRequest::Knn(rig.data.view(a), size_t{3}));
  EXPECT_TRUE(read.ok()) << read.status().ToString();

  // Resetting while the env is still broken restarts the attempt
  // counter but cannot heal; the breaker trips again.
  ASSERT_TRUE(rig.svc->ResetShard(victim).ok());
  ASSERT_TRUE(WaitFor([&] {
    return rig.svc->health()[victim].health == ShardHealth::kPinnedReadOnly;
  }));

  // Heal the env, reset again: the shard comes back for real.
  rig.fenv->Arm({FaultKind::kNone, 0, kSeed});
  ASSERT_TRUE(rig.svc->ResetShard(victim).ok());
  ASSERT_TRUE(WaitFor([&] { return AllWritable(*rig.svc); }))
      << "manual reset did not recover the shard";
  // The torn record was truncated on replay: the remove never
  // committed, and the shard is writable from its pre-batch state.
  EXPECT_TRUE(rig.svc->alive(a));
  EXPECT_TRUE(rig.svc->Remove(a).ok());
  ExpectMatchesOracle(rig);

  // ResetShard contract checks.
  EXPECT_EQ(rig.svc->ResetShard(victim).code(),
            StatusCode::kFailedPrecondition)
      << "healthy shard has nothing to reset";
  EXPECT_EQ(rig.svc->ResetShard(99).code(), StatusCode::kInvalidArgument);
}

// -- quarantine read/write contract -------------------------------------------

TEST(SupervisorTest, QuarantinedShardServesStaleReadsAndTypedWrites) {
  SupervisorOptions sup = FastSupervisor();
  sup.initial_backoff_ms = 60000;  // park recovery far in the future
  sup.max_backoff_ms = 60000;
  // An in-memory table and a disk index: every index pins a stale view.
  const std::pair<const char*, const char*> cases[] = {
      {"LAESA", "quarantine_laesa"}, {"SPB-tree", "quarantine_spb"}};
  for (const auto& [index, dir] : cases) {
    SCOPED_TRACE(index);
    Rig rig = MakeRig(dir, sup, /*n=*/120, index);
    ASSERT_NE(rig.svc, nullptr);
    const uint32_t victim = 1;
    const ObjectId a = rig.svc->router().members(victim)[0];
    const ObjectId other = rig.svc->router().members(0)[0];

    rig.fenv->Arm({FaultKind::kFailedSync, /*trigger=*/0, /*seed=*/kSeed});
    StatusOr<ApplyResult> faulted = rig.svc->Apply({UpdateOp::Remove(a)});
    ASSERT_TRUE(faulted.ok());
    EXPECT_FALSE(faulted->all_ok());
    rig.fenv->Arm({FaultKind::kNone, 0, kSeed});

    ASSERT_TRUE(WaitFor([&] {
      return rig.svc->health()[victim].health == ShardHealth::kQuarantined;
    }));

    // Writes: typed kUnavailable carrying shard id + a positive
    // retry-after hint (recovery is parked an hour away).
    Status refused = rig.svc->Remove(a);
    ASSERT_EQ(refused.code(), StatusCode::kUnavailable) << refused.ToString();
    EXPECT_EQ(ParseUnavailableShard(refused).value_or(999), victim);
    EXPECT_GT(ParseRetryAfterMs(refused).value_or(-1), 0);
    EXPECT_TRUE(IsRetryableError(refused, /*query=*/false));

    // Reads: the stale view answers (the un-acked remove is not visible
    // there), and a fresh ReadView bundle still assembles.
    EXPECT_TRUE(rig.svc->alive(a));
    StatusOr<QueryResult> read =
        rig.svc->Query(QueryRequest::Knn(rig.data.view(a), size_t{3}));
    EXPECT_TRUE(read.ok()) << read.status().ToString();
    StatusOr<ShardedService::ReadView> bundle = rig.svc->GetReadView();
    EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();

    // Healthy shards are untouched by the quarantine.
    EXPECT_TRUE(rig.svc->Remove(other).ok());

    // Closing a service with a quarantined shard must be clean.
    EXPECT_TRUE(rig.svc->Close().ok());
  }
}

// -- recovery racing Close ----------------------------------------------------

TEST(SupervisorTest, RecoveryRacingCloseDoesNotDeadlockOrCrash) {
  // Sweep sleep offsets so Close lands before, during, and after the
  // recovery attempt across runs.
  const uint32_t kRounds = 8;
  for (uint32_t round = 0; round < kRounds; ++round) {
    Rig rig = MakeRig("close_race_" + std::to_string(round));
    ASSERT_NE(rig.svc, nullptr);
    const uint32_t victim = round % 3;
    const ObjectId a = rig.svc->router().members(victim)[0];

    rig.fenv->Arm({FaultKind::kFailedSync, /*trigger=*/0, /*seed=*/kSeed});
    StatusOr<ApplyResult> faulted = rig.svc->Apply({UpdateOp::Remove(a)});
    ASSERT_TRUE(faulted.ok());
    rig.fenv->Arm({FaultKind::kNone, 0, kSeed});

    std::this_thread::sleep_for(std::chrono::microseconds(137 * round * round));
    // Close while the supervisor may be mid-quarantine or mid-recovery:
    // Close stops the supervisor FIRST, so whatever instance ends up in
    // the slot is closed exactly once, and the shard directory LOCK is
    // always released.
    EXPECT_TRUE(rig.svc->Close().ok());
    rig.svc.reset();

    // The directory must reopen cleanly -- no leaked LOCK, no torn
    // meta, a valid per-shard WAL/checkpoint chain.
    DurabilityOptions dopts;
    dopts.env = rig.fenv.get();
    ServiceOptions sopts;
    sopts.self_heal = true;
    sopts.supervisor = FastSupervisor();
    auto reopened = ShardedService::OpenDurable(rig.dir, sopts, dopts);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_TRUE(AllWritable(**reopened));
    EXPECT_TRUE((*reopened)->Close().ok());
  }
}

}  // namespace
}  // namespace pmi
