// Long-running multi-client driver for the sharded service layer
// (src/service/sharded_service.h): M concurrent client threads sustain
// mixed read/write traffic against one pmi::ShardedService and the
// driver reports QPS, shard balance, queue depth, and rejection rate.
//
// Each client owns a disjoint id stripe (id % clients == c) for its
// update toggles, so every client can verify its own liveness mirror
// against the service at the end -- a correctness gate, not just a load
// generator.  kResourceExhausted and kDeadlineExceeded are expected
// backpressure under load and are counted; any OTHER failure (or a
// final mirror mismatch) exits non-zero.  Built to run under
// ThreadSanitizer in the service-stress CI job.
//
// `--chaos` switches to the self-healing demonstration: the service is
// built DURABLE on a fault-injecting Env with the shard supervisor on,
// clients go through the retry layer (ApplyWithRetry / QueryWithRetry),
// and mid-run the driver pulls the power on one write (torn-write
// fault).  The run then reports the time from fault detection to
// all-shards-writable plus the supervisor's counters, and exits
// non-zero if any client saw an untyped error, a mirror check failed,
// or the service never healed.
//
// Knobs (harness env-var convention):
//   PMI_STRESS_THREADS   client threads (default 8)
//   PMI_DRIVER_N         dataset cardinality (default 20000)
//   PMI_DRIVER_SHARDS    shard count (default 4)
//   PMI_DRIVER_WORKERS   requests running at once (default 4)
//   PMI_DRIVER_QUEUE     requests waiting for a turn (default 64)
//   PMI_DRIVER_ROUNDS    rounds per client (default 200)
//   PMI_FAULT_SEED       --chaos only: fault plan seed (default 20260809)

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "src/core/rng.h"
#include "src/data/distribution.h"
#include "src/data/generators.h"
#include "src/harness/workload.h"
#include "src/service/retry.h"
#include "src/service/sharded_service.h"
#include "src/storage/fault_env.h"

namespace pmi {
namespace {

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

bool AllWritable(const ShardedService& svc) {
  for (const Status& s : svc.write_statuses()) {
    if (!s.ok()) return false;
  }
  return true;
}

int RunChaos(uint32_t clients, uint32_t n, uint32_t shards, uint32_t workers,
             uint32_t queue, uint32_t rounds) {
  const uint64_t seed = EnvU32("PMI_FAULT_SEED", 20260809);
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, n, 7);
  const Dataset data = bd.data;

  const std::string dir =
      "/tmp/pmi_driver_chaos_" + std::to_string(::getpid());
  RemoveTree(dir);
  FaultInjectingEnv fenv(Env::Default());
  DurabilityOptions dopts;
  dopts.env = &fenv;

  ServiceOptions sopts;
  sopts.num_shards = shards;
  sopts.workers = workers;
  sopts.max_queue = queue;
  sopts.self_heal = true;
  sopts.supervisor.poll_interval_ms = 1;
  sopts.supervisor.initial_backoff_ms = 1;
  sopts.supervisor.max_backoff_ms = 16;
  sopts.supervisor.max_recovery_attempts = 8;
  sopts.supervisor.seed = seed;

  auto svc_or = ShardedService::CreateDurable(
      MetricDBConfig().WithMetric("Linf").WithIndex("LAESA").WithPivots(4),
      bd.data, dir, sopts, dopts);
  if (!svc_or.ok()) {
    std::fprintf(stderr, "durable service create failed: %s\n",
                 svc_or.status().ToString().c_str());
    return 1;
  }
  ShardedService& svc = **svc_or;
  std::printf("chaos service: n=%u shards=%u workers=%u queue=%u  "
              "clients=%u rounds=%u  dir=%s\n",
              n, shards, workers, queue, clients, rounds, dir.c_str());

  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.budget_ms = 4000;
  policy.seed = seed ^ 0xc11e47;

  std::atomic<uint64_t> queries_done{0};
  std::atomic<uint64_t> applies_done{0};
  std::atomic<uint64_t> typed_failures{0};
  std::atomic<uint64_t> untyped_failures{0};
  std::atomic<uint64_t> retry_attempts{0};
  std::atomic<uint64_t> idempotent_skips{0};
  std::atomic<uint64_t> mirror_mismatches{0};
  std::atomic<uint32_t> clients_live{clients};

  auto is_typed = [](const Status& s) {
    switch (s.code()) {
      case StatusCode::kUnavailable:
      case StatusCode::kDeadlineExceeded:
      case StatusCode::kResourceExhausted:
        return true;
      default:
        return false;
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed + c);
      std::vector<ObjectId> stripe;
      for (ObjectId id = c; id < n; id += clients) stripe.push_back(id);
      std::vector<uint8_t> live(stripe.size(), 1);
      // Slots whose batch failed terminally: a torn write may have
      // committed a durable prefix that recovery later replays, so the
      // mirror can no longer vouch for them.
      std::vector<uint8_t> unknown(stripe.size(), 0);

      for (uint32_t round = 0; round < rounds; ++round) {
        if (rng() % 10 < 7) {
          std::vector<ObjectView> qs;
          for (int i = 0; i < 4; ++i) qs.push_back(data.view(rng() % n));
          RetryStats rs;
          StatusOr<QueryResult> r = QueryWithRetry(
              svc, QueryRequest::KnnBatch(qs, size_t{8}), policy, {}, &rs);
          retry_attempts.fetch_add(rs.attempts, std::memory_order_relaxed);
          if (r.ok()) {
            queries_done.fetch_add(qs.size(), std::memory_order_relaxed);
          } else if (is_typed(r.status())) {
            typed_failures.fetch_add(1, std::memory_order_relaxed);
          } else {
            untyped_failures.fetch_add(1, std::memory_order_relaxed);
            std::fprintf(stderr, "client %u untyped read: %s\n", c,
                         r.status().ToString().c_str());
          }
        } else {
          // One op per distinct slot so liveness can attribute a
          // partial orphan (the retry layer's exactly-once contract).
          std::vector<UpdateOp> ops;
          std::vector<size_t> touched;
          for (int i = 0; i < 8; ++i) {
            size_t slot = (rng() + i * 7919) % stripe.size();
            bool dup = false;
            for (size_t t : touched) dup = dup || t == slot;
            if (dup) continue;
            touched.push_back(slot);
            ops.push_back(live[slot] != 0 ? UpdateOp::Remove(stripe[slot])
                                          : UpdateOp::Insert(stripe[slot]));
            live[slot] ^= 1;
          }
          RetryStats rs;
          StatusOr<ApplyResult> a = ApplyWithRetry(svc, ops, policy, {}, &rs);
          retry_attempts.fetch_add(rs.attempts, std::memory_order_relaxed);
          idempotent_skips.fetch_add(rs.idempotent_skips,
                                     std::memory_order_relaxed);
          const Status st = a.ok() ? a->Collapse() : a.status();
          if (st.ok()) {
            applies_done.fetch_add(1, std::memory_order_relaxed);
          } else {
            // Commit is atomic per shard, not across shards: only ops
            // whose owning shard refused roll back (and those can no
            // longer be vouched for -- a torn prefix may land later
            // via recovery replay).
            for (size_t k = touched.size(); k-- > 0;) {
              const Status& ss =
                  a.ok() ? a->shard_status[svc.router().shard_of(ops[k].id)]
                         : a.status();
              if (ss.ok()) continue;
              live[touched[k]] ^= 1;
              unknown[touched[k]] = 1;
            }
            if (is_typed(st)) {
              typed_failures.fetch_add(1, std::memory_order_relaxed);
            } else {
              untyped_failures.fetch_add(1, std::memory_order_relaxed);
              std::fprintf(stderr, "client %u untyped apply: %s\n", c,
                           st.ToString().c_str());
            }
          }
        }
      }
      --clients_live;

      // Mirror gate over every id whose state the client still vouches
      // for.  Wait for convergence first -- a quarantined shard answers
      // from its stale pinned view.
      while (!AllWritable(svc) &&
             std::chrono::steady_clock::now() - t0 <
                 std::chrono::seconds(30)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      for (size_t slot = 0; slot < stripe.size(); ++slot) {
        if (unknown[slot] != 0) continue;
        if (svc.alive(stripe[slot]) != (live[slot] != 0)) {
          mirror_mismatches.fetch_add(1, std::memory_order_relaxed);
          std::fprintf(stderr, "client %u mirror mismatch at id %u\n", c,
                       stripe[slot]);
        }
      }
    });
  }

  // Pull the power mid-run: arm a torn write a few mutations out, wait
  // for it to fire, hold the powered-off window briefly, restore.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fenv.Arm({FaultKind::kTornWrite, 3, seed});
  const auto fault_armed = std::chrono::steady_clock::now();
  while (!fenv.triggered() && clients_live.load() > 0 &&
         std::chrono::steady_clock::now() - fault_armed <
             std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool fired = fenv.triggered();
  const auto t_fault = std::chrono::steady_clock::now();
  if (fired) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  fenv.Arm({FaultKind::kNone, 0, 1});

  double recovery_ms = -1;
  if (fired) {
    while (!AllWritable(svc) &&
           std::chrono::steady_clock::now() - t_fault <
               std::chrono::seconds(30)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (AllWritable(svc)) {
      recovery_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t_fault)
                        .count();
    }
  }

  for (std::thread& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const ShardSupervisor::Stats sup = svc.supervisor()->stats();
  std::printf("\nelapsed %.2fs  reads %llu  apply batches %llu  "
              "typed failures %llu  retry attempts %llu  "
              "idempotent skips %llu\n",
              elapsed, (unsigned long long)queries_done.load(),
              (unsigned long long)applies_done.load(),
              (unsigned long long)typed_failures.load(),
              (unsigned long long)retry_attempts.load(),
              (unsigned long long)idempotent_skips.load());
  std::printf("fault %s  time-to-recovery %.1f ms  supervisor: "
              "faults %llu  recoveries %llu  failed attempts %llu  "
              "breaker trips %llu\n",
              fired ? "fired" : "did not fire (run too short)", recovery_ms,
              (unsigned long long)sup.faults_detected,
              (unsigned long long)sup.recoveries,
              (unsigned long long)sup.failed_attempts,
              (unsigned long long)sup.breaker_trips);

  const bool healed = !fired || recovery_ms >= 0;
  bool ok = untyped_failures.load() == 0 && mirror_mismatches.load() == 0 &&
            healed;
  if (!ok) {
    std::fprintf(stderr,
                 "FAILED: %llu untyped, %llu mirror mismatches, healed=%d\n",
                 (unsigned long long)untyped_failures.load(),
                 (unsigned long long)mirror_mismatches.load(), int(healed));
  } else {
    std::printf("self-heal verified; all failures typed; mirrors clean\n");
  }
  Status closed = svc.Close();
  if (!closed.ok()) {
    std::fprintf(stderr, "close failed: %s\n", closed.ToString().c_str());
    ok = false;
  }
  RemoveTree(dir);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace pmi

int main(int argc, char** argv) {
  using namespace pmi;

  bool chaos = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chaos") == 0) chaos = true;
  }

  const uint32_t clients = std::max(EnvU32("PMI_STRESS_THREADS", 8), 1u);
  const uint32_t n = std::max(EnvU32("PMI_DRIVER_N", 20000), 64u);
  const uint32_t shards = std::max(EnvU32("PMI_DRIVER_SHARDS", 4), 1u);
  const uint32_t workers = std::max(EnvU32("PMI_DRIVER_WORKERS", 4), 1u);
  const uint32_t queue = std::max(EnvU32("PMI_DRIVER_QUEUE", 64), 1u);
  const uint32_t rounds = std::max(EnvU32("PMI_DRIVER_ROUNDS", 200), 1u);

  if (chaos) return RunChaos(clients, n, shards, workers, queue, rounds);

  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, n, 7);
  DistanceDistribution dist = EstimateDistribution(bd.data, *bd.metric);
  const double radius = dist.RadiusForSelectivity(0.01);

  ServiceOptions sopts;
  sopts.num_shards = shards;
  sopts.workers = workers;
  sopts.max_queue = queue;
  auto svc_or = ShardedService::Create(
      MetricDBConfig().WithMetric("Linf").WithIndex("LAESA").WithPivots(4),
      bd.data, sopts);
  if (!svc_or.ok()) {
    std::fprintf(stderr, "service create failed: %s\n",
                 svc_or.status().ToString().c_str());
    return 1;
  }
  ShardedService& svc = **svc_or;
  std::printf("service: n=%u shards=%u workers=%u queue=%u  "
              "clients=%u rounds=%u\n",
              n, shards, workers, queue, clients, rounds);

  std::atomic<uint64_t> queries_done{0};
  std::atomic<uint64_t> applies_done{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> deadline_expired{0};
  std::atomic<uint64_t> untyped_failures{0};
  std::atomic<uint64_t> mirror_mismatches{0};

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(0x5eed + c);
      // This client's disjoint toggle stripe and its liveness mirror.
      std::vector<ObjectId> stripe;
      for (ObjectId id = c; id < n; id += clients) stripe.push_back(id);
      std::vector<uint8_t> live(stripe.size(), 1);

      auto count_failure = [&](const Status& s) {
        if (s.code() == StatusCode::kResourceExhausted) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        } else if (s.code() == StatusCode::kDeadlineExceeded) {
          deadline_expired.fetch_add(1, std::memory_order_relaxed);
        } else {
          untyped_failures.fetch_add(1, std::memory_order_relaxed);
          std::fprintf(stderr, "client %u: %s\n", c, s.ToString().c_str());
        }
      };

      for (uint32_t round = 0; round < rounds; ++round) {
        if (rng() % 10 < 7) {
          // Read: a 4-query batch, alternating MRQ / MkNN.
          std::vector<ObjectView> qs;
          for (int i = 0; i < 4; ++i) qs.push_back(bd.data.view(rng() % n));
          StatusOr<QueryResult> r =
              (round % 2 == 0)
                  ? svc.Query(QueryRequest::RangeBatch(qs, radius))
                  : svc.Query(QueryRequest::KnnBatch(qs, size_t{8}));
          if (r.ok()) {
            queries_done.fetch_add(qs.size(), std::memory_order_relaxed);
          } else {
            count_failure(r.status());
          }
        } else {
          // Write: a batch of 8 toggles from this client's own stripe.
          std::vector<UpdateOp> ops;
          std::vector<size_t> touched;
          for (int i = 0; i < 8; ++i) {
            size_t slot = rng() % stripe.size();
            touched.push_back(slot);
            ops.push_back(live[slot] != 0 ? UpdateOp::Remove(stripe[slot])
                                          : UpdateOp::Insert(stripe[slot]));
            live[slot] ^= 1;
          }
          StatusOr<ApplyResult> a = svc.Apply(ops);
          if (a.ok() && a->all_ok()) {
            applies_done.fetch_add(1, std::memory_order_relaxed);
          } else {
            // Whole batch refused: roll the mirror back (reverse order
            // so double-toggled slots rewind correctly).
            for (auto it = touched.rbegin(); it != touched.rend(); ++it) {
              live[*it] ^= 1;
            }
            count_failure(a.ok() ? a->Collapse() : a.status());
          }
        }
      }

      // Correctness gate: the service agrees with this client's mirror
      // on every id the client owns (nobody else touches the stripe).
      for (size_t slot = 0; slot < stripe.size(); ++slot) {
        if (svc.alive(stripe[slot]) != (live[slot] != 0)) {
          mirror_mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const ShardedService::ServiceStats stats = svc.stats();
  const uint64_t issued = stats.admission.accepted + stats.admission.rejected;
  std::printf("\nelapsed %.2fs  read QPS %.0f  apply batches/s %.0f\n",
              elapsed, queries_done.load() / elapsed,
              applies_done.load() / elapsed);
  std::printf("admission: accepted %llu  rejected %llu (%.1f%% of %llu)  "
              "deadline-expired %llu  peak queue depth %u\n",
              (unsigned long long)stats.admission.accepted,
              (unsigned long long)stats.admission.rejected,
              issued > 0 ? 100.0 * stats.admission.rejected / issued : 0.0,
              (unsigned long long)issued,
              (unsigned long long)(stats.deadline_expired +
                                   deadline_expired.load()),
              stats.admission.peak_depth);

  std::vector<uint32_t> sizes = svc.shard_sizes();
  std::vector<uint64_t> seqs = svc.sequences();
  uint32_t min_size = sizes[0];
  uint32_t max_size = sizes[0];
  std::printf("shard balance:");
  for (uint32_t s = 0; s < sizes.size(); ++s) {
    std::printf(" [%u] %u objs seq %llu", s, sizes[s],
                (unsigned long long)seqs[s]);
    min_size = std::min(min_size, sizes[s]);
    max_size = std::max(max_size, sizes[s]);
  }
  std::printf("  (max/min %.2f)\n", double(max_size) / double(min_size));

  bool ok = untyped_failures.load() == 0 && mirror_mismatches.load() == 0;
  if (!ok) {
    std::fprintf(stderr,
                 "FAILED: %llu untyped failures, %llu mirror mismatches\n",
                 (unsigned long long)untyped_failures.load(),
                 (unsigned long long)mirror_mismatches.load());
  } else {
    std::printf("all client mirrors verified; all failures typed\n");
  }
  Status closed = svc.Close();
  if (!closed.ok()) {
    std::fprintf(stderr, "close failed: %s\n", closed.ToString().c_str());
    return 1;
  }
  return ok ? 0 : 1;
}
