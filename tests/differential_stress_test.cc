// Randomized differential stress harness: the cheap insurance that lets
// future PRs keep rewriting the query hot path aggressively.
//
// A seeded RNG generates one fixed script of ~2k interleaved operations
// (MRQ / MkNN / remove / insert over a Synthetic workload).  A LinearScan
// oracle replays the script once to record the expected answer and its
// brute-force compdists for every query op; every in-memory index of the
// registry then replays the identical script under each supported
// PMI_SIMD dispatch level x {1, 4} threads and must
//   - return exactly the oracle's MRQ result sets and MkNN distances,
//   - stay within the pruning compdist bound (oracle cost + a fixed
//     allowance for pivot mappings / tree-node pivots), and
//   - keep per-query compdists monotone in the radius (a larger search
//     region can only examine more objects -- the Lemma-1 pruning
//     direction), probed on a sample of queries.
// The op count scales with PMI_STRESS_OPS (default 2000); the CI stress
// job runs 5x under ASan.
//
// A smaller Words (edit distance) script covers the string metric's
// banded verification kernels under interleaved updates.

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/linear_scan.h"
#include "src/core/pivot_selection.h"
#include "src/core/simd.h"
#include "src/core/thread_pool.h"
#include "src/data/distribution.h"
#include "src/data/generators.h"
#include "src/harness/registry.h"
#include "src/harness/workload.h"

namespace pmi {
namespace {

constexpr uint64_t kScriptSeed = 20260729;
// Pivot mappings, EPT pools (m*l <= 64 here), and tree-node pivots all
// cost distance computations the brute-force oracle does not pay; at
// these cardinalities none of them exceeds this allowance.
constexpr uint64_t kCompdistAllowance = 256;

struct Op {
  enum Kind { kMrq, kKnn, kRemove, kInsert };
  Kind kind;
  uint32_t target = 0;  // query object id, or the update victim
  double r = 0;
  uint32_t k = 0;
};

struct Script {
  std::vector<Op> ops;
  uint32_t num_queries = 0;  // number of kMrq + kKnn ops
};

/// Generates the op mix.  The generator tracks liveness itself so every
/// remove targets a live object and every insert a removed one -- the
/// script is valid by construction and identical for every replayer.
Script MakeScript(uint32_t n, uint32_t num_ops,
                  const DistanceDistribution& distribution, uint64_t seed) {
  Script script;
  Rng rng(seed);
  std::vector<bool> live(n, true);
  std::vector<uint32_t> removed;
  uint32_t live_count = n;
  const double radii[] = {
      0.0,
      distribution.RadiusForSelectivity(0.002),
      distribution.RadiusForSelectivity(0.01),
      distribution.RadiusForSelectivity(0.05),
      distribution.RadiusForSelectivity(0.2),
  };
  const uint32_t ks[] = {1, 3, 10, 40};
  for (uint32_t i = 0; i < num_ops; ++i) {
    Op op;
    const uint32_t roll = rng() % 100;
    if (roll < 55) {
      op.kind = Op::kMrq;
      op.target = rng() % n;
      op.r = radii[rng() % (sizeof(radii) / sizeof(radii[0]))];
      ++script.num_queries;
    } else if (roll < 80) {
      op.kind = Op::kKnn;
      op.target = rng() % n;
      op.k = ks[rng() % (sizeof(ks) / sizeof(ks[0]))];
      ++script.num_queries;
    } else if (roll < 90 && live_count > n / 2) {
      op.kind = Op::kRemove;
      uint32_t victim = rng() % n;
      while (!live[victim]) victim = (victim + 1) % n;
      op.target = victim;
      live[victim] = false;
      removed.push_back(victim);
      --live_count;
    } else if (!removed.empty()) {
      op.kind = Op::kInsert;
      const uint32_t j = rng() % removed.size();
      op.target = removed[j];
      removed[j] = removed.back();
      removed.pop_back();
      live[op.target] = true;
      ++live_count;
    } else {  // nothing to insert yet: fall back to a query
      op.kind = Op::kMrq;
      op.target = rng() % n;
      op.r = radii[rng() % (sizeof(radii) / sizeof(radii[0]))];
      ++script.num_queries;
    }
    script.ops.push_back(op);
  }
  return script;
}

/// What the oracle saw for one query op.
struct Expected {
  std::vector<ObjectId> mrq;  // sorted; kMrq only
  std::vector<double> knn;    // ascending distances; kKnn only
  uint64_t compdists = 0;
};

std::vector<Expected> ReplayOracle(const Script& script, const Dataset& data,
                                   const Metric& metric,
                                   const PivotSet& pivots) {
  LinearScan oracle;
  oracle.Build(data, metric, pivots);
  std::vector<Expected> expected;
  expected.reserve(script.num_queries);
  for (const Op& op : script.ops) {
    switch (op.kind) {
      case Op::kMrq: {
        Expected e;
        e.compdists =
            oracle.RangeQuery(data.view(op.target), op.r, &e.mrq)
                .dist_computations;
        std::sort(e.mrq.begin(), e.mrq.end());
        expected.push_back(std::move(e));
        break;
      }
      case Op::kKnn: {
        Expected e;
        std::vector<Neighbor> nn;
        e.compdists = oracle.KnnQuery(data.view(op.target), op.k, &nn)
                          .dist_computations;
        for (const Neighbor& x : nn) e.knn.push_back(x.dist);
        expected.push_back(std::move(e));
        break;
      }
      case Op::kRemove:
        oracle.Remove(op.target);
        break;
      case Op::kInsert:
        oracle.Insert(op.target);
        break;
    }
  }
  return expected;
}

/// Replays (a prefix of) the script on a freshly built `index`, checking
/// every query op against the oracle record.
void ReplayAndCheck(MetricIndex* index, const Script& script,
                    const std::vector<Expected>& expected,
                    const Dataset& data, const Metric& metric,
                    const PivotSet& pivots, const std::string& config,
                    size_t max_ops = SIZE_MAX) {
  index->Build(data, metric, pivots);
  size_t qi = 0;
  size_t op_index = 0;
  for (const Op& op : script.ops) {
    if (op_index >= max_ops) break;
    SCOPED_TRACE(index->name() + " [" + config + "] op " +
                 std::to_string(op_index));
    switch (op.kind) {
      case Op::kMrq: {
        std::vector<ObjectId> got;
        OpStats s = index->RangeQuery(data.view(op.target), op.r, &got);
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, expected[qi].mrq);
        EXPECT_LE(s.dist_computations,
                  expected[qi].compdists + kCompdistAllowance);
        // Monotone compdist probe: widening the region can only examine
        // more objects.  Sampled -- three extra scans per probe.
        if (op_index % 64 == 0) {
          ObjectView q = data.view(op.target);
          uint64_t prev = s.dist_computations;
          for (double r2 : {op.r * 1.5 + 1.0, op.r * 2.25 + 2.0}) {
            std::vector<ObjectId> wider;
            uint64_t cd =
                index->RangeQuery(q, r2, &wider).dist_computations;
            EXPECT_GE(cd, prev) << "compdists shrank as r grew to " << r2;
            prev = cd;
          }
        }
        ++qi;
        break;
      }
      case Op::kKnn: {
        std::vector<Neighbor> nn;
        OpStats s = index->KnnQuery(data.view(op.target), op.k, &nn);
        ASSERT_EQ(nn.size(), expected[qi].knn.size());
        for (size_t j = 0; j < nn.size(); ++j) {
          // Distance ties make ids ambiguous; the sorted distance
          // profile must match the oracle exactly.
          EXPECT_EQ(nn[j].dist, expected[qi].knn[j]) << "rank " << j;
        }
        EXPECT_LE(s.dist_computations,
                  expected[qi].compdists + kCompdistAllowance);
        ++qi;
        break;
      }
      case Op::kRemove:
        index->Remove(op.target);
        break;
      case Op::kInsert:
        index->Insert(op.target);
        break;
    }
    if (::testing::Test::HasFatalFailure()) return;
    ++op_index;
  }
  if (max_ops >= script.ops.size()) {
    EXPECT_EQ(qi, expected.size());
  }
}

/// Replay budget per index.  Every in-memory index replays the full
/// script (FQA included -- its quantized-window scan binary-searches to
/// each distance value actually present instead of probing every
/// integer in the window, so stress radii no longer blow it up); the
/// PivotTable-backed table indexes -- the only query paths that touch
/// the SIMD dispatch or the thread pool -- additionally sweep every
/// PMI_SIMD level x {1, 4} threads.
struct ReplayPlan {
  std::string name;
  bool sweep_configs = false;
  size_t max_ops = SIZE_MAX;
};

std::vector<ReplayPlan> InMemoryReplayPlans(size_t) {
  std::vector<ReplayPlan> plans;
  for (const IndexSpec& spec : AllIndexSpecs()) {
    if (spec.uses_disk) continue;
    ReplayPlan plan;
    plan.name = spec.name;
    plan.sweep_configs = spec.name == "LAESA" || spec.name == "EPT" ||
                         spec.name == "EPT*";
    plans.push_back(std::move(plan));
  }
  return plans;
}

TEST(DifferentialStressTest, InMemoryIndexesMatchOracleAcrossConfigs) {
  const char* inherited_env = getenv("PMI_SIMD");
  const std::string inherited = inherited_env ? inherited_env : "";
  const bool had_inherited = inherited_env != nullptr;

  const uint32_t kN = 400;
  const uint32_t num_ops = std::max(EnvU32("PMI_STRESS_OPS", 2000), 64u);
  ThreadPool::SetGlobalThreads(1);
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, kN, 2026);
  PivotSelectionOptions po;
  po.sample_size = 300;
  po.pair_sample = 150;
  PivotSet pivots = SelectSharedPivots(bd.data, *bd.metric, 4, po);
  DistanceDistribution distribution =
      EstimateDistribution(bd.data, *bd.metric, 3000, 3);
  const Script script = MakeScript(kN, num_ops, distribution, kScriptSeed);
  const std::vector<Expected> expected =
      ReplayOracle(script, bd.data, *bd.metric, pivots);

  IndexOptions opts;
  opts.seed = 7;
  for (const ReplayPlan& plan : InMemoryReplayPlans(num_ops)) {
    if (!plan.sweep_configs) {
      auto index = MakeIndex(plan.name, opts);
      ReplayAndCheck(index.get(), script, expected, bd.data, *bd.metric,
                     pivots, "default", plan.max_ops);
      if (::testing::Test::HasFatalFailure()) break;
      continue;
    }
    for (SimdLevel level : SupportedSimdLevels()) {
      ASSERT_EQ(setenv("PMI_SIMD", SimdLevelName(level), 1), 0);
      ReinitSimdDispatch();
      for (unsigned threads : {1u, 4u}) {
        ThreadPool::SetGlobalThreads(threads);
        const std::string config = std::string(SimdLevelName(level)) + "/" +
                                   std::to_string(threads) + "t";
        auto index = MakeIndex(plan.name, opts);
        ReplayAndCheck(index.get(), script, expected, bd.data, *bd.metric,
                       pivots, config, plan.max_ops);
      }
    }
    ThreadPool::SetGlobalThreads(1);
    if (had_inherited) {
      setenv("PMI_SIMD", inherited.c_str(), 1);
    } else {
      unsetenv("PMI_SIMD");
    }
    ReinitSimdDispatch();
    if (::testing::Test::HasFatalFailure()) break;
  }
  ThreadPool::SetGlobalThreads(1);
  if (had_inherited) {
    setenv("PMI_SIMD", inherited.c_str(), 1);
  } else {
    unsetenv("PMI_SIMD");
  }
  ReinitSimdDispatch();
}

// -- replay invariance: pool sizes and shadow-copy updates -----------------
//
// Two contracts under test, each checked bit for bit against one
// in-place reference replay per index:
//   * physical pool size is invisible to everything the paper measures.
//     Each disk index replays the script once per pool configuration --
//     a 1-page pool (maximum eviction pressure), a tiny pool, and an
//     effectively unbounded one -- against the default private pool.
//     CI widens the sweep through PMI_CACHE_BYTES;
//   * updating through Clone() -- the concurrency layer's writer -- is
//     invisible too.  Every index (all of AllIndexSpecs() plus
//     LinearScan) replays the script updating shadow copies, and the
//     built instance, held aside, must still answer exactly as built
//     after all its descendants were mutated.

/// Everything a replay produces, recorded per op for exact
/// cross-configuration comparison.
struct ReplayTrace {
  std::vector<std::vector<ObjectId>> mrq;   // sorted result sets
  std::vector<std::vector<double>> knn;     // ascending distance profiles
  std::vector<uint64_t> compdists;          // every op, updates included
  std::vector<uint64_t> logical_pa;         // every op, updates included
  uint64_t build_pa = 0;

  bool operator==(const ReplayTrace&) const = default;
};

/// How a replay applies updates.  kShadow is the concurrency layer's
/// writer: before each update Clone() the current instance, update the
/// clone and continue on it, keeping the predecessor alive meanwhile.
enum class Updates { kInPlace, kShadow };

/// Replays `script` on the built `index`, appending to `t`.  In kShadow
/// mode `index` itself is never touched: the replay starts on a clone.
void ReplayOps(MetricIndex* index, const Script& script, const Dataset& data,
               Updates updates, ReplayTrace* t) {
  std::unique_ptr<MetricIndex> predecessor, current;
  MetricIndex* live = index;
  auto shadow = [&] {
    predecessor = std::move(current);
    current = live->Clone();
    live = current.get();
  };
  if (updates == Updates::kShadow) shadow();
  for (const Op& op : script.ops) {
    OpStats s;
    switch (op.kind) {
      case Op::kMrq: {
        std::vector<ObjectId> got;
        s = live->RangeQuery(data.view(op.target), op.r, &got);
        std::sort(got.begin(), got.end());
        t->mrq.push_back(std::move(got));
        break;
      }
      case Op::kKnn: {
        std::vector<Neighbor> nn;
        s = live->KnnQuery(data.view(op.target), op.k, &nn);
        std::vector<double> profile;
        for (const Neighbor& x : nn) profile.push_back(x.dist);
        t->knn.push_back(std::move(profile));
        break;
      }
      case Op::kRemove:
        if (updates == Updates::kShadow) shadow();
        s = live->Remove(op.target);
        break;
      case Op::kInsert:
        if (updates == Updates::kShadow) shadow();
        s = live->Insert(op.target);
        break;
    }
    t->compdists.push_back(s.dist_computations);
    t->logical_pa.push_back(s.page_accesses());
  }
}

ReplayTrace BuildAndReplay(MetricIndex* index, const Script& script,
                           const Dataset& data, const Metric& metric,
                           const PivotSet& pivots,
                           Updates updates = Updates::kInPlace) {
  ReplayTrace t;
  t.build_pa = index->Build(data, metric, pivots).page_accesses();
  ReplayOps(index, script, data, updates, &t);
  return t;
}

/// The first `count` query ops of `script`.
Script QueryPrefix(const Script& script, uint32_t count) {
  Script out;
  for (const Op& op : script.ops) {
    if (out.num_queries == count) break;
    if (op.kind != Op::kMrq && op.kind != Op::kKnn) continue;
    out.ops.push_back(op);
    ++out.num_queries;
  }
  return out;
}

/// The reference replay must itself match the oracle.
void CheckTraceAgainstOracle(const ReplayTrace& t, const Script& script,
                             const std::vector<Expected>& expected) {
  size_t qi = 0, mi = 0, ki = 0;
  for (const Op& op : script.ops) {
    if (op.kind == Op::kMrq) {
      SCOPED_TRACE("mrq " + std::to_string(mi));
      EXPECT_EQ(t.mrq[mi], expected[qi].mrq);
      ++mi;
      ++qi;
    } else if (op.kind == Op::kKnn) {
      SCOPED_TRACE("knn " + std::to_string(ki));
      ASSERT_EQ(t.knn[ki].size(), expected[qi].knn.size());
      for (size_t j = 0; j < t.knn[ki].size(); ++j) {
        EXPECT_EQ(t.knn[ki][j], expected[qi].knn[j]) << "rank " << j;
      }
      ++ki;
      ++qi;
    }
  }
  EXPECT_EQ(qi, expected.size());
}

TEST(DifferentialStressTest, ReplayIsInvariantUnderPoolSizeAndShadowUpdates) {
  const uint32_t kN = 300;
  const uint32_t num_ops =
      std::max(EnvU32("PMI_STRESS_OPS", 2000), 64u) / 4;
  ThreadPool::SetGlobalThreads(1);
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, kN, 4242);
  PivotSelectionOptions po;
  po.sample_size = 200;
  po.pair_sample = 120;
  PivotSet pivots = SelectSharedPivots(bd.data, *bd.metric, 4, po);
  DistanceDistribution distribution =
      EstimateDistribution(bd.data, *bd.metric, 2500, 3);
  const Script script =
      MakeScript(kN, num_ops, distribution, kScriptSeed ^ 0xD15C);
  const std::vector<Expected> expected =
      ReplayOracle(script, bd.data, *bd.metric, pivots);
  const Script fixed_queries = QueryPrefix(script, 24);

  IndexOptions base;
  base.seed = 7;
  // Physical pool sizes (bytes): 1 page, tiny, effectively unbounded.
  std::vector<size_t> pool_bytes = {base.page_size, 4 * size_t{base.page_size},
                                    size_t{1} << 26};
  const uint32_t env_bytes = EnvU32("PMI_CACHE_BYTES", 0);
  if (env_bytes != 0 &&
      std::find(pool_bytes.begin(), pool_bytes.end(), size_t{env_bytes}) ==
          pool_bytes.end()) {
    pool_bytes.push_back(env_bytes);
  }

  std::vector<IndexSpec> specs = AllIndexSpecs();
  specs.push_back(*FindIndexSpec("LinearScan"));
  for (const IndexSpec& spec : specs) {
    SCOPED_TRACE(spec.name);
    // Reference: the default private pool (sized cache_bytes), serial,
    // updates in place -- the exact shape of the pre-pool code path.
    auto ref_index = spec.make(base);
    const ReplayTrace reference =
        BuildAndReplay(ref_index.get(), script, bd.data, *bd.metric, pivots);
    CheckTraceAgainstOracle(reference, script, expected);
    if (::testing::Test::HasFatalFailure()) break;

    if (spec.uses_disk) {
      EXPECT_GT(reference.build_pa, 0u) << "disk index must touch pages";
      for (size_t bytes : pool_bytes) {
        SCOPED_TRACE("pool_bytes=" + std::to_string(bytes));
        IndexOptions opts = base;
        opts.buffer_pool = std::make_shared<BufferPool>(opts.page_size, bytes);
        auto index = spec.make(opts);
        const ReplayTrace got =
            BuildAndReplay(index.get(), script, bd.data, *bd.metric, pivots);
        // Results, compdists, and the paper's logical PA: bit-identical
        // at every physical pool size, down to a single frame.
        EXPECT_EQ(got, reference);
      }
    }

    // Shadow-copy updates: bit-identical to updating in place.
    auto first = spec.make(base);
    const ReplayTrace shadowed =
        BuildAndReplay(first.get(), script, bd.data, *bd.metric, pivots,
                       Updates::kShadow);
    EXPECT_EQ(shadowed, reference);

    // The held-aside first instance answers exactly like a freshly built
    // one -- ids, compdists and logical PA -- although every page and
    // block it shared has since been written by a descendant.
    auto fresh = spec.make(base);
    fresh->Build(bd.data, *bd.metric, pivots);
    ReplayTrace want, got;
    ReplayOps(fresh.get(), fixed_queries, bd.data, Updates::kInPlace, &want);
    ReplayOps(first.get(), fixed_queries, bd.data, Updates::kInPlace, &got);
    EXPECT_EQ(got, want);
  }
  ThreadPool::SetGlobalThreads(0);
}

// String workload: the banded edit-distance verification kernels under
// interleaved updates, on the table + tree indexes that matter most.
TEST(DifferentialStressTest, WordsWorkloadMatchesOracle) {
  const uint32_t kN = 200;
  const uint32_t num_ops =
      std::max(EnvU32("PMI_STRESS_OPS", 2000), 64u) / 4;
  ThreadPool::SetGlobalThreads(1);
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kWords, kN, 77);
  PivotSelectionOptions po;
  po.sample_size = 150;
  po.pair_sample = 100;
  PivotSet pivots = SelectSharedPivots(bd.data, *bd.metric, 4, po);
  DistanceDistribution distribution =
      EstimateDistribution(bd.data, *bd.metric, 2000, 3);
  const Script script =
      MakeScript(kN, num_ops, distribution, kScriptSeed ^ 0x5757);
  const std::vector<Expected> expected =
      ReplayOracle(script, bd.data, *bd.metric, pivots);

  IndexOptions opts;
  opts.seed = 7;
  for (const char* name : {"LAESA", "EPT*", "MVPT", "BKT"}) {
    auto index = MakeIndex(name, opts);
    ReplayAndCheck(index.get(), script, expected, bd.data, *bd.metric,
                   pivots, "words");
    if (::testing::Test::HasFatalFailure()) break;
  }
  ThreadPool::SetGlobalThreads(0);
}

}  // namespace
}  // namespace pmi
