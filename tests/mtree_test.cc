// M-tree tests: structural invariants (covering radii and parent
// distances), ball-query correctness via tree traversal against brute
// force, PM-tree MBB invariants, deletion, the CPT placement hook, and
// clones that split exactly as their source would.

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/metric.h"
#include "src/core/pivot_selection.h"
#include "src/core/pivots.h"
#include "src/data/generators.h"
#include "src/storage/mtree.h"
#include "src/storage/paged_file.h"

namespace pmi {
namespace {

struct Fixture {
  Fixture(BenchDatasetId id, uint32_t n, bool pm_mode, uint32_t l = 4)
      : bd(MakeBenchDataset(id, n, 77)),
        file(4096, 128 * 1024, &counters),
        dist(bd.metric.get(), &counters) {
    MTree::Options opts;
    opts.store_pivot_data = pm_mode;
    opts.num_pivots = pm_mode ? l : 0;
    if (pm_mode) {
      PivotSelectionOptions po;
      po.sample_size = 500;
      pivots = PivotSet(bd.data, SelectPivotsHFI(bd.data, dist, l, po));
    }
    tree = std::make_unique<MTree>(&file, &bd.data, dist, opts,
                                   [this](ObjectId oid, PageId page) {
                                     placement[oid] = page;
                                   });
    for (ObjectId i = 0; i < bd.data.size(); ++i) {
      std::vector<float> phi;
      if (pm_mode) {
        std::vector<double> dphi;
        pivots.Map(bd.data.view(i), dist, &dphi);
        phi.assign(dphi.begin(), dphi.end());
      }
      tree->Insert(i, phi);
    }
  }

  BenchDataset bd;
  PerfCounters counters;
  PagedFile file;
  DistanceComputer dist;
  PivotSet pivots;
  std::map<ObjectId, PageId> placement;
  std::unique_ptr<MTree> tree;
};

// Recursively verifies: every object in a subtree lies within the
// covering radius of the subtree's routing object; pd values match the
// actual distance to the parent RO; PM-tree MBBs bound the phi vectors.
void CheckSubtree(const Fixture& fx, PageId page, const ObjectView* ro,
                  double radius, const float* mbb, uint32_t l,
                  std::set<ObjectId>* seen) {
  MTreeNode node = fx.tree->LoadNode(page);
  if (node.is_leaf) {
    for (const auto& e : node.leaves) {
      EXPECT_TRUE(seen->insert(e.oid).second);
      ObjectView obj = fx.tree->ViewOf(e.obj);
      EXPECT_TRUE(obj.PayloadEquals(fx.bd.data.view(e.oid)));
      if (ro != nullptr) {
        double d = fx.bd.metric->Distance(obj, *ro);
        EXPECT_LE(d, radius + 1e-4) << "object escapes covering radius";
        EXPECT_NEAR(e.pd, d, 1e-3) << "stale parent distance";
      }
      if (mbb != nullptr) {
        for (uint32_t j = 0; j < l; ++j) {
          EXPECT_GE(e.phi[j], mbb[j] - 1e-4f);
          EXPECT_LE(e.phi[j], mbb[l + j] + 1e-4f);
        }
      }
    }
    return;
  }
  for (const auto& e : node.children) {
    ObjectView child_ro = fx.tree->ViewOf(e.ro);
    if (ro != nullptr) {
      double d = fx.bd.metric->Distance(child_ro, *ro);
      EXPECT_NEAR(e.pd, d, 1e-3);
      EXPECT_LE(d + e.radius, radius + radius * 1e-5 + 1e-3)
          << "child ball escapes parent ball";
    }
    if (mbb != nullptr) {
      for (uint32_t j = 0; j < l; ++j) {
        EXPECT_GE(e.mbb[j], mbb[j] - 1e-4f);
        EXPECT_LE(e.mbb[l + j], mbb[l + j] + 1e-4f);
      }
    }
    CheckSubtree(fx, e.child, &child_ro, e.radius,
                 e.mbb.empty() ? nullptr : e.mbb.data(), l, seen);
  }
}

class MTreeDatasets : public ::testing::TestWithParam<BenchDatasetId> {};

TEST_P(MTreeDatasets, InvariantsHoldAfterBuild) {
  Fixture fx(GetParam(), 1500, /*pm_mode=*/false);
  std::set<ObjectId> seen;
  CheckSubtree(fx, fx.tree->root(), nullptr, 0, nullptr, 0, &seen);
  EXPECT_EQ(seen.size(), fx.bd.data.size());
  EXPECT_EQ(fx.tree->size(), fx.bd.data.size());
}

TEST_P(MTreeDatasets, BallQueryViaTraversalMatchesBruteForce) {
  Fixture fx(GetParam(), 800, /*pm_mode=*/false);
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    ObjectView q = fx.bd.data.view(rng() % fx.bd.data.size());
    double r = fx.bd.metric->max_distance() * 0.05;
    std::set<ObjectId> want;
    for (ObjectId i = 0; i < fx.bd.data.size(); ++i) {
      if (fx.bd.metric->Distance(q, fx.bd.data.view(i)) <= r) want.insert(i);
    }
    std::set<ObjectId> got;
    std::vector<PageId> stack{fx.tree->root()};
    while (!stack.empty()) {
      MTreeNode node = fx.tree->LoadNode(stack.back());
      stack.pop_back();
      if (node.is_leaf) {
        for (const auto& e : node.leaves) {
          if (fx.bd.metric->Distance(q, fx.tree->ViewOf(e.obj)) <= r) {
            got.insert(e.oid);
          }
        }
      } else {
        for (const auto& e : node.children) {
          double d = fx.bd.metric->Distance(q, fx.tree->ViewOf(e.ro));
          if (d <= e.radius + r) stack.push_back(e.child);  // Lemma 2
        }
      }
    }
    EXPECT_EQ(got, want);
  }
}

TEST_P(MTreeDatasets, PmModeMbbInvariants) {
  Fixture fx(GetParam(), 1000, /*pm_mode=*/true);
  std::set<ObjectId> seen;
  CheckSubtree(fx, fx.tree->root(), nullptr, 0, nullptr, 4, &seen);
  EXPECT_EQ(seen.size(), fx.bd.data.size());
}

TEST_P(MTreeDatasets, RemoveThenReinsert) {
  Fixture fx(GetParam(), 600, /*pm_mode=*/false);
  Rng rng(23);
  for (int round = 0; round < 40; ++round) {
    ObjectId victim = rng() % fx.bd.data.size();
    ASSERT_TRUE(fx.tree->Remove(victim));
    EXPECT_FALSE(fx.tree->Remove(victim)) << "double remove must fail";
    fx.tree->Insert(victim, {});
  }
  std::set<ObjectId> seen;
  CheckSubtree(fx, fx.tree->root(), nullptr, 0, nullptr, 0, &seen);
  EXPECT_EQ(seen.size(), fx.bd.data.size());
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, MTreeDatasets,
                         ::testing::Values(BenchDatasetId::kLa,
                                           BenchDatasetId::kWords,
                                           BenchDatasetId::kSynthetic),
                         [](const auto& info) {
                           switch (info.param) {
                             case BenchDatasetId::kLa: return "LA";
                             case BenchDatasetId::kWords: return "Words";
                             default: return "Synthetic";
                           }
                         });

TEST(MTreeTest, PlacementHookTracksEveryObject) {
  Fixture fx(BenchDatasetId::kLa, 2000, /*pm_mode=*/false);
  ASSERT_EQ(fx.placement.size(), fx.bd.data.size());
  // Every recorded placement must actually hold the object.
  Rng rng(3);
  for (int probe = 0; probe < 200; ++probe) {
    ObjectId oid = rng() % fx.bd.data.size();
    MTreeNode node = fx.tree->LoadNode(fx.placement[oid]);
    ASSERT_TRUE(node.is_leaf);
    bool found = false;
    for (const auto& e : node.leaves) found |= e.oid == oid;
    EXPECT_TRUE(found) << "placement map points to wrong leaf for " << oid;
  }
}

// A clone (PagedFile::Clone plus the MTree clone constructor) must
// carry the split-sampling RNG state: inserting the same objects into
// the source and the clone then promotes the same routing objects, so
// both trees end with the same shape, costs and page bytes.  A clone
// that restarts its RNG from the seed samples different promotion pairs
// at its next split.
TEST(MTreeTest, CloneContinuesTheSplitRngOfItsSource) {
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, 1200, 77);
  PerfCounters counters;
  PagedFile file(4096, 128 * 1024, &counters);
  MTree tree(&file, &bd.data, DistanceComputer(bd.metric.get(), &counters),
             MTree::Options{});
  const ObjectId half = static_cast<ObjectId>(bd.data.size() / 2);
  for (ObjectId i = 0; i < half; ++i) tree.Insert(i, {});
  file.Flush();
  ASSERT_GT(tree.height(), 1u) << "the first half must split the root";

  PerfCounters clone_counters;
  std::unique_ptr<PagedFile> clone_file = file.Clone(&clone_counters);
  MTree clone(tree, clone_file.get(),
              DistanceComputer(bd.metric.get(), &clone_counters));
  const PerfCounters before = counters;
  for (ObjectId i = half; i < bd.data.size(); ++i) {
    tree.Insert(i, {});
    clone.Insert(i, {});
  }
  file.Flush();
  clone_file->Flush();
  const PerfCounters source_cost = counters - before;

  EXPECT_EQ(clone.root(), tree.root());
  EXPECT_EQ(clone.height(), tree.height());
  EXPECT_EQ(clone.size(), tree.size());
  EXPECT_EQ(clone_counters.dist_computations, source_cost.dist_computations);
  EXPECT_EQ(clone_counters.page_reads, source_cost.page_reads);
  EXPECT_EQ(clone_counters.page_writes, source_cost.page_writes);
  ASSERT_EQ(clone_file->num_pages(), file.num_pages());
  for (PageId p = 0; p < file.num_pages(); ++p) {
    EXPECT_EQ(std::memcmp(clone_file->RawPage(p), file.RawPage(p),
                          file.page_size()),
              0)
        << "page " << p;
  }
}

}  // namespace
}  // namespace pmi
