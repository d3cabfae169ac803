// Soundness tests for the four pruning/validation lemmas (Section 2.3).
//
// The property under test is the paper's: whenever a lemma prunes, the
// pruned object/region truly contains no result; whenever Lemma 4
// validates, the object truly is a result.  Verified against brute force
// on random metric data.

#include <vector>

#include <gtest/gtest.h>

#include "src/core/filtering.h"
#include "src/core/pivot_selection.h"
#include "src/core/pivots.h"
#include "src/data/generators.h"

namespace pmi {
namespace {

class FilteringTest : public ::testing::TestWithParam<BenchDatasetId> {
 protected:
  void SetUp() override {
    bd_ = MakeBenchDataset(GetParam(), 300, /*seed=*/5);
    PerfCounters c;
    DistanceComputer dist(bd_.metric.get(), &c);
    PivotSelectionOptions opts;
    opts.sample_size = 300;
    pivots_ = PivotSet(bd_.data, SelectPivotsHFI(bd_.data, dist, 4, opts));
  }

  std::vector<double> Map(const ObjectView& o) {
    PerfCounters c;
    DistanceComputer dist(bd_.metric.get(), &c);
    std::vector<double> phi;
    pivots_.Map(o, dist, &phi);
    return phi;
  }

  BenchDataset bd_{.name = "", .data = Dataset::Vectors(0),
                   .metric = nullptr, .id = BenchDatasetId::kLa};
  PivotSet pivots_;
};

TEST_P(FilteringTest, Lemma1NeverPrunesTrueResults) {
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    ObjectId qid = rng() % bd_.data.size();
    ObjectView q = bd_.data.view(qid);
    std::vector<double> phi_q = Map(q);
    double r = bd_.metric->max_distance() * 0.02 * (1 + trial % 5);
    for (ObjectId o = 0; o < bd_.data.size(); ++o) {
      std::vector<double> phi_o = Map(bd_.data.view(o));
      double d = bd_.metric->Distance(q, bd_.data.view(o));
      if (PrunedByPivots(phi_o.data(), phi_q.data(), pivots_.size(), r)) {
        EXPECT_GT(d, r) << "Lemma 1 pruned a true result";
      }
      EXPECT_LE(PivotLowerBound(phi_o.data(), phi_q.data(), pivots_.size()),
                d + 1e-9);
    }
  }
}

TEST_P(FilteringTest, Lemma4OnlyValidatesTrueResults) {
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    ObjectId qid = rng() % bd_.data.size();
    ObjectView q = bd_.data.view(qid);
    std::vector<double> phi_q = Map(q);
    double r = bd_.metric->max_distance() * 0.05 * (1 + trial % 4);
    for (ObjectId o = 0; o < bd_.data.size(); ++o) {
      std::vector<double> phi_o = Map(bd_.data.view(o));
      for (uint32_t i = 0; i < pivots_.size(); ++i) {
        if (!ValidatedByPivot(phi_o[i], phi_q[i], r)) continue;
        double d = bd_.metric->Distance(q, bd_.data.view(o));
        EXPECT_LE(d, r + 1e-9) << "Lemma 4 validated a non-result";
      }
    }
  }
}

TEST_P(FilteringTest, Lemma2BallPruningIsSound) {
  // Build a random ball region: center pivot + covering radius over a
  // random subset, then check its lower bound against every member.
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    ObjectId center = rng() % bd_.data.size();
    ObjectView cv = bd_.data.view(center);
    std::vector<ObjectId> members;
    double region_r = 0;
    for (int i = 0; i < 50; ++i) {
      ObjectId o = rng() % bd_.data.size();
      members.push_back(o);
      region_r = std::max(
          region_r, bd_.metric->Distance(cv, bd_.data.view(o)));
    }
    ObjectId qid = rng() % bd_.data.size();
    ObjectView q = bd_.data.view(qid);
    double d_q_c = bd_.metric->Distance(q, cv);
    // The ball lower bound must never exceed a true member distance.
    for (ObjectId o : members) {
      EXPECT_LE(BallLowerBound(d_q_c, region_r),
                bd_.metric->Distance(q, bd_.data.view(o)) + 1e-9);
    }
  }
}

TEST_P(FilteringTest, Lemma3HyperplanePruningIsSound) {
  // Partition by two pivots; objects nearer pi than pj form Ri.
  Rng rng(19);
  ObjectView pi = pivots_.pivot(0);
  ObjectView pj = pivots_.pivot(1);
  for (int trial = 0; trial < 30; ++trial) {
    ObjectId qid = rng() % bd_.data.size();
    ObjectView q = bd_.data.view(qid);
    double d_q_pi = bd_.metric->Distance(q, pi);
    double d_q_pj = bd_.metric->Distance(q, pj);
    double r = bd_.metric->max_distance() * 0.02;
    if (!PrunedByHyperplane(d_q_pi, d_q_pj, r)) continue;
    for (ObjectId o = 0; o < bd_.data.size(); ++o) {
      ObjectView ov = bd_.data.view(o);
      if (bd_.metric->Distance(ov, pi) <= bd_.metric->Distance(ov, pj)) {
        EXPECT_GT(bd_.metric->Distance(q, ov), r)
            << "Lemma 3 pruned a true result";
      }
    }
  }
}

TEST_P(FilteringTest, MbbBoundsAreSound) {
  // The lower bound of an MBB over a set of mapped points must
  // underestimate every member distance.
  Rng rng(23);
  const uint32_t l = pivots_.size();
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<ObjectId> members;
    std::vector<double> lo(l, 1e18), hi(l, -1e18);
    for (int i = 0; i < 40; ++i) {
      ObjectId o = rng() % bd_.data.size();
      members.push_back(o);
      std::vector<double> phi = Map(bd_.data.view(o));
      for (uint32_t j = 0; j < l; ++j) {
        lo[j] = std::min(lo[j], phi[j]);
        hi[j] = std::max(hi[j], phi[j]);
      }
    }
    ObjectId qid = rng() % bd_.data.size();
    ObjectView q = bd_.data.view(qid);
    std::vector<double> phi_q = Map(q);
    double bound = MbbLowerBound(lo.data(), hi.data(), phi_q.data(), l);
    for (ObjectId o : members) {
      EXPECT_LE(bound, bd_.metric->Distance(q, bd_.data.view(o)) + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, FilteringTest,
                         ::testing::Values(BenchDatasetId::kLa,
                                           BenchDatasetId::kWords,
                                           BenchDatasetId::kColor,
                                           BenchDatasetId::kSynthetic),
                         [](const auto& info) {
                           switch (info.param) {
                             case BenchDatasetId::kLa: return "LA";
                             case BenchDatasetId::kWords: return "Words";
                             case BenchDatasetId::kColor: return "Color";
                             default: return "Synthetic";
                           }
                         });

}  // namespace
}  // namespace pmi
