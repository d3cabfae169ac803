// SIMD/scalar equivalence fuzz for the f32 filter engine.
//
// The engine's exactness contract (src/core/simd.h, pivot_table.h) is
// that survivor lists are bit-identical to the row-major *double* loop
// at every dispatch level PMI_SIMD can force: the f32 bulk filter may
// only ever keep a superset, and the double re-check must narrow it back
// to exactly the reference set.  This suite fuzzes that contract across
//   - widths 1..32 (every lane-tail shape of the 8/16-wide kernels),
//   - block-tail row counts (0, 1, kScanBlock-1, kScanBlock,
//     kScanBlock+1, multi-block + ragged tail),
//   - extreme radii (0, denormal, huge, +/-inf),
//   - denormal / huge / float-overflowing cell distances,
// and pins end-to-end index conformance (results + compdists) across
// dispatch levels.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/filtering.h"
#include "src/core/pivot_selection.h"
#include "src/core/pivot_table.h"
#include "src/core/rng.h"
#include "src/core/simd.h"
#include "src/data/generators.h"
#include "src/harness/workload.h"
#include "src/tables/ept.h"
#include "src/tables/laesa.h"

namespace pmi {
namespace {

void ForceLevel(SimdLevel level) {
  ASSERT_EQ(setenv("PMI_SIMD", SimdLevelName(level), 1), 0);
  ReinitSimdDispatch();
  ASSERT_EQ(SimdLevelInUse(), level) << SimdLevelName(level);
}

// The CI scalar-dispatch leg pins PMI_SIMD for the whole ctest run, so
// tests that force levels must restore the value the process inherited
// -- clearing it would silently re-widen every later test.
struct InheritedSimdEnv {
  bool had;
  std::string value;
  InheritedSimdEnv() {
    const char* e = getenv("PMI_SIMD");
    had = e != nullptr;
    if (had) value = e;
  }
};
const InheritedSimdEnv kInheritedEnv;

void RestoreDefaultLevel() {
  if (kInheritedEnv.had) {
    setenv("PMI_SIMD", kInheritedEnv.value.c_str(), 1);
  } else {
    unsetenv("PMI_SIMD");
  }
  ReinitSimdDispatch();
}

// Interesting magnitudes for cells / queries: denormals (double and
// float), values that round to float denormals, float-overflowing
// doubles, and plain mid-range values.
double SpecialValue(Rng* rng) {
  static const double kSpecials[] = {
      0.0,      5e-324,  1e-310, 1.4e-45, 1e-38,   1e-20,
      1.0,      100.0,   1e20,   3.4e38,  7e38,    1e300,
  };
  return kSpecials[(*rng)() % (sizeof(kSpecials) / sizeof(kSpecials[0]))];
}

struct FuzzTable {
  PivotTable table;
  std::vector<double> rows;  // row-major reference copy
  uint32_t l = 0;

  std::vector<uint32_t> ReferenceScan(const double* phi_q, double r) const {
    std::vector<uint32_t> out;
    const size_t n = l == 0 ? 0 : rows.size() / l;
    for (size_t i = 0; i < n; ++i) {
      if (!PrunedByPivots(&rows[i * l], phi_q, l, r)) {
        out.push_back(static_cast<uint32_t>(i));
      }
    }
    return out;
  }
};

FuzzTable MakeFuzzShared(size_t n, uint32_t l, uint64_t seed) {
  FuzzTable t;
  t.l = l;
  t.table.Reset(l);
  Rng rng(seed);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  std::vector<double> row(l);
  for (size_t i = 0; i < n; ++i) {
    for (auto& x : row) x = rng() % 8 == 0 ? SpecialValue(&rng) : u(rng);
    t.rows.insert(t.rows.end(), row.begin(), row.end());
    t.table.AppendRow(row.data());
  }
  return t;
}

const double kFuzzRadii[] = {
    0.0,    5e-324, 1e-300, 1e-40, 0.25,
    3.0,    40.0,   1e20,   1e300, std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
};

// Widths 1..32: every tail shape of the 4/8/16-lane sweeps and of the
// refine cascade, at a multi-block row count with a ragged tail.
TEST(SimdFilterTest, SharedScanBitIdenticalAcrossLevelsAllWidths) {
  for (uint32_t l = 1; l <= 32; ++l) {
    FuzzTable t = MakeFuzzShared(600, l, 1000 + l);
    Rng rng(l * 7 + 1);
    std::uniform_real_distribution<double> u(0.0, 100.0);
    std::vector<double> phi_q(l);
    for (auto& x : phi_q) x = rng() % 6 == 0 ? SpecialValue(&rng) : u(rng);
    for (double r : kFuzzRadii) {
      const std::vector<uint32_t> want = t.ReferenceScan(phi_q.data(), r);
      for (SimdLevel level : SupportedSimdLevels()) {
        ForceLevel(level);
        std::vector<uint32_t> got;
        t.table.RangeScan(phi_q, r, &got);
        EXPECT_EQ(got, want) << "level=" << SimdLevelName(level)
                             << " l=" << l << " r=" << r;
      }
    }
  }
  RestoreDefaultLevel();
}

// Block-tail row counts around kScanBlock, including empty and single.
TEST(SimdFilterTest, SharedScanBitIdenticalAcrossLevelsBlockTails) {
  const size_t kRowCounts[] = {0,
                               1,
                               PivotTable::kScanBlock - 1,
                               PivotTable::kScanBlock,
                               PivotTable::kScanBlock + 1,
                               3 * PivotTable::kScanBlock + 17};
  for (size_t n : kRowCounts) {
    FuzzTable t = MakeFuzzShared(n, 5, 2000 + n);
    Rng rng(n * 3 + 5);
    std::uniform_real_distribution<double> u(0.0, 100.0);
    std::vector<double> phi_q(5);
    for (auto& x : phi_q) x = u(rng);
    for (double r : kFuzzRadii) {
      const std::vector<uint32_t> want = t.ReferenceScan(phi_q.data(), r);
      for (SimdLevel level : SupportedSimdLevels()) {
        ForceLevel(level);
        std::vector<uint32_t> got;
        t.table.RangeScan(phi_q, r, &got);
        EXPECT_EQ(got, want) << "level=" << SimdLevelName(level)
                             << " rows=" << n << " r=" << r;
      }
    }
  }
  RestoreDefaultLevel();
}

// Per-row-pivot (EPT) layout: the gathered query values go through the
// same conservative-radius machinery, with one widened radius bounding
// the whole pool.
TEST(SimdFilterTest, IndirectScanBitIdenticalAcrossLevels) {
  const uint32_t kPool = 24;
  for (uint32_t l : {1u, 2u, 3u, 4u, 7u, 8u, 15u, 16u, 31u, 32u}) {
    PivotTable table;
    table.Reset(l, /*per_row_pivots=*/true);
    std::vector<double> ref_d;
    std::vector<uint32_t> ref_i;
    Rng rng(4000 + l);
    std::uniform_real_distribution<double> u(0.0, 100.0);
    std::vector<double> rd(l);
    std::vector<uint32_t> ri(l);
    const size_t n = 2 * PivotTable::kScanBlock + 9;
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t j = 0; j < l; ++j) {
        rd[j] = rng() % 8 == 0 ? SpecialValue(&rng) : u(rng);
        ri[j] = rng() % kPool;
      }
      ref_d.insert(ref_d.end(), rd.begin(), rd.end());
      ref_i.insert(ref_i.end(), ri.begin(), ri.end());
      table.AppendRow(rd.data(), ri.data());
    }
    std::vector<double> d_qp(kPool);
    for (auto& x : d_qp) x = rng() % 6 == 0 ? SpecialValue(&rng) : u(rng);

    for (double r : kFuzzRadii) {
      std::vector<uint32_t> want;
      for (size_t i = 0; i < n; ++i) {
        bool pruned = false;
        for (uint32_t j = 0; j < l && !pruned; ++j) {
          pruned = std::fabs(ref_d[i * l + j] - d_qp[ref_i[i * l + j]]) > r;
        }
        if (!pruned) want.push_back(static_cast<uint32_t>(i));
      }
      for (SimdLevel level : SupportedSimdLevels()) {
        ForceLevel(level);
        std::vector<uint32_t> got;
        table.RangeScan(d_qp, r, &got);
        EXPECT_EQ(got, want) << "level=" << SimdLevelName(level)
                             << " l=" << l << " r=" << r;
      }
    }
  }
  RestoreDefaultLevel();
}

// Adversarial cells clustered exactly around the query +/- r boundary,
// where a one-ulp filter mistake would flip a decision.
TEST(SimdFilterTest, BoundaryValuesNeverFlipDecisions) {
  const uint32_t l = 3;
  const double q0 = 12.345678901234567;
  const double r = 1.0000000000000002;
  FuzzTable t;
  t.l = l;
  t.table.Reset(l);
  std::vector<double> row(l);
  for (int k = -40; k <= 40; ++k) {
    for (double base : {q0 - r, q0 + r, q0}) {
      double v = base;
      for (int s = 0; s < std::abs(k); ++s) {
        v = std::nextafter(v, k < 0 ? -1e30 : 1e30);
      }
      row[0] = v;
      row[1] = q0;  // always inside on later slots
      row[2] = q0;
      t.rows.insert(t.rows.end(), row.begin(), row.end());
      t.table.AppendRow(row.data());
    }
  }
  std::vector<double> phi_q = {q0, q0, q0};
  const std::vector<uint32_t> want = t.ReferenceScan(phi_q.data(), r);
  EXPECT_FALSE(want.empty());
  EXPECT_LT(want.size(), t.table.rows());  // both sides of the boundary hit
  for (SimdLevel level : SupportedSimdLevels()) {
    ForceLevel(level);
    std::vector<uint32_t> got;
    t.table.RangeScan(phi_q, r, &got);
    EXPECT_EQ(got, want) << "level=" << SimdLevelName(level);
  }
  RestoreDefaultLevel();
}

// End-to-end conformance: LAESA (shared) and EPT/EPT* (indirect) must
// produce bit-identical query results, survivor-driven verification
// orders, and compdists at every dispatch level.
TEST(SimdFilterTest, IndexQueriesBitIdenticalAcrossLevels) {
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, 1500, 7);
  PivotSelectionOptions po;
  po.sample_size = 400;
  po.pair_sample = 200;
  PivotSet pivots = SelectSharedPivots(bd.data, *bd.metric, 5, po);
  Rng rng(31);
  std::vector<ObjectId> queries(8);
  for (auto& q : queries) q = rng() % bd.data.size();
  const double kRadii[] = {5.0, 60.0, 400.0};

  Laesa laesa;
  laesa.Build(bd.data, *bd.metric, pivots);
  Ept ept(Ept::Variant::kClassic);
  ept.Build(bd.data, *bd.metric, pivots);
  Ept ept_star(Ept::Variant::kStar);
  ept_star.Build(bd.data, *bd.metric, pivots);
  MetricIndex* indexes[] = {&laesa, &ept, &ept_star};

  struct Capture {
    std::vector<std::vector<ObjectId>> range;
    std::vector<std::vector<Neighbor>> knn;
    std::vector<uint64_t> compdists;
  };
  std::vector<Capture> captures;
  for (SimdLevel level : SupportedSimdLevels()) {
    ForceLevel(level);
    Capture c;
    for (MetricIndex* index : indexes) {
      for (ObjectId q : queries) {
        ObjectView qv = bd.data.view(q);
        for (double r : kRadii) {
          std::vector<ObjectId> out;
          OpStats s = index->RangeQuery(qv, r, &out);
          c.range.push_back(std::move(out));
          c.compdists.push_back(s.dist_computations);
        }
        std::vector<Neighbor> nn;
        OpStats s = index->KnnQuery(qv, 10, &nn);
        c.knn.push_back(std::move(nn));
        c.compdists.push_back(s.dist_computations);
      }
    }
    captures.push_back(std::move(c));
  }
  RestoreDefaultLevel();

  ASSERT_GE(captures.size(), 1u);
  for (size_t i = 1; i < captures.size(); ++i) {
    EXPECT_EQ(captures[i].compdists, captures[0].compdists);
    ASSERT_EQ(captures[i].range.size(), captures[0].range.size());
    // Survivor order is part of the contract: compare unsorted.
    for (size_t j = 0; j < captures[0].range.size(); ++j) {
      EXPECT_EQ(captures[i].range[j], captures[0].range[j]);
    }
    ASSERT_EQ(captures[i].knn.size(), captures[0].knn.size());
    for (size_t j = 0; j < captures[0].knn.size(); ++j) {
      ASSERT_EQ(captures[i].knn[j].size(), captures[0].knn[j].size());
      for (size_t k = 0; k < captures[0].knn[j].size(); ++k) {
        EXPECT_EQ(captures[i].knn[j][k].id, captures[0].knn[j][k].id);
        EXPECT_EQ(captures[i].knn[j][k].dist, captures[0].knn[j][k].dist);
      }
    }
  }
}

// Block-major multi-query scan (the batch engine's FilterBlockMulti /
// mask_sweep_multi path): for every batch size covering the
// kMultiQueryTile and register-group tails, each query's survivor list
// must equal its own single-query RangeScan at every dispatch level --
// adversarial cell magnitudes included.
TEST(SimdFilterTest, BlockMajorScanMatchesPerQueryScanAcrossLevels) {
  FuzzTable t = MakeFuzzShared(3 * PivotTable::kScanBlock + 29, 5, 97);
  for (size_t nq : {1u, 3u, 4u, 5u, 15u, 16u, 17u, 37u}) {
    Rng rng(500 + nq);
    std::uniform_real_distribution<double> u(0.0, 100.0);
    std::vector<std::vector<double>> phi(nq, std::vector<double>(5));
    std::vector<double> radii(nq);
    for (size_t qi = 0; qi < nq; ++qi) {
      for (auto& x : phi[qi]) {
        x = rng() % 6 == 0 ? SpecialValue(&rng) : u(rng);
      }
      radii[qi] = kFuzzRadii[rng() % (sizeof(kFuzzRadii) /
                                      sizeof(kFuzzRadii[0]))];
    }
    for (SimdLevel level : SupportedSimdLevels()) {
      ForceLevel(level);
      std::vector<std::vector<uint32_t>> got(nq);
      t.table.ScanBlockMajor(
          phi, [&](size_t qi) { return radii[qi]; },
          [&](size_t qi, size_t row) {
            got[qi].push_back(static_cast<uint32_t>(row));
          },
          [](size_t, size_t) {});
      for (size_t qi = 0; qi < nq; ++qi) {
        std::vector<uint32_t> want;
        t.table.RangeScan(phi[qi], radii[qi], &want);
        EXPECT_EQ(got[qi], want)
            << "level=" << SimdLevelName(level) << " nq=" << nq
            << " qi=" << qi << " r=" << radii[qi];
      }
    }
  }
  RestoreDefaultLevel();
}

// Batches past kScanBatchTile reuse the per-tile FilterQuery scratch.
// A uniform radius across the whole batch is the adversarial case: if
// the radius cache survived re-preparation, tile 2's queries would
// filter with tile 1's widened f32 radii -- which are derived from tile
// 1's QUERY VALUES, so a tile-1 query of tiny magnitude leaves a
// too-narrow wide radius behind for a larger-magnitude tile-2 query.
// The cells here sit in the float rounding sliver around q + r where
// exactly that one-in-2^22 difference flips survival, so a stale cache
// drops true survivors (verified by mutation: disabling the
// re-preparation reset fails this test on the vector levels).
TEST(SimdFilterTest, BlockMajorScanTileBoundaryWithUniformRadius) {
  // Constructed near-tie roundings: q0 sits just under the midpoint of
  // its float grid cell (rounds DOWN to g), the cell value x just above
  // the midpoint of grid point h = g + 1 + ulp (rounds UP), so the
  // float distance overshoots the true double distance by one full
  // float ulp -- inside the correct conservative radius for |q0|~12,
  // OUTSIDE the one a zero-magnitude query leaves behind.
  const double ulp = std::ldexp(1.0, -20);  // float ulp in [8, 16)
  const double g = double(12.3456789f);
  const double h = g + 1.0 + ulp;
  const double eps = 1e-12;
  const double q0 = g + ulp / 2 - eps;
  const double x = h - ulp / 2 + eps;
  const double r = 1.00000000001;
  ASSERT_LE(std::fabs(x - q0), r);  // a true double survivor...
  const float d_f = std::fabs(FilterValue(x) - FilterValue(q0));
  // ...whose float distance sits strictly between the stale (qmax = 0)
  // and correct (qmax = |q0|) conservative radii.  These assertions pin
  // the premise; if the radius formulas change, the test says so
  // instead of silently losing its teeth.
  ASSERT_GT(d_f, ConservativeFilterRadius(0.0, r));
  ASSERT_LE(d_f, ConservativeFilterRadius(std::fabs(q0), r));

  const size_t nq = PivotTable::kScanBatchTile + 8;
  FuzzTable t;
  t.l = 2;
  t.table.Reset(2);
  const double row[2] = {x, q0};  // slot 1 always inside
  t.rows.insert(t.rows.end(), row, row + 2);
  t.table.AppendRow(row);
  // Tile 1 slots: zero-magnitude queries (narrowest conservative
  // radii); the final tile's queries are the boundary-sensitive ones
  // that would inherit those radii if the cache leaked across tiles.
  std::vector<std::vector<double>> phi(nq, std::vector<double>{0.0, 0.0});
  for (size_t qi = PivotTable::kScanBatchTile; qi < nq; ++qi) {
    phi[qi] = {q0, q0};
  }
  for (SimdLevel level : SupportedSimdLevels()) {
    ForceLevel(level);
    std::vector<std::vector<uint32_t>> got(nq);
    t.table.ScanBlockMajor(
        phi, [&](size_t) { return r; },
        [&](size_t qi, size_t row_id) {
          got[qi].push_back(static_cast<uint32_t>(row_id));
        },
        [](size_t, size_t) {});
    for (size_t qi = 0; qi < nq; ++qi) {
      std::vector<uint32_t> want;
      t.table.RangeScan(phi[qi], r, &want);
      EXPECT_EQ(got[qi], want)
          << "level=" << SimdLevelName(level) << " qi=" << qi;
    }
    // In particular the second tile's boundary query keeps the row.
    EXPECT_EQ(got[nq - 1].size(), 1u) << "level=" << SimdLevelName(level);
  }
  RestoreDefaultLevel();
}

// Indirect (per-row-pivot) form of the block-major fuzz.
TEST(SimdFilterTest, BlockMajorIndirectScanMatchesPerQueryScan) {
  const uint32_t kPool = 24, l = 4;
  PivotTable table;
  table.Reset(l, /*per_row_pivots=*/true);
  Rng rng(4242);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  std::vector<double> rd(l);
  std::vector<uint32_t> ri(l);
  const size_t n = 2 * PivotTable::kScanBlock + 13;
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < l; ++j) {
      rd[j] = rng() % 8 == 0 ? SpecialValue(&rng) : u(rng);
      ri[j] = rng() % kPool;
    }
    table.AppendRow(rd.data(), ri.data());
  }
  for (size_t nq : {1u, 4u, 9u, 16u, 21u}) {
    std::vector<std::vector<double>> d_qp(nq, std::vector<double>(kPool));
    std::vector<double> radii(nq);
    for (size_t qi = 0; qi < nq; ++qi) {
      for (auto& x : d_qp[qi]) {
        x = rng() % 6 == 0 ? SpecialValue(&rng) : u(rng);
      }
      radii[qi] = kFuzzRadii[rng() % (sizeof(kFuzzRadii) /
                                      sizeof(kFuzzRadii[0]))];
    }
    for (SimdLevel level : SupportedSimdLevels()) {
      ForceLevel(level);
      std::vector<std::vector<uint32_t>> got(nq);
      table.ScanBlockMajor(
          d_qp, [&](size_t qi) { return radii[qi]; },
          [&](size_t qi, size_t row) {
            got[qi].push_back(static_cast<uint32_t>(row));
          },
          [](size_t, size_t) {});
      for (size_t qi = 0; qi < nq; ++qi) {
        std::vector<uint32_t> want;
        table.RangeScan(d_qp[qi], radii[qi], &want);
        EXPECT_EQ(got[qi], want)
            << "level=" << SimdLevelName(level) << " nq=" << nq
            << " qi=" << qi << " r=" << radii[qi];
      }
    }
  }
  RestoreDefaultLevel();
}

// Integer-valued columns put rows exactly on |x - q| = r, the rows the
// f32 test cannot settle (the narrow radius sits below r, the wide one
// above): Words and Synthetic have integer distances and radii.  Every
// 16-lane chunk below holds such ties.  Each kernel form is called
// directly at every level, and its mask, count and compacted survivor
// list must equal the f64 predicate's.  Row counts are not multiples of
// 16, so each kernel's ragged last chunk runs too; the 2^24 + 1 base
// puts the query where floats no longer hold every integer.
struct TieColumns {
  std::vector<float> colf;
  std::vector<double> cold;
  std::vector<uint32_t> idx;  // pool index per row (gather forms)
};

// Cells around the shared query value `base` and each row's gathered
// one, base + pool[idx]: in every 16-row chunk, rows 0 mod 4 sit exactly
// on the radius of the gathered value and rows 2 mod 4 on that of
// `base`; the rest spread over +-(2r + 1) around the gathered value.
TieColumns MakeTieColumns(size_t count, double base, const double* pool,
                          size_t pool_size, double r, Rng* rng) {
  TieColumns c;
  const int64_t spread = 2 * static_cast<int64_t>(r) + 1;
  for (size_t i = 0; i < count; ++i) {
    const uint32_t k = static_cast<uint32_t>((*rng)() % pool_size);
    const double q = i % 4 == 2 ? base : base + pool[k];
    const double side = (*rng)() % 2 ? r : -r;
    const double x =
        i % 2 == 0 ? q + side
                   : q + double(int64_t((*rng)() % (2 * spread + 1)) - spread);
    c.idx.push_back(k);
    c.cold.push_back(x);
    c.colf.push_back(FilterValue(x));
  }
  return c;
}

ExactSlot TieSlot(const TieColumns& c, double qd, double rd) {
  ExactSlot s;
  s.colf = c.colf.data();
  s.cold = c.cold.data();
  s.qf = FilterValue(qd);
  s.rw = ConservativeFilterRadius(std::fabs(qd), rd);
  s.rn = CertificateFilterRadius(std::fabs(qd), rd);
  s.qd = qd;
  s.rd = rd;
  return s;
}

// `qd` and its f32 copy `qf` must outlive the slot.
ExactSlotGather TieGatherSlot(const TieColumns& c,
                              const std::vector<double>& qd,
                              const std::vector<float>& qf, double rd) {
  double qmax = 0;
  for (double v : qd) qmax = std::max(qmax, std::fabs(v));
  ExactSlotGather s;
  s.colf = c.colf.data();
  s.cold = c.cold.data();
  s.idx = c.idx.data();
  s.qf_pool = qf.data();
  s.qd_pool = qd.data();
  s.rw = ConservativeFilterRadius(qmax, rd);
  s.rn = CertificateFilterRadius(qmax, rd);
  s.rd = rd;
  return s;
}

std::vector<uint8_t> WantMask(const TieColumns& c, const ExactSlot& s) {
  std::vector<uint8_t> want(c.cold.size());
  for (size_t i = 0; i < want.size(); ++i) {
    want[i] = std::fabs(c.cold[i] - s.qd) <= s.rd;
  }
  return want;
}

std::vector<uint8_t> WantMask(const TieColumns& c, const ExactSlotGather& s) {
  std::vector<uint8_t> want(c.cold.size());
  for (size_t i = 0; i < want.size(); ++i) {
    want[i] = std::fabs(c.cold[i] - s.qd_pool[c.idx[i]]) <= s.rd;
  }
  return want;
}

// True when every chunk of three or more rows holds a row whose f32
// distance lies between the narrow and wide radii: a row only the f64
// column can settle.  qf_of(i) is row i's f32 query value.
template <typename QfOf>
bool EveryChunkAmbiguous(const TieColumns& c, QfOf qf_of, float rn,
                         float rw) {
  for (size_t i0 = 0; i0 + 3 <= c.colf.size(); i0 += 16) {
    bool found = false;
    for (size_t i = i0; i < std::min(c.colf.size(), i0 + 16); ++i) {
      const float d = std::fabs(c.colf[i] - qf_of(i));
      found |= d > rn && d <= rw;
    }
    if (!found) return false;
  }
  return true;
}

size_t SetCount(const std::vector<uint8_t>& mask) {
  return static_cast<size_t>(std::count(mask.begin(), mask.end(), 1));
}

// The compacted survivor list of `keep` must be the set rows of `want`.
void ExpectCompactEquals(const SimdOps& ops, const uint8_t* keep,
                         const std::vector<uint8_t>& want) {
  std::vector<uint32_t> surv(want.size() + kSurvWriteSlack);
  surv.resize(ops.compact(keep, want.size(), surv.data()));
  std::vector<uint32_t> expect;
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i]) expect.push_back(static_cast<uint32_t>(i));
  }
  EXPECT_EQ(surv, expect);
}

TEST(SimdFilterTest, IntegerTiesSettleExactlyInEveryKernel) {
  const std::vector<double> pool = {0, 3, 7, 12, 20, 31, 45};
  for (double base : {40.0, 1000.0, 16777217.0}) {
    for (double r : {0.0, 1.0, 3.0, 17.0}) {
      for (size_t count : {1u, 9u, 17u, 100u, 255u}) {
        Rng rng(static_cast<uint64_t>(base + r * 1000 + count));
        const TieColumns c =
            MakeTieColumns(count, base, pool.data(), pool.size(), r, &rng);
        std::vector<double> qd_pool(pool.size());
        std::vector<float> qf_pool(pool.size());
        for (size_t k = 0; k < pool.size(); ++k) {
          qd_pool[k] = base + pool[k];
          qf_pool[k] = FilterValue(qd_pool[k]);
        }
        std::vector<uint8_t> pre(count);
        for (uint8_t& b : pre) b = rng() % 4 != 0;
        const ExactSlot s = TieSlot(c, base, r);
        const ExactSlotGather g = TieGatherSlot(c, qd_pool, qf_pool, r);
        if (base < 1e6) {  // integers exact in f32: ties are ambiguous
          EXPECT_TRUE(EveryChunkAmbiguous(
              c, [&](size_t) { return s.qf; }, s.rn, s.rw));
          EXPECT_TRUE(EveryChunkAmbiguous(
              c, [&](size_t i) { return qf_pool[c.idx[i]]; }, g.rn, g.rw));
        }
        const std::vector<uint8_t> want = WantMask(c, s);
        const std::vector<uint8_t> want_g = WantMask(c, g);
        std::vector<uint8_t> want_and(count), want_and_g(count);
        for (size_t i = 0; i < count; ++i) {
          want_and[i] = pre[i] & want[i];
          want_and_g[i] = pre[i] & want_g[i];
        }
        for (SimdLevel level : SupportedSimdLevels()) {
          ForceLevel(level);
          const SimdOps& ops = SimdDispatch();
          SCOPED_TRACE(::testing::Message()
                       << "level=" << SimdLevelName(level) << " base=" << base
                       << " r=" << r << " rows=" << count);
          std::vector<uint8_t> keep(count, 7);
          EXPECT_EQ(ops.mask_sweep(s, count, keep.data()), SetCount(want));
          EXPECT_EQ(keep, want) << "sweep";
          ExpectCompactEquals(ops, keep.data(), want);
          keep = pre;
          EXPECT_EQ(ops.mask_and(s, count, keep.data()), SetCount(want_and));
          EXPECT_EQ(keep, want_and) << "and";
          ExpectCompactEquals(ops, keep.data(), want_and);
          keep.assign(count, 7);
          EXPECT_EQ(ops.mask_sweep_gather(g, count, keep.data()),
                    SetCount(want_g));
          EXPECT_EQ(keep, want_g) << "sweep gather";
          ExpectCompactEquals(ops, keep.data(), want_g);
          keep = pre;
          EXPECT_EQ(ops.mask_and_gather(g, count, keep.data()),
                    SetCount(want_and_g));
          EXPECT_EQ(keep, want_and_g) << "and gather";
          ExpectCompactEquals(ops, keep.data(), want_and_g);
        }
      }
    }
  }
  RestoreDefaultLevel();
}

// The multi-query forms on the same tie-dense columns: group sizes cover
// the 8- and 4-query register groups and their single-query tails.  Query
// j moves its values by m = j % 3 - 1 and widens its radius by |m|, so
// each tie row of the columns stays a tie on one side for every query.
TEST(SimdFilterTest, IntegerTiesSettleExactlyInMultiKernels) {
  const std::vector<double> pool = {0, 3, 7, 12, 20, 31, 45};
  const size_t kStride = 256;
  for (double base : {40.0, 16777217.0}) {
    for (size_t count : {9u, 100u, 255u}) {
      Rng rng(static_cast<uint64_t>(base) + count);
      const double r = 3.0;
      const TieColumns c =
          MakeTieColumns(count, base, pool.data(), pool.size(), r, &rng);
      for (size_t nq : {1u, 4u, 5u, 8u, 13u, 16u}) {
        std::vector<ExactSlot> slots(nq);
        std::vector<ExactSlotGather> gslots(nq);
        std::vector<std::vector<double>> qd(nq);
        std::vector<std::vector<float>> qf(nq);
        for (size_t j = 0; j < nq; ++j) {
          const double move = double(j % 3) - 1;
          const double rj = r + std::fabs(move);
          slots[j] = TieSlot(c, base + move, rj);
          for (double p : pool) {
            qd[j].push_back(base + p + move);
            qf[j].push_back(FilterValue(qd[j].back()));
          }
          gslots[j] = TieGatherSlot(c, qd[j], qf[j], rj);
        }
        for (SimdLevel level : SupportedSimdLevels()) {
          ForceLevel(level);
          const SimdOps& ops = SimdDispatch();
          std::vector<uint8_t> keep(nq * kStride, 7);
          std::vector<size_t> counts(nq);
          ops.mask_sweep_multi(slots.data(), nq, count, keep.data(), kStride,
                               counts.data());
          for (size_t j = 0; j < nq; ++j) {
            SCOPED_TRACE(::testing::Message()
                         << "multi level=" << SimdLevelName(level)
                         << " base=" << base << " rows=" << count
                         << " nq=" << nq << " q=" << j);
            const std::vector<uint8_t> want = WantMask(c, slots[j]);
            const std::vector<uint8_t> got(keep.begin() + j * kStride,
                                           keep.begin() + j * kStride + count);
            EXPECT_EQ(got, want);
            EXPECT_EQ(counts[j], SetCount(want));
            ExpectCompactEquals(ops, got.data(), want);
          }
          keep.assign(nq * kStride, 7);
          ops.mask_sweep_gather_multi(gslots.data(), nq, count, keep.data(),
                                      kStride, counts.data());
          for (size_t j = 0; j < nq; ++j) {
            SCOPED_TRACE(::testing::Message()
                         << "multi gather level=" << SimdLevelName(level)
                         << " base=" << base << " rows=" << count
                         << " nq=" << nq << " q=" << j);
            const std::vector<uint8_t> want = WantMask(c, gslots[j]);
            const std::vector<uint8_t> got(keep.begin() + j * kStride,
                                           keep.begin() + j * kStride + count);
            EXPECT_EQ(got, want);
            EXPECT_EQ(counts[j], SetCount(want));
            ExpectCompactEquals(ops, got.data(), want);
          }
        }
      }
    }
  }
  RestoreDefaultLevel();
}

// The PMI_SIMD knob itself: unknown values ("avx2" names no level)
// fall back to a supported level instead of crashing, and "scalar"
// always pins the scalar table.
TEST(SimdFilterTest, EnvKnobFallsBackSafely) {
  for (const char* unknown : {"warp9", "avx2"}) {
    ASSERT_EQ(setenv("PMI_SIMD", unknown, 1), 0);
    ReinitSimdDispatch();
    EXPECT_TRUE(SimdLevelSupported(SimdLevelInUse())) << unknown;
  }
  ForceLevel(SimdLevel::kScalar);
  EXPECT_EQ(SimdLevelInUse(), SimdLevel::kScalar);
  RestoreDefaultLevel();
  EXPECT_TRUE(SimdLevelSupported(SimdLevelInUse()));
}

}  // namespace
}  // namespace pmi
