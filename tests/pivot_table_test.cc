// Equivalence tests for the columnar PivotTable: every scan must make
// byte-for-byte the same pruning decisions as the naive row-major
// Lemma-1 loop it replaced (PrunedByPivots over an |P|-strided row), for
// both the shared-pivot and the per-row-pivot (EPT) layouts, across
// block-boundary row counts, radii, and swap-removals -- and, under a
// real kNN heap, must verify exactly the rows the row-major MkNNQ loop
// verifies, in the same order, down to the scan-table indexes' compdists.

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/filtering.h"
#include "src/core/knn_heap.h"
#include "src/core/pivot_selection.h"
#include "src/core/pivot_table.h"
#include "src/core/rng.h"
#include "src/data/generators.h"
#include "src/tables/cpt.h"
#include "src/tables/ept.h"
#include "src/tables/laesa.h"

namespace pmi {
namespace {

// Reference model: the pre-columnar row-major table and scan loops.
struct RowMajorTable {
  uint32_t l = 0;
  std::vector<double> dist;   // rows x l
  std::vector<uint32_t> idx;  // rows x l (per-row-pivot only)

  size_t rows() const { return l == 0 ? 0 : dist.size() / l; }

  std::vector<uint32_t> RangeScan(const std::vector<double>& phi_q,
                                  double r) const {
    std::vector<uint32_t> out;
    for (size_t i = 0; i < rows(); ++i) {
      if (!PrunedByPivots(&dist[i * l], phi_q.data(), l, r)) {
        out.push_back(static_cast<uint32_t>(i));
      }
    }
    return out;
  }

  std::vector<uint32_t> RangeScanIndirect(const std::vector<double>& d_qp,
                                          double r) const {
    std::vector<uint32_t> out;
    for (size_t i = 0; i < rows(); ++i) {
      bool pruned = false;
      for (uint32_t j = 0; j < l && !pruned; ++j) {
        pruned = std::fabs(dist[i * l + j] - d_qp[idx[i * l + j]]) > r;
      }
      if (!pruned) out.push_back(static_cast<uint32_t>(i));
    }
    return out;
  }

  // Lemma 1 on row i at radius r; `q` is in the table's layout (phi(q),
  // or per pool pivot when idx is set).
  bool Pruned(size_t i, const std::vector<double>& q, double r) const {
    for (uint32_t j = 0; j < l; ++j) {
      const double qv = idx.empty() ? q[j] : q[idx[i * l + j]];
      if (std::fabs(dist[i * l + j] - qv) > r) return true;
    }
    return false;
  }

  // The row-major MkNNQ loop: row by row, prune at the heap's current
  // radius, else verify(row, radius) -> the row's distance, which goes
  // into the heap under the row's index.  Returns the verified rows.
  // `late_pruned` (optional) counts the pruned rows that would have
  // passed at the radius their 256-row block started with.
  template <typename VerifyFn>
  std::vector<uint32_t> KnnScan(const std::vector<double>& q, KnnHeap* heap,
                                VerifyFn&& verify,
                                size_t* late_pruned = nullptr) const {
    std::vector<uint32_t> verified;
    double block_radius = 0;
    for (size_t i = 0; i < rows(); ++i) {
      if (i % PivotTable::kScanBlock == 0) block_radius = heap->radius();
      if (Pruned(i, q, heap->radius())) {
        if (late_pruned != nullptr && !Pruned(i, q, block_radius)) {
          ++*late_pruned;
        }
        continue;
      }
      verified.push_back(static_cast<uint32_t>(i));
      heap->Push(ObjectId(i), verify(i, heap->radius()));
    }
    return verified;
  }

  static RowMajorTable CopyOf(const PivotTable& t) {
    RowMajorTable ref;
    ref.l = t.width();
    for (size_t i = 0; i < t.rows(); ++i) {
      for (uint32_t j = 0; j < t.width(); ++j) {
        ref.dist.push_back(t.distance(i, j));
        if (t.per_row_pivots()) ref.idx.push_back(t.pivot_index(i, j));
      }
    }
    return ref;
  }
};

struct Tables {
  RowMajorTable ref;
  PivotTable columnar;
};

Tables MakeShared(size_t rows, uint32_t l, uint64_t seed) {
  Tables t;
  t.ref.l = l;
  t.columnar.Reset(l);
  Rng rng(seed);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  std::vector<double> row(l);
  for (size_t i = 0; i < rows; ++i) {
    for (uint32_t p = 0; p < l; ++p) row[p] = u(rng);
    t.ref.dist.insert(t.ref.dist.end(), row.begin(), row.end());
    t.columnar.AppendRow(row.data());
  }
  return t;
}

Tables MakeIndirect(size_t rows, uint32_t l, uint32_t pool, uint64_t seed) {
  Tables t;
  t.ref.l = l;
  t.columnar.Reset(l, /*per_row_pivots=*/true);
  Rng rng(seed);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  std::vector<double> rd(l);
  std::vector<uint32_t> ri(l);
  for (size_t i = 0; i < rows; ++i) {
    for (uint32_t j = 0; j < l; ++j) {
      rd[j] = u(rng);
      ri[j] = rng() % pool;
    }
    t.ref.dist.insert(t.ref.dist.end(), rd.begin(), rd.end());
    t.ref.idx.insert(t.ref.idx.end(), ri.begin(), ri.end());
    t.columnar.AppendRow(rd.data(), ri.data());
  }
  return t;
}

// Row counts probing the 256-row block machinery: empty, single, partial
// block, exact block, one over, multiple blocks with ragged tail.
const size_t kRowCounts[] = {0, 1, 100, 255, 256, 257, 1000, 2048};

TEST(PivotTableTest, SharedScanMatchesRowMajorReference) {
  for (size_t rows : kRowCounts) {
    for (uint32_t l : {1u, 3u, 5u, 8u}) {
      Tables t = MakeShared(rows, l, 42 + rows + l);
      Rng rng(7);
      std::uniform_real_distribution<double> u(0.0, 100.0);
      for (double r : {0.0, 3.0, 10.0, 40.0, 80.0, 120.0}) {
        std::vector<double> phi_q(l);
        for (auto& x : phi_q) x = u(rng);
        std::vector<uint32_t> got;
        t.columnar.RangeScan(phi_q, r, &got);
        EXPECT_EQ(got, t.ref.RangeScan(phi_q, r))
            << "rows=" << rows << " l=" << l << " r=" << r;
      }
    }
  }
}

TEST(PivotTableTest, IndirectScanMatchesRowMajorReference) {
  const uint32_t kPool = 24;
  for (size_t rows : kRowCounts) {
    for (uint32_t l : {1u, 4u}) {
      Tables t = MakeIndirect(rows, l, kPool, 99 + rows + l);
      Rng rng(13);
      std::uniform_real_distribution<double> u(0.0, 100.0);
      for (double r : {0.0, 5.0, 25.0, 75.0}) {
        std::vector<double> d_qp(kPool);
        for (auto& x : d_qp) x = u(rng);
        std::vector<uint32_t> got;
        t.columnar.RangeScan(d_qp, r, &got);
        EXPECT_EQ(got, t.ref.RangeScanIndirect(d_qp, r))
            << "rows=" << rows << " l=" << l << " r=" << r;
      }
    }
  }
}

TEST(PivotTableTest, ScanDynamicWithFixedRadiusMatchesRowMajorReference) {
  Tables t = MakeShared(1500, 4, 5);
  std::vector<double> phi_q = {50, 20, 80, 44};
  for (double r : {1.0, 15.0, 60.0}) {
    std::vector<uint32_t> dynamic;
    t.columnar.ScanDynamic(
        phi_q, [&] { return r; },
        [&](size_t row) { dynamic.push_back(static_cast<uint32_t>(row)); });
    EXPECT_EQ(dynamic, t.ref.RangeScan(phi_q, r)) << "r=" << r;
  }
}

// A synthetic object distance for row i of `ref` under query q: the
// row's Lemma-1 lower bound plus a fixed per-row slack, so it is a
// distance the table's pruning is sound for.
struct SyntheticDistances {
  std::vector<double> slack;  // per row

  double operator()(const RowMajorTable& ref, const std::vector<double>& q,
                    size_t i) const {
    double lb = 0;
    for (uint32_t j = 0; j < ref.l; ++j) {
      const double qv = ref.idx.empty() ? q[j] : q[ref.idx[i * ref.l + j]];
      lb = std::max(lb, std::fabs(ref.dist[i * ref.l + j] - qv));
    }
    return lb + slack[i];
  }
};

// MkNNQ verification under a real heap: the shrinking radius re-enters
// the filter per block and re-checks survivors mid-block, and the rows
// handed to verify -- count and order -- must be exactly those of the
// row-major loop, on both layouts, single-query and block-major.  (A
// survivor that skipped its re-check after the radius shrank would be
// verified here although the row-major loop prunes it.)
TEST(PivotTableTest, KnnHeapVerifiesExactlyTheRowMajorRows) {
  const size_t kRows = 3 * PivotTable::kScanBlock + 77;
  const uint32_t kPool = 24;
  for (bool per_row : {false, true}) {
    Tables t = per_row ? MakeIndirect(kRows, 3, kPool, 61)
                       : MakeShared(kRows, 3, 61);
    Rng rng(8);
    std::uniform_real_distribution<double> u(0.0, 100.0);
    SyntheticDistances dist{std::vector<double>(kRows)};
    for (auto& x : dist.slack) x = u(rng) / 4;
    std::vector<std::vector<double>> qs(9);
    for (auto& q : qs) {
      q.resize(per_row ? kPool : 3);
      for (auto& x : q) x = u(rng);
    }
    const size_t ks[] = {1, 5, 20, 0, 40, 3, 10, 1000, 2};

    std::vector<std::vector<uint32_t>> want(qs.size());
    size_t late_pruned = 0;
    for (size_t qi = 0; qi < qs.size(); ++qi) {
      KnnHeap heap(ks[qi]);
      want[qi] = t.ref.KnnScan(
          qs[qi], &heap,
          [&](size_t row, double) { return dist(t.ref, qs[qi], row); },
          &late_pruned);
    }
    // The case under test must occur: rows that pass at their block's
    // entry radius but not at the row-major loop's radius.
    ASSERT_GT(late_pruned, 0u);

    for (size_t qi = 0; qi < qs.size(); ++qi) {
      KnnHeap heap(ks[qi]);
      std::vector<uint32_t> got;
      t.columnar.ScanDynamic(
          qs[qi], [&] { return heap.radius(); },
          [&](size_t row) {
            got.push_back(static_cast<uint32_t>(row));
            heap.Push(ObjectId(row), dist(t.ref, qs[qi], row));
          });
      EXPECT_EQ(got, want[qi]) << "per_row=" << per_row << " qi=" << qi;
    }

    std::vector<KnnHeap> heaps;
    for (size_t k : ks) heaps.emplace_back(k);
    std::vector<std::vector<uint32_t>> got(qs.size());
    t.columnar.ScanBlockMajor(
        qs, [&](size_t qi) { return heaps[qi].radius(); },
        [&](size_t qi, size_t row) {
          got[qi].push_back(static_cast<uint32_t>(row));
          heaps[qi].Push(ObjectId(row), dist(t.ref, qs[qi], row));
        },
        [](size_t, size_t) {});
    for (size_t qi = 0; qi < qs.size(); ++qi) {
      EXPECT_EQ(got[qi], want[qi])
          << "block-major per_row=" << per_row << " qi=" << qi;
    }
  }
}

// The same pin one level up: every scan-table index's MkNNQ compdists
// must equal its query mapping plus one verification per row the
// row-major loop verifies, single-query and batched.  A fresh build
// stores object i in row i, so the loop verifies row i against object i.
TEST(PivotTableTest, ScanTableIndexKnnCompdistsMatchRowMajorLoop) {
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, 2500, 11);
  PivotSelectionOptions po;
  po.sample_size = 1000;
  PivotSet pivots = SelectSharedPivots(bd.data, *bd.metric, 5, po);
  Laesa laesa;
  Ept ept(Ept::Variant::kClassic);
  Ept ept_star(Ept::Variant::kStar);
  Cpt cpt;
  // Query-side vector of each index's table layout.
  using MapFn = std::function<void(const ObjectView&, const DistanceComputer&,
                                   std::vector<double>*)>;
  struct Case {
    MetricIndex* index;
    const PivotTable* table;
    MapFn map;
  };
  const Case cases[] = {
      {&laesa, &laesa.table(),
       [&](const ObjectView& q, const DistanceComputer& d,
           std::vector<double>* v) { laesa.MapQuery(q, d, v); }},
      {&ept, &ept.table(),
       [&](const ObjectView& q, const DistanceComputer& d,
           std::vector<double>* v) { ept.MapQuery(q, d, v); }},
      {&ept_star, &ept_star.table(),
       [&](const ObjectView& q, const DistanceComputer& d,
           std::vector<double>* v) { ept_star.MapQuery(q, d, v); }},
      {&cpt, &cpt.table(),
       [&](const ObjectView& q, const DistanceComputer& d,
           std::vector<double>* v) { pivots.Map(q, d, v); }},
  };
  Rng rng(3);
  std::vector<ObjectView> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(bd.data.view(rng() % bd.data.size()));
  }
  const size_t kK = 20;
  for (const Case& c : cases) {
    c.index->Build(bd.data, *bd.metric, pivots);
    const RowMajorTable ref = RowMajorTable::CopyOf(*c.table);
    std::vector<std::vector<Neighbor>> batch;
    std::vector<OpStats> batch_stats;
    c.index->KnnQueryBatch(queries, std::vector<size_t>(queries.size(), kK),
                           &batch, &batch_stats);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const ObjectView& q = queries[qi];
      PerfCounters counted;
      DistanceComputer d(bd.metric.get(), &counted);
      std::vector<double> qv;
      c.map(q, d, &qv);
      KnnHeap heap(kK);
      ref.KnnScan(qv, &heap, [&](size_t row, double radius) {
        return d.Bounded(q, bd.data.view(ObjectId(row)), radius);
      });
      std::vector<Neighbor> want, got;
      heap.TakeSorted(&want);
      const OpStats s = c.index->KnnQuery(q, kK, &got);
      EXPECT_EQ(s.dist_computations, counted.dist_computations)
          << c.index->name() << " qi=" << qi;
      EXPECT_EQ(batch_stats[qi].dist_computations, counted.dist_computations)
          << c.index->name() << " batched qi=" << qi;
      ASSERT_EQ(got.size(), want.size()) << c.index->name();
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id) << c.index->name() << " qi=" << qi;
        EXPECT_EQ(got[i].dist, want[i].dist) << c.index->name();
      }
    }
  }
}

TEST(PivotTableTest, ScanDynamicShrinkingRadiusYieldsSubset) {
  // A radius that tightens mid-scan (the MkNNQ pattern) must only ever
  // remove rows relative to the loosest radius, and keep everything the
  // tightest radius keeps.
  Tables t = MakeShared(3000, 3, 17);
  std::vector<double> phi_q = {30, 60, 10};
  const double r_start = 50, r_end = 10;
  std::vector<uint32_t> loose, tight, shrinking;
  t.columnar.RangeScan(phi_q, r_start, &loose);
  t.columnar.RangeScan(phi_q, r_end, &tight);
  size_t seen = 0;
  t.columnar.ScanDynamic(
      phi_q, [&] { return seen < 1000 ? r_start : r_end; },
      [&](size_t row) {
        seen = row;
        shrinking.push_back(static_cast<uint32_t>(row));
      });
  for (uint32_t row : tight) {
    if (row >= 1280) {  // strictly past every loose-radius block
      EXPECT_TRUE(std::find(shrinking.begin(), shrinking.end(), row) !=
                  shrinking.end());
    }
  }
  for (uint32_t row : shrinking) {
    EXPECT_TRUE(std::find(loose.begin(), loose.end(), row) != loose.end());
  }
}

TEST(PivotTableTest, RemoveRowSwapMovesLastRow) {
  Tables t = MakeIndirect(10, 2, 8, 3);
  const double last_d0 = t.columnar.distance(9, 0);
  const double last_d1 = t.columnar.distance(9, 1);
  const uint32_t last_i0 = t.columnar.pivot_index(9, 0);
  const uint32_t last_i1 = t.columnar.pivot_index(9, 1);
  t.columnar.RemoveRowSwap(4);
  ASSERT_EQ(t.columnar.rows(), 9u);
  EXPECT_EQ(t.columnar.distance(4, 0), last_d0);
  EXPECT_EQ(t.columnar.distance(4, 1), last_d1);
  EXPECT_EQ(t.columnar.pivot_index(4, 0), last_i0);
  EXPECT_EQ(t.columnar.pivot_index(4, 1), last_i1);
  // Removing the final row needs no swap and must not read freed memory.
  t.columnar.RemoveRowSwap(8);
  EXPECT_EQ(t.columnar.rows(), 8u);
}

TEST(PivotTableTest, RemovalKeepsScansConsistent) {
  Tables t = MakeShared(600, 3, 11);
  Rng rng(1);
  // Mirror removals in the reference (same swap-with-last order).
  auto remove_both = [&](size_t row) {
    const size_t last = t.ref.rows() - 1;
    for (uint32_t p = 0; p < 3; ++p) {
      t.ref.dist[row * 3 + p] = t.ref.dist[last * 3 + p];
    }
    t.ref.dist.resize(last * 3);
    t.columnar.RemoveRowSwap(row);
  };
  for (int i = 0; i < 300; ++i) remove_both(rng() % t.columnar.rows());
  std::vector<double> phi_q = {10, 90, 50};
  for (double r : {5.0, 30.0, 70.0}) {
    std::vector<uint32_t> got;
    t.columnar.RangeScan(phi_q, r, &got);
    EXPECT_EQ(got, t.ref.RangeScan(phi_q, r)) << "r=" << r;
  }
}

TEST(PivotTableTest, InfiniteAndNegativeRadii) {
  Tables t = MakeShared(400, 2, 23);
  std::vector<double> phi_q = {1, 2};
  std::vector<uint32_t> got;
  t.columnar.RangeScan(phi_q, std::numeric_limits<double>::infinity(), &got);
  EXPECT_EQ(got.size(), 400u);  // nothing prunes at r = inf
  got.clear();
  // KnnHeap::radius() is -inf for k = 0: everything must prune.
  t.columnar.RangeScan(phi_q, -std::numeric_limits<double>::infinity(),
                       &got);
  EXPECT_TRUE(got.empty());
}

TEST(PivotTableTest, ZeroWidthTableNeverPrunes) {
  PivotTable table;
  table.Reset(0);
  for (int i = 0; i < 300; ++i) table.AppendRow(nullptr);
  std::vector<uint32_t> got;
  table.RangeScan({}, 1.0, &got);
  EXPECT_EQ(got.size(), 300u);
}

TEST(PivotTableTest, MemoryAccounting) {
  // Each cell carries its double plus the derived f32 filter mirror
  // (plus the pool-index column in per-row-pivot mode).
  Tables shared = MakeShared(100, 4, 2);
  EXPECT_EQ(shared.columnar.memory_bytes(),
            100u * 4 * (sizeof(double) + sizeof(float)));
  Tables indirect = MakeIndirect(100, 4, 8, 2);
  EXPECT_EQ(indirect.columnar.memory_bytes(),
            100u * 4 * (sizeof(double) + sizeof(float) + sizeof(uint32_t)));
}

// Every mutator must keep the derived f32 filter columns cell-coherent
// with the double columns: fcol[row] == FilterValue(col[row]) always.
void ExpectFilterCoherent(const PivotTable& t) {
  for (uint32_t p = 0; p < t.width(); ++p) {
    for (size_t row = 0; row < t.rows(); ++row) {
      EXPECT_EQ(t.filter_value(row, p), FilterValue(t.distance(row, p)))
          << "slot=" << p << " row=" << row;
    }
  }
}

TEST(PivotTableTest, FilterColumnsStayCoherentUnderMutation) {
  PivotTable t;
  t.Reset(3);
  // ResizeRows + SetRow (the parallel-build path).
  t.ResizeRows(600);
  Rng rng(5);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  std::vector<double> row(3);
  for (size_t i = 0; i < 600; ++i) {
    for (auto& x : row) x = u(rng);
    t.SetRow(i, row.data());
  }
  ExpectFilterCoherent(t);
  // AppendRow, including values past the float range and denormals.
  const double specials[][3] = {{1e300, -1e300, 5e-324},
                               {1e-40, 3.4028235e38, 0.0}};
  for (const auto& s : specials) t.AppendRow(s);
  ExpectFilterCoherent(t);
  // SetCell (the snapshot-load path).
  t.SetCell(3, 1, 7e205);
  t.SetCell(0, 0, 1e-320);
  ExpectFilterCoherent(t);
  // RemoveRowSwap keeps the moved row's mirror.
  for (int i = 0; i < 250; ++i) t.RemoveRowSwap(rng() % t.rows());
  ExpectFilterCoherent(t);
  // Shrinking ResizeRows resets to zeroed coherent state.
  t.ResizeRows(10);
  ExpectFilterCoherent(t);

  // Per-row-pivot layout through the same mutations.
  PivotTable ti;
  ti.Reset(2, /*per_row_pivots=*/true);
  double rd[2];
  uint32_t ri[2];
  for (size_t i = 0; i < 300; ++i) {
    rd[0] = u(rng);
    rd[1] = i % 7 == 0 ? 1e39 : u(rng);
    ri[0] = rng() % 8;
    ri[1] = rng() % 8;
    ti.AppendRow(rd, ri);
  }
  ExpectFilterCoherent(ti);
  for (int i = 0; i < 120; ++i) ti.RemoveRowSwap(rng() % ti.rows());
  ExpectFilterCoherent(ti);
}

}  // namespace
}  // namespace pmi
