// Structural white-box tests for index internals that the black-box
// conformance suite cannot see: EPT row invariants, FQA sort order,
// M-index cluster-tree invariants, SPB-tree key stability and known
// answers, known MRQ/MkNNQ costs of the indexes that run both query
// types through one body, the paged pivot table of OmniSeq and
// EPT*-disk, CPT leaf pointers, and EPT group-size estimation.

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <numeric>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/linear_scan.h"
#include "src/core/pivot_selection.h"
#include "src/core/simd.h"
#include "src/data/generators.h"
#include "src/external/spb_tree.h"
#include "src/harness/registry.h"
#include "src/tables/ept.h"
#include "src/tables/psa.h"

namespace pmi {
namespace {

struct World {
  explicit World(BenchDatasetId id, uint32_t n)
      : bd(MakeBenchDataset(id, n, 21)) {
    PivotSelectionOptions po;
    po.sample_size = std::min(n, 1000u);
    pivots = SelectSharedPivots(bd.data, *bd.metric, 5, po);
  }
  BenchDataset bd;
  PivotSet pivots;
};

TEST(EptInternalsTest, GroupSizeEstimationStaysInRange) {
  World w(BenchDatasetId::kSynthetic, 3000);
  IndexOptions opts;
  opts.ept_group_size = 0;  // force Equation (1) estimation
  Ept ept(Ept::Variant::kClassic, opts);
  ept.Build(w.bd.data, *w.bd.metric, w.pivots);
  EXPECT_GE(ept.group_size(), 2u);
  EXPECT_LE(ept.group_size(), 16u);
}

TEST(EptInternalsTest, ExplicitGroupSizeIsHonored) {
  World w(BenchDatasetId::kLa, 2000);
  IndexOptions opts;
  opts.ept_group_size = 7;
  Ept ept(Ept::Variant::kClassic, opts);
  ept.Build(w.bd.data, *w.bd.metric, w.pivots);
  EXPECT_EQ(ept.group_size(), 7u);
}

TEST(PsaSelectorTest, StoredDistancesAreExact) {
  // The (pivot, distance) pairs PSA emits must be the true distances to
  // the chosen pool pivots -- Lemma 1 soundness depends on it.
  World w(BenchDatasetId::kColor, 600);
  PerfCounters c;
  DistanceComputer dist(w.bd.metric.get(), &c);
  PsaSelector psa;
  psa.Build(w.bd.data, dist, 40, 32, 9);
  uint32_t pidx[4];
  double pdist[4];
  for (ObjectId id = 0; id < 50; ++id) {
    psa.SelectForObject(w.bd.data.view(id), dist, 4, pidx, pdist);
    std::set<uint32_t> uniq(pidx, pidx + 4);
    EXPECT_EQ(uniq.size(), 4u) << "PSA must pick distinct pivots";
    for (int j = 0; j < 4; ++j) {
      ASSERT_LT(pidx[j], psa.pool().size());
      double truth = w.bd.metric->Distance(w.bd.data.view(id),
                                           psa.pool().pivot(pidx[j]));
      EXPECT_DOUBLE_EQ(pdist[j], truth);
    }
  }
}

TEST(PsaSelectorTest, FirstPivotMaximizesTheObjective) {
  // Greedy round 1 must pick the candidate with the highest mean
  // |d(o,c) - d(s,c)| / d(o,s); verify against a brute-force evaluation.
  World w(BenchDatasetId::kLa, 500);
  PerfCounters c;
  DistanceComputer dist(w.bd.metric.get(), &c);
  PsaSelector psa;
  psa.Build(w.bd.data, dist, 20, 16, 9);
  // Rebuild the sample the same way the selector does to cross-check.
  Rng rng(9 ^ 0x97a);
  std::vector<ObjectId> sample_ids =
      SelectPivotsRandom(w.bd.data, 16, rng);
  uint32_t pidx[1];
  double pdist[1];
  ObjectView o = w.bd.data.view(123);
  psa.SelectForObject(o, dist, 1, pidx, pdist);
  double best_score = -1;
  uint32_t best_c = 0;
  for (uint32_t cand = 0; cand < psa.pool().size(); ++cand) {
    double score = 0;
    for (ObjectId s : sample_ids) {
      double dos = w.bd.metric->Distance(o, w.bd.data.view(s));
      if (dos <= 0) continue;
      double doc = w.bd.metric->Distance(o, psa.pool().pivot(cand));
      double dsc = w.bd.metric->Distance(w.bd.data.view(s),
                                         psa.pool().pivot(cand));
      score += std::fabs(doc - dsc) / dos;
    }
    if (score > best_score) {
      best_score = score;
      best_c = cand;
    }
  }
  EXPECT_EQ(pidx[0], best_c);
}

TEST(SpbInternalsTest, KeysAreStableAcrossRemoveInsert) {
  // Remove + re-insert must regenerate the identical Hilbert key, or the
  // B+-tree would accumulate ghosts.  Exercised via repeated cycles.
  World w(BenchDatasetId::kWords, 2000);
  SpbTree spb;
  spb.Build(w.bd.data, *w.bd.metric, w.pivots);
  size_t disk_before = spb.disk_bytes();
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (ObjectId id = 0; id < 100; ++id) {
      spb.Remove(id);
      spb.Insert(id);
    }
  }
  std::vector<ObjectId> out;
  spb.RangeQuery(w.bd.data.view(0), w.bd.metric->max_distance(), &out);
  EXPECT_EQ(out.size(), w.bd.data.size()) << "ghost or lost entries";
  // RAF grows (appends), but boundedly: 300 re-inserted word records.
  EXPECT_LT(spb.disk_bytes(), disk_before + 400 * 1024);
}

struct MrqAnswer {
  ObjectId query;
  std::vector<ObjectId> ids;  // ascending
};
struct KnnAnswer {
  ObjectId query;
  std::vector<std::pair<double, ObjectId>> neighbors;  // (distance, id)
};

TEST(SpbInternalsTest, KnownAnswersAndCostsOnAFixedScript) {
  // Answers, compdists and logical PA of a fixed script, recorded before
  // the SPB-tree's leaf decode became a block decode.  A change to the
  // curve or the decode that moves any of the paper's cost terms fails
  // here by name.  The script: 3,000 Synthetic objects, 5 shared pivots,
  // the default 4 KB pages and 128 KB cache; 20 rounds of one MRQ
  // (r = 2000) and one 5-NN, over objects 73 i + 11.  PA depends on the
  // order, since the simulated cache carries over between queries.
  static const MrqAnswer kMrq[] = {
      {11, {11, 49, 306, 882, 995, 1124, 1190, 1296, 1475, 2087, 2592, 2805}},
      {157, {141, 157, 159, 200, 709, 1345, 1485, 1622, 1627, 1811, 1919, 1929,
           1984, 2360}},
      {303, {103, 132, 303, 572, 820, 885, 989, 1107, 1115, 1157, 1174, 1285,
           1476, 1597, 1681, 1852, 1853, 2036, 2130, 2222, 2418, 2492, 2568,
           2629, 2702, 2999}},
      {449, {14, 403, 449, 451, 707, 819, 1023, 1052, 1077, 1225, 1284, 1513,
           1712, 1730, 2392, 2505, 2985}},
      {595, {98, 328, 402, 428, 448, 524, 544, 595, 609, 825, 1047, 1092, 1119,
           1161, 1180, 1571, 1598, 1779, 1829, 1975, 2110, 2148, 2228, 2599}},
      {741, {208, 314, 315, 606, 643, 653, 676, 741, 821, 847, 848, 985, 1051,
           1102, 1186, 1233, 1446, 1459, 1493, 1587, 1895, 1928, 1939, 2275,
           2480, 2576, 2798, 2825, 2890, 2919}},
      {887, {85, 302, 425, 532, 610, 785, 887, 911, 1347, 1653, 1662, 1702,
           1883, 1953, 2291, 2375, 2557, 2776, 2811, 2920, 2984}},
      {1033, {41, 145, 228, 780, 796, 805, 1033, 1063, 1184, 1690, 1921, 2145,
           2218, 2496, 2679, 2933}},
      {1179, {54, 347, 753, 793, 845, 951, 1179, 1395, 1575, 1623, 1700, 1806,
           2079, 2272, 2355, 2430, 2586, 2676, 2691, 2703, 2782, 2849}},
      {1325, {516, 939, 1325, 2476, 2495}},
      {1471, {86, 169, 390, 743, 1140, 1471, 2490, 2537, 2685, 2829}},
      {1617, {17, 36, 82, 91, 180, 338, 379, 480, 509, 511, 579, 719, 777, 858,
           918, 972, 1161, 1238, 1265, 1396, 1514, 1617, 1631, 1704, 1792, 1905,
           1906, 2038, 2117, 2136, 2188, 2205, 2471, 2555, 2588, 2609, 2770,
           2970}},
      {1763, {672, 1213, 1316, 1358, 1380, 1493, 1587, 1763, 2326}},
      {1909, {229, 641, 738, 845, 1266, 1421, 1452, 1527, 1787, 1797, 1842,
           1880, 1907, 1909, 1986, 2019, 2132, 2165, 2263, 2344, 2836, 2856}},
      {2055, {54, 202, 753, 932, 2055, 2060, 2077, 2079, 2430, 2703, 2782}},
      {2201, {89, 210, 1500, 1574, 1632, 2017, 2201}},
      {2347, {264, 607, 685, 735, 800, 1094, 1373, 1578, 1583, 1630, 1843, 2026,
           2347, 2440, 2737, 2875}},
      {2493, {412, 479, 886, 930, 2493, 2688, 2705, 2726}},
      {2639, {135, 300, 390, 420, 426, 587, 840, 1199, 1407, 1577, 1650, 1790,
           1835, 1862, 1910, 2234, 2416, 2488, 2535, 2537, 2639, 2659, 2861,
           2879, 2952, 2975, 2995}},
      {2785, {121, 252, 617, 694, 977, 1001, 1319, 1645, 1651, 1723, 1788, 1798,
           1931, 1932, 2116, 2349, 2412, 2785, 2818, 2931, 2955}},
  };
  static const KnnAnswer kKnn[] = {
      {84, {{0, 84}, {1200, 2675}, {1312, 834}, {1338, 1014}, {1382, 137}}},
      {230, {{0, 230}, {692, 2843}, {756, 459}, {971, 508}, {1092, 1312}}},
      {376, {{0, 376}, {1171, 1813}, {1440, 868}, {1594, 1613}, {1947, 2434}}},
      {522, {{0, 522}, {905, 153}, {935, 2278}, {1024, 68}, {1064, 2883}}},
      {668, {{0, 668}, {284, 1192}, {681, 1234}, {1151, 1647}, {1167, 2106}}},
      {814, {{0, 814}, {1005, 1286}, {1125, 1023}, {1169, 1103}, {1220, 1709}}},
      {960, {{0, 960}, {1128, 2553}, {1386, 62}, {1395, 732}, {1457, 1864}}},
      {1106, {{0, 1106}, {681, 2417}, {1133, 1276}, {1236, 593}, {1328, 576}}},
      {1252, {{0, 1252}, {1947, 1901}, {1950, 191}, {2015, 1193}, {2085, 631}}},
      {1398, {{0, 1398}, {1259, 572}, {1623, 520}, {1690, 2503}, {1936, 493}}},
      {1544, {{0, 1544}, {1331, 1125}, {1335, 522}, {1472, 298}, {1496, 888}}},
      {1690, {{0, 1690}, {1027, 1033}, {1250, 754}, {1404, 2680},
           {1546, 2933}}},
      {1836, {{0, 1836}, {1269, 2342}, {1497, 2150}, {1615, 2388},
           {1744, 798}}},
      {1982, {{0, 1982}, {650, 625}, {1129, 1350}, {1318, 343}, {1629, 2111}}},
      {2128, {{0, 2128}, {757, 2186}, {915, 77}, {1433, 1353}, {1544, 15}}},
      {2274, {{0, 2274}, {772, 2243}, {800, 1855}, {1038, 52}, {1150, 1987}}},
      {2420, {{0, 2420}, {1359, 108}, {1496, 387}, {1654, 2690}, {1675, 1375}}},
      {2566, {{0, 2566}, {1036, 1155}, {1107, 161}, {1146, 1258},
           {1208, 1429}}},
      {2712, {{0, 2712}, {1198, 1814}, {1244, 486}, {1244, 2470},
           {1266, 1378}}},
      {2858, {{0, 2858}, {1066, 1065}, {1262, 1513}, {1328, 1322},
           {1490, 551}}},
  };

  World w(BenchDatasetId::kSynthetic, 3000);
  SpbTree spb;
  OpStats build = spb.Build(w.bd.data, *w.bd.metric, w.pivots);
  EXPECT_EQ(build.dist_computations, 15000u);
  EXPECT_EQ(build.page_accesses(), 81u);
  OpStats mrq_cost, knn_cost;
  for (size_t round = 0; round < std::size(kMrq); ++round) {
    const MrqAnswer& mrq = kMrq[round];
    std::vector<ObjectId> ids;
    mrq_cost += spb.RangeQuery(w.bd.data.view(mrq.query), 2000, &ids);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, mrq.ids) << "MRQ of object " << mrq.query;

    const KnnAnswer& knn = kKnn[round];
    std::vector<Neighbor> nn;
    knn_cost += spb.KnnQuery(w.bd.data.view(knn.query), 5, &nn);
    std::vector<std::pair<double, ObjectId>> got;
    for (const Neighbor& n : nn) got.emplace_back(n.dist, n.id);
    EXPECT_EQ(got, knn.neighbors) << "5-NN of object " << knn.query;
  }
  EXPECT_EQ(mrq_cost.dist_computations, 4619u);
  EXPECT_EQ(mrq_cost.page_accesses(), 428u);
  EXPECT_EQ(knn_cost.dist_computations, 5435u);
  EXPECT_EQ(knn_cost.page_accesses(), 382u);
}

TEST(MergedQueryBodyTest, KnownAnswersAndCostsOnAFixedScript) {
  // Answers and per-query costs of a fixed script on every index that
  // runs MRQ through its MkNNQ body at a fixed radius, each recorded
  // while that index still kept separate MRQ and MkNNQ traversals (for
  // M-index and OmniB+tree, MkNNQ's rounds of growing radius).  A merged
  // body that verifies a row the range search pruned (or prunes one it
  // verified, or accepts one by Lemma 4 that it verified) moves a
  // compdists entry here.  The script: 600 Words objects, 5 shared
  // pivots, 4 KB pages behind a one-page cache; for each query object,
  // MRQs at r = 0, 6 (1-2% of the data) and max_distance() = 34 (all of
  // it), then one 10-NN.  PA depends on the order, since the simulated
  // cache carries over between queries.
  static const ObjectId kQueries[] = {14, 56, 224, 406};
  static const double kRadii[] = {0, 6, 34};
  static const std::vector<ObjectId> kMidIds[] = {
      {14, 22, 68, 173, 183, 252, 257, 284, 506, 524},
      {56, 63, 70, 158, 255, 263, 288, 339, 347, 517, 539},
      {38, 90, 163, 224, 320, 343},
      {58, 313, 334, 406, 443},
  };
  static const std::vector<std::pair<double, ObjectId>> kKnn[] = {
      {{0, 14}, {5, 506}, {5, 524}, {6, 22}, {6, 68}, {6, 173}, {6, 183},
       {6, 252}, {6, 257}, {6, 284}},
      {{0, 56}, {5, 63}, {5, 70}, {5, 517}, {6, 158}, {6, 255}, {6, 263},
       {6, 288}, {6, 339}, {6, 347}},
      {{0, 224}, {6, 38}, {6, 90}, {6, 163}, {6, 320}, {6, 343}, {7, 153},
       {7, 185}, {7, 201}, {7, 350}},
      {{0, 406}, {4, 334}, {5, 443}, {6, 58}, {6, 313}, {7, 7}, {7, 25},
       {7, 85}, {7, 136}, {7, 202}},
  };
  struct Costs {
    const char* index;
    std::vector<uint64_t> mrq_compdists;  // per (query, radius)
    std::vector<uint64_t> knn_compdists;  // per query
    std::vector<uint64_t> mrq_pa;         // disk indexes only
    std::vector<uint64_t> knn_pa;
  };
  static const Costs kCosts[] = {
      {"AESA", {3, 12, 600, 3, 13, 600, 5, 10, 600, 4, 8, 600},
       {12, 13, 16, 24}, {}, {}},
      {"BKT", {42, 543, 600, 20, 560, 600, 21, 530, 600, 39, 539, 600},
       {543, 560, 545, 560}, {}, {}},
      {"FQT", {58, 464, 605, 50, 462, 605, 31, 475, 605, 48, 466, 605},
       {464, 462, 501, 501}, {}, {}},
      {"FQA", {6, 419, 605, 6, 415, 605, 6, 392, 605, 6, 378, 605},
       {419, 416, 450, 430}, {}, {}},
      {"VPT", {42, 455, 605, 24, 493, 605, 24, 475, 605, 99, 475, 605},
       {455, 493, 512, 494}, {}, {}},
      {"MVPT", {35, 466, 605, 27, 455, 605, 14, 455, 605, 13, 445, 605},
       {466, 455, 480, 470}, {}, {}},
      {"OmniSeq", {6, 419, 605, 6, 415, 605, 6, 392, 605, 6, 378, 605},
       {453, 452, 478, 459}, {10, 10, 11, 10, 10, 11, 10, 10, 11, 9, 11, 11},
       {11, 11, 11, 11}},
      {"EPT*-disk", {41, 445, 640, 41, 441, 640, 41, 412, 640, 41, 410, 640},
       {486, 484, 511, 489}, {13, 13, 14, 13, 13, 14, 13, 13, 14, 12, 14, 14},
       {14, 14, 14, 14}},
      {"PM-tree", {16, 423, 619, 15, 413, 619, 14, 385, 619, 15, 377, 619},
       {504, 484, 467, 460}, {9, 14, 15, 9, 14, 15, 5, 14, 15, 8, 14, 15},
       {14, 14, 14, 14}},
      {"OmniR-tree", {6, 419, 605, 6, 415, 605, 6, 392, 605, 6, 378, 605},
       {421, 418, 450, 430},
       {3, 202, 291, 3, 203, 291, 3, 190, 291, 4, 193, 291},
       {204, 205, 221, 212}},
      {"SPB-tree", {6, 419, 32, 6, 415, 39, 6, 392, 45, 6, 378, 50},
       {480, 483, 505, 494}, {5, 10, 6, 6, 10, 6, 6, 10, 6, 6, 10, 6},
       {10, 10, 10, 10}},
      {"M-index", {6, 419, 605, 6, 415, 605, 6, 392, 605, 6, 378, 605},
       {495, 486, 473, 457}, {2, 18, 28, 3, 18, 28, 6, 18, 28, 5, 18, 28},
       {75, 75, 82, 84}},
      {"M-index*", {6, 419, 30, 6, 415, 32, 6, 392, 34, 6, 378, 44},
       {472, 450, 470, 480}, {2, 18, 28, 3, 18, 28, 6, 18, 28, 5, 18, 28},
       {18, 18, 18, 19}},
      {"OmniB+tree", {6, 419, 605, 6, 415, 605, 6, 392, 605, 6, 378, 605},
       {495, 486, 473, 457},
       {14, 244, 360, 13, 249, 360, 12, 242, 360, 13, 219, 360},
       {395, 373, 378, 366}},
  };

  World w(BenchDatasetId::kWords, 600);
  ASSERT_EQ(w.bd.metric->max_distance(), kRadii[2]);
  std::vector<ObjectId> everything(w.bd.data.size());
  std::iota(everything.begin(), everything.end(), 0);
  IndexOptions opts;
  opts.cache_bytes = opts.page_size;
  for (const Costs& want : kCosts) {
    SCOPED_TRACE(want.index);
    auto index = MakeIndex(want.index, opts);
    index->Build(w.bd.data, *w.bd.metric, w.pivots);
    std::vector<uint64_t> mrq_compdists, knn_compdists, mrq_pa, knn_pa;
    for (size_t qi = 0; qi < std::size(kQueries); ++qi) {
      const ObjectView q = w.bd.data.view(kQueries[qi]);
      const std::vector<ObjectId> want_ids[] = {
          {kQueries[qi]}, kMidIds[qi], everything};
      for (size_t ri = 0; ri < std::size(kRadii); ++ri) {
        std::vector<ObjectId> ids;
        OpStats cost = index->RangeQuery(q, kRadii[ri], &ids);
        std::sort(ids.begin(), ids.end());
        EXPECT_EQ(ids, want_ids[ri])
            << "MRQ of object " << kQueries[qi] << " at r = " << kRadii[ri];
        mrq_compdists.push_back(cost.dist_computations);
        mrq_pa.push_back(cost.page_accesses());
      }
      std::vector<Neighbor> nn;
      OpStats cost = index->KnnQuery(q, 10, &nn);
      std::vector<std::pair<double, ObjectId>> got;
      for (const Neighbor& n : nn) got.emplace_back(n.dist, n.id);
      EXPECT_EQ(got, kKnn[qi]) << "10-NN of object " << kQueries[qi];
      knn_compdists.push_back(cost.dist_computations);
      knn_pa.push_back(cost.page_accesses());
    }
    EXPECT_EQ(mrq_compdists, want.mrq_compdists);
    EXPECT_EQ(knn_compdists, want.knn_compdists);
    if (index->disk_based()) {
      EXPECT_EQ(mrq_pa, want.mrq_pa);
      EXPECT_EQ(knn_pa, want.knn_pa);
    }
  }
}

// The paged pivot table under OmniSeq (shared pivots) and EPT*-disk
// (per-row pivots), on MergedQueryBodyTest's table: 600 Words objects, 5
// pivots, 4 KB pages behind a one-page cache.
struct PagedTableCase {
  const char* index;
  uint32_t seq_pages;  // 600 rows at 73 (56-byte) or 53 (76-byte) a page
};

void PrintTo(const PagedTableCase& c, std::ostream* os) { *os << c.index; }

class PagedPivotTableTest : public ::testing::TestWithParam<PagedTableCase> {
 protected:
  PagedPivotTableTest() : w_(BenchDatasetId::kWords, 600) {
    opts_.cache_bytes = opts_.page_size;
  }

  std::unique_ptr<MetricIndex> Build() const {
    auto index = MakeIndex(GetParam().index, opts_);
    index->Build(w_.bd.data, *w_.bd.metric, w_.pivots);
    return index;
  }

  std::vector<ObjectId> Mrq(const MetricIndex& index, ObjectId q, double r,
                            OpStats* cost = nullptr) const {
    std::vector<ObjectId> ids;
    OpStats c = index.RangeQuery(w_.bd.data.view(q), r, &ids);
    if (cost != nullptr) *cost = c;
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  World w_;
  IndexOptions opts_;
};

TEST_P(PagedPivotTableTest, MatchesTheOracleWithEqualCostsAtEverySimdLevel) {
  // MergedQueryBodyTest's script at every dispatch level.  Answers equal
  // LinearScan's (kNN by distance, since ties may order differently),
  // and compdists and PA are the same at every level; MergedQueryBodyTest
  // pins their values at the default level.
  static const ObjectId kQueries[] = {14, 56, 224, 406};
  static const double kRadii[] = {0, 6, 34};
  LinearScan oracle;
  oracle.Build(w_.bd.data, *w_.bd.metric, w_.pivots);
  const char* inherited_env = getenv("PMI_SIMD");
  const std::string inherited = inherited_env ? inherited_env : "";
  const bool had_inherited = inherited_env != nullptr;
  std::vector<std::vector<uint64_t>> costs;
  for (SimdLevel level : SupportedSimdLevels()) {
    SCOPED_TRACE(SimdLevelName(level));
    ASSERT_EQ(setenv("PMI_SIMD", SimdLevelName(level), 1), 0);
    ReinitSimdDispatch();
    auto index = Build();
    std::vector<uint64_t> level_costs;
    for (ObjectId q : kQueries) {
      for (double r : kRadii) {
        OpStats cost;
        EXPECT_EQ(Mrq(*index, q, r, &cost), Mrq(oracle, q, r))
            << "MRQ of object " << q << " at r = " << r;
        level_costs.push_back(cost.dist_computations);
        level_costs.push_back(cost.page_accesses());
      }
      std::vector<Neighbor> got, want;
      OpStats cost = index->KnnQuery(w_.bd.data.view(q), 10, &got);
      oracle.KnnQuery(w_.bd.data.view(q), 10, &want);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].dist, want[i].dist) << "10-NN of object " << q;
      }
      level_costs.push_back(cost.dist_computations);
      level_costs.push_back(cost.page_accesses());
    }
    costs.push_back(std::move(level_costs));
  }
  if (had_inherited) {
    setenv("PMI_SIMD", inherited.c_str(), 1);
  } else {
    unsetenv("PMI_SIMD");
  }
  ReinitSimdDispatch();
  for (size_t i = 1; i < costs.size(); ++i) EXPECT_EQ(costs[i], costs[0]);
}

TEST_P(PagedPivotTableTest, AScanPinsEachPageOnce) {
  // MRQ at r = 0 verifies only the query object: one pin per sequential
  // page, plus the one RAF page that holds the object.
  auto index = Build();
  OpStats cost;
  EXPECT_EQ(Mrq(*index, 14, 0, &cost), std::vector<ObjectId>{14});
  EXPECT_EQ(cost.pool_hits + cost.physical_reads, GetParam().seq_pages + 1);
  EXPECT_EQ(cost.page_accesses(), GetParam().seq_pages + 1);
}

TEST_P(PagedPivotTableTest, ACloneKeepsTheRowsItsParentRemovesLater) {
  // Tombstones written after a Clone stay in the parent; a re-inserted
  // object is found again.  Objects 22 and 68 lie within r = 6 of 14.
  auto index = Build();
  const std::vector<ObjectId> before = Mrq(*index, 14, 6);
  ASSERT_TRUE(std::binary_search(before.begin(), before.end(), 22));
  ASSERT_TRUE(std::binary_search(before.begin(), before.end(), 68));
  std::unique_ptr<MetricIndex> clone = index->Clone();
  index->Remove(22);
  index->Remove(68);
  std::vector<ObjectId> without;
  for (ObjectId id : before) {
    if (id != 22 && id != 68) without.push_back(id);
  }
  EXPECT_EQ(Mrq(*index, 14, 6), without);
  EXPECT_EQ(Mrq(*clone, 14, 6), before);
  index->Insert(68);
  without.insert(std::lower_bound(without.begin(), without.end(), 68), 68);
  EXPECT_EQ(Mrq(*index, 14, 6), without);
  EXPECT_EQ(Mrq(*index, 22, 0), std::vector<ObjectId>{});
  EXPECT_EQ(Mrq(*clone, 14, 6), before);
  clone->Remove(14);
  EXPECT_EQ(Mrq(*index, 14, 0), std::vector<ObjectId>{14});
}

INSTANTIATE_TEST_SUITE_P(
    DiskTables, PagedPivotTableTest,
    ::testing::Values(PagedTableCase{"OmniSeq", 9},
                      PagedTableCase{"EPT*-disk", 12}),
    [](const auto& info) {
      return std::string(info.param.index) == "OmniSeq" ? "OmniSeq"
                                                        : "EptDisk";
    });

TEST(MIndexInternalsTest, ClusterSplitPreservesResults) {
  // Force splits with a tiny maxnum and verify nothing is lost.
  World w(BenchDatasetId::kSynthetic, 3000);
  IndexOptions opts;
  opts.mindex_maxnum = 64;  // far below the paper's 1600: many splits
  auto star = MakeIndex("M-index*", opts);
  star->Build(w.bd.data, *w.bd.metric, w.pivots);
  std::vector<ObjectId> out;
  star->RangeQuery(w.bd.data.view(1), w.bd.metric->max_distance() * 1.01,
                   &out);
  EXPECT_EQ(out.size(), w.bd.data.size());
  // Dynamic splits on insert: remove + re-insert everything.
  for (ObjectId id = 0; id < 500; ++id) {
    star->Remove(id);
    star->Insert(id);
  }
  star->RangeQuery(w.bd.data.view(1), w.bd.metric->max_distance() * 1.01,
                   &out);
  EXPECT_EQ(out.size(), w.bd.data.size());
}

TEST(TreeInternalsTest, LeafCapacityShapesTheTreeNotTheAnswers) {
  // Sweeping leaf capacity changes memory/compdists but never results.
  World w(BenchDatasetId::kWords, 2500);
  std::vector<Neighbor> reference;
  for (uint32_t cap : {4u, 16u, 64u, 256u}) {
    IndexOptions opts;
    opts.tree_leaf_capacity = cap;
    auto mvpt = MakeIndex("MVPT", opts);
    mvpt->Build(w.bd.data, *w.bd.metric, w.pivots);
    std::vector<Neighbor> out;
    mvpt->KnnQuery(w.bd.data.view(9), 15, &out);
    if (reference.empty()) {
      reference = out;
    } else {
      ASSERT_EQ(out.size(), reference.size());
      for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_DOUBLE_EQ(out[i].dist, reference[i].dist) << "cap=" << cap;
      }
    }
  }
}

TEST(TreeInternalsTest, FanoutShapesBktNotTheAnswers) {
  World w(BenchDatasetId::kSynthetic, 2500);
  std::vector<Neighbor> reference;
  for (uint32_t fanout : {4u, 16u, 64u}) {
    IndexOptions opts;
    opts.tree_fanout = fanout;
    auto bkt = MakeIndex("BKT", opts);
    bkt->Build(w.bd.data, *w.bd.metric, w.pivots);
    std::vector<Neighbor> out;
    bkt->KnnQuery(w.bd.data.view(3), 10, &out);
    if (reference.empty()) {
      reference = out;
    } else {
      ASSERT_EQ(out.size(), reference.size());
      for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_DOUBLE_EQ(out[i].dist, reference[i].dist);
      }
    }
  }
}

}  // namespace
}  // namespace pmi
