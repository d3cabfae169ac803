// google-benchmark micro suite for the hot substrate paths on the metric
// side: the four distance functions the paper's datasets use (edit
// distance also on 100-byte strings, at fixed bounds, and query-major as
// a scan verifies), the pivot mapping, and the filtering lemmas.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/core/filtering.h"
#include "src/core/metric.h"
#include "src/core/pivot_selection.h"
#include "src/core/pivots.h"
#include "src/data/generators.h"

namespace pmi {
namespace {

// The pairs of the distance rows: 1000 objects of one benchmark dataset.
BenchDataset Sample(BenchDatasetId id) { return MakeBenchDataset(id, 1000, 1); }

// Edit-distance pairs longer than one 64-bit word: 1000 strings of 100
// bytes over 'a'..'z', 50 copies of each of 20 random bases with up to 12
// bytes substituted, so about one pair in twenty is a near copy (distance
// <= 24) and the rest are unrelated.
BenchDataset LongStrings() {
  Rng rng(11);
  std::vector<std::string> bases(20, std::string(100, 'a'));
  for (std::string& base : bases) {
    for (char& c : base) c = static_cast<char>('a' + rng() % 26);
  }
  Dataset data = Dataset::Strings();
  for (uint32_t i = 0; i < 1000; ++i) {
    std::string s = bases[i % bases.size()];
    for (uint64_t k = rng() % 13; k > 0; --k) {
      s[rng() % s.size()] = static_cast<char>('a' + rng() % 26);
    }
    data.AddString(s);
  }
  return BenchDataset{"Strings100", std::move(data),
                      std::make_unique<EditDistanceMetric>(100),
                      BenchDatasetId::kWords};
}

// One distance per iteration on a fresh random pair.
void BM_Distance(benchmark::State& state, const BenchDataset& bd) {
  Rng rng(7);
  for (auto _ : state) {
    ObjectView a = bd.data.view(rng() % bd.data.size());
    ObjectView b = bd.data.view(rng() % bd.data.size());
    benchmark::DoNotOptimize(bd.metric->Distance(a, b));
  }
}
BENCHMARK_CAPTURE(BM_Distance, L2_2d_LA, Sample(BenchDatasetId::kLa));
BENCHMARK_CAPTURE(BM_Distance, Edit_Words, Sample(BenchDatasetId::kWords));
BENCHMARK_CAPTURE(BM_Distance, Edit_100B, LongStrings());
BENCHMARK_CAPTURE(BM_Distance, L1_282d_Color, Sample(BenchDatasetId::kColor));
BENCHMARK_CAPTURE(BM_Distance, Linf_20d_Synthetic,
                  Sample(BenchDatasetId::kSynthetic));

// Threshold-aware verification at a fixed bound, the way a kNN or range
// query calls it: most random pairs lie beyond the bound.
void BM_BoundedDistance(benchmark::State& state, const BenchDataset& bd,
                        double upper) {
  Rng rng(7);
  for (auto _ : state) {
    ObjectView a = bd.data.view(rng() % bd.data.size());
    ObjectView b = bd.data.view(rng() % bd.data.size());
    benchmark::DoNotOptimize(bd.metric->BoundedDistance(a, b, upper));
  }
}
BENCHMARK_CAPTURE(BM_BoundedDistance, Edit_Words_2,
                  Sample(BenchDatasetId::kWords), 2.0);
BENCHMARK_CAPTURE(BM_BoundedDistance, Edit_Words_4,
                  Sample(BenchDatasetId::kWords), 4.0);
BENCHMARK_CAPTURE(BM_BoundedDistance, Edit_100B_2, LongStrings(), 2.0);
BENCHMARK_CAPTURE(BM_BoundedDistance, Edit_100B_4, LongStrings(), 4.0);
BENCHMARK_CAPTURE(BM_BoundedDistance, Edit_100B_16, LongStrings(), 16.0);

// Query-major verification, the way an index scan calls it: one query
// as the first argument against each of the 1000 objects in turn, then
// the next query.  The random-pair rows above never meet the same
// pattern twice; these reuse the query's match masks for 1000 calls.
class QueryMajorPairs {
 public:
  explicit QueryMajorPairs(const BenchDataset& bd)
      : bd_(bd), q_(bd.data.view(rng_() % bd.data.size())) {}

  const ObjectView& query() const { return q_; }
  /// The next object; moves to a fresh query after the last one.
  ObjectView Next() {
    const ObjectView o = bd_.data.view(next_);
    if (++next_ == bd_.data.size()) {
      next_ = 0;
      q_ = bd_.data.view(rng_() % bd_.data.size());
    }
    return o;
  }

 private:
  const BenchDataset& bd_;
  Rng rng_{7};
  ObjectView q_;
  ObjectId next_ = 0;
};

void BM_QueryMajorDistance(benchmark::State& state, const BenchDataset& bd) {
  QueryMajorPairs pairs(bd);
  for (auto _ : state) {
    const ObjectView o = pairs.Next();
    benchmark::DoNotOptimize(bd.metric->Distance(pairs.query(), o));
  }
}
BENCHMARK_CAPTURE(BM_QueryMajorDistance, Edit_Words_query,
                  Sample(BenchDatasetId::kWords));

void BM_QueryMajorBoundedDistance(benchmark::State& state,
                                  const BenchDataset& bd, double upper) {
  QueryMajorPairs pairs(bd);
  for (auto _ : state) {
    const ObjectView o = pairs.Next();
    benchmark::DoNotOptimize(
        bd.metric->BoundedDistance(pairs.query(), o, upper));
  }
}
BENCHMARK_CAPTURE(BM_QueryMajorBoundedDistance, Edit_Words_query_2,
                  Sample(BenchDatasetId::kWords), 2.0);
BENCHMARK_CAPTURE(BM_QueryMajorBoundedDistance, Edit_Words_query_4,
                  Sample(BenchDatasetId::kWords), 4.0);

void BM_PivotMapping(benchmark::State& state) {
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, 2000, 1);
  PivotSelectionOptions po;
  po.sample_size = 500;
  PerfCounters c;
  DistanceComputer dist(bd.metric.get(), &c);
  PivotSet pivots(bd.data,
                  SelectPivotsHFI(bd.data, dist, state.range(0), po));
  Rng rng(7);
  std::vector<double> phi;
  for (auto _ : state) {
    pivots.Map(bd.data.view(rng() % bd.data.size()), dist, &phi);
    benchmark::DoNotOptimize(phi.data());
  }
}
BENCHMARK(BM_PivotMapping)->Arg(1)->Arg(5)->Arg(9);

void BM_Lemma1Filter(benchmark::State& state) {
  const uint32_t l = static_cast<uint32_t>(state.range(0));
  Rng rng(3);
  std::vector<double> phi_o(l), phi_q(l);
  for (uint32_t i = 0; i < l; ++i) {
    phi_o[i] = double(rng() % 10000);
    phi_q[i] = double(rng() % 10000);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PrunedByPivots(phi_o.data(), phi_q.data(), l, 500.0));
  }
}
BENCHMARK(BM_Lemma1Filter)->Arg(1)->Arg(5)->Arg(9);

void BM_PivotSelectionHFI(benchmark::State& state) {
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kLa, 5000, 1);
  PerfCounters c;
  DistanceComputer dist(bd.metric.get(), &c);
  PivotSelectionOptions po;
  po.sample_size = 1000;
  po.pair_sample = 200;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SelectPivotsHFI(bd.data, dist, static_cast<uint32_t>(state.range(0)),
                        po));
  }
}
BENCHMARK(BM_PivotSelectionHFI)->Arg(5)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pmi

BENCHMARK_MAIN();
