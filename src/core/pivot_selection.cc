#include "src/core/pivot_selection.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/core/thread_pool.h"

namespace pmi {
namespace {

/// Per-slot copy of a DistanceComputer counting into `shard`; the shards
/// are folded back into the original sink at each task boundary so the
/// selection cost attribution is exact at any thread count.
DistanceComputer ShardComputer(const DistanceComputer& d,
                               PerfCounters* shard) {
  return DistanceComputer(&d.metric(), shard);
}

/// Index of the sampled object farthest from `from`, distances through
/// `d`.  Parallel max-reduction: each slot keeps a first-wins local
/// maximum over its contiguous chunk; combining in ascending slot order
/// with a strict `>` then reproduces the serial loop's
/// first-maximum-wins tie-break exactly.
uint32_t FarthestInSample(const Dataset& data,
                          const std::vector<uint32_t>& sample,
                          const DistanceComputer& d, ObjectId from) {
  ThreadPool& pool = ThreadPool::Global();
  std::vector<double> best(pool.size(), -1);
  std::vector<uint32_t> best_i(pool.size(), 0);
  std::vector<CounterShard> shards(pool.size());
  ObjectView fv = data.view(from);
  ParallelFor(pool, sample.size(),
              [&](size_t begin, size_t end, unsigned slot) {
                DistanceComputer local = ShardComputer(d, &shards[slot].counters);
                double b = -1;
                uint32_t bi = 0;
                for (size_t i = begin; i < end; ++i) {
                  double dd = local(fv, data.view(sample[i]));
                  if (dd > b) {
                    b = dd;
                    bi = static_cast<uint32_t>(i);
                  }
                }
                best[slot] = b;
                best_i[slot] = bi;
              });
  FoldCounters(shards, d.counters());
  double g = -1;
  uint32_t gi = 0;
  for (unsigned s = 0; s < pool.size(); ++s) {
    if (best[s] > g) {
      g = best[s];
      gi = best_i[s];
    }
  }
  return gi;
}

}  // namespace

std::vector<ObjectId> SelectPivotsRandom(const Dataset& data, uint32_t count,
                                         Rng& rng) {
  std::vector<uint32_t> ids = SampleDistinct(data.size(), count, rng);
  return {ids.begin(), ids.end()};
}

std::vector<ObjectId> SelectPivotsHF(const Dataset& data,
                                     const DistanceComputer& dist,
                                     uint32_t count,
                                     const PivotSelectionOptions& options) {
  assert(!data.empty());
  Rng rng(options.seed);
  std::vector<uint32_t> sample =
      SampleDistinct(data.size(), options.sample_size, rng);
  count = std::min<uint32_t>(count, static_cast<uint32_t>(sample.size()));

  // Classic hull-of-foci: start from a random object s, take f1 = farthest
  // from s, f2 = farthest from f1; the "edge" is d(f1, f2).  Then greedily
  // add the object whose distances to the chosen foci deviate least from
  // the edge (it lies near the hull, roughly equidistant from all foci).
  ObjectId seed_obj = sample[rng() % sample.size()];
  ObjectId f1 = sample[FarthestInSample(data, sample, dist, seed_obj)];
  std::vector<ObjectId> foci = {f1};
  if (count == 1) return foci;
  ObjectId f2 = sample[FarthestInSample(data, sample, dist, f1)];
  double edge = dist.metric().Distance(data.view(f1), data.view(f2));
  foci.push_back(f2);

  ThreadPool& pool = ThreadPool::Global();
  std::vector<double> error(sample.size(), 0);
  std::vector<bool> used(sample.size(), false);
  // Each error[i] belongs to exactly one chunk and receives exactly one
  // += per focus, so the accumulation order per element matches the
  // serial loop; `used` is only read inside the region.
  auto accumulate = [&](ObjectId focus) {
    ObjectView fv = data.view(focus);
    std::vector<CounterShard> shards(pool.size());
    ParallelFor(pool, sample.size(),
                [&](size_t begin, size_t end, unsigned slot) {
                  DistanceComputer local = ShardComputer(dist, &shards[slot].counters);
                  for (size_t i = begin; i < end; ++i) {
                    if (used[i]) continue;
                    // The focus goes first: it is the argument whose
                    // edit-distance pattern the calls can share.
                    error[i] +=
                        std::fabs(local(fv, data.view(sample[i])) - edge);
                  }
                });
    FoldCounters(shards, dist.counters());
  };
  for (uint32_t i = 0; i < sample.size(); ++i) {
    if (sample[i] == f1 || sample[i] == f2) used[i] = true;
  }
  accumulate(f1);
  accumulate(f2);

  while (foci.size() < count) {
    double best = std::numeric_limits<double>::infinity();
    uint32_t best_i = UINT32_MAX;
    for (uint32_t i = 0; i < sample.size(); ++i) {
      if (!used[i] && error[i] < best) {
        best = error[i];
        best_i = i;
      }
    }
    if (best_i == UINT32_MAX) break;  // sample exhausted
    used[best_i] = true;
    foci.push_back(sample[best_i]);
    accumulate(sample[best_i]);
  }
  return foci;
}

std::vector<ObjectId> SelectPivotsHFI(const Dataset& data,
                                      const DistanceComputer& dist,
                                      uint32_t count,
                                      const PivotSelectionOptions& options,
                                      uint32_t candidate_count) {
  assert(!data.empty());
  if (candidate_count == 0) candidate_count = std::max(4 * count, 40u);
  std::vector<ObjectId> candidates =
      SelectPivotsHF(data, dist, candidate_count, options);
  if (candidates.size() <= count) return candidates;

  Rng rng(options.seed ^ 0x9e3779b97f4a7c15ULL);
  const uint32_t pairs = options.pair_sample;

  // Sample object pairs (a, b) and precompute all candidate distances.
  std::vector<ObjectId> a_ids, b_ids;
  std::vector<double> d_ab;
  a_ids.reserve(pairs);
  b_ids.reserve(pairs);
  d_ab.reserve(pairs);
  for (uint32_t i = 0; i < pairs; ++i) {
    ObjectId a = rng() % data.size();
    ObjectId b = rng() % data.size();
    double dd = dist(data.view(a), data.view(b));
    if (dd <= 0) continue;  // identical objects carry no signal
    a_ids.push_back(a);
    b_ids.push_back(b);
    d_ab.push_back(dd);
  }
  const uint32_t np = static_cast<uint32_t>(d_ab.size());
  if (np == 0) {  // degenerate dataset (all duplicates): any pivots do
    candidates.resize(count);
    return candidates;
  }

  // diff[c * np + j] = |d(a_j, p_c) - d(b_j, p_c)|, the pivot-space Linf
  // contribution of candidate c on pair j -- one contiguous candidates x
  // pairs buffer (row stride np), so the per-round gain scan below walks
  // candidate rows linearly and the fill parallelizes over candidates
  // with no shared writes.
  ThreadPool& pool = ThreadPool::Global();
  const size_t nc = candidates.size();
  std::vector<double> diff(nc * np);
  {
    std::vector<CounterShard> shards(pool.size());
    ParallelFor(pool, nc, [&](size_t begin, size_t end, unsigned slot) {
      DistanceComputer local = ShardComputer(dist, &shards[slot].counters);
      for (size_t c = begin; c < end; ++c) {
        ObjectView pv = data.view(candidates[c]);  // first: see SelectPivotsHF
        double* row = &diff[c * np];
        for (uint32_t j = 0; j < np; ++j) {
          double da = local(pv, data.view(a_ids[j]));
          double db = local(pv, data.view(b_ids[j]));
          row[j] = std::fabs(da - db);
        }
      }
    });
    FoldCounters(shards, dist.counters());
  }

  // Greedy forward selection on the mean D(a,b)/d(a,b) objective.  Each
  // round's argmax fans out over candidate chunks; per-candidate scores
  // accumulate over j in serial order and the ascending-slot combine
  // keeps the serial first-wins tie-break, so the chosen pivots are
  // bit-identical at any thread count.
  std::vector<double> current(np, 0);  // best per-pair lower bound so far
  std::vector<bool> used(nc, false);
  std::vector<ObjectId> chosen;
  chosen.reserve(count);
  std::vector<double> slot_gain(pool.size());
  std::vector<uint32_t> slot_c(pool.size());
  while (chosen.size() < count) {
    std::fill(slot_gain.begin(), slot_gain.end(), -1.0);
    std::fill(slot_c.begin(), slot_c.end(), UINT32_MAX);
    ParallelFor(pool, nc, [&](size_t begin, size_t end, unsigned slot) {
      double bg = -1;
      uint32_t bc = UINT32_MAX;
      for (size_t c = begin; c < end; ++c) {
        if (used[c]) continue;
        const double* row = &diff[c * np];
        double score = 0;
        for (uint32_t j = 0; j < np; ++j) {
          score += std::max(current[j], row[j]) / d_ab[j];
        }
        if (score > bg) {
          bg = score;
          bc = static_cast<uint32_t>(c);
        }
      }
      slot_gain[slot] = bg;
      slot_c[slot] = bc;
    });
    double best_gain = -1;
    uint32_t best_c = UINT32_MAX;
    for (unsigned s = 0; s < pool.size(); ++s) {
      if (slot_gain[s] > best_gain) {
        best_gain = slot_gain[s];
        best_c = slot_c[s];
      }
    }
    if (best_c == UINT32_MAX) break;
    used[best_c] = true;
    chosen.push_back(candidates[best_c]);
    const double* row = &diff[size_t(best_c) * np];
    for (uint32_t j = 0; j < np; ++j) {
      current[j] = std::max(current[j], row[j]);
    }
  }
  return chosen;
}

PivotSet SelectSharedPivots(const Dataset& data, const Metric& metric,
                            uint32_t count,
                            const PivotSelectionOptions& options) {
  PerfCounters scratch;
  DistanceComputer dist(&metric, &scratch);
  std::vector<ObjectId> ids = SelectPivotsHFI(data, dist, count, options);
  return PivotSet(data, ids);
}

}  // namespace pmi
