#include "src/tables/ept.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/core/pivot_selection.h"
#include "src/core/rng.h"
#include "src/core/thread_pool.h"

namespace pmi {

void Ept::BuildImpl() {
  l_ = std::max<uint32_t>(1, pivots_.size());
  oids_.clear();
  table_.Reset(l_, /*per_row_pivots=*/true);
  Rng rng(options_.seed ^ 0xe97u);

  if (variant_ == Variant::kClassic) {
    if (options_.ept_group_size > 0) {
      m_ = options_.ept_group_size;
    } else {
      EstimateGroupSize();
    }
    // l groups of m random pivots form one flat pool of m*l entries;
    // group g owns pool indices [g*m, (g+1)*m).
    std::vector<ObjectId> ids =
        SelectPivotsRandom(data(), m_ * l_, rng);
    // Random selection may return fewer ids than requested on tiny
    // datasets; shrink m to fit, then cut the surplus.  SelectClassic
    // indexes the pool as g * m + j, so the pool must hold exactly m * l
    // entries -- when even m = 1 cannot be satisfied (n < l), recycle
    // ids to fill the remaining group slots.
    while (size_t(m_) * l_ > ids.size() && m_ > 1) --m_;
    if (size_t(m_) * l_ <= ids.size()) {
      ids.resize(size_t(m_) * l_);
    } else if (!ids.empty()) {
      const size_t base = ids.size();
      for (size_t i = 0; ids.size() < size_t(m_) * l_; ++i) {
        ids.push_back(ids[i % base]);
      }
    }
    pool_ = PivotSet(data(), ids);
    EstimateMus();
  } else {
    // EPT*: HF outlier candidates (Algorithm 1 line 2, cp_scale = 40)
    // plus the PSA object sample S -- shared with EPT*-disk via
    // PsaSelector.
    DistanceComputer d = dist();
    psa_.Build(data(), d, options_.ept_cp_scale, options_.ept_sample_size,
               options_.seed);
  }

  // The per-object pivot selection (the dominant construction cost) only
  // reads the pool/mu/PSA state fixed above, so the row fill fans out
  // over fixed object chunks with per-thread scratch and counter shards;
  // rows land by index and are bit-identical to the serial fill.
  const uint32_t n = data().size();
  oids_.resize(n);
  table_.ResizeRows(n);
  ThreadPool& pool = ThreadPool::Global();
  std::vector<CounterShard> shards(pool.size());
  ParallelFor(pool, n, [&](size_t begin, size_t end, unsigned slot) {
    DistanceComputer d(&metric(), &shards[slot].counters);
    std::vector<uint32_t> pidx(l_);
    std::vector<double> pdist(l_);
    for (size_t id = begin; id < end; ++id) {
      ComputeRow(ObjectId(id), d, pidx.data(), pdist.data());
      oids_[id] = ObjectId(id);
      table_.SetRow(id, pdist.data(), pidx.data());
    }
  });
  FoldCounters(shards, &counters_);
}

// Equation (1): cost(m) = m*l + n * Pr(object survives all l groups).
// The survival probability is estimated by Monte Carlo on sampled
// (query, object, group) triples at a kNN-typical radius.
void Ept::EstimateGroupSize() {
  DistanceComputer d = dist();
  Rng rng(options_.seed ^ 0x5eed);
  const uint32_t n = data().size();
  const uint32_t kPairs = 128;
  // Radius of a ~20-NN query: the 20/n quantile of pairwise distances.
  std::vector<double> dists;
  dists.reserve(kPairs);
  for (uint32_t i = 0; i < kPairs; ++i) {
    dists.push_back(
        d(data().view(rng() % n), data().view(rng() % n)));
  }
  std::sort(dists.begin(), dists.end());
  double frac = std::min(0.25, std::max(0.001, 20.0 / n));
  double r_hat = dists[size_t(frac * (dists.size() - 1))];

  // Pre-sample pivots/objects/queries once; reuse across m candidates.
  const uint32_t kTrials = 96, kPool = 24;
  std::vector<ObjectId> povs(kPool), objs(kTrials), qrys(kTrials);
  for (auto& x : povs) x = rng() % n;
  for (auto& x : objs) x = rng() % n;
  for (auto& x : qrys) x = rng() % n;
  std::vector<double> mu(kPool, 0);
  std::vector<double> d_op(size_t(kTrials) * kPool), d_qp(size_t(kTrials) * kPool);
  for (uint32_t t = 0; t < kTrials; ++t) {
    for (uint32_t p = 0; p < kPool; ++p) {
      d_op[size_t(t) * kPool + p] = d(data().view(objs[t]), data().view(povs[p]));
      d_qp[size_t(t) * kPool + p] = d(data().view(qrys[t]), data().view(povs[p]));
    }
  }
  for (uint32_t p = 0; p < kPool; ++p) {
    for (uint32_t t = 0; t < kTrials; ++t) mu[p] += d_op[size_t(t) * kPool + p];
    mu[p] /= kTrials;
  }

  double best_cost = std::numeric_limits<double>::max();
  uint32_t best_m = 2;
  for (uint32_t m = 1; m <= 16; m *= 2) {
    double survive = 0;
    for (uint32_t t = 0; t < kTrials; ++t) {
      // One simulated group: m pivots drawn from the pool; the object
      // keeps the pivot with max |d(o,p) - mu_p|.
      uint32_t best_p = 0;
      double best_dev = -1;
      for (uint32_t j = 0; j < m; ++j) {
        uint32_t p = (t + j * 7 + 3) % kPool;  // deterministic spread
        double dev = std::fabs(d_op[size_t(t) * kPool + p] - mu[p]);
        if (dev > best_dev) {
          best_dev = dev;
          best_p = p;
        }
      }
      double lb = std::fabs(d_op[size_t(t) * kPool + best_p] -
                            d_qp[size_t(t) * kPool + best_p]);
      if (lb <= r_hat) survive += 1;
    }
    double p_survive_group = survive / kTrials;
    double cost = double(m) * l_ +
                  double(data().size()) * std::pow(p_survive_group, l_);
    if (cost < best_cost) {
      best_cost = cost;
      best_m = m;
    }
  }
  m_ = std::max<uint32_t>(2, best_m);
}

void Ept::EstimateMus() {
  DistanceComputer d = dist();
  Rng rng(options_.seed ^ 0x3a7);
  uint32_t sample = std::min<uint32_t>(options_.ept_sample_size, data().size());
  pool_mu_.assign(pool_.size(), 0);
  std::vector<ObjectId> ids = SelectPivotsRandom(data(), sample, rng);
  for (uint32_t p = 0; p < pool_.size(); ++p) {
    double sum = 0;
    for (ObjectId id : ids) sum += d(pool_.pivot(p), data().view(id));
    pool_mu_[p] = ids.empty() ? 0 : sum / ids.size();
  }
}

void Ept::SelectClassic(ObjectId id, const DistanceComputer& d,
                        uint32_t* pidx, double* pdist) const {
  ObjectView o = data().view(id);
  for (uint32_t g = 0; g < l_; ++g) {
    uint32_t best = g * m_;
    double best_dev = -1, best_d = 0;
    for (uint32_t j = 0; j < m_; ++j) {
      uint32_t p = g * m_ + j;
      double dd = d(o, pool_.pivot(p));
      double dev = std::fabs(dd - pool_mu_[p]);
      if (dev > best_dev) {
        best_dev = dev;
        best = p;
        best_d = dd;
      }
    }
    pidx[g] = best;
    pdist[g] = best_d;
  }
}

void Ept::SelectStar(ObjectId id, const DistanceComputer& d, uint32_t* pidx,
                     double* pdist) const {
  psa_.SelectForObject(data().view(id), d, l_, pidx, pdist);
}

void Ept::ComputeRow(ObjectId id, const DistanceComputer& d, uint32_t* pidx,
                     double* pdist) const {
  if (variant_ == Variant::kClassic) {
    SelectClassic(id, d, pidx, pdist);
  } else {
    SelectStar(id, d, pidx, pdist);
  }
}

void Ept::AppendRow(ObjectId id) {
  // Member scratch: the serial insert path is timed per operation, so
  // per-call vector allocations would show up as malloc noise in the
  // update measurements.  (The parallel build uses per-thread locals
  // instead -- this scratch is never touched concurrently.)
  DistanceComputer d = dist();
  row_pidx_.resize(l_);
  row_pdist_.resize(l_);
  ComputeRow(id, d, row_pidx_.data(), row_pdist_.data());
  oids_.push_back(id);
  table_.AppendRow(row_pdist_.data(), row_pidx_.data());
}

void Ept::MapQuery(const ObjectView& q, const DistanceComputer& d,
                   std::vector<double>* out) const {
  const PivotSet& pool = query_pool();
  out->resize(pool.size());
  for (uint32_t p = 0; p < pool.size(); ++p) (*out)[p] = d(q, pool.pivot(p));
}

void Ept::InsertImpl(ObjectId id) {
  if (variant_ == Variant::kClassic) {
    // The mean distances the selection criterion relies on drift as the
    // dataset changes, so classic EPT re-estimates them per insertion --
    // the high estimation cost the paper reports in Table 6.
    EstimateMus();
  }
  AppendRow(id);
}

std::unique_ptr<MetricIndex> Ept::Clone() const {
  auto clone = std::make_unique<Ept>(variant_, options_);
  clone->CopyBaseFrom(*this);
  clone->l_ = l_;
  clone->m_ = m_;
  clone->pool_ = pool_;
  clone->pool_mu_ = pool_mu_;
  clone->psa_ = psa_;  // PivotSet/PivotTable members copy COW-shared
  clone->oids_ = oids_;
  clone->table_ = table_;  // copy-on-write: shares all 256-row blocks
  return clone;
}

Status Ept::SaveImpl(ByteSink* out) const {
  out->PutU8(variant_ == Variant::kClassic ? 0 : 1);
  out->PutU32(l_);
  out->PutU32(m_);
  SerializePivotSet(pool_, out);
  out->PutVector(pool_mu_);
  psa_.SerializeTo(out);
  out->PutVector(oids_);
  SerializePivotTable(table_, out);
  return OkStatus();
}

Status Ept::LoadImpl(ByteSource* in) {
  // Restores the pivot pool (own or PSA's), the per-pivot means, and the
  // per-row-pivot table verbatim -- no distance computations.
  uint8_t variant = 0;
  PMI_RETURN_IF_ERROR(in->GetU8(&variant));
  if (variant != (variant_ == Variant::kClassic ? 0 : 1)) {
    return DataLossError("EPT snapshot variant does not match this index");
  }
  PMI_RETURN_IF_ERROR(in->GetU32(&l_));
  PMI_RETURN_IF_ERROR(in->GetU32(&m_));
  PMI_ASSIGN_OR_RETURN(pool_, DeserializePivotSet(in));
  PMI_RETURN_IF_ERROR(in->GetVector(&pool_mu_));
  PMI_RETURN_IF_ERROR(psa_.DeserializeFrom(in));
  PMI_RETURN_IF_ERROR(in->GetVector(&oids_));
  PMI_RETURN_IF_ERROR(DeserializePivotTable(in, &table_));
  if (!table_.per_row_pivots() || table_.width() != l_ ||
      table_.rows() != oids_.size() || pool_mu_.size() != pool_.size()) {
    return DataLossError("EPT snapshot state is inconsistent");
  }
  // The query scan gathers d(q, pool[c]) by stored pool index; an
  // out-of-range index in a damaged snapshot must fail the load, not the
  // first query.
  const uint32_t pool_size = query_pool().size();
  for (uint32_t slot = 0; slot < table_.width(); ++slot) {
    for (size_t row = 0; row < table_.rows(); ++row) {
      if (table_.pivot_index(row, slot) >= pool_size) {
        return DataLossError("EPT snapshot references a pivot outside pool");
      }
    }
  }
  for (ObjectId id : oids_) {
    if (id >= data().size()) {
      return DataLossError("EPT snapshot references object " +
                           std::to_string(id) + " outside the dataset");
    }
  }
  return OkStatus();
}

size_t Ept::memory_bytes() const {
  return table_.memory_bytes() + oids_.size() * sizeof(ObjectId) +
         pool_.memory_bytes() + psa_.memory_bytes() +
         data().total_payload_bytes();
}

}  // namespace pmi
