#include "src/trees/fqa.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "src/core/knn_heap.h"

namespace pmi {

uint16_t Fqa::Quantize(double d) const {
  // Discrete domains with maxD < 65536 quantize losslessly (step 1).
  double step = std::max(1.0, std::ceil(metric().max_distance() / 65535.0));
  return static_cast<uint16_t>(std::min(65535.0, d / step));
}

std::vector<uint16_t> Fqa::TupleFor(ObjectId id) {
  DistanceComputer d = dist();
  std::vector<double> phi;
  pivots_.Map(data().view(id), d, &phi);
  std::vector<uint16_t> tuple(phi.size());
  for (size_t i = 0; i < phi.size(); ++i) tuple[i] = Quantize(phi[i]);
  return tuple;
}

bool Fqa::RowLess(size_t row, const std::vector<uint16_t>& tuple) const {
  const uint32_t l = pivots_.size();
  for (uint32_t i = 0; i < l; ++i) {
    if (Coord(row, i) != tuple[i]) return Coord(row, i) < tuple[i];
  }
  return false;
}

void Fqa::BuildImpl() {
  assert(metric().discrete() &&
         "FQA is surveyed for discrete distance functions (Table 1)");
  const uint32_t l = pivots_.size();
  const uint32_t n = data().size();
  std::vector<std::vector<uint16_t>> tuples(n);
  for (ObjectId id = 0; id < n; ++id) tuples[id] = TupleFor(id);
  std::vector<ObjectId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](ObjectId a, ObjectId b) {
    return tuples[a] < tuples[b];
  });
  coords_.resize(size_t(n) * l);
  oids_.resize(n);
  for (uint32_t row = 0; row < n; ++row) {
    oids_[row] = order[row];
    for (uint32_t i = 0; i < l; ++i) {
      coords_[size_t(row) * l + i] = tuples[order[row]][i];
    }
  }
}

size_t Fqa::LowerBound(size_t lo, size_t hi, uint32_t level,
                       uint16_t value) const {
  // Coordinates at `level` are sorted within [lo, hi) because all rows
  // there share coordinates 0..level-1.
  size_t a = lo, b = hi;
  while (a < b) {
    size_t mid = (a + b) / 2;
    if (Coord(mid, level) < value) a = mid + 1; else b = mid;
  }
  return a;
}

size_t Fqa::UpperBound(size_t lo, size_t hi, uint32_t level,
                       uint16_t value) const {
  size_t a = lo, b = hi;
  while (a < b) {
    size_t mid = (a + b) / 2;
    if (Coord(mid, level) <= value) a = mid + 1; else b = mid;
  }
  return a;
}

// DFS with live radius pruning, the one body of both query types: an
// MkNNQ visits runs nearest-value first inside each level to tighten its
// radius early.  At a fixed radius (MRQ) every run inside the quantized
// window has a bound <= r, so the same runs are verified in any order.
template <typename Collector>
void Fqa::Search(const ObjectView& q, Collector* c) const {
  const uint32_t l = pivots_.size();
  DistanceComputer d = dist();
  std::vector<double> phi_q;
  pivots_.Map(q, d, &phi_q);
  double step = std::max(1.0, std::ceil(metric().max_distance() / 65535.0));

  struct Frame {
    size_t lo, hi;
    uint32_t level;
    double lb;
  };
  std::vector<Frame> stack{{0, oids_.size(), 0, 0}};
  std::vector<Frame> runs;
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    if (f.lo >= f.hi || f.lb > c->radius()) continue;
    if (f.level == l) {
      for (size_t row = f.lo; row < f.hi; ++row) {
        c->Push(oids_[row],
                d.Bounded(q, data().view(oids_[row]), c->radius()));
      }
      continue;
    }
    // Quantized window [vlo, vhi]: value v covers distances
    // [v*step, (v+1)*step), so the window is widened conservatively.  It
    // is not clamped at max_distance(): a stored distance beyond that
    // value still quantizes into the window it belongs to.
    const double radius = c->radius();
    double dlo = std::max(0.0, phi_q[f.level] - radius);
    double dhi = phi_q[f.level] + radius;
    uint16_t vlo = static_cast<uint16_t>(
        std::min(65535.0, std::floor(dlo / step)));
    uint16_t vhi = static_cast<uint16_t>(
        std::min(65535.0, std::floor(dhi / step)));
    // Jump between the values actually present in the window -- one
    // O(log n) probe per nonempty run instead of one binary search per
    // integer in [vlo, vhi] (~65k per node on near-continuous quantized
    // domains, where the data holds only a handful of distinct runs).
    // Runs are collected, then pushed farthest-first so the nearest run
    // is processed first (LIFO stack); at a fixed radius the order does
    // not matter and they stay in value order.
    runs.clear();
    size_t cursor = LowerBound(f.lo, f.hi, f.level, vlo);
    while (cursor < f.hi) {
      const uint16_t v = Coord(cursor, f.level);
      if (v > vhi) break;
      const size_t e = UpperBound(cursor, f.hi, f.level, v);
      double cell_lo = v * step, cell_hi = (v + 1) * step;
      double gap = 0;
      if (phi_q[f.level] < cell_lo) gap = cell_lo - phi_q[f.level];
      if (phi_q[f.level] > cell_hi) gap = phi_q[f.level] - cell_hi;
      runs.push_back({cursor, e, f.level + 1, std::max(f.lb, gap)});
      cursor = e;
    }
    if constexpr (!kFixedRadius<Collector>) {
      std::sort(runs.begin(), runs.end(),
                [](const Frame& a, const Frame& b) { return a.lb > b.lb; });
    }
    stack.insert(stack.end(), runs.begin(), runs.end());
  }
}

void Fqa::RangeImpl(const ObjectView& q, double r,
                    std::vector<ObjectId>* out) const {
  RangeCollector c{r, out};
  Search(q, &c);
}

void Fqa::KnnImpl(const ObjectView& q, size_t k,
                  std::vector<Neighbor>* out) const {
  KnnHeap heap(k);
  Search(q, &heap);
  heap.TakeSorted(out);
}

std::unique_ptr<MetricIndex> Fqa::Clone() const {
  auto clone = std::make_unique<Fqa>(options_);
  clone->CopyBaseFrom(*this);
  clone->coords_ = coords_;
  clone->oids_ = oids_;
  return clone;
}

void Fqa::InsertImpl(ObjectId id) {
  const uint32_t l = pivots_.size();
  std::vector<uint16_t> tuple = TupleFor(id);
  size_t a = 0, b = oids_.size();
  while (a < b) {
    size_t mid = (a + b) / 2;
    if (RowLess(mid, tuple)) a = mid + 1; else b = mid;
  }
  oids_.insert(oids_.begin() + a, id);
  coords_.insert(coords_.begin() + a * l, tuple.begin(), tuple.end());
}

void Fqa::RemoveImpl(ObjectId id) {
  const uint32_t l = pivots_.size();
  for (size_t row = 0; row < oids_.size(); ++row) {
    if (oids_[row] != id) continue;
    oids_.erase(oids_.begin() + row);
    coords_.erase(coords_.begin() + row * l, coords_.begin() + (row + 1) * l);
    return;
  }
}

size_t Fqa::memory_bytes() const {
  return coords_.size() * sizeof(uint16_t) + oids_.size() * sizeof(ObjectId) +
         pivots_.memory_bytes() + data().total_payload_bytes();
}

}  // namespace pmi
