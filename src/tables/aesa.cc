#include "src/tables/aesa.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/core/knn_heap.h"

namespace pmi {

void Aesa::BuildImpl() {
  n_ = data().size();
  assert(n_ <= 20000 && "AESA is quadratic; use LAESA for larger datasets");
  matrix_ = std::make_shared<std::vector<double>>(size_t(n_) * n_, 0);
  std::vector<double>& matrix = *matrix_;
  live_.assign(n_, true);
  DistanceComputer d = dist();
  for (ObjectId i = 0; i < n_; ++i) {
    for (ObjectId j = i + 1; j < n_; ++j) {
      double dd = d(data().view(i), data().view(j));
      matrix[size_t(i) * n_ + j] = dd;
      matrix[size_t(j) * n_ + i] = dd;
    }
  }
}

// Successive pivoting, the one body of both query types: repeatedly
// verify the active object with the smallest lower bound, using its true
// distance to tighten every other active object's bound via the matrix
// row.  The collector's radius() is fixed for MRQ and shrinks for MkNNQ.
template <typename Collector>
void Aesa::Search(const ObjectView& q, Collector* c) const {
  DistanceComputer d = dist();
  std::vector<double> lb(n_, 0);
  std::vector<bool> active = live_;
  while (true) {
    ObjectId best = kInvalidObjectId;
    double best_lb = std::numeric_limits<double>::infinity();
    for (ObjectId i = 0; i < n_; ++i) {
      if (active[i] && lb[i] < best_lb) {
        best_lb = lb[i];
        best = i;
      }
    }
    if (best == kInvalidObjectId || best_lb > c->radius()) break;
    active[best] = false;
    double dq = d(q, data().view(best));
    c->Push(best, dq);
    const double* mrow = &(*matrix_)[size_t(best) * n_];
    for (ObjectId i = 0; i < n_; ++i) {
      if (active[i]) lb[i] = std::max(lb[i], std::fabs(dq - mrow[i]));
    }
  }
}

void Aesa::RangeImpl(const ObjectView& q, double r,
                     std::vector<ObjectId>* out) const {
  RangeCollector c{r, out};
  Search(q, &c);
}

void Aesa::KnnImpl(const ObjectView& q, size_t k,
                   std::vector<Neighbor>* out) const {
  KnnHeap heap(k);
  Search(q, &heap);
  heap.TakeSorted(out);
}

void Aesa::InsertImpl(ObjectId id) {
  // The matrix row/column is recomputed: re-insertion costs n distances,
  // the honest price of keeping the full matrix current.  The column
  // touches every row, so a matrix shared with a clone is copied whole.
  if (matrix_.use_count() > 1) {
    matrix_ = std::make_shared<std::vector<double>>(*matrix_);
  }
  std::vector<double>& matrix = *matrix_;
  DistanceComputer d = dist();
  for (ObjectId j = 0; j < n_; ++j) {
    if (j == id || !live_[j]) continue;
    double dd = d(data().view(id), data().view(j));
    matrix[size_t(id) * n_ + j] = dd;
    matrix[size_t(j) * n_ + id] = dd;
  }
  live_[id] = true;
}

void Aesa::RemoveImpl(ObjectId id) { live_[id] = false; }

std::unique_ptr<MetricIndex> Aesa::Clone() const {
  auto clone = std::make_unique<Aesa>(options_);
  clone->CopyBaseFrom(*this);
  clone->n_ = n_;
  clone->matrix_ = matrix_;
  clone->live_ = live_;
  return clone;
}

size_t Aesa::memory_bytes() const {
  return matrix_->size() * sizeof(double) + live_.size() / 8 +
         data().total_payload_bytes();
}

}  // namespace pmi
