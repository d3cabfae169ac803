// Result collectors for the two query types (Definitions 1 and 2).
//
// Every MkNNQ implementation follows the paper's second strategy
// (Section 2.1): start with radius = infinity and tighten it as verified
// objects arrive.  KnnHeap encapsulates that contract.  An MRQ is the
// same search at a radius that never moves: RangeCollector offers
// KnnHeap's radius()/Push interface at a fixed r, so every index except
// the LinearScan oracle runs both query types through one body templated
// on the collector.  kFixedRadius and NodeQueue let such a body skip the
// nearest-first ordering that only MkNNQ needs, and Lemma 4 (pivot
// validation), a fixed-radius rule, is the collector capability
// CollectValidated.  The growing-radius MkNNQ of the basic M-index and
// the OmniB+-tree (Section 2.1's first strategy) is GrowingRadiusKnn: a
// loop of the fixed-radius body over a VerifiedCache.

#ifndef PMI_CORE_KNN_HEAP_H_
#define PMI_CORE_KNN_HEAP_H_

#include <algorithm>
#include <functional>
#include <limits>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/core/filtering.h"
#include "src/core/object.h"

namespace pmi {

/// One kNN result entry.
struct Neighbor {
  ObjectId id = kInvalidObjectId;
  double dist = 0;

  bool operator<(const Neighbor& o) const {
    return dist < o.dist || (dist == o.dist && id < o.id);
  }
};

/// Max-heap keeping the k nearest objects seen so far.
class KnnHeap {
 public:
  explicit KnnHeap(size_t k) : k_(k) {}

  /// Current pruning radius: distance of the kth neighbor, or +inf while
  /// fewer than k objects have been collected.  k = 0 yields -inf so
  /// every candidate prunes immediately.
  double radius() const {
    if (k_ == 0) return -std::numeric_limits<double>::infinity();
    return heap_.size() < k_ ? std::numeric_limits<double>::infinity()
                             : heap_.front().dist;
  }

  bool full() const { return heap_.size() >= k_; }

  /// Offers (id, dist); keeps it only if it improves the current k-set
  /// under the (dist, id) total order.  Replacing on an equal-distance,
  /// smaller-id tie makes the final k-set the minimum k of that order
  /// regardless of candidate visit order -- so every index (and every
  /// shard of a partitioned table) produces bit-identical results.  The
  /// pruning radius() never changes on a tie replacement, so distance
  /// computation counts are unaffected.
  void Push(ObjectId id, double dist) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push_back({id, dist});
      std::push_heap(heap_.begin(), heap_.end());
    } else if (Neighbor{id, dist} < heap_.front()) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.back() = {id, dist};
      std::push_heap(heap_.begin(), heap_.end());
    }
  }

  /// Moves the results, sorted ascending by distance, into `out`.
  void TakeSorted(std::vector<Neighbor>* out) {
    std::sort_heap(heap_.begin(), heap_.end());
    *out = std::move(heap_);
    heap_.clear();
  }

 private:
  size_t k_;
  std::vector<Neighbor> heap_;  // max-heap on dist
};

/// MRQ's collector: the KnnHeap interface at a radius that never moves.
/// Appends every offered id with dist <= r to `out`, in visit order.
struct RangeCollector {
  double r;
  std::vector<ObjectId>* out;

  double radius() const { return r; }
  void Push(ObjectId id, double dist) {
    if (dist <= r) out->push_back(id);
  }
};

/// One round of a growing-radius MkNNQ: a search at a fixed radius that
/// keeps the exact distance of every object it verifies, so a later
/// round at a larger radius re-reads pages but recomputes no distance.
struct VerifiedCache {
  double r;
  std::unordered_map<ObjectId, double> dist;

  double radius() const { return r; }
  void Push(ObjectId id, double d) { dist.emplace(id, d); }
};

/// True for a collector whose radius never moves during a search (MRQ,
/// one growing-radius round).  A search can then visit its candidates in
/// any order without changing which ones it verifies, so it may skip the
/// nearest-first ordering MkNNQ needs.
template <typename Collector>
inline constexpr bool kFixedRadius =
    std::is_same_v<Collector, RangeCollector> ||
    std::is_same_v<Collector, VerifiedCache>;

/// True when an earlier round already verified `id`: a search skips it
/// before reading its record.
template <typename Collector>
bool Cached(const Collector& c, ObjectId id) {
  if constexpr (std::is_same_v<Collector, VerifiedCache>) {
    return c.dist.count(id) > 0;
  } else {
    return false;
  }
}

/// The bound up to which a bounded verification must be exact: the
/// radius, except in a growing-radius round, whose cached distances are
/// re-tested at larger radii.
template <typename Collector>
double VerifyBound(const Collector& c) {
  if constexpr (std::is_same_v<Collector, VerifiedCache>) {
    return std::numeric_limits<double>::infinity();
  } else {
    return c.radius();
  }
}

/// Lemma 4 (pivot validation) as a collector capability.  At a fixed
/// radius r, an object o with d(o, p_i) <= r - d(q, p_i) for some pivot
/// p_i is a result without computing d(q, o).  `d_o(i)` returns an upper
/// bound of d(o, p_i).  Only MRQ collects this way: MkNNQ and a
/// growing-radius round need o's distance.  Returns true when `id` was
/// collected here.
template <typename Collector, typename UpperBound>
bool CollectValidated(Collector* c, ObjectId id,
                      const std::vector<double>& phi_q, UpperBound d_o) {
  if constexpr (std::is_same_v<Collector, RangeCollector>) {
    for (uint32_t i = 0; i < phi_q.size(); ++i) {
      if (ValidatedByPivot(d_o(i), phi_q[i], c->r)) {
        c->out->push_back(id);
        return true;
      }
    }
  }
  return false;
}

/// MkNNQ as rounds of the fixed-radius search `round(VerifiedCache*)`,
/// from radius max_distance / 256, doubling until k verified objects lie
/// within it or it covers the space.  The rounds re-pay I/O but, through
/// the cache, no distance -- the redundant cost the paper's Fig. 15
/// shows for the basic M-index.  k must be positive.
template <typename Round>
void GrowingRadiusKnn(size_t k, double max_distance, Round round,
                      std::vector<Neighbor>* out) {
  VerifiedCache cache{max_distance / 256, {}};
  while (true) {
    round(&cache);
    size_t within = 0;
    for (const auto& [id, d] : cache.dist) within += d <= cache.r;
    if (within >= k || cache.r >= max_distance) break;
    cache.r = std::min(cache.r * 2, max_distance);
  }
  KnnHeap heap(k);
  for (const auto& [id, d] : cache.dist) heap.Push(id, d);
  heap.TakeSorted(out);
}

/// The node queue of a tree search templated on its collector.  MkNNQ
/// pops the smallest lower bound first (best-first), so its radius
/// shrinks as early as possible.  At a fixed radius every queued bound
/// is <= r and the pop order cannot change which nodes are visited, so
/// the queue is a plain depth-first stack there, without a heap
/// operation per node.  `Item` needs operator>, ordering by lower bound.
template <typename Collector, typename Item>
class NodeQueue {
 public:
  bool empty() const { return items_.empty(); }

  void Push(const Item& item) {
    items_.push_back(item);
    if constexpr (kBestFirst) {
      std::push_heap(items_.begin(), items_.end(), std::greater<>());
    }
  }

  Item Pop() {
    if constexpr (kBestFirst) {
      std::pop_heap(items_.begin(), items_.end(), std::greater<>());
    }
    Item item = items_.back();
    items_.pop_back();
    return item;
  }

 private:
  static constexpr bool kBestFirst = !kFixedRadius<Collector>;
  std::vector<Item> items_;
};

}  // namespace pmi

#endif  // PMI_CORE_KNN_HEAP_H_
