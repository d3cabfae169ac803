// Result collectors for the two query types (Definitions 1 and 2).
//
// Every MkNNQ implementation follows the paper's second strategy
// (Section 2.1): start with radius = infinity and tighten it as verified
// objects arrive.  KnnHeap encapsulates that contract.  An MRQ is the
// same search at a radius that never moves: RangeCollector offers
// KnnHeap's radius()/Push interface at a fixed r, so an index whose
// MkNNQ body is templated on the collector runs both query types
// through that one body (the scan tables, AESA, BKT, FQT, FQA, VPT/MVPT,
// Omni-sequential and EPT*-disk).  kFixedRadius and NodeQueue let such a
// body skip the nearest-first ordering that only MkNNQ needs.

#ifndef PMI_CORE_KNN_HEAP_H_
#define PMI_CORE_KNN_HEAP_H_

#include <algorithm>
#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

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

/// True for a collector whose radius never moves (MRQ).  A search can
/// then visit its candidates in any order without changing which ones
/// it verifies, so it may skip the nearest-first ordering MkNNQ needs.
template <typename Collector>
inline constexpr bool kFixedRadius =
    std::is_same_v<Collector, RangeCollector>;

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
