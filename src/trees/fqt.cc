#include "src/trees/fqt.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/core/knn_heap.h"

namespace pmi {
namespace {

double IntervalDist(double d, double lo, double hi) {
  if (d < lo) return lo - d;
  if (d > hi) return d - hi;
  return 0;
}

}  // namespace

uint32_t Fqt::Bucket(double d) const {
  uint32_t b = static_cast<uint32_t>(d / bucket_width_);
  return std::min(b, options_.tree_fanout - 1);
}

void Fqt::BuildImpl() {
  assert(metric().discrete() &&
         "FQT supports discrete distance functions only (Section 4.2)");
  assert(!pivots_.empty());
  bucket_width_ =
      std::max(1.0, std::ceil(metric().max_distance() / options_.tree_fanout));
  std::vector<ObjectId> ids(data().size());
  for (ObjectId i = 0; i < data().size(); ++i) ids[i] = i;
  root_ = std::make_unique<Node>();
  BuildNode(root_.get(), std::move(ids), 0);
}

void Fqt::BuildNode(Node* node, std::vector<ObjectId> ids, uint32_t level) {
  // Leaves absorb whole subtrees once all pivots are used up.
  if (ids.size() <= options_.tree_leaf_capacity || level >= pivots_.size()) {
    node->leaf = true;
    node->members = std::move(ids);
    return;
  }
  node->leaf = false;
  node->kids.resize(options_.tree_fanout);
  DistanceComputer d = dist();
  ObjectView pv = pivots_.pivot(level);
  std::vector<std::vector<ObjectId>> buckets(options_.tree_fanout);
  for (ObjectId id : ids) {
    buckets[Bucket(d(pv, data().view(id)))].push_back(id);
  }
  for (uint32_t b = 0; b < options_.tree_fanout; ++b) {
    if (buckets[b].empty()) continue;
    node->kids[b] = std::make_unique<Node>();
    BuildNode(node->kids[b].get(), std::move(buckets[b]), level + 1);
  }
}

// The one body of both query types: best-first for MkNNQ, depth-first
// at MRQ's fixed radius, where every queued bound is <= r and the nodes
// visited and distance calls made are the same in either order.
template <typename Collector>
void Fqt::Search(const ObjectView& q, Collector* c) const {
  if (!root_) return;
  DistanceComputer d = dist();
  std::vector<double> phi_q;
  pivots_.Map(q, d, &phi_q);  // one distance per level, up front
  struct Item {
    double lb;
    const Node* node;
    uint32_t level;
    bool operator>(const Item& o) const { return lb > o.lb; }
  };
  NodeQueue<Collector, Item> queue;
  queue.Push({0, root_.get(), 0});
  while (!queue.empty()) {
    Item item = queue.Pop();
    if (item.lb > c->radius()) break;
    if (item.node->leaf) {
      for (ObjectId id : item.node->members) {
        c->Push(id, d.Bounded(q, data().view(id), c->radius()));
      }
      continue;
    }
    for (uint32_t b = 0; b < item.node->kids.size(); ++b) {
      if (!item.node->kids[b]) continue;
      double lo = b * bucket_width_;
      double hi = lo + bucket_width_;
      double child_lb =
          std::max(item.lb, IntervalDist(phi_q[item.level], lo, hi));
      if (child_lb <= c->radius()) {
        queue.Push({child_lb, item.node->kids[b].get(), item.level + 1});
      }
    }
  }
}

void Fqt::RangeImpl(const ObjectView& q, double r,
                    std::vector<ObjectId>* out) const {
  RangeCollector c{r, out};
  Search(q, &c);
}

void Fqt::KnnImpl(const ObjectView& q, size_t k,
                  std::vector<Neighbor>* out) const {
  KnnHeap heap(k);
  Search(q, &heap);
  heap.TakeSorted(out);
}

void Fqt::InsertInto(Node* node, ObjectId id, uint32_t level) {
  if (node->leaf) {
    node->members.push_back(id);
    if (node->members.size() > options_.tree_leaf_capacity &&
        level < pivots_.size()) {
      std::vector<ObjectId> ids = std::move(node->members);
      node->members.clear();
      BuildNode(node, std::move(ids), level);
    }
    return;
  }
  DistanceComputer d = dist();
  uint32_t b = Bucket(d(pivots_.pivot(level), data().view(id)));
  if (!node->kids[b]) node->kids[b] = std::make_unique<Node>();
  InsertInto(node->kids[b].get(), id, level + 1);
}

bool Fqt::RemoveFrom(Node* node, ObjectId id, const ObjectView& obj,
                     uint32_t level) {
  if (node->leaf) {
    auto it = std::find(node->members.begin(), node->members.end(), id);
    if (it == node->members.end()) return false;
    node->members.erase(it);
    return true;
  }
  DistanceComputer d = dist();
  uint32_t b = Bucket(d(pivots_.pivot(level), obj));
  if (!node->kids[b]) return false;
  return RemoveFrom(node->kids[b].get(), id, obj, level + 1);
}

void Fqt::InsertImpl(ObjectId id) { InsertInto(root_.get(), id, 0); }

void Fqt::RemoveImpl(ObjectId id) {
  RemoveFrom(root_.get(), id, data().view(id), 0);
}

std::unique_ptr<MetricIndex> Fqt::Clone() const {
  auto clone = std::make_unique<Fqt>(options_);
  clone->CopyBaseFrom(*this);
  if (root_) clone->root_ = std::make_unique<Node>(*root_);  // deep copy
  clone->bucket_width_ = bucket_width_;
  return clone;
}

size_t Fqt::NodeBytes(const Node& node) const {
  size_t n = sizeof(Node) + node.members.capacity() * sizeof(ObjectId) +
             node.kids.capacity() * sizeof(std::unique_ptr<Node>);
  for (const auto& kid : node.kids) {
    if (kid) n += NodeBytes(*kid);
  }
  return n;
}

size_t Fqt::memory_bytes() const {
  return (root_ ? NodeBytes(*root_) : 0) + pivots_.memory_bytes() +
         data().total_payload_bytes();
}

}  // namespace pmi
