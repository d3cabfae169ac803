#include "src/trees/bkt.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/core/knn_heap.h"

namespace pmi {
namespace {

/// Distance from value `d` to the interval [lo, hi].
double IntervalDist(double d, double lo, double hi) {
  if (d < lo) return lo - d;
  if (d > hi) return d - hi;
  return 0;
}

}  // namespace

uint32_t Bkt::Bucket(double d) const {
  uint32_t b = static_cast<uint32_t>(d / bucket_width_);
  return std::min(b, options_.tree_fanout - 1);
}

void Bkt::BuildImpl() {
  assert(metric().discrete() &&
         "BKT supports discrete distance functions only (Section 4.1)");
  rng_.seed(options_.seed ^ 0xb17);
  bucket_width_ =
      std::max(1.0, std::ceil(metric().max_distance() / options_.tree_fanout));
  std::vector<ObjectId> ids(data().size());
  for (ObjectId i = 0; i < data().size(); ++i) ids[i] = i;
  root_ = std::make_unique<Node>();
  BuildNode(root_.get(), std::move(ids));
}

void Bkt::BuildNode(Node* node, std::vector<ObjectId> ids) {
  if (ids.size() <= options_.tree_leaf_capacity) {
    node->leaf = true;
    node->members = std::move(ids);
    return;
  }
  node->leaf = false;
  // Random pivot drawn from the node's own objects.
  size_t pi = rng_() % ids.size();
  node->pivot = ids[pi];
  ids[pi] = ids.back();
  ids.pop_back();
  node->kids.resize(options_.tree_fanout);
  DistanceComputer d = dist();
  ObjectView pv = data().view(node->pivot);
  std::vector<std::vector<ObjectId>> buckets(options_.tree_fanout);
  for (ObjectId id : ids) {
    buckets[Bucket(d(pv, data().view(id)))].push_back(id);
  }
  for (uint32_t b = 0; b < options_.tree_fanout; ++b) {
    if (buckets[b].empty()) continue;
    node->kids[b] = std::make_unique<Node>();
    BuildNode(node->kids[b].get(), std::move(buckets[b]));
  }
}

// The one body of both query types: best-first for MkNNQ, depth-first
// at MRQ's fixed radius, where every queued bound is <= r and the nodes
// visited and distance calls made are the same in either order.
template <typename Collector>
void Bkt::Search(const ObjectView& q, Collector* c) const {
  if (!root_) return;
  DistanceComputer d = dist();
  using Item = std::pair<double, const Node*>;  // (lower bound, node)
  NodeQueue<Collector, Item> queue;
  queue.Push({0, root_.get()});
  while (!queue.empty()) {
    auto [lb, node] = queue.Pop();
    if (lb > c->radius()) break;  // best-first: nothing closer remains
    if (node->leaf) {
      for (ObjectId id : node->members) {
        c->Push(id, d.Bounded(q, data().view(id), c->radius()));
      }
      continue;
    }
    // Pivot distances route into buckets, so the full value is needed.
    double dq = d(q, data().view(node->pivot));
    if (node->pivot_live) c->Push(node->pivot, dq);
    for (uint32_t b = 0; b < node->kids.size(); ++b) {
      if (!node->kids[b]) continue;
      double lo = b * bucket_width_;
      double hi = lo + bucket_width_;
      double child_lb = std::max(lb, IntervalDist(dq, lo, hi));
      if (child_lb <= c->radius()) queue.Push({child_lb, node->kids[b].get()});
    }
  }
}

void Bkt::RangeImpl(const ObjectView& q, double r,
                    std::vector<ObjectId>* out) const {
  RangeCollector c{r, out};
  Search(q, &c);
}

void Bkt::KnnImpl(const ObjectView& q, size_t k,
                  std::vector<Neighbor>* out) const {
  KnnHeap heap(k);
  Search(q, &heap);
  heap.TakeSorted(out);
}

void Bkt::SplitLeaf(Node* node) {
  std::vector<ObjectId> ids = std::move(node->members);
  node->members.clear();
  BuildNode(node, std::move(ids));
}

void Bkt::InsertInto(Node* node, ObjectId id) {
  if (node->leaf) {
    node->members.push_back(id);
    if (node->members.size() > options_.tree_leaf_capacity) SplitLeaf(node);
    return;
  }
  DistanceComputer d = dist();
  double dd = d(data().view(node->pivot), data().view(id));
  if (dd == 0 && node->pivot == id && !node->pivot_live) {
    node->pivot_live = true;  // resurrecting the routing object itself
    return;
  }
  uint32_t b = Bucket(dd);
  if (!node->kids[b]) node->kids[b] = std::make_unique<Node>();
  InsertInto(node->kids[b].get(), id);
}

bool Bkt::RemoveFrom(Node* node, ObjectId id, const ObjectView& obj) {
  if (node->leaf) {
    auto it = std::find(node->members.begin(), node->members.end(), id);
    if (it == node->members.end()) return false;
    node->members.erase(it);
    return true;
  }
  if (node->pivot == id) {
    if (!node->pivot_live) return false;
    node->pivot_live = false;  // keeps routing, leaves the result set
    return true;
  }
  DistanceComputer d = dist();
  uint32_t b = Bucket(d(data().view(node->pivot), obj));
  if (!node->kids[b]) return false;
  return RemoveFrom(node->kids[b].get(), id, obj);
}

void Bkt::InsertImpl(ObjectId id) { InsertInto(root_.get(), id); }

void Bkt::RemoveImpl(ObjectId id) {
  RemoveFrom(root_.get(), id, data().view(id));
}

std::unique_ptr<MetricIndex> Bkt::Clone() const {
  auto clone = std::make_unique<Bkt>(options_);
  clone->CopyBaseFrom(*this);
  if (root_) clone->root_ = std::make_unique<Node>(*root_);  // deep copy
  clone->bucket_width_ = bucket_width_;
  clone->rng_ = rng_;  // later leaf splits draw the same pivots
  return clone;
}

size_t Bkt::NodeBytes(const Node& node) const {
  size_t n = sizeof(Node) + node.members.capacity() * sizeof(ObjectId) +
             node.kids.capacity() * sizeof(std::unique_ptr<Node>);
  for (const auto& kid : node.kids) {
    if (kid) n += NodeBytes(*kid);
  }
  return n;
}

size_t Bkt::memory_bytes() const {
  return (root_ ? NodeBytes(*root_) : 0) + data().total_payload_bytes();
}

}  // namespace pmi
