#include "src/trees/mvpt.h"

#include <algorithm>
#include <cassert>

#include "src/core/knn_heap.h"

namespace pmi {
namespace {

double IntervalDist(double d, double lo, double hi) {
  if (d < lo) return lo - d;
  if (d > hi) return d - hi;
  return 0;
}

}  // namespace

void Mvpt::BuildImpl() {
  assert(!pivots_.empty());
  std::vector<ObjectId> ids(data().size());
  for (ObjectId i = 0; i < data().size(); ++i) ids[i] = i;
  root_ = std::make_unique<Node>();
  BuildNode(root_.get(), std::move(ids), 0);
}

void Mvpt::BuildNode(Node* node, std::vector<ObjectId> ids, uint32_t level) {
  if (ids.size() <= options_.tree_leaf_capacity ||
      ids.size() < size_t(arity_) * 2 || level >= pivots_.size()) {
    node->leaf = true;
    node->members = std::move(ids);
    return;
  }
  node->leaf = false;
  DistanceComputer d = dist();
  ObjectView pv = pivots_.pivot(level);
  std::vector<std::pair<double, ObjectId>> dists;
  dists.reserve(ids.size());
  for (ObjectId id : ids) dists.push_back({d(pv, data().view(id)), id});
  std::sort(dists.begin(), dists.end());

  // Equal-count quantile groups: child i holds ranks [i*sz, (i+1)*sz).
  node->bounds.resize(arity_ + 1);
  node->kids.resize(arity_);
  node->bounds[0] = dists.front().first;
  node->bounds[arity_] = dists.back().first;
  const size_t per = (dists.size() + arity_ - 1) / arity_;
  for (uint32_t i = 0; i < arity_; ++i) {
    size_t b = std::min(dists.size(), i * per);
    size_t e = std::min(dists.size(), (i + 1) * per);
    if (i > 0) node->bounds[i] = b < dists.size() ? dists[b].first : dists.back().first;
    if (b >= e) continue;
    std::vector<ObjectId> sub;
    sub.reserve(e - b);
    for (size_t j = b; j < e; ++j) sub.push_back(dists[j].second);
    node->kids[i] = std::make_unique<Node>();
    BuildNode(node->kids[i].get(), std::move(sub), level + 1);
  }
}

// The one body of both query types: best-first for MkNNQ, depth-first
// at MRQ's fixed radius, where every queued bound is <= r and the nodes
// visited and distance calls made are the same in either order.
template <typename Collector>
void Mvpt::Search(const ObjectView& q, Collector* c) const {
  if (!root_) return;
  DistanceComputer d = dist();
  std::vector<double> phi_q;
  pivots_.Map(q, d, &phi_q);
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
    for (uint32_t i = 0; i < item.node->kids.size(); ++i) {
      if (!item.node->kids[i]) continue;
      double child_lb = std::max(
          item.lb, IntervalDist(phi_q[item.level], item.node->bounds[i],
                                item.node->bounds[i + 1]));
      if (child_lb <= c->radius()) {
        queue.Push({child_lb, item.node->kids[i].get(), item.level + 1});
      }
    }
  }
}

void Mvpt::RangeImpl(const ObjectView& q, double r,
                     std::vector<ObjectId>* out) const {
  RangeCollector c{r, out};
  Search(q, &c);
}

void Mvpt::KnnImpl(const ObjectView& q, size_t k,
                   std::vector<Neighbor>* out) const {
  KnnHeap heap(k);
  Search(q, &heap);
  heap.TakeSorted(out);
}

void Mvpt::InsertInto(Node* node, ObjectId id, uint32_t level) {
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
  double dd = d(pivots_.pivot(level), data().view(id));
  // Interior boundaries are shared between siblings and must never move
  // (shrinking a sibling's interval would orphan its members); only the
  // outermost bounds may expand to absorb out-of-range distances.
  uint32_t pick = 0;
  if (dd < node->bounds.front()) {
    node->bounds.front() = dd;
    pick = 0;
  } else if (dd > node->bounds.back()) {
    node->bounds.back() = dd;
    pick = static_cast<uint32_t>(node->kids.size()) - 1;
  } else {
    for (uint32_t i = 0; i < node->kids.size(); ++i) {
      pick = i;
      if (dd <= node->bounds[i + 1]) break;
    }
  }
  if (!node->kids[pick]) node->kids[pick] = std::make_unique<Node>();
  InsertInto(node->kids[pick].get(), id, level + 1);
}

bool Mvpt::RemoveFrom(Node* node, ObjectId id, const ObjectView& obj,
                      uint32_t level) {
  if (node->leaf) {
    auto it = std::find(node->members.begin(), node->members.end(), id);
    if (it == node->members.end()) return false;
    node->members.erase(it);
    return true;
  }
  DistanceComputer d = dist();
  double dd = d(pivots_.pivot(level), obj);
  // Boundary ties can land in either adjacent child; try all whose
  // interval contains dd.
  for (uint32_t i = 0; i < node->kids.size(); ++i) {
    if (!node->kids[i]) continue;
    if (dd < node->bounds[i] || dd > node->bounds[i + 1]) continue;
    if (RemoveFrom(node->kids[i].get(), id, obj, level + 1)) return true;
  }
  return false;
}

void Mvpt::InsertImpl(ObjectId id) { InsertInto(root_.get(), id, 0); }

void Mvpt::RemoveImpl(ObjectId id) {
  RemoveFrom(root_.get(), id, data().view(id), 0);
}

std::unique_ptr<MetricIndex> Mvpt::Clone() const {
  auto clone = std::make_unique<Mvpt>(options_, arity_);
  clone->CopyBaseFrom(*this);
  if (root_) clone->root_ = std::make_unique<Node>(*root_);  // deep copy
  return clone;
}

void Mvpt::SaveNode(const Node& node, ByteSink* out) const {
  out->PutU8(node.leaf ? 1 : 0);
  if (node.leaf) {
    out->PutVector(node.members);
    return;
  }
  out->PutVector(node.bounds);
  out->PutU32(static_cast<uint32_t>(node.kids.size()));
  for (const auto& kid : node.kids) {
    out->PutU8(kid ? 1 : 0);
    if (kid) SaveNode(*kid, out);
  }
}

Status Mvpt::LoadNode(Node* node, ByteSource* in, uint32_t depth) {
  // Tree depth is bounded by the pivot count (BuildNode stops splitting
  // at level == pivots_.size()); a deeper snapshot is damage, and the
  // bound keeps the recursion safe against a crafted cycle.
  if (depth > pivots_.size() + 1) {
    return DataLossError("MVPT snapshot deeper than the pivot count allows");
  }
  uint8_t leaf = 0;
  PMI_RETURN_IF_ERROR(in->GetU8(&leaf));
  node->leaf = leaf != 0;
  if (node->leaf) {
    PMI_RETURN_IF_ERROR(in->GetVector(&node->members));
    for (ObjectId id : node->members) {
      if (id >= data().size()) {
        return DataLossError("MVPT snapshot references object " +
                             std::to_string(id) + " outside the dataset");
      }
    }
    return OkStatus();
  }
  PMI_RETURN_IF_ERROR(in->GetVector(&node->bounds));
  uint32_t kids = 0;
  PMI_RETURN_IF_ERROR(in->GetU32(&kids));
  if (kids != arity_ || node->bounds.size() != size_t(arity_) + 1) {
    return DataLossError("MVPT snapshot node shape does not match arity");
  }
  node->kids.resize(kids);
  for (uint32_t i = 0; i < kids; ++i) {
    uint8_t present = 0;
    PMI_RETURN_IF_ERROR(in->GetU8(&present));
    if (present == 0) continue;
    node->kids[i] = std::make_unique<Node>();
    PMI_RETURN_IF_ERROR(LoadNode(node->kids[i].get(), in, depth + 1));
  }
  return OkStatus();
}

Status Mvpt::SaveImpl(ByteSink* out) const {
  out->PutU32(arity_);
  out->PutU8(root_ ? 1 : 0);
  if (root_) SaveNode(*root_, out);
  return OkStatus();
}

Status Mvpt::LoadImpl(ByteSource* in) {
  uint32_t arity = 0;
  PMI_RETURN_IF_ERROR(in->GetU32(&arity));
  if (arity != arity_) {
    return DataLossError("MVPT snapshot arity does not match this index");
  }
  uint8_t has_root = 0;
  PMI_RETURN_IF_ERROR(in->GetU8(&has_root));
  root_.reset();
  if (has_root != 0) {
    root_ = std::make_unique<Node>();
    PMI_RETURN_IF_ERROR(LoadNode(root_.get(), in, 0));
  }
  return OkStatus();
}

size_t Mvpt::NodeBytes(const Node& node) const {
  size_t n = sizeof(Node) + node.members.capacity() * sizeof(ObjectId) +
             node.bounds.capacity() * sizeof(double) +
             node.kids.capacity() * sizeof(std::unique_ptr<Node>);
  for (const auto& kid : node.kids) {
    if (kid) n += NodeBytes(*kid);
  }
  return n;
}

size_t Mvpt::memory_bytes() const {
  return (root_ ? NodeBytes(*root_) : 0) + pivots_.memory_bytes() +
         data().total_payload_bytes();
}

}  // namespace pmi
