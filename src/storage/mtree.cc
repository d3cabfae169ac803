#include "src/storage/mtree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace pmi {
namespace {

constexpr uint32_t kHeaderSize = 8;  // u8 leaf | u8 pad | u16 count | u32 used

uint32_t Pad4(uint32_t n) { return (n + 3u) & ~3u; }

// Covering radii and parent distances are stored as float; a plain
// narrowing cast can round *down* and break the upper-bound invariant
// (an object exactly on the ball surface would escape).  Round up.
float FloatCeil(double v) {
  float f = static_cast<float>(v);
  if (double(f) < v) f = std::nextafter(f, std::numeric_limits<float>::max());
  return f;
}

void StoreU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }
uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
void StoreF32(char* p, float v) { std::memcpy(p, &v, 4); }
float LoadF32(const char* p) {
  float v;
  std::memcpy(&v, p, 4);
  return v;
}

}  // namespace

MTree::MTree(PagedFile* file, const Dataset* data, DistanceComputer dist,
             Options options, std::function<void(ObjectId, PageId)> on_place)
    : file_(file),
      data_(data),
      dist_(dist),
      options_(options),
      on_place_(std::move(on_place)),
      rng_(options.seed) {
  assert(!options_.store_pivot_data || options_.num_pivots > 0);
  root_ = file_->Allocate();
  MTreeNode empty;
  StoreNode(root_, empty, /*fresh=*/true);
}

// -- serialization ------------------------------------------------------------
//
// Leaf entry:     [oid u32][pd f32][len u32][obj pad4][phi l*f32]
// Internal entry: [child u32][radius f32][pd f32][len u32][ro pad4][mbb 2l*f32]

size_t MTree::LeafEntryBytes(const MTreeLeafEntry& e) const {
  size_t n = 12 + Pad4(static_cast<uint32_t>(e.obj.size()));
  if (options_.store_pivot_data) n += 4 * options_.num_pivots;
  return n;
}

size_t MTree::InternalEntryBytes(const MTreeInternalEntry& e) const {
  size_t n = 16 + Pad4(static_cast<uint32_t>(e.ro.size()));
  if (options_.store_pivot_data) n += 8 * options_.num_pivots;
  return n;
}

size_t MTree::NodeBytes(const MTreeNode& node) const {
  size_t n = kHeaderSize;
  if (node.is_leaf) {
    for (const auto& e : node.leaves) n += LeafEntryBytes(e);
  } else {
    for (const auto& e : node.children) n += InternalEntryBytes(e);
  }
  return n;
}

bool MTree::Fits(const MTreeNode& node) const {
  return NodeBytes(node) <= file_->page_size();
}

void MTree::StoreNode(PageId page, const MTreeNode& node, bool fresh) {
  assert(Fits(node));
  PageHandle h = file_->Write(page, /*load=*/!fresh);
  char* p = h.mutable_data();
  p[0] = node.is_leaf ? 1 : 0;
  p[1] = 0;
  uint16_t cnt = static_cast<uint16_t>(node.count());
  std::memcpy(p + 2, &cnt, 2);
  char* w = p + kHeaderSize;
  if (node.is_leaf) {
    for (const auto& e : node.leaves) {
      StoreU32(w, e.oid);
      StoreF32(w + 4, e.pd);
      StoreU32(w + 8, static_cast<uint32_t>(e.obj.size()));
      std::memcpy(w + 12, e.obj.data(), e.obj.size());
      w += 12 + Pad4(static_cast<uint32_t>(e.obj.size()));
      if (options_.store_pivot_data) {
        assert(e.phi.size() == options_.num_pivots);
        std::memcpy(w, e.phi.data(), 4 * options_.num_pivots);
        w += 4 * options_.num_pivots;
      }
    }
  } else {
    for (const auto& e : node.children) {
      StoreU32(w, e.child);
      StoreF32(w + 4, e.radius);
      StoreF32(w + 8, e.pd);
      StoreU32(w + 12, static_cast<uint32_t>(e.ro.size()));
      std::memcpy(w + 16, e.ro.data(), e.ro.size());
      w += 16 + Pad4(static_cast<uint32_t>(e.ro.size()));
      if (options_.store_pivot_data) {
        assert(e.mbb.size() == 2 * options_.num_pivots);
        std::memcpy(w, e.mbb.data(), 8 * options_.num_pivots);
        w += 8 * options_.num_pivots;
      }
    }
  }
  StoreU32(p + 4, static_cast<uint32_t>(w - p));
}

MTreeNode MTree::LoadNode(PageId page) const {
  PageHandle h = file_->Read(page);
  const char* p = h.data();
  MTreeNode node;
  node.is_leaf = p[0] != 0;
  uint16_t cnt;
  std::memcpy(&cnt, p + 2, 2);
  const char* r = p + kHeaderSize;
  if (node.is_leaf) {
    node.leaves.resize(cnt);
    for (auto& e : node.leaves) {
      e.oid = LoadU32(r);
      e.pd = LoadF32(r + 4);
      uint32_t len = LoadU32(r + 8);
      e.obj.assign(r + 12, r + 12 + len);
      r += 12 + Pad4(len);
      if (options_.store_pivot_data) {
        e.phi.resize(options_.num_pivots);
        std::memcpy(e.phi.data(), r, 4 * options_.num_pivots);
        r += 4 * options_.num_pivots;
      }
    }
  } else {
    node.children.resize(cnt);
    for (auto& e : node.children) {
      e.child = LoadU32(r);
      e.radius = LoadF32(r + 4);
      e.pd = LoadF32(r + 8);
      uint32_t len = LoadU32(r + 12);
      e.ro.assign(r + 16, r + 16 + len);
      r += 16 + Pad4(len);
      if (options_.store_pivot_data) {
        e.mbb.resize(2 * options_.num_pivots);
        std::memcpy(e.mbb.data(), r, 8 * options_.num_pivots);
        r += 8 * options_.num_pivots;
      }
    }
  }
  return node;
}

void MTree::ReportPlacements(PageId page, const MTreeNode& node) {
  if (!on_place_ || !node.is_leaf) return;
  for (const auto& e : node.leaves) on_place_(e.oid, page);
}

// -- insertion ----------------------------------------------------------------

void MTree::Insert(ObjectId oid, const std::vector<float>& phi) {
  MTreeLeafEntry entry;
  entry.oid = oid;
  std::string buf;
  data_->SerializeObject(oid, &buf);
  entry.obj.assign(buf.begin(), buf.end());
  if (options_.store_pivot_data) {
    assert(phi.size() == options_.num_pivots);
    entry.phi = phi;
  }
  ObjectView dummy;
  SplitOutcome out =
      InsertRec(root_, dummy, /*has_parent=*/false, std::move(entry));
  ++size_;
  if (!out.split) return;
  // Grow a new root holding the two promoted entries.
  MTreeNode new_root;
  new_root.is_leaf = false;
  new_root.children.push_back(std::move(out.replacement));
  new_root.children.push_back(std::move(out.sibling));
  PageId page = file_->Allocate();
  StoreNode(page, new_root, /*fresh=*/true);
  root_ = page;
  ++height_;
}

MTree::SplitOutcome MTree::InsertRec(PageId page, const ObjectView& parent_ro,
                                     bool has_parent, MTreeLeafEntry&& entry) {
  MTreeNode node = LoadNode(page);
  ObjectView obj = ViewOf(entry.obj);
  if (node.is_leaf) {
    entry.pd = has_parent ? static_cast<float>(dist_(obj, parent_ro)) : 0.0f;
    if (on_place_) on_place_(entry.oid, page);
    node.leaves.push_back(std::move(entry));
    if (Fits(node)) {
      StoreNode(page, node);
      return {};
    }
    return SplitNode(page, std::move(node), parent_ro, has_parent);
  }

  // Single-way descent: prefer a child already covering the object
  // (minimum distance); otherwise minimum radius enlargement.
  assert(!node.children.empty());
  size_t best_cover = SIZE_MAX, best_any = 0;
  double best_cover_d = 0, best_enlarge = std::numeric_limits<double>::max();
  std::vector<double> d_cache(node.children.size());
  for (size_t i = 0; i < node.children.size(); ++i) {
    const auto& e = node.children[i];
    double d = dist_(obj, ViewOf(e.ro));
    d_cache[i] = d;
    if (d <= e.radius) {
      if (best_cover == SIZE_MAX || d < best_cover_d) {
        best_cover = i;
        best_cover_d = d;
      }
    } else if (best_cover == SIZE_MAX) {
      double enlarge = d - e.radius;
      if (enlarge < best_enlarge) {
        best_enlarge = enlarge;
        best_any = i;
      }
    }
  }
  size_t idx = best_cover != SIZE_MAX ? best_cover : best_any;
  MTreeInternalEntry& chosen = node.children[idx];
  if (d_cache[idx] > chosen.radius) {
    chosen.radius = FloatCeil(d_cache[idx]);
  }
  if (options_.store_pivot_data) {
    const uint32_t l = options_.num_pivots;
    for (uint32_t j = 0; j < l; ++j) {
      chosen.mbb[j] = std::min(chosen.mbb[j], entry.phi[j]);
      chosen.mbb[l + j] = std::max(chosen.mbb[l + j], entry.phi[j]);
    }
  }
  // Persist the enlargement before descending (the child split path
  // rewrites this node's entry anyway, but the common path needs it).
  ObjectView chosen_ro = ViewOf(chosen.ro);
  SplitOutcome sub =
      InsertRec(chosen.child, chosen_ro, /*has_parent=*/true,
                std::move(entry));
  if (sub.split) {
    // pd of the promoted entries is relative to *this* node's parent.
    if (has_parent) {
      sub.replacement.pd =
          static_cast<float>(dist_(ViewOf(sub.replacement.ro), parent_ro));
      sub.sibling.pd =
          static_cast<float>(dist_(ViewOf(sub.sibling.ro), parent_ro));
    } else {
      sub.replacement.pd = 0;
      sub.sibling.pd = 0;
    }
    node.children[idx] = std::move(sub.replacement);
    node.children.push_back(std::move(sub.sibling));
    if (!Fits(node)) {
      return SplitNode(page, std::move(node), parent_ro, has_parent);
    }
  }
  StoreNode(page, node);
  return {};
}

MTree::SplitOutcome MTree::SplitNode(PageId page, MTreeNode&& node,
                                     const ObjectView& parent_ro,
                                     bool has_parent) {
  const size_t n = node.count();
  assert(n >= 2);
  auto rep_view = [&](size_t i) {
    return node.is_leaf ? ViewOf(node.leaves[i].obj)
                        : ViewOf(node.children[i].ro);
  };

  // Sampled mM_RAD promotion: try `promotion_samples` random candidate
  // pairs, pick the pair minimizing the larger covering radius of the
  // nearest-assignment partition.
  uint32_t tries = std::max<uint32_t>(1, options_.promotion_samples);
  size_t best_a = 0, best_b = 1;
  double best_cost = std::numeric_limits<double>::max();
  std::vector<double> da(n), db(n), best_da(n), best_db(n);
  for (uint32_t t = 0; t < tries; ++t) {
    size_t a = rng_() % n;
    size_t b = rng_() % n;
    if (a == b) b = (b + 1) % n;
    ObjectView va = rep_view(a), vb = rep_view(b);
    double r1 = 0, r2 = 0;
    for (size_t i = 0; i < n; ++i) {
      da[i] = dist_(rep_view(i), va);
      db[i] = dist_(rep_view(i), vb);
      double extra = node.is_leaf ? 0.0 : node.children[i].radius;
      if (da[i] <= db[i]) {
        r1 = std::max(r1, da[i] + extra);
      } else {
        r2 = std::max(r2, db[i] + extra);
      }
    }
    double cost = std::max(r1, r2);
    if (cost < best_cost) {
      best_cost = cost;
      best_a = a;
      best_b = b;
      best_da = da;
      best_db = db;
    }
  }

  MTreeNode part1, part2;
  part1.is_leaf = part2.is_leaf = node.is_leaf;
  double r1 = 0, r2 = 0;
  const uint32_t l = options_.num_pivots;
  std::vector<float> mbb1, mbb2;
  if (options_.store_pivot_data) {
    mbb1.assign(2 * l, 0);
    mbb2.assign(2 * l, 0);
    for (uint32_t j = 0; j < l; ++j) {
      mbb1[j] = mbb2[j] = std::numeric_limits<float>::max();
      mbb1[l + j] = mbb2[l + j] = std::numeric_limits<float>::lowest();
    }
  }
  auto fold_mbb = [&](std::vector<float>& mbb, const float* lo,
                      const float* hi) {
    for (uint32_t j = 0; j < l; ++j) {
      mbb[j] = std::min(mbb[j], lo[j]);
      mbb[l + j] = std::max(mbb[l + j], hi[j]);
    }
  };
  for (size_t i = 0; i < n; ++i) {
    bool to_first = best_da[i] <= best_db[i];
    // Keep the seeds in their own partitions even on ties.
    if (i == best_a) to_first = true;
    if (i == best_b) to_first = false;
    double d = to_first ? best_da[i] : best_db[i];
    if (node.is_leaf) {
      MTreeLeafEntry e = std::move(node.leaves[i]);
      e.pd = static_cast<float>(d);
      if (options_.store_pivot_data) {
        // A point region: both MBB corners are phi itself.
        fold_mbb(to_first ? mbb1 : mbb2, e.phi.data(), e.phi.data());
      }
      (to_first ? r1 : r2) = std::max(to_first ? r1 : r2, d);
      (to_first ? part1 : part2).leaves.push_back(std::move(e));
    } else {
      MTreeInternalEntry e = std::move(node.children[i]);
      e.pd = static_cast<float>(d);
      if (options_.store_pivot_data) {
        fold_mbb(to_first ? mbb1 : mbb2, e.mbb.data(), e.mbb.data() + l);
      }
      (to_first ? r1 : r2) =
          std::max(to_first ? r1 : r2, d + double(e.radius));
      (to_first ? part1 : part2).children.push_back(std::move(e));
    }
  }

  // Routing-object payloads are copies of the promoted representatives
  // (taken before the moves above via the dataset/serialized form).
  SplitOutcome out;
  out.split = true;
  auto make_entry = [&](const MTreeNode& part, size_t seed_idx, double radius,
                        std::vector<float>&& mbb, PageId child_page) {
    MTreeInternalEntry e;
    e.child = child_page;
    e.radius = FloatCeil(radius);
    e.ro = part.is_leaf
               ? part.leaves[seed_idx].obj
               : part.children[seed_idx].ro;
    e.pd = 0;  // caller fills
    if (options_.store_pivot_data) e.mbb = std::move(mbb);
    return e;
  };
  PageId right = file_->Allocate();
  // part1 stays on `page`, part2 on `right`.
  StoreNode(page, part1);
  StoreNode(right, part2, /*fresh=*/true);
  ReportPlacements(page, part1);
  ReportPlacements(right, part2);

  // The promoted routing objects are the seeds; they carry pd == 0 in
  // their partitions by construction (distance to themselves).  An entry
  // that ties at pd == 0 is an identical object and serves equally well.
  size_t s1 = 0, s2 = 0;
  if (node.is_leaf) {
    for (size_t i = 0; i < part1.leaves.size(); ++i) {
      if (part1.leaves[i].pd == 0) s1 = i;
    }
    for (size_t i = 0; i < part2.leaves.size(); ++i) {
      if (part2.leaves[i].pd == 0) s2 = i;
    }
  } else {
    for (size_t i = 0; i < part1.children.size(); ++i) {
      if (part1.children[i].pd == 0) s1 = i;
    }
    for (size_t i = 0; i < part2.children.size(); ++i) {
      if (part2.children[i].pd == 0) s2 = i;
    }
  }
  out.replacement =
      make_entry(part1, s1, r1, std::move(mbb1), page);
  out.sibling = make_entry(part2, s2, r2, std::move(mbb2), right);
  if (has_parent) {
    out.replacement.pd =
        static_cast<float>(dist_(ViewOf(out.replacement.ro), parent_ro));
    out.sibling.pd =
        static_cast<float>(dist_(ViewOf(out.sibling.ro), parent_ro));
  }
  return out;
}

// -- removal ------------------------------------------------------------------

bool MTree::Remove(ObjectId oid) {
  bool removed = RemoveRec(root_, data_->view(oid), oid);
  if (removed) --size_;
  return removed;
}

bool MTree::RemoveRec(PageId page, const ObjectView& obj, ObjectId oid) {
  MTreeNode node = LoadNode(page);
  if (node.is_leaf) {
    for (size_t i = 0; i < node.leaves.size(); ++i) {
      if (node.leaves[i].oid == oid) {
        node.leaves.erase(node.leaves.begin() + i);
        StoreNode(page, node);
        return true;
      }
    }
    return false;
  }
  for (const auto& e : node.children) {
    if (dist_(obj, ViewOf(e.ro)) <= e.radius) {
      if (RemoveRec(e.child, obj, oid)) return true;
    }
  }
  return false;
}

}  // namespace pmi
