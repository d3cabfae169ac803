#include "src/storage/bptree.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

namespace pmi {
namespace {

constexpr uint32_t kHeaderSize = 8;  // u8 leaf | u8 pad | u16 count | u32 next

uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void StoreU64(char* p, uint64_t v) { std::memcpy(p, &v, 8); }

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

void StoreU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }

}  // namespace

BPlusTree::BPlusTree(PagedFile* file, uint32_t value_size, uint32_t agg_dims,
                     PointFn point_fn)
    : file_(file),
      value_size_(value_size),
      agg_dims_(agg_dims),
      point_fn_(std::move(point_fn)) {
  assert(agg_dims_ == 0 || point_fn_);
  // One slot per node stays in reserve so an insert can temporarily
  // overfill the page image before the immediate split.
  uint32_t leaf_slots = (file_->page_size() - kHeaderSize) / leaf_entry_size();
  uint32_t internal_slots =
      (file_->page_size() - kHeaderSize) / internal_entry_size();
  assert(leaf_slots >= 3 && internal_slots >= 3);
  leaf_capacity_ = leaf_slots - 1;
  internal_capacity_ = internal_slots - 1;
  root_ = file_->Allocate();
  SetHeader(file_->Write(root_, /*load=*/false).mutable_data(), /*leaf=*/true,
            0, kInvalidPageId);
}

// -- raw page accessors -------------------------------------------------------

bool BPlusTree::IsLeaf(const char* p) { return p[0] != 0; }

uint32_t BPlusTree::Count(const char* p) {
  uint16_t c;
  std::memcpy(&c, p + 2, 2);
  return c;
}

void BPlusTree::SetHeader(char* p, bool leaf, uint32_t count, PageId next) {
  p[0] = leaf ? 1 : 0;
  p[1] = 0;
  uint16_t c = static_cast<uint16_t>(count);
  std::memcpy(p + 2, &c, 2);
  StoreU32(p + 4, next);
}

void BPlusTree::SetCount(char* p, uint32_t count) {
  uint16_t c = static_cast<uint16_t>(count);
  std::memcpy(p + 2, &c, 2);
}

PageId BPlusTree::Next(const char* p) { return LoadU32(p + 4); }

void BPlusTree::SetNext(char* p, PageId next) { StoreU32(p + 4, next); }

char* BPlusTree::LeafEntry(char* p, uint32_t i) const {
  return p + kHeaderSize + size_t(i) * leaf_entry_size();
}

const char* BPlusTree::LeafEntry(const char* p, uint32_t i) const {
  return p + kHeaderSize + size_t(i) * leaf_entry_size();
}

char* BPlusTree::InternalEntry(char* p, uint32_t i) const {
  return p + kHeaderSize + size_t(i) * internal_entry_size();
}

const char* BPlusTree::InternalEntry(const char* p, uint32_t i) const {
  return p + kHeaderSize + size_t(i) * internal_entry_size();
}

// Internal entry layout: [child u32][sep u64][agg lo/hi floats].

uint64_t BPlusTree::NodeView::key(uint32_t i) const {
  if (is_leaf) return LoadU64(raw + kHeaderSize + size_t(i) * tree->leaf_entry_size());
  return LoadU64(raw + kHeaderSize + size_t(i) * tree->internal_entry_size() + 4);
}

const char* BPlusTree::NodeView::value(uint32_t i) const {
  return raw + kHeaderSize + size_t(i) * tree->leaf_entry_size() + 8;
}

PageId BPlusTree::NodeView::child(uint32_t i) const {
  return LoadU32(raw + kHeaderSize + size_t(i) * tree->internal_entry_size());
}

const float* BPlusTree::NodeView::agg_lo(uint32_t i) const {
  return reinterpret_cast<const float*>(
      raw + kHeaderSize + size_t(i) * tree->internal_entry_size() + 12);
}

const float* BPlusTree::NodeView::agg_hi(uint32_t i) const {
  return agg_lo(i) + tree->agg_dims_;
}

PageId BPlusTree::NodeView::next() const { return Next(raw); }

BPlusTree::NodeView BPlusTree::ReadNode(PageId page) const {
  NodeView v;
  v.pin = file_->Read(page);
  v.raw = v.pin.data();
  v.is_leaf = IsLeaf(v.raw);
  v.count = Count(v.raw);
  v.tree = this;
  return v;
}

// -- summaries ----------------------------------------------------------------

BPlusTree::Summary BPlusTree::ComputeSummary(PageId page) const {
  NodeView node = ReadNode(page);
  Summary s;
  s.agg.assign(2 * agg_dims_, 0);
  for (uint32_t d = 0; d < agg_dims_; ++d) {
    s.agg[d] = std::numeric_limits<float>::max();
    s.agg[agg_dims_ + d] = std::numeric_limits<float>::lowest();
  }
  std::vector<float> points;
  if (node.is_leaf && agg_dims_ > 0) {
    points.resize(size_t(node.count) * agg_dims_);
    point_fn_(node, points.data());
  }
  for (uint32_t i = 0; i < node.count; ++i) {
    s.max_key = std::max(s.max_key, node.key(i));
    if (agg_dims_ == 0) continue;
    const float* lo = node.is_leaf ? &points[size_t(i) * agg_dims_]
                                   : node.agg_lo(i);
    const float* hi = node.is_leaf ? lo : node.agg_hi(i);
    for (uint32_t d = 0; d < agg_dims_; ++d) {
      s.agg[d] = std::min(s.agg[d], lo[d]);
      s.agg[agg_dims_ + d] = std::max(s.agg[agg_dims_ + d], hi[d]);
    }
  }
  return s;
}

void BPlusTree::WriteInternalEntry(char* node, uint32_t i, PageId child,
                                   const Summary& s) const {
  char* e = InternalEntry(node, i);
  StoreU32(e, child);
  StoreU64(e + 4, s.max_key);
  if (agg_dims_ > 0) {
    std::memcpy(e + 12, s.agg.data(), 8 * agg_dims_);
  }
}

// -- insertion ----------------------------------------------------------------

BPlusTree::SplitResult BPlusTree::InsertRec(PageId page, uint64_t key,
                                            const char* value) {
  PageHandle ph = file_->Write(page);
  char* p = ph.mutable_data();
  SplitResult res;
  if (IsLeaf(p)) {
    uint32_t n = Count(p);
    // Position: after the last entry with key <= new key (append-friendly).
    uint32_t pos = n;
    while (pos > 0 && LoadU64(LeafEntry(p, pos - 1)) > key) --pos;
    std::memmove(LeafEntry(p, pos + 1), LeafEntry(p, pos),
                 size_t(n - pos) * leaf_entry_size());
    char* e = LeafEntry(p, pos);
    StoreU64(e, key);
    std::memcpy(e + 8, value, value_size_);
    SetCount(p, ++n);
    ++entry_count_;
    if (n <= leaf_capacity_) {
      res.left = ComputeSummary(page);
      return res;
    }
    // Split: left keeps ceil(n/2).
    uint32_t left_n = n / 2;
    uint32_t right_n = n - left_n;
    PageId right = file_->Allocate();
    PageHandle rh = file_->Write(right, /*load=*/false);
    char* rp = rh.mutable_data();
    SetHeader(rp, /*leaf=*/true, right_n, Next(p));
    std::memcpy(LeafEntry(rp, 0), LeafEntry(p, left_n),
                size_t(right_n) * leaf_entry_size());
    SetCount(p, left_n);
    SetNext(p, right);
    res.split = true;
    res.right_page = right;
    res.left = ComputeSummary(page);
    res.right = ComputeSummary(right);
    return res;
  }

  // Internal: first child whose separator (max key) >= key, else last.
  uint32_t n = Count(p);
  assert(n > 0);
  uint32_t idx = 0;
  while (idx + 1 < n && LoadU64(InternalEntry(p, idx) + 4) < key) ++idx;
  PageId child = LoadU32(InternalEntry(p, idx));
  SplitResult sub = InsertRec(child, key, value);
  ph = file_->Write(page);  // re-touch (child writes shifted the LRU)
  p = ph.mutable_data();
  WriteInternalEntry(p, idx, child, sub.left);
  if (sub.split) {
    std::memmove(InternalEntry(p, idx + 2), InternalEntry(p, idx + 1),
                 size_t(n - idx - 1) * internal_entry_size());
    WriteInternalEntry(p, idx + 1, sub.right_page, sub.right);
    SetCount(p, ++n);
  }
  if (n <= internal_capacity_) {
    res.left = ComputeSummary(page);
    return res;
  }
  uint32_t left_n = n / 2;
  uint32_t right_n = n - left_n;
  PageId right = file_->Allocate();
  PageHandle rh = file_->Write(right, /*load=*/false);
  char* rp = rh.mutable_data();
  SetHeader(rp, /*leaf=*/false, right_n, kInvalidPageId);
  std::memcpy(InternalEntry(rp, 0), InternalEntry(p, left_n),
              size_t(right_n) * internal_entry_size());
  SetCount(p, left_n);
  res.split = true;
  res.right_page = right;
  res.left = ComputeSummary(page);
  res.right = ComputeSummary(right);
  return res;
}

void BPlusTree::Insert(uint64_t key, const char* value) {
  SplitResult res = InsertRec(root_, key, value);
  if (!res.split) return;
  PageId new_root = file_->Allocate();
  PageHandle ph = file_->Write(new_root, /*load=*/false);
  char* p = ph.mutable_data();
  SetHeader(p, /*leaf=*/false, 2, kInvalidPageId);
  WriteInternalEntry(p, 0, root_, res.left);
  WriteInternalEntry(p, 1, res.right_page, res.right);
  root_ = new_root;
  ++height_;
}

// -- removal ------------------------------------------------------------------

bool BPlusTree::RemoveRec(PageId page, uint64_t key, const char* value,
                          uint32_t match_bytes, Summary* updated) {
  PageHandle ch = file_->Read(page);
  const char* cp = ch.data();
  if (IsLeaf(cp)) {
    uint32_t n = Count(cp);
    for (uint32_t i = 0; i < n; ++i) {
      const char* e = LeafEntry(cp, i);
      uint64_t k = LoadU64(e);
      if (k > key) break;
      if (k == key && std::memcmp(e + 8, value, match_bytes) == 0) {
        PageHandle wh = file_->Write(page);
        char* wp = wh.mutable_data();
        std::memmove(LeafEntry(wp, i), LeafEntry(wp, i + 1),
                     size_t(n - i - 1) * leaf_entry_size());
        SetCount(wp, n - 1);
        --entry_count_;
        *updated = ComputeSummary(page);
        return true;
      }
    }
    return false;
  }
  uint32_t n = Count(cp);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t sep = LoadU64(InternalEntry(cp, i) + 4);
    if (sep < key) continue;  // child max < key: cannot contain it
    PageId child = LoadU32(InternalEntry(cp, i));
    Summary child_sum;
    if (RemoveRec(child, key, value, match_bytes, &child_sum)) {
      PageHandle wh = file_->Write(page);
      char* wp = wh.mutable_data();
      WriteInternalEntry(wp, i, child, child_sum);
      *updated = ComputeSummary(page);
      return true;
    }
    // Duplicate keys may straddle children; keep trying while sep == key.
    if (sep > key) break;
    ch = file_->Read(page);
    cp = ch.data();
  }
  return false;
}

bool BPlusTree::Remove(uint64_t key, const char* value, uint32_t match_bytes) {
  Summary ignored;
  return RemoveRec(root_, key, value, match_bytes, &ignored);
}

// -- bulk load ----------------------------------------------------------------

void BPlusTree::BulkLoad(
    const std::vector<std::pair<uint64_t, std::vector<char>>>& sorted) {
  // Fill leaves left-to-right at ~90% occupancy, then build levels up.
  entry_count_ = sorted.size();
  struct ChildSummary {
    PageId page;
    Summary s;
  };
  std::vector<ChildSummary> level;
  const uint32_t leaf_fill = std::max<uint32_t>(2, leaf_capacity_ * 9 / 10);
  size_t i = 0;
  PageId prev = kInvalidPageId;
  if (sorted.empty()) {
    root_ = file_->Allocate();
    SetHeader(file_->Write(root_, /*load=*/false).mutable_data(), true, 0,
              kInvalidPageId);
    height_ = 1;
    return;
  }
  while (i < sorted.size()) {
    uint32_t take = static_cast<uint32_t>(
        std::min<size_t>(leaf_fill, sorted.size() - i));
    // Avoid a dribble leaf: rebalance the last two.
    if (sorted.size() - i - take > 0 && sorted.size() - i - take < 2) {
      take = static_cast<uint32_t>(sorted.size() - i) / 2;
    }
    PageId page = file_->Allocate();
    PageHandle h = file_->Write(page, /*load=*/false);
    char* p = h.mutable_data();
    SetHeader(p, /*leaf=*/true, take, kInvalidPageId);
    for (uint32_t j = 0; j < take; ++j) {
      char* e = LeafEntry(p, j);
      StoreU64(e, sorted[i + j].first);
      assert(sorted[i + j].second.size() == value_size_);
      std::memcpy(e + 8, sorted[i + j].second.data(), value_size_);
    }
    if (prev != kInvalidPageId) {
      SetNext(file_->Write(prev).mutable_data(), page);
    }
    prev = page;
    level.push_back({page, ComputeSummary(page)});
    i += take;
  }
  height_ = 1;
  const uint32_t int_fill = std::max<uint32_t>(2, internal_capacity_ * 9 / 10);
  while (level.size() > 1) {
    std::vector<ChildSummary> up;
    size_t j = 0;
    while (j < level.size()) {
      uint32_t take = static_cast<uint32_t>(
          std::min<size_t>(int_fill, level.size() - j));
      if (level.size() - j - take > 0 && level.size() - j - take < 2) {
        take = static_cast<uint32_t>(level.size() - j) / 2;
      }
      PageId page = file_->Allocate();
      PageHandle h = file_->Write(page, /*load=*/false);
      char* p = h.mutable_data();
      SetHeader(p, /*leaf=*/false, take, kInvalidPageId);
      for (uint32_t t = 0; t < take; ++t) {
        WriteInternalEntry(p, t, level[j + t].page, level[j + t].s);
      }
      up.push_back({page, ComputeSummary(page)});
      j += take;
    }
    level = std::move(up);
    ++height_;
  }
  root_ = level[0].page;
}

// -- scan ---------------------------------------------------------------------

void BPlusTree::Scan(
    uint64_t lo, uint64_t hi,
    const std::function<bool(uint64_t, const char*)>& fn) const {
  // Descend to the leftmost leaf that may hold `lo`.
  PageId page = root_;
  PageHandle h = file_->Read(page);
  const char* p = h.data();
  while (!IsLeaf(p)) {
    uint32_t n = Count(p);
    uint32_t idx = 0;
    while (idx + 1 < n && LoadU64(InternalEntry(p, idx) + 4) < lo) ++idx;
    page = LoadU32(InternalEntry(p, idx));
    h = file_->Read(page);
    p = h.data();
  }
  while (true) {
    uint32_t n = Count(p);
    for (uint32_t i = 0; i < n; ++i) {
      const char* e = LeafEntry(p, i);
      uint64_t k = LoadU64(e);
      if (k < lo) continue;
      if (k > hi) return;
      if (!fn(k, e + 8)) return;
    }
    PageId next = Next(p);
    if (next == kInvalidPageId) return;
    page = next;
    h = file_->Read(page);
    p = h.data();
  }
}

}  // namespace pmi
