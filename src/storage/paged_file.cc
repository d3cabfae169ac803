#include "src/storage/paged_file.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace pmi {
namespace {

/// A zeroed page buffer.  Allocated apart from its control block (not
/// make_shared) so that it is exactly one page, the size of every pool
/// frame too: a freed page is then reused in place instead of leaving
/// page-plus-a-bit holes that fragment the heap across index rebuilds.
std::shared_ptr<char[]> NewPage(uint32_t page_size) {
  return std::shared_ptr<char[]>(new char[page_size]());
}

}  // namespace

PagedFile::PagedFile(uint32_t page_size, uint32_t cache_bytes,
                     PerfCounters* counters, std::shared_ptr<BufferPool> pool)
    : page_size_(page_size),
      capacity_frames_(std::max<uint32_t>(1, cache_bytes / page_size)),
      counters_(counters),
      pool_(std::move(pool)) {
  assert(page_size_ >= 64);
  if (pool_ == nullptr) {
    pool_ = std::make_shared<BufferPool>(page_size_, cache_bytes);
  }
  assert(pool_->page_size() == page_size_);
  store_id_ = pool_->RegisterStore(this, counters_);
}

PagedFile::~PagedFile() { pool_->UnregisterStore(store_id_); }

std::unique_ptr<PagedFile> PagedFile::Clone(PerfCounters* counters) const {
  auto clone = std::make_unique<PagedFile>(
      page_size_, capacity_frames_ * page_size_, counters, pool_);
  {
    std::lock_guard<std::mutex> lock(pages_mu_);
    clone->pages_ = pages_;  // shares every buffer; see WriteBack
  }
  std::lock_guard<std::mutex> lock(sim_mu_);
  clone->lru_ = lru_;
  for (auto it = clone->lru_.begin(); it != clone->lru_.end(); ++it) {
    clone->resident_[it->id] = it;
  }
  return clone;
}

PageId PagedFile::Allocate() {
  std::lock_guard<std::mutex> lock(pages_mu_);
  pages_.push_back(NewPage(page_size_));
  return static_cast<PageId>(pages_.size() - 1);
}

namespace {

Status PageOutOfRange(const char* verb, PageId id, uint32_t num_pages) {
  return DataLossError(std::string("page ") + verb + " out of range: page " +
                       std::to_string(id) + " of a " +
                       std::to_string(num_pages) + "-page file");
}

}  // namespace

Status PagedFile::ReadInto(PageId page, char* dst) {
  std::lock_guard<std::mutex> lock(pages_mu_);
  assert(page < pages_.size());
  std::memcpy(dst, pages_[page].get(), page_size_);
  return OkStatus();
}

Status PagedFile::WriteBack(PageId page, const char* src) {
  std::lock_guard<std::mutex> lock(pages_mu_);
  assert(page < pages_.size());
  // Copy-on-write: a buffer another file still references is replaced,
  // never overwritten.  A count read as stale-high only costs a copy.
  if (pages_[page].use_count() > 1) {
    pages_[page] = NewPage(page_size_);
  }
  std::memcpy(pages_[page].get(), src, page_size_);
  return OkStatus();
}

Status PagedFile::LogicalRead(PageId id) const {
  if (id >= pages_.size()) return PageOutOfRange("read", id, num_pages());
  std::lock_guard<std::mutex> lock(sim_mu_);
  TouchLocked(id, /*dirty=*/false);
  return OkStatus();
}

StatusOr<PageHandle> PagedFile::ReadPage(PageId id) const {
  PMI_RETURN_IF_ERROR(LogicalRead(id));
  return pool_->Pin(store_id_, id, /*for_write=*/false);
}

StatusOr<PageHandle> PagedFile::WritePage(PageId id, bool load) {
  if (id >= pages_.size()) return PageOutOfRange("write", id, num_pages());
  {
    std::lock_guard<std::mutex> lock(sim_mu_);
    // A wholesale overwrite (load == false) skips the read charge a real
    // buffer manager would also skip; either way the frame becomes dirty.
    auto it = resident_.find(id);
    if (it == resident_.end() && load) {
      ++CounterScope::Active(counters_)->page_reads;
    }
    TouchLocked(id, /*dirty=*/true);
  }
  return pool_->Pin(store_id_, id, /*for_write=*/true, load);
}

PageHandle PagedFile::Read(PageId id) const {
  StatusOr<PageHandle> page = ReadPage(id);
  CheckOk(page.ok() ? OkStatus() : page.status(), "PagedFile::Read");
  return std::move(page).value();
}

PageHandle PagedFile::Write(PageId id, bool load) {
  StatusOr<PageHandle> page = WritePage(id, load);
  CheckOk(page.ok() ? OkStatus() : page.status(), "PagedFile::Write");
  return std::move(page).value();
}

void PagedFile::ReadaheadPages(PageId first, uint32_t count) const {
  if (first >= pages_.size()) return;
  uint32_t avail = num_pages() - first;
  pool_->Readahead(store_id_, first, std::min(count, avail));
}

void PagedFile::Flush() {
  {
    std::lock_guard<std::mutex> lock(sim_mu_);
    for (SimFrame& f : lru_) {
      if (f.dirty) {
        ++CounterScope::Active(counters_)->page_writes;
        f.dirty = false;
      }
    }
  }
  // The in-memory backing store never fails a write-back.
  CheckOk(pool_->FlushStore(store_id_), "PagedFile::Flush");
}

void PagedFile::DropCache() {
  Flush();
  {
    std::lock_guard<std::mutex> lock(sim_mu_);
    lru_.clear();
    resident_.clear();
  }
  pool_->DropStore(store_id_);
}

const char* PagedFile::RawPage(PageId id) const {
  CheckOk(pool_->FlushPageIfDirty(store_id_, id), "PagedFile::RawPage");
  std::lock_guard<std::mutex> lock(pages_mu_);
  return pages_[id].get();
}

void PagedFile::ResetPages() {
  pool_->DropStore(store_id_);
  {
    std::lock_guard<std::mutex> lock(sim_mu_);
    lru_.clear();
    resident_.clear();
  }
  std::lock_guard<std::mutex> lock(pages_mu_);
  pages_.clear();
}

char* PagedFile::AppendRawPage() {
  std::lock_guard<std::mutex> lock(pages_mu_);
  pages_.push_back(NewPage(page_size_));
  return pages_.back().get();
}

void PagedFile::TouchLocked(PageId id, bool dirty) const {
  auto it = resident_.find(id);
  if (it != resident_.end()) {
    it->second->dirty |= dirty;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (!dirty) {
    ++CounterScope::Active(counters_)->page_reads;  // pool miss, read path
  }
  lru_.push_front(SimFrame{id, dirty});
  resident_[id] = lru_.begin();
  EvictIfNeeded();
}

void PagedFile::EvictIfNeeded() const {
  while (lru_.size() > capacity_frames_) {
    SimFrame victim = lru_.back();
    lru_.pop_back();
    resident_.erase(victim.id);
    if (victim.dirty) ++CounterScope::Active(counters_)->page_writes;
  }
}

}  // namespace pmi
