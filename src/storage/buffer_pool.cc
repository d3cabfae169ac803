#include "src/storage/buffer_pool.h"

#include <algorithm>
#include <cstring>

#include "src/storage/wal.h"

#if PMI_POISON_FRAMES
#include <sanitizer/asan_interface.h>
#endif

namespace pmi {

BufferPool::BufferPool(uint32_t page_size, size_t cache_bytes)
    : page_size_(page_size),
      capacity_frames_(std::max<size_t>(1, cache_bytes / page_size)) {
  assert(page_size_ >= 64);
}

BufferPool::~BufferPool() {
  // Every store must have unregistered (PagedFile does so in its
  // destructor); remaining frames are just memory.
  assert(stores_.empty());
  for (auto& up : frames_) UnpoisonFrame(*up);
}

void BufferPool::PoisonFrame(const Frame& f) const {
#if PMI_POISON_FRAMES
  ASAN_POISON_MEMORY_REGION(f.data.get(), page_size_);
#else
  (void)f;
#endif
}

void BufferPool::UnpoisonFrame(const Frame& f) const {
#if PMI_POISON_FRAMES
  ASAN_UNPOISON_MEMORY_REGION(f.data.get(), page_size_);
#else
  (void)f;
#endif
}

void BufferPool::PoisonIfUnpinnedLocked(const Frame& f) const {
  if (PMI_POISON_FRAMES && f.pins.load(std::memory_order_acquire) == 0) {
    PoisonFrame(f);
  }
}

#if PMI_POISON_FRAMES
void BufferPool::ReleasePin(Frame* f) {
  std::lock_guard<PoolMutex> lock(mu_);
  if (f->pins.fetch_sub(1, std::memory_order_release) == 1) PoisonFrame(*f);
}
#endif

uint64_t BufferPool::RegisterStore(PageStore* store,
                                   PerfCounters* fallback_counters) {
  std::lock_guard<PoolMutex> lock(mu_);
  uint64_t id = next_store_id_++;
  stores_[id] = StoreEntry{store, fallback_counters};
  return id;
}

void BufferPool::UnregisterStore(uint64_t store_id) {
  std::lock_guard<PoolMutex> lock(mu_);
  for (auto& up : frames_) {
    Frame* f = up.get();
    if (f->valid && f->store_id == store_id) DetachFrameLocked(f);
  }
  stores_.erase(store_id);
}

/// Unlinks a live frame from the page map; pinned frames are reclaimed
/// lazily by the CLOCK sweep once their last handle drops.
void BufferPool::DetachFrameLocked(Frame* f) {
  map_.erase(FrameKey(f->store_id, f->page));
  f->valid = false;
  f->dirty = false;
  f->referenced = false;
  if (f->pins.load(std::memory_order_acquire) == 0) free_.push_back(f);
}

BufferPool::Frame* BufferPool::NewFrameLocked() {
  frames_.push_back(std::make_unique<Frame>());
  Frame* f = frames_.back().get();
  f->data = std::make_unique<char[]>(page_size_);
  return f;
}

BufferPool::Frame* BufferPool::FindVictimLocked() {
  const size_t n = frames_.size();
  if (n == 0) return nullptr;
  // Two full sweeps: the first may only clear reference bits; a frame
  // skipped for a failed write-back is skipped again rather than spun
  // on forever.
  for (size_t step = 0; step < 2 * n; ++step) {
    Frame* f = frames_[clock_hand_].get();
    clock_hand_ = (clock_hand_ + 1) % n;
    // Acquire pairs with the release decrement in PageHandle::Release:
    // once we observe zero pins under the pool mutex, no new pin can
    // appear (pinning requires the mutex) and the last holder's stores
    // are visible to the write-back below.
    if (f->pins.load(std::memory_order_acquire) != 0) continue;
    if (!f->valid) return f;  // detached earlier, reclaim now
    if (f->referenced) {
      f->referenced = false;
      continue;
    }
    if (f->dirty) {
      auto sit = stores_.find(f->store_id);
      assert(sit != stores_.end());
      UnpoisonFrame(*f);
      Status s = sit->second.store->WriteBack(f->page, f->data.get());
      PoisonFrame(*f);
      if (!s.ok()) {
        // Never lose data to make room: the page stays resident and
        // dirty, the failure is counted, the sweep moves on (the pool
        // overcommits if no clean victim exists).
        write_back_failures_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      f->dirty = false;
      write_backs_.fetch_add(1, std::memory_order_relaxed);
      PerfCounters* ctr = CounterScope::Active(sit->second.counters);
      if (ctr != nullptr) ++ctr->physical_writes;
    }
    map_.erase(FrameKey(f->store_id, f->page));
    f->valid = false;
    evictions_.fetch_add(1, std::memory_order_relaxed);
    return f;
  }
  return nullptr;
}

BufferPool::Frame* BufferPool::AcquireFrameLocked() {
  if (!free_.empty()) {
    Frame* f = free_.back();
    free_.pop_back();
    return f;
  }
  if (frames_.size() < capacity_frames_) return NewFrameLocked();
  if (Frame* victim = FindVictimLocked()) return victim;
  // Every frame is pinned (or dirty behind a faulted store): overcommit
  // one frame past capacity so progress never deadlocks.  The extra
  // frame rejoins the CLOCK rotation and is reclaimed under later
  // pressure.
  return NewFrameLocked();
}

StatusOr<PageHandle> BufferPool::Pin(uint64_t store_id, PageId page,
                                     bool for_write, bool load) {
  std::lock_guard<PoolMutex> lock(mu_);
  auto sit = stores_.find(store_id);
  if (sit == stores_.end()) {
    return FailedPreconditionError("buffer pool: pin on unregistered store");
  }
  PerfCounters* ctr = CounterScope::Active(sit->second.counters);
  auto it = map_.find(FrameKey(store_id, page));
  if (it != map_.end()) {
    Frame* f = it->second;
    f->pins.fetch_add(1, std::memory_order_relaxed);
    UnpoisonFrame(*f);
    f->referenced = true;
    if (for_write) f->dirty = true;
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (ctr != nullptr) ++ctr->pool_hits;
    return PageHandle(this, f, for_write);
  }
  Frame* f = AcquireFrameLocked();
  UnpoisonFrame(*f);
  if (load) {
    Status s = sit->second.store->ReadInto(page, f->data.get());
    if (!s.ok()) {
      PoisonFrame(*f);
      free_.push_back(f);
      return s;
    }
    if (ctr != nullptr) ++ctr->physical_reads;
  } else {
    std::memset(f->data.get(), 0, page_size_);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  f->store_id = store_id;
  f->page = page;
  f->valid = true;
  f->dirty = for_write;
  f->referenced = true;
  f->pins.store(1, std::memory_order_relaxed);
  map_[FrameKey(store_id, page)] = f;
  return PageHandle(this, f, for_write);
}

void BufferPool::Readahead(uint64_t store_id, PageId first, uint32_t count) {
  std::lock_guard<PoolMutex> lock(mu_);
  auto sit = stores_.find(store_id);
  if (sit == stores_.end()) return;
  PerfCounters* ctr = CounterScope::Active(sit->second.counters);
  for (uint32_t i = 0; i < count; ++i) {
    PageId page = first + i;
    if (map_.count(FrameKey(store_id, page)) != 0) continue;
    // Readahead never evicts: use only free frames or growth headroom.
    Frame* f = nullptr;
    if (!free_.empty()) {
      f = free_.back();
      free_.pop_back();
    } else if (frames_.size() < capacity_frames_) {
      f = NewFrameLocked();
    } else {
      return;
    }
    UnpoisonFrame(*f);
    Status s = sit->second.store->ReadInto(page, f->data.get());
    PoisonFrame(*f);  // unpinned until a Pin hits it
    if (!s.ok()) {
      free_.push_back(f);
      return;
    }
    if (ctr != nullptr) ++ctr->physical_reads;
    readaheads_.fetch_add(1, std::memory_order_relaxed);
    f->store_id = store_id;
    f->page = page;
    f->valid = true;
    f->dirty = false;
    f->referenced = false;  // first in line for eviction until used
    f->pins.store(0, std::memory_order_relaxed);
    map_[FrameKey(store_id, page)] = f;
  }
}

Status BufferPool::FlushStore(uint64_t store_id) {
  std::lock_guard<PoolMutex> lock(mu_);
  auto sit = stores_.find(store_id);
  if (sit == stores_.end()) {
    return FailedPreconditionError("buffer pool: flush on unregistered store");
  }
  PerfCounters* ctr = CounterScope::Active(sit->second.counters);
  Status first_error;
  for (auto& up : frames_) {
    Frame* f = up.get();
    if (!f->valid || f->store_id != store_id || !f->dirty) continue;
    UnpoisonFrame(*f);
    Status s = sit->second.store->WriteBack(f->page, f->data.get());
    PoisonIfUnpinnedLocked(*f);
    if (!s.ok()) {
      write_back_failures_.fetch_add(1, std::memory_order_relaxed);
      if (first_error.ok()) first_error = s;
      continue;
    }
    f->dirty = false;
    write_backs_.fetch_add(1, std::memory_order_relaxed);
    if (ctr != nullptr) ++ctr->physical_writes;
  }
  return first_error;
}

Status BufferPool::FlushPageIfDirty(uint64_t store_id, PageId page) {
  std::lock_guard<PoolMutex> lock(mu_);
  auto sit = stores_.find(store_id);
  if (sit == stores_.end()) return OkStatus();
  auto it = map_.find(FrameKey(store_id, page));
  if (it == map_.end() || !it->second->dirty) return OkStatus();
  Frame* f = it->second;
  UnpoisonFrame(*f);
  Status s = sit->second.store->WriteBack(f->page, f->data.get());
  PoisonIfUnpinnedLocked(*f);
  if (!s.ok()) {
    write_back_failures_.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  f->dirty = false;
  // Uncharged (no physical_writes): the snapshot path models wholesale
  // file copy, not a paged workload; the pool-level stat still counts.
  write_backs_.fetch_add(1, std::memory_order_relaxed);
  return OkStatus();
}

Status BufferPool::EvictPage(uint64_t store_id, PageId page) {
  std::lock_guard<PoolMutex> lock(mu_);
  auto it = map_.find(FrameKey(store_id, page));
  if (it == map_.end()) return OkStatus();
  Frame* f = it->second;
  if (f->pins.load(std::memory_order_acquire) != 0) {
    return FailedPreconditionError("buffer pool: evicting a pinned page");
  }
  if (f->dirty) {
    auto sit = stores_.find(store_id);
    assert(sit != stores_.end());
    UnpoisonFrame(*f);
    Status s = sit->second.store->WriteBack(f->page, f->data.get());
    PoisonFrame(*f);
    if (!s.ok()) {
      // Typed failure, nothing lost: page stays resident and dirty.
      write_back_failures_.fetch_add(1, std::memory_order_relaxed);
      return s;
    }
    f->dirty = false;
    write_backs_.fetch_add(1, std::memory_order_relaxed);
    PerfCounters* ctr = CounterScope::Active(sit->second.counters);
    if (ctr != nullptr) ++ctr->physical_writes;
  }
  map_.erase(it);
  f->valid = false;
  evictions_.fetch_add(1, std::memory_order_relaxed);
  free_.push_back(f);
  return OkStatus();
}

void BufferPool::DropStore(uint64_t store_id) {
  std::lock_guard<PoolMutex> lock(mu_);
  for (auto& up : frames_) {
    Frame* f = up.get();
    if (f->valid && f->store_id == store_id) DetachFrameLocked(f);
  }
}

void BufferPool::DropCleanFrames() {
  std::lock_guard<PoolMutex> lock(mu_);
  for (auto& up : frames_) {
    Frame* f = up.get();
    if (!f->valid || f->dirty) continue;
    if (f->pins.load(std::memory_order_acquire) != 0) continue;
    map_.erase(FrameKey(f->store_id, f->page));
    f->valid = false;
    f->referenced = false;
    evictions_.fetch_add(1, std::memory_order_relaxed);
    free_.push_back(f);
  }
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.write_backs = write_backs_.load(std::memory_order_relaxed);
  s.write_back_failures = write_back_failures_.load(std::memory_order_relaxed);
  s.readaheads = readaheads_.load(std::memory_order_relaxed);
  return s;
}

size_t BufferPool::resident_frames() const {
  std::lock_guard<PoolMutex> lock(mu_);
  return map_.size();
}

// ---------------------------------------------------------------------------
// EnvPageStore

namespace {
// One write-back record: [page_id u32][crc u32][page bytes].
constexpr size_t kRecordHeaderBytes = 8;

void PutU32(char* dst, uint32_t v) { std::memcpy(dst, &v, sizeof(v)); }
uint32_t GetU32(const char* src) {
  uint32_t v;
  std::memcpy(&v, src, sizeof(v));
  return v;
}
}  // namespace

EnvPageStore::EnvPageStore(Env* env, std::string path, uint32_t page_size)
    : env_(env), path_(std::move(path)), page_size_(page_size) {}

EnvPageStore::~EnvPageStore() = default;

Status EnvPageStore::Open() {
  PMI_ASSIGN_OR_RETURN(file_, env_->NewWritableFile(path_));
  offsets_.clear();
  write_order_.clear();
  next_offset_ = 0;
  return OkStatus();
}

Status EnvPageStore::WriteBack(PageId page, const char* src) {
  if (file_ == nullptr) {
    return FailedPreconditionError("EnvPageStore: WriteBack before Open");
  }
  if (resync_needed_) {
    // A failed append/sync may have left a partial record in the file;
    // re-learn the physical end so the next record lands after it (the
    // offset map never points into the garbage).
    PMI_ASSIGN_OR_RETURN(next_offset_, env_->FileSize(path_));
    resync_needed_ = false;
  }
  std::string record(kRecordHeaderBytes + page_size_, '\0');
  PutU32(&record[0], page);
  PutU32(&record[4], Crc32c(src, page_size_));
  std::memcpy(&record[kRecordHeaderBytes], src, page_size_);
  Status s = file_->Append(record);
  if (s.ok()) s = file_->Sync();
  if (!s.ok()) {
    resync_needed_ = true;
    return s;
  }
  // Only a fully synced record becomes the page's current version: a
  // torn append above leaves the previous offset (or the sparse zero
  // page) readable, so the pool never serves a torn page.
  offsets_[page] = next_offset_;
  next_offset_ += record.size();
  write_order_.push_back(page);
  return OkStatus();
}

Status EnvPageStore::ReadInto(PageId page, char* dst) {
  auto it = offsets_.find(page);
  if (it == offsets_.end()) {
    // Never written back: a sparse store reads as zeroes.
    std::memset(dst, 0, page_size_);
    return OkStatus();
  }
  PMI_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> ra,
                       env_->NewRandomAccessFile(path_));
  std::string buf;
  PMI_RETURN_IF_ERROR(
      ra->Read(it->second, kRecordHeaderBytes + page_size_, &buf));
  if (buf.size() != kRecordHeaderBytes + page_size_) {
    return DataLossError("EnvPageStore: short page record");
  }
  if (GetU32(&buf[0]) != page) {
    return DataLossError("EnvPageStore: page id mismatch");
  }
  if (GetU32(&buf[4]) != Crc32c(&buf[kRecordHeaderBytes], page_size_)) {
    return DataLossError("EnvPageStore: page checksum mismatch");
  }
  std::memcpy(dst, &buf[kRecordHeaderBytes], page_size_);
  return OkStatus();
}

}  // namespace pmi
