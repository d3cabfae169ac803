// Shared, thread-safe page cache for the disk-resident indexes.
//
// PagedFile (src/storage/paged_file.h) keeps the paper's fixed-size LRU
// *accounting simulation* -- the logical PA numbers every conformance
// test pins.  BufferPool is the *physical* layer underneath it: one
// cache of page frames, shared by any number of stores (each PagedFile
// registers itself as a PageStore), handed out through RAII pin/unpin
// PageHandles so concurrent readers can hold page bytes without copying
// and without racing eviction.
//
// Invariants the pool guarantees (and tests/buffer_pool_test.cc pins):
//
//   * A pinned frame is never evicted and never moves: handle data
//     pointers stay valid for the life of the handle.
//   * Eviction uses the CLOCK sweep and only takes frames with zero
//     pins and a clear reference bit; dirty victims are written back
//     through the Status-based PageStore seam *before* the frame is
//     reused -- a page is never torn.
//   * A faulted write-back never loses data: the victim stays resident
//     and dirty, the failure is counted, and the sweep moves on.  The
//     explicit EvictPage / FlushStore entry points surface the typed
//     Status to the caller.
//   * Progress never deadlocks: when every frame is pinned (e.g. a
//     capacity-1 pool with a parent and child page pinned at once) the
//     pool overcommits a frame past capacity rather than blocking.
//
// Cost accounting: a pool hit charges `pool_hits`, a miss that reaches
// the store charges `physical_reads`, and a write-back charges
// `physical_writes` -- all through CounterScope::Active so parallel
// batch shards attribute physical I/O exactly like logical I/O.  The
// logical page_reads/page_writes are charged by PagedFile's simulation
// and are untouched by pool size: logical PA is bit-identical whether
// the pool holds one frame or the whole file.
//
// Locking: one mutex serializes pool metadata and store I/O (simple and
// TSan-clean; the stores are memcpy-fast in the common in-memory case).
// Every pin of every store takes it, so it spins briefly before parking
// (PoolMutex).  Callers that read many records from one page hold that
// page's pin instead of re-pinning it (RecordFile::Reader), so the
// mutex is taken once per page run, not once per record.
// Pin counts are atomic so handle release never takes the lock (except
// in ASan builds, below), and the eviction sweep's pins==0 check
// (acquire) pairs with the release decrement in PageHandle to order a
// writer's last stores before any write-back read of the frame.
//
// Stale views under AddressSanitizer: frames are never freed, so a
// pointer kept past its handle would read valid memory.  ASan builds
// therefore poison the bytes of every frame no handle pins.  There the
// release of a frame's last pin takes the pool mutex and poisons it,
// Pin unpoisons, and the pool's own loads and write-backs of unpinned
// frames (miss, readahead, eviction, flush) unpoison around the access.
// A read through a view that outlived its pin is then an ASan report.

#ifndef PMI_STORAGE_BUFFER_POOL_H_
#define PMI_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/counters.h"
#include "src/core/status.h"
#include "src/storage/env.h"

// PMI_POISON_FRAMES: 1 in AddressSanitizer builds (see the file comment).
#if defined(__SANITIZE_ADDRESS__)
#define PMI_POISON_FRAMES 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PMI_POISON_FRAMES 1
#endif
#endif
#ifndef PMI_POISON_FRAMES
#define PMI_POISON_FRAMES 0
#endif

namespace pmi {

/// Identifier of a page within one store (one PagedFile).
using PageId = uint32_t;

inline constexpr PageId kInvalidPageId = UINT32_MAX;

class PageHandle;

/// The pool mutex.  Readers of every store enter it once per page pin,
/// for tens of nanoseconds, so concurrent readers meet here constantly,
/// and parking each waiter in the kernel costs far more than the
/// critical section.  PoolMutex retries try_lock for a bounded spin
/// before it blocks like std::mutex.
class PoolMutex {
 public:
  void lock() {
    for (int i = 0; i < kSpins; ++i) {
      if (mu_.try_lock()) return;
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#elif defined(__aarch64__)
      asm volatile("yield");
#endif
    }
    mu_.lock();
  }
  void unlock() { mu_.unlock(); }

 private:
  static constexpr int kSpins = 400;
  std::mutex mu_;
};

/// The backing-store seam under the pool: where page bytes come from on
/// a miss and go to on a write-back.  Both calls are made with the pool
/// mutex held, so implementations need no locking of their own, but
/// must not call back into the pool.
class PageStore {
 public:
  virtual ~PageStore() = default;

  /// Fills `dst` (page_size bytes) with the stored contents of `page`.
  virtual Status ReadInto(PageId page, char* dst) = 0;

  /// Durably stores the page_size bytes at `src` as the new contents of
  /// `page`.  On a non-OK return the previously stored contents must
  /// still be readable (no torn page).
  virtual Status WriteBack(PageId page, const char* src) = 0;
};

/// Cumulative pool-wide statistics; readable concurrently with queries.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t write_backs = 0;
  uint64_t write_back_failures = 0;
  uint64_t readaheads = 0;
};

class BufferPool {
 public:
  /// One cached page plus its bookkeeping.  Public only so PageHandle
  /// can inline data access; not part of the API surface.
  struct Frame {
    std::unique_ptr<char[]> data;
    uint64_t store_id = 0;
    PageId page = kInvalidPageId;
    std::atomic<uint32_t> pins{0};
    bool valid = false;       // holds a live page (in map_)
    bool dirty = false;       // frame newer than the store
    bool referenced = false;  // CLOCK second-chance bit
  };

  /// `cache_bytes` rounds down to whole frames (>= 1 frame).
  BufferPool(uint32_t page_size, size_t cache_bytes);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Adds a store to the pool.  `fallback_counters` receives this
  /// store's physical-I/O charges when no CounterScope is open (may be
  /// null for uncounted stores).  Returns the id used in every other
  /// call.  The store must stay alive until UnregisterStore.
  uint64_t RegisterStore(PageStore* store, PerfCounters* fallback_counters);

  /// Discards the store's frames (dirty ones too, without write-back --
  /// the caller flushed first if it cared) and forgets the store.
  void UnregisterStore(uint64_t store_id);

  /// Pins `page` of `store_id` into a frame and returns a handle.  A
  /// write pin (`for_write`) marks the frame dirty at pin time.  `load`
  /// = false skips the store read on a miss and hands back a zeroed
  /// frame (wholesale overwrite).  Fails only on a store read error or
  /// an unknown store; never on cache pressure (see overcommit above).
  StatusOr<PageHandle> Pin(uint64_t store_id, PageId page, bool for_write,
                           bool load = true);

  /// Best-effort: loads up to `count` pages starting at `first` into
  /// unpinned frames without evicting anything.  Stops early at cache
  /// pressure or a store error.  Charges physical_reads for pages read.
  void Readahead(uint64_t store_id, PageId first, uint32_t count);

  /// Writes back every dirty frame of the store (charging
  /// physical_writes).  On store failure the frame stays dirty and
  /// resident; the first error is returned after all frames are tried.
  Status FlushStore(uint64_t store_id);

  /// Writes back `page` if it is resident and dirty -- uncharged: the
  /// snapshot path uses this to make raw store bytes current, which
  /// models copying the file wholesale, not a paged workload.
  Status FlushPageIfDirty(uint64_t store_id, PageId page);

  /// Evicts one page: write-back if dirty (charged), then frees the
  /// frame.  Not resident is OK.  Pinned is kFailedPrecondition.  A
  /// faulted write-back returns the store's typed error and leaves the
  /// page resident and dirty -- nothing is lost.
  Status EvictPage(uint64_t store_id, PageId page);

  /// Discards the store's frames without write-back (dirty ones too);
  /// the store stays registered.  Used by snapshot load, which replaces
  /// the backing bytes wholesale.
  void DropStore(uint64_t store_id);

  /// Evicts every clean unpinned frame (no store I/O): the cold-cache
  /// reset used by benchmarks.  Dirty frames stay resident.
  void DropCleanFrames();

  BufferPoolStats stats() const;

  uint32_t page_size() const { return page_size_; }
  size_t capacity_frames() const { return capacity_frames_; }

  /// Frames currently holding a live page (may exceed capacity while
  /// overcommitted under pin pressure).
  size_t resident_frames() const;

 private:
  friend class PageHandle;

  struct StoreEntry {
    PageStore* store = nullptr;
    PerfCounters* counters = nullptr;
  };

  static uint64_t FrameKey(uint64_t store_id, PageId page) {
    return (store_id << 32) | uint64_t{page};
  }

  /// A frame ready for reuse: free list, then growth to capacity, then
  /// CLOCK eviction, then overcommit.  Never fails.
  Frame* AcquireFrameLocked();
  Frame* NewFrameLocked();
  Frame* FindVictimLocked();
  void DetachFrameLocked(Frame* f);

  // Poison state of a frame's bytes; no-ops unless PMI_POISON_FRAMES.
  // Every frame with zero pins is poisoned outside the pool mutex.
  void PoisonFrame(const Frame& f) const;
  void UnpoisonFrame(const Frame& f) const;
  /// Re-poisons `f` after a pool access unless a handle pins it.
  void PoisonIfUnpinnedLocked(const Frame& f) const;
#if PMI_POISON_FRAMES
  /// PageHandle's release in poisoning builds: drops one pin under the
  /// mutex, so a concurrent Pin cannot unpoison before the poison.
  void ReleasePin(Frame* f);
#endif

  const uint32_t page_size_;
  const size_t capacity_frames_;

  mutable PoolMutex mu_;
  std::vector<std::unique_ptr<Frame>> frames_;
  std::vector<Frame*> free_;
  size_t clock_hand_ = 0;
  std::unordered_map<uint64_t, Frame*> map_;        // FrameKey -> frame
  std::unordered_map<uint64_t, StoreEntry> stores_;  // store_id -> entry
  uint64_t next_store_id_ = 1;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> write_backs_{0};
  std::atomic<uint64_t> write_back_failures_{0};
  std::atomic<uint64_t> readaheads_{0};
};

/// RAII pin on one pool frame.  While any handle to a frame lives, the
/// frame is not evicted and its data pointer is stable.  Copying
/// re-pins; releasing the last handle makes the frame evictable again
/// (it stays cached until the CLOCK sweep takes it).
class PageHandle {
 public:
  PageHandle() = default;

  PageHandle(const PageHandle& o)
      : pool_(o.pool_), frame_(o.frame_), writable_(o.writable_) {
    // Re-pinning from a live pin: the count is already nonzero, so a
    // relaxed increment cannot race eviction's pins==0 check.
    if (frame_ != nullptr) {
      frame_->pins.fetch_add(1, std::memory_order_relaxed);
    }
  }

  PageHandle& operator=(const PageHandle& o) {
    if (this == &o) return *this;
    if (o.frame_ != nullptr) {
      o.frame_->pins.fetch_add(1, std::memory_order_relaxed);
    }
    Release();
    pool_ = o.pool_;
    frame_ = o.frame_;
    writable_ = o.writable_;
    return *this;
  }

  PageHandle(PageHandle&& o) noexcept
      : pool_(o.pool_), frame_(o.frame_), writable_(o.writable_) {
    o.pool_ = nullptr;
    o.frame_ = nullptr;
    o.writable_ = false;
  }

  PageHandle& operator=(PageHandle&& o) noexcept {
    if (this != &o) {
      Release();
      pool_ = o.pool_;
      frame_ = o.frame_;
      writable_ = o.writable_;
      o.pool_ = nullptr;
      o.frame_ = nullptr;
      o.writable_ = false;
    }
    return *this;
  }

  ~PageHandle() { Release(); }

  /// Read access to the pinned page bytes.
  const char* data() const {
    assert(frame_ != nullptr);
    return frame_->data.get();
  }

  /// Write access; only valid on a handle pinned for_write.
  char* mutable_data() const {
    assert(frame_ != nullptr && writable_);
    return frame_->data.get();
  }

  bool writable() const { return writable_; }
  PageId page() const { return frame_ != nullptr ? frame_->page : kInvalidPageId; }
  explicit operator bool() const { return frame_ != nullptr; }

  /// Drops the pin early (idempotent).
  void Reset() { Release(); }

 private:
  friend class BufferPool;

  PageHandle(BufferPool* pool, BufferPool::Frame* frame, bool writable)
      : pool_(pool), frame_(frame), writable_(writable) {}

  void Release() {
    if (frame_ != nullptr) {
#if PMI_POISON_FRAMES
      pool_->ReleasePin(frame_);
#else
      // Release: orders this handle's stores before any write-back read
      // by an evictor that observes pins == 0 (acquire) under the pool
      // mutex.
      frame_->pins.fetch_sub(1, std::memory_order_release);
#endif
      frame_ = nullptr;
      pool_ = nullptr;
      writable_ = false;
    }
  }

  BufferPool* pool_ = nullptr;
  BufferPool::Frame* frame_ = nullptr;
  bool writable_ = false;
};

/// Log-structured PageStore over the Env seam, for exercising the pool
/// against real (and fault-injected) file I/O.  Every write-back
/// appends a [page_id][crc][bytes] record and syncs; the offset map
/// advances only after a successful sync, so a torn or failed append
/// leaves the previous version of the page readable -- the pool's
/// "never a torn page" contract holds down to the file layer.  Reads of
/// never-written pages return zeroes (a sparse store).
class EnvPageStore : public PageStore {
 public:
  /// `env` must outlive the store; `path` is created/truncated on Open.
  EnvPageStore(Env* env, std::string path, uint32_t page_size);
  ~EnvPageStore() override;

  Status Open();

  Status ReadInto(PageId page, char* dst) override;
  Status WriteBack(PageId page, const char* src) override;

  /// Page ids in durable write-back order (test hook for the crash-safe
  /// ordering invariant).
  const std::vector<PageId>& write_order() const { return write_order_; }

 private:
  Env* env_;
  std::string path_;
  uint32_t page_size_;
  std::unique_ptr<WritableFile> file_;
  std::unordered_map<PageId, uint64_t> offsets_;  // latest durable record
  uint64_t next_offset_ = 0;
  bool resync_needed_ = false;  // failed append left a partial record
  std::vector<PageId> write_order_;
};

}  // namespace pmi

#endif  // PMI_STORAGE_BUFFER_POOL_H_
