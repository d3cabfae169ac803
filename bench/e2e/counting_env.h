// Counting Env decorator for the end-to-end benchmark's traced run.
//
// Passed to the durable service through DurabilityOptions::env, it
// forwards every call to a base Env and records what the storage layer
// asked of it: bytes appended to WAL and checkpoint files, WAL syncs,
// and the time each WAL append and sync took.  It observes; it never
// changes an outcome.  Files are classified by name, following the
// durable MetricDB layout ("wal-<gen>.log", "ckpt-<gen>.pmidb[.tmp]").

#ifndef PMI_BENCH_E2E_COUNTING_ENV_H_
#define PMI_BENCH_E2E_COUNTING_ENV_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/storage/env.h"

namespace pmi {

class CountingEnv final : public Env {
 public:
  /// Cumulative counts; the sample vectors only grow, so a delta over a
  /// window is the counters' difference plus the samples' tail.
  struct Stats {
    uint64_t wal_bytes = 0;
    uint64_t wal_syncs = 0;
    uint64_t checkpoint_bytes = 0;
    std::vector<double> wal_sync_ms;
    std::vector<double> wal_append_us;
  };

  /// `base` must outlive this env.
  explicit CountingEnv(Env* base) : base_(base) {}

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    StatusOr<std::unique_ptr<WritableFile>> file = base_->NewWritableFile(path);
    if (!file.ok()) return file.status();
    return std::unique_ptr<WritableFile>(
        new File(this, KindOf(path), std::move(*file)));
  }
  Status CreateExclusive(const std::string& path,
                         std::string_view contents) override {
    return base_->CreateExclusive(path, contents);
  }
  StatusOr<std::unique_ptr<FileLock>> LockFile(
      const std::string& path) override {
    return base_->LockFile(path);
  }
  StatusOr<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    return base_->NewRandomAccessFile(path);
  }
  StatusOr<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  StatusOr<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }
  Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status SyncDir(const std::string& dir) override {
    return base_->SyncDir(dir);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }

 private:
  enum class Kind { kWal, kCheckpoint, kOther };
  using Clock = std::chrono::steady_clock;

  static Kind KindOf(const std::string& path) {
    const size_t slash = path.find_last_of('/');
    const std::string_view base = std::string_view(path).substr(
        slash == std::string::npos ? 0 : slash + 1);
    if (base.rfind("wal-", 0) == 0) return Kind::kWal;
    if (base.rfind("ckpt-", 0) == 0) return Kind::kCheckpoint;
    return Kind::kOther;
  }

  class File final : public WritableFile {
   public:
    File(CountingEnv* env, Kind kind, std::unique_ptr<WritableFile> base)
        : env_(env), kind_(kind), base_(std::move(base)) {}

    Status Append(std::string_view data) override {
      const Clock::time_point t0 = Clock::now();
      Status s = base_->Append(data);
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      std::lock_guard<std::mutex> lock(env_->mu_);
      if (kind_ == Kind::kWal) {
        env_->stats_.wal_bytes += data.size();
        env_->stats_.wal_append_us.push_back(us);
      } else if (kind_ == Kind::kCheckpoint) {
        env_->stats_.checkpoint_bytes += data.size();
      }
      return s;
    }

    Status Sync() override {
      const Clock::time_point t0 = Clock::now();
      Status s = base_->Sync();
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      if (kind_ == Kind::kWal) {
        std::lock_guard<std::mutex> lock(env_->mu_);
        ++env_->stats_.wal_syncs;
        env_->stats_.wal_sync_ms.push_back(ms);
      }
      return s;
    }

    Status Close() override { return base_->Close(); }

   private:
    CountingEnv* env_;
    Kind kind_;
    std::unique_ptr<WritableFile> base_;
  };

  Env* base_;
  mutable std::mutex mu_;
  Stats stats_;
};

}  // namespace pmi

#endif  // PMI_BENCH_E2E_COUNTING_ENV_H_
