#include "src/service/supervisor.h"

#include <chrono>
#include <memory>
#include <utility>

#include "src/service/sharded_service.h"

namespace pmi {

namespace {
using SteadyClock = std::chrono::steady_clock;

SteadyClock::duration MsDuration(double ms) {
  return std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}
}  // namespace

const char* ShardHealthName(ShardHealth h) {
  switch (h) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kQuarantined:
      return "quarantined";
    case ShardHealth::kRecovering:
      return "recovering";
    case ShardHealth::kPinnedReadOnly:
      return "pinned-read-only";
  }
  return "unknown";
}

ShardSupervisor::ShardSupervisor(ShardedService* service,
                                 const SupervisorOptions& opts)
    : service_(service), opts_(opts) {}

ShardSupervisor::~ShardSupervisor() { Stop(); }

void ShardSupervisor::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  stop_ = false;
  started_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void ShardSupervisor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

void ShardSupervisor::Nudge() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++nudges_;
  }
  cv_.notify_all();
}

ShardSupervisor::Stats ShardSupervisor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ShardSupervisor::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    const uint64_t seen = nudges_;
    cv_.wait_for(lock, MsDuration(opts_.poll_interval_ms),
                 [&] { return stop_ || nudges_ != seen; });
    if (stop_) break;
    lock.unlock();
    PollOnce();
    lock.lock();
  }
}

void ShardSupervisor::PollOnce() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.health_checks;
  }

  const SteadyClock::time_point now = SteadyClock::now();
  for (uint32_t s = 0; s < service_->slots_.size(); ++s) {
    ShardedService::ShardSlot& slot = *service_->slots_[s];

    // At most one state transition per shard per sweep.  Decide it
    // under the slot lock; run slow I/O (Close/OpenDurable) outside.
    std::shared_ptr<MetricDB> old_db;
    bool recover = false;
    SteadyClock::time_point fault_at{};
    {
      std::lock_guard<std::mutex> lock(slot.mu);
      switch (slot.health) {
        case ShardHealth::kHealthy: {
          if (slot.db == nullptr || slot.db->write_status().ok()) break;
          // Sticky write fault -> quarantine.  Pin a stale view first:
          // MetricDB ReadViews co-own their version, so reads keep
          // flowing while the instance is closed for recovery.
          slot.last_error = slot.db->write_status();
          StatusOr<MetricDB::ReadView> view = slot.db->GetReadView();
          if (view.ok()) slot.stale_view = std::move(*view);
          slot.health = ShardHealth::kQuarantined;
          slot.attempts = 0;
          slot.fault_detected_at = now;
          slot.backoff = std::make_unique<Backoff>(
              BackoffPolicy{opts_.initial_backoff_ms, opts_.max_backoff_ms,
                            opts_.backoff_multiplier},
              opts_.seed ^ (0x9e3779b97f4a7c15ull * (s + 1)));
          const double delay = slot.backoff->NextDelayMs();
          slot.retry_after_ms = delay;
          slot.next_attempt = now + MsDuration(delay);
          std::lock_guard<std::mutex> slock(mu_);
          ++stats_.faults_detected;
          break;
        }
        case ShardHealth::kQuarantined: {
          if (now < slot.next_attempt) break;
          slot.health = ShardHealth::kRecovering;
          old_db = std::move(slot.db);
          fault_at = slot.fault_detected_at;
          recover = true;
          break;
        }
        case ShardHealth::kRecovering:
        case ShardHealth::kPinnedReadOnly:
          break;
      }
    }
    if (!recover) continue;

    // In-place recovery: close the faulted instance (releasing the
    // shard directory LOCK -- OpenDurable must re-take it), then replay
    // the shard's own checkpoint + WAL chain.  In-flight requests that
    // copied the old shared_ptr finish on it; the last owner destroys
    // it after its call returns.
    if (old_db != nullptr) {
      old_db->Close();
      old_db.reset();
    }
    StatusOr<MetricDB> opened =
        MetricDB::OpenDurable(service_->ShardDir(s), service_->dopts_);

    const SteadyClock::time_point done = SteadyClock::now();
    std::lock_guard<std::mutex> lock(slot.mu);
    if (opened.ok()) {
      // Hot-swap: only this slot changes; healthy shards' instances and
      // every already-pinned ReadView stay untouched.
      slot.db = std::make_shared<MetricDB>(std::move(*opened));
      slot.health = ShardHealth::kHealthy;
      slot.stale_view.reset();
      slot.last_error = OkStatus();
      slot.attempts = 0;
      slot.retry_after_ms = 0;
      slot.backoff.reset();
      std::lock_guard<std::mutex> slock(mu_);
      ++stats_.recoveries;
      stats_.last_recovery_ms =
          std::chrono::duration<double, std::milli>(done - fault_at).count();
    } else {
      slot.last_error = opened.status();
      ++slot.attempts;
      {
        std::lock_guard<std::mutex> slock(mu_);
        ++stats_.failed_attempts;
      }
      if (slot.attempts >= opts_.max_recovery_attempts) {
        // Circuit breaker: stop burning I/O on a shard that will not
        // come back; reads keep serving from the stale view, writes
        // stay typed kUnavailable until ResetShard re-arms recovery.
        slot.health = ShardHealth::kPinnedReadOnly;
        slot.retry_after_ms = -1;
        std::lock_guard<std::mutex> slock(mu_);
        ++stats_.breaker_trips;
      } else {
        slot.health = ShardHealth::kQuarantined;
        const double delay = slot.backoff != nullptr
                                 ? slot.backoff->NextDelayMs()
                                 : opts_.initial_backoff_ms;
        slot.retry_after_ms = delay;
        slot.next_attempt = done + MsDuration(delay);
      }
    }
  }
}

}  // namespace pmi
