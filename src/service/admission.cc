#include "src/service/admission.h"

#include <algorithm>

namespace pmi {

bool AdmissionQueue::Enter() {
  std::unique_lock<std::mutex> lock(mu_);
  const bool must_wait = stats_.in_flight >= workers_ || stats_.depth > 0;
  if (stopping_ || (must_wait && stats_.depth >= capacity_)) {
    ++stats_.rejected;
    return false;
  }
  ++stats_.accepted;
  if (must_wait) {
    const uint64_t ticket = next_ticket_++;
    ++stats_.depth;
    stats_.peak_depth = std::max(stats_.peak_depth, stats_.depth);
    cv_.wait(lock, [&] {
      return ticket == now_serving_ && stats_.in_flight < workers_;
    });
    ++now_serving_;
    --stats_.depth;
    // More than one slot may be free: let the next ticket check.
    if (stats_.depth > 0) cv_.notify_all();
  }
  ++stats_.in_flight;
  return true;
}

void AdmissionQueue::Leave() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --stats_.in_flight;
    ++stats_.executed;
  }
  // Wakes the next ticket, or Shutdown() once the gate is empty.
  cv_.notify_all();
}

void AdmissionQueue::Shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  stopping_ = true;
  cv_.wait(lock, [&] { return stats_.in_flight == 0 && stats_.depth == 0; });
}

AdmissionQueue::Stats AdmissionQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace pmi
