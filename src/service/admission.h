// Bounded FIFO admission gate: the service's backpressure seam.
//
// Every ShardedService request (query or update) passes this gate and
// then runs on the thread that submitted it.  At most `workers`
// requests run at once; up to `capacity` more wait for a turn, in
// arrival (ticket) order.  Admission is fail-fast beyond that: when
// `capacity` requests already wait, Enter() refuses without blocking
// and the caller surfaces a typed kResourceExhausted instead of
// stacking latency unboundedly.  Deadline enforcement happens in the
// service: a request whose deadline passed while it waited still takes
// its turn, then fails fast with kDeadlineExceeded without running.
//
// Shutdown() refuses new entries, then returns once every admitted
// request -- running or still waiting -- has left, so callers already
// inside the gate finish normally.

#ifndef PMI_SERVICE_ADMISSION_H_
#define PMI_SERVICE_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace pmi {

class AdmissionQueue {
 public:
  /// Point-in-time load/throughput counters (test + driver
  /// introspection).  accepted = Enter() successes; rejected = fail-fast
  /// refusals; executed = requests that left the gate.
  struct Stats {
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    uint64_t executed = 0;
    uint32_t depth = 0;       // admitted, waiting for a turn
    uint32_t peak_depth = 0;  // high-water mark of depth
    uint32_t in_flight = 0;   // currently running
  };

  /// Lets `workers` (>= 1) requests run at once and `capacity` (>= 1)
  /// more wait.
  AdmissionQueue(uint32_t workers, uint32_t capacity)
      : workers_(workers), capacity_(capacity) {}

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Admits the caller: returns true once it may run (after waiting its
  /// turn if every worker slot is taken), or false at once when the
  /// wait line is full or the gate is shut.  Every true must be paired
  /// with one Leave().
  bool Enter();

  /// Ends a request admitted by Enter().
  void Leave();

  /// Refuses new entries and returns once nothing runs or waits.
  /// Idempotent.
  void Shutdown();

  Stats stats() const;

 private:
  const uint32_t workers_;
  const uint32_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t next_ticket_ = 0;  // handed to the next request that waits
  uint64_t now_serving_ = 0;  // the waiting ticket admitted next
  bool stopping_ = false;
  Stats stats_;
};

}  // namespace pmi

#endif  // PMI_SERVICE_ADMISSION_H_
