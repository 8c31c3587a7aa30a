// worker_pool.h — a fixed-size verification worker pool.
//
// The witness hot path is embarrassingly parallel: independent payments
// touch disjoint coins, and the striped WitnessService (src/ecash/witness)
// lets concurrent sign_transcript calls proceed as long as they land on
// different stripes.  This pool is the pipeline in front of it:
// transport::TcpNet runs every endpoint strand's handlers on it, and a
// caller may submit one task per payment; `drain()` is the barrier at the
// end of a wave.
//
// Lock discipline: the queue mutex sits ABOVE the service level (kPool)
// because tasks always run with it released — a worker dequeues under the
// lock, drops it, then executes.  Submitting from inside a task or while
// holding a service lock would be flagged by the lock-order checker, which
// is intentional: both are liveness hazards (a full queue would deadlock
// against its own workers).

#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "sync/annotated.h"

namespace p2pcash::obs {
class Histogram;
class MetricsRegistry;
}  // namespace p2pcash::obs

namespace p2pcash::verify {

class WorkerPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `threads` workers (at least 1).
  explicit WorkerPool(std::size_t threads);
  /// Drains outstanding work, then joins the workers.
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues a task.  Tasks run in submission order per worker pickup,
  /// with no ordering guarantee across workers.
  void submit(Task task);

  /// Blocks until every submitted task has finished executing (queue empty
  /// AND no task in flight).  New submissions during a drain extend it.
  void drain();

  /// Wires the pool's dark corners into a metrics registry:
  ///   <prefix>queue_delay_ms   histogram — submit-to-dequeue latency
  ///   <prefix>drain_batch      histogram — consecutive tasks one worker
  ///                            ran without blocking (the natural batch
  ///                            the queue formed under load)
  /// `clock` stamps submissions (same seam as obs::Tracer — wall-clock
  /// under TcpNet, sim-time in tests).  Call BEFORE the first submit();
  /// the histograms are recorded with the pool lock released, so no lock
  /// ordering is introduced beyond kPool → (registry internals).
  void instrument(obs::MetricsRegistry& registry, const std::string& prefix,
                  std::function<double()> clock);

 private:
  void worker_loop();

  mutable sync::Mutex mu_{"verify.worker_pool", sync::level::kPool};
  sync::CondVar work_cv_;   // signalled on submit and shutdown
  sync::CondVar idle_cv_;   // signalled when a task retires
  struct QueuedTask {
    Task fn;
    double enqueued_ms = 0;  ///< clock at submit (0 when uninstrumented)
  };
  std::deque<QueuedTask> queue_ P2P_GUARDED_BY(mu_);
  std::size_t in_flight_ P2P_GUARDED_BY(mu_) = 0;
  bool stopping_ P2P_GUARDED_BY(mu_) = false;
  // Instrumentation seams; set once by instrument() before any submit,
  // then read-only (workers read them without the lock).
  std::function<double()> clock_;
  obs::Histogram* queue_delay_ms_ = nullptr;
  obs::Histogram* drain_batch_ = nullptr;
  std::vector<std::thread> workers_;
};

}  // namespace p2pcash::verify
